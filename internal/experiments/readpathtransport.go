// Transport-level readpath experiment: streaming guests replay a
// read-heavy workload straight through full hypercall transports in two
// modes — synchronous gets (each paying its own crossing) versus the
// pipelined read path (tagged async gets sharing batch crossings,
// sequential readahead into the staging buffer, zero-copy bulk
// responses) — at 1, 2, 4 and 8 guests. Throughput is gets per modeled
// (virtual) second, so the gate tracks the latency model rather than
// host speed. The "readpath" experiment measures the same contrast end
// to end through the guest page cache.

package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/store"
	"doubledecker/internal/wallclock"
)

// readpath-transport geometry: each guest re-reads 4 files of 16 blocks,
// staging the first half of each file by readahead in async mode.
const (
	rtFiles     = uint64(4)
	rtBlocks    = int64(16)
	rtRAWindow  = int64(8)
	rtMemCap    = int64(256 << 20) // ample: populate never evicts
	rtRounds    = 12
	rtMinRounds = 4
)

// rtMode summarizes one (mode, guest count) cell.
type rtMode struct {
	Label       string // "sync" or "async"
	Calls       int64  // guest/hypervisor crossings
	AsyncGets   int64
	StagedHits  int64
	PagesCopied int64
	PagesMapped int64
	Gets        int64
	VirtualMS   float64 // modeled read-phase time, max over guests
	GetsPerVSec float64
	WallMS      float64
}

// runReadPathTransportMode drives one cell: `guests` concurrent
// streaming readers, each replaying `rounds` sequential passes over its
// own files through a full hypercall transport. With async=false every
// get is a synchronous Submit paying its own crossing; with async=true
// the guest issues a readahead over the first half of each file (staging
// those blocks hypervisor-side) and pipelines the whole file as tagged
// async gets awaited after one flush, with zero-copy bulk responses.
// Each guest gets its own manager and RAM device: the measurement
// isolates transport crossing overhead, and a shared device's
// busy-until queue would couple the guests' independent virtual clocks
// (a guest whose clock runs behind would queue behind fetches other
// guests issued at larger timestamps — a modeling artifact, not
// contention; the scaling experiment covers shared-cache contention).
// Throughput takes the slowest guest's clock since the guests run in
// parallel.
func runReadPathTransportMode(async bool, guests, rounds int) rtMode {
	pools := make([]cleancache.PoolID, guests)
	trs := make([]*hypercall.Transport, guests)
	for g := 0; g < guests; g++ {
		mgr := ddcache.New(
			ddcache.WithMode(ddcache.ModeDD),
			ddcache.WithMemBackend(store.NewMem(blockdev.NewRAM(fmt.Sprintf("readpath%d.ram", g)), rtMemCap)),
			ddcache.WithInclusive(true), // streaming rounds re-read files: keep objects on get
		)
		vm := cleancache.VMID(g + 1)
		mgr.RegisterVM(vm, 100)
		resp := mgr.Dispatch(0, cleancache.Request{
			Op: cleancache.OpCreateCgroup, VM: vm, Name: "rp",
			Spec: cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100},
		})
		pools[g] = resp.Pool
		trs[g] = hypercall.NewTransport(mgr, hypercall.Options{
			AsyncGets: async,
			ZeroCopy:  async,
		})
	}

	virt := make([]time.Duration, guests)
	elapsed := wallclock.Stopwatch()
	var wg sync.WaitGroup
	for g := 0; g < guests; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vm := cleancache.VMID(g + 1)
			pool := pools[g]
			tr := trs[g]
			now := time.Duration(0)
			// Populate every file once; the read rounds then hit 100%.
			for f := uint64(1); f <= rtFiles; f++ {
				for b := int64(0); b < rtBlocks; b++ {
					now += tr.Submit(now, cleancache.Request{
						Op: cleancache.OpPut, VM: vm,
						Key:     cleancache.Key{Pool: pool, Inode: f, Block: b},
						Content: uint64(g+1)<<32 | uint64(b+1),
					}).Latency
				}
			}
			now += tr.Flush(now)
			readStart := now
			for r := 0; r < rounds; r++ {
				for f := uint64(1); f <= rtFiles; f++ {
					if !async {
						for b := int64(0); b < rtBlocks; b++ {
							now += tr.Submit(now, cleancache.Request{
								Op: cleancache.OpGet, VM: vm,
								Key: cleancache.Key{Pool: pool, Inode: f, Block: b},
							}).Latency
						}
						continue
					}
					// Readahead stages the first half of the file; the whole
					// file is then pipelined as tagged gets behind a single
					// flush — staged blocks resolve in-batch without a
					// backend dispatch, the rest overlap.
					now += tr.Submit(now, cleancache.Request{
						Op: cleancache.OpReadAhead, VM: vm,
						Key:   cleancache.Key{Pool: pool, Inode: f, Block: 0},
						Count: rtRAWindow,
					}).Latency
					var pending []*cleancache.PendingGet
					for b := int64(0); b < rtBlocks; b++ {
						pg, lat := tr.SubmitAsync(now, cleancache.Request{
							Op: cleancache.OpGet, VM: vm,
							Key: cleancache.Key{Pool: pool, Inode: f, Block: b},
						})
						now += lat
						pending = append(pending, pg)
					}
					now += tr.Flush(now)
					for _, p := range pending {
						now += tr.Await(now, p).Latency
					}
				}
			}
			virt[g] = now - readStart
		}(g)
	}
	wg.Wait()
	wall := elapsed()

	var maxVirt time.Duration
	for _, v := range virt {
		maxVirt = max(maxVirt, v)
	}
	res := rtMode{
		Label:     "sync",
		Gets:      int64(guests) * int64(rtFiles) * rtBlocks * int64(rounds),
		VirtualMS: float64(maxVirt) / float64(time.Millisecond),
		WallMS:    float64(wall.Milliseconds()),
	}
	for _, tr := range trs {
		s := tr.Stats()
		res.Calls += s.Calls
		res.AsyncGets += s.AsyncGets
		res.StagedHits += s.StagedHits
		res.PagesCopied += s.PagesCopied
		res.PagesMapped += s.PagesMapped
	}
	if async {
		res.Label = "async"
	}
	if maxVirt > 0 {
		res.GetsPerVSec = float64(res.Gets) / maxVirt.Seconds()
	}
	return res
}

// ReadPathTransportExp is the registered "readpath-transport"
// experiment: synchronous gets vs the pipelined read path over raw
// hypercall transports.
func ReadPathTransportExp(o Opts) *Result {
	rounds := o.scaledCount(rtRounds, rtMinRounds)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	r := newResult("readpath-transport", "Pipelined vs synchronous gets over raw hypercall transports")
	t := Table{
		Title: "Read-phase get throughput (virtual time)",
		Columns: []string{"guests", "mode", "gets", "hypercalls", "async gets", "staged hits",
			"pages copied", "pages mapped", "virtual ms", "gets/vsec"},
	}
	ratio := map[int]float64{}
	for _, guests := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(guests)
		syncM := runReadPathTransportMode(false, guests, rounds)
		asyncM := runReadPathTransportMode(true, guests, rounds)
		for _, m := range []rtMode{syncM, asyncM} {
			t.Rows = append(t.Rows, []string{
				f0(float64(guests)), m.Label, f0(float64(m.Gets)), f0(float64(m.Calls)),
				f0(float64(m.AsyncGets)), f0(float64(m.StagedHits)), f0(float64(m.PagesCopied)),
				f0(float64(m.PagesMapped)), f2(m.VirtualMS), f0(m.GetsPerVSec),
			})
			r.addMetrics(fmt.Sprintf("%s.%dg.", m.Label, guests), map[string]float64{
				"cpus":          float64(guests),
				"guests":        float64(guests),
				"gets":          float64(m.Gets),
				"calls":         float64(m.Calls),
				"async_gets":    float64(m.AsyncGets),
				"staged_hits":   float64(m.StagedHits),
				"pages_copied":  float64(m.PagesCopied),
				"pages_mapped":  float64(m.PagesMapped),
				"virtual_ms":    m.VirtualMS,
				"gets_per_vsec": m.GetsPerVSec,
				"wall_ms":       m.WallMS,
			})
		}
		if syncM.GetsPerVSec > 0 {
			ratio[guests] = asyncM.GetsPerVSec / syncM.GetsPerVSec
		}
		r.Metrics[fmt.Sprintf("async_improvement_%dg", guests)] = ratio[guests]
	}
	r.Tables = append(r.Tables, t)
	r.Metrics["rounds"] = float64(rounds)
	r.gate("async_improvement_8g", ">=", 2.0)

	r.note("async read path: %.2fx sync get throughput at 8 guests (1g %.2fx, 2g %.2fx, 4g %.2fx)",
		ratio[8], ratio[1], ratio[2], ratio[4])
	return r
}
