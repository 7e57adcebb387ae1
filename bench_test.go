// Benchmark harness: ablation benchmarks for the design choices DESIGN.md
// calls out (eviction batch size, Algorithm 1's redistribution step) and
// micro-benchmarks of the hot paths. The paper's tables and figures are
// reproduced by ddbench, which prints each experiment's wall time.
//
// Run with: go test -bench=. -benchmem
package main

import (
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/estimator"
	"doubledecker/internal/guest"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/hypervisor"
	"doubledecker/internal/policy"
	"doubledecker/internal/radix"
	"doubledecker/internal/sim"
	"doubledecker/internal/workload"
)

const mib = int64(1) << 20

// --- ablations ---------------------------------------------------------------

// contendedRun drives two containers against a small cache under the
// given host configuration and returns the fairness error: how far the
// steady-state split deviates from the configured 60/40 weights.
func contendedRun(b *testing.B, cfg hypervisor.Config) float64 {
	b.Helper()
	engine := sim.New(1)
	host := hypervisor.New(engine, cfg)
	vm := host.NewVM(1, 512*mib, 100)
	c1 := vm.NewContainer("a", 64*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 60})
	c2 := vm.NewContainer("b", 64*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 40})
	wcfg := workload.WebserverConfig{Files: 1600, MeanBlocks: 32, Think: time.Millisecond}
	workload.Start(engine, c1, workload.NewWebserver(wcfg, engine.Rand()), 2)
	workload.Start(engine, c2, workload.NewWebserver(wcfg, engine.Rand()), 2)
	if err := engine.Run(90 * time.Second); err != nil {
		b.Fatal(err)
	}
	mgr := host.Manager()
	u1 := float64(mgr.PoolUsedBytes(cleancache.PoolID(c1.Group().PoolID()), cgroup.StoreMem))
	u2 := float64(mgr.PoolUsedBytes(cleancache.PoolID(c2.Group().PoolID()), cgroup.StoreMem))
	if u1+u2 == 0 {
		return 1
	}
	share := u1 / (u1 + u2)
	err := share - 0.6
	if err < 0 {
		err = -err
	}
	return err
}

// BenchmarkAblationEvictionBatch quantifies the paper's 2 MiB eviction
// batch against smaller and larger batches: fairness error (deviation
// from the configured 60/40 split) is reported per batch size.
func BenchmarkAblationEvictionBatch(b *testing.B) {
	for _, batch := range []int64{64 << 10, 512 << 10, 2 << 20, 8 << 20} {
		batch := batch
		b.Run("batch="+strconv.FormatInt(batch>>10, 10)+"KiB", func(b *testing.B) {
			var errSum float64
			for i := 0; i < b.N; i++ {
				errSum += contendedRun(b, hypervisor.Config{
					Mode:            ddcache.ModeDD,
					MemCacheBytes:   128 * mib,
					EvictBatchBytes: batch,
				})
			}
			b.ReportMetric(errSum/float64(b.N), "fairness-err")
		})
	}
}

// BenchmarkAblationRedistribution compares Algorithm 1 with and without
// the unused-entitlement redistribution term.
func BenchmarkAblationRedistribution(b *testing.B) {
	variants := []struct {
		name string
		sel  func([]policy.Entity, int64) int
	}{
		{"algorithm1", policy.SelectVictim},
		{"no-redistribution", policy.SelectVictimNoRedistribution},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var errSum float64
			for i := 0; i < b.N; i++ {
				errSum += contendedRun(b, hypervisor.Config{
					Mode:           ddcache.ModeDD,
					MemCacheBytes:  128 * mib,
					VictimSelector: v.sel,
				})
			}
			b.ReportMetric(errSum/float64(b.N), "fairness-err")
		})
	}
}

// BenchmarkAblationGlobalVsDD reports the fairness error of the
// nesting-agnostic baseline against DoubleDecker under identical load —
// the motivation experiment as a number.
func BenchmarkAblationGlobalVsDD(b *testing.B) {
	for _, mode := range []ddcache.Mode{ddcache.ModeGlobal, ddcache.ModeDD} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var errSum float64
			for i := 0; i < b.N; i++ {
				errSum += contendedRun(b, hypervisor.Config{
					Mode:          mode,
					MemCacheBytes: 128 * mib,
				})
			}
			b.ReportMetric(errSum/float64(b.N), "fairness-err")
		})
	}
}

// --- concurrent benchmarks ---------------------------------------------------

// newStressManager builds a mem+SSD manager with vms registered guests and
// three pools each (mem, SSD, hybrid), matching the race tests' topology.
func newStressManager(vms int) (*ddcache.Manager, [][]cleancache.PoolID) {
	mgr := ddcache.New(
		ddcache.WithMode(ddcache.ModeDD),
		ddcache.WithMemCapacity(256*mib),
		ddcache.WithSSDCapacity(1<<30),
	)
	stores := []cgroup.StoreType{cgroup.StoreMem, cgroup.StoreSSD, cgroup.StoreHybrid}
	pools := make([][]cleancache.PoolID, vms)
	for v := 0; v < vms; v++ {
		vm := cleancache.VMID(v + 1)
		mgr.RegisterVM(vm, 100)
		for p := 0; p < 3; p++ {
			id, _ := mgr.CreatePool(0, vm, "bench", cgroup.HCacheSpec{Store: stores[p%3], Weight: 50})
			pools[v] = append(pools[v], id)
		}
	}
	return mgr, pools
}

// mixedOp issues one operation from the stress mix (45% put, 40% get, 10%
// page flush, 5% inode flush) and returns its modeled device latency.
func mixedOp(mgr *ddcache.Manager, rng *rand.Rand, vm cleancache.VMID, pools []cleancache.PoolID) time.Duration {
	pool := pools[rng.Intn(len(pools))]
	key := cleancache.Key{Pool: pool, Inode: uint64(1 + rng.Intn(256)), Block: rng.Int63n(512)}
	switch r := rng.Intn(100); {
	case r < 45:
		_, lat := mgr.Put(0, vm, key, 0)
		return lat
	case r < 85:
		_, lat := mgr.Get(0, vm, key)
		return lat
	case r < 95:
		return mgr.FlushPage(0, vm, key)
	default:
		return mgr.FlushInode(0, vm, key.Pool, key.Inode)
	}
}

// BenchmarkConcurrentMixedOps measures raw lock-path throughput of a 4-VM
// mixed workload: each RunParallel worker is pinned to one VM, so the
// per-VM locks shard the contention. Run with -cpu 1,4,8 to see how the
// sharding scales on multi-core hardware.
func BenchmarkConcurrentMixedOps(b *testing.B) {
	mgr, pools := newStressManager(4)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := next.Add(1)
		vmIdx := int(id-1) % 4
		rng := rand.New(rand.NewSource(id))
		for pb.Next() {
			mixedOp(mgr, rng, cleancache.VMID(vmIdx+1), pools[vmIdx])
		}
	})
}

// BenchmarkConcurrentPacedGuests is the closed-loop variant: each worker
// sleeps its operation's modeled device latency before issuing the next
// one, like a guest blocked on I/O. Aggregate throughput then measures how
// much concurrent I/O wait the manager lets guests overlap. RunParallel
// spawns GOMAXPROCS workers, so -cpu 1,4,8 compares 1, 4 and 8 concurrent
// guests even on a single-core host; expect ≥2x aggregate throughput at
// -cpu 8 over -cpu 1. A manager that held its store lock across the device
// wait would flatline instead.
func BenchmarkConcurrentPacedGuests(b *testing.B) {
	mgr, pools := newStressManager(4)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := next.Add(1)
		vmIdx := int(id-1) % 4
		rng := rand.New(rand.NewSource(id))
		for pb.Next() {
			lat := mixedOp(mgr, rng, cleancache.VMID(vmIdx+1), pools[vmIdx])
			if lat < 20*time.Microsecond {
				lat = 20 * time.Microsecond // floor: even a RAM hit blocks the guest briefly
			}
			time.Sleep(lat)
		}
	})
}

// --- micro-benchmarks of the hot paths ---------------------------------------

func BenchmarkDDCachePutGet(b *testing.B) {
	mgr := ddcache.New(ddcache.WithMode(ddcache.ModeDD), ddcache.WithMemCapacity(1<<30))
	mgr.RegisterVM(1, 100)
	pool, _ := mgr.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := cleancache.Key{Pool: pool, Inode: uint64(i % 512), Block: int64(i % 4096)}
		mgr.Put(0, 1, key, 0)
		mgr.Get(0, 1, key)
	}
}

func BenchmarkDDCacheEvictionChurn(b *testing.B) {
	mgr := ddcache.New(ddcache.WithMode(ddcache.ModeDD), ddcache.WithMemCapacity(16*mib))
	mgr.RegisterVM(1, 100)
	pool, _ := mgr.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Every put beyond capacity forces the eviction path.
		mgr.Put(0, 1, cleancache.Key{Pool: pool, Inode: 1, Block: int64(i)}, 0)
	}
}

func BenchmarkRadixInsertGet(b *testing.B) {
	tr := radix.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i % (1 << 20))
		tr.Insert(k, i)
		tr.Get(k)
	}
}

func BenchmarkPolicyVictimSelection(b *testing.B) {
	ents := make([]policy.Entity, 32)
	for i := range ents {
		ents[i] = policy.Entity{Weight: int64(i + 1), Entitlement: 1000, Used: int64(900 + i*10)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.SelectVictim(ents, 100)
	}
}

func BenchmarkEngineScheduling(b *testing.B) {
	engine := sim.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		engine.Step()
	}
}

func BenchmarkMRCTouch(b *testing.B) {
	m := estimator.NewMRC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Touch(uint64(i % 65536))
	}
}

func BenchmarkSHARDSTouch(b *testing.B) {
	s := estimator.NewSHARDS(0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Touch(uint64(i % 65536))
	}
}

func BenchmarkGuestReadHitPath(b *testing.B) {
	engine := sim.New(1)
	host := hypervisor.New(engine, hypervisor.Config{Mode: ddcache.ModeDD, MemCacheBytes: 64 * mib})
	vm := host.NewVM(1, 256*mib, 100)
	c := vm.NewContainer("c", 64*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	f := vm.Allocator().Alloc(1024)
	c.Read(0, f, 0, f.Blocks) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(time.Duration(i), f, int64(i%1024), 1)
	}
}

// BenchmarkGuestReadMissChurn cycles one-block reads over a file four
// times the container's memory limit, so every read misses the page
// cache, inserts a page and reclaims one, whose eviction is put to the
// hypervisor cache.
func BenchmarkGuestReadMissChurn(b *testing.B) {
	engine := sim.New(1)
	host := hypervisor.New(engine, hypervisor.Config{Mode: ddcache.ModeDD, MemCacheBytes: 64 * mib})
	vm := host.NewVM(1, 256*mib, 100)
	c := vm.NewContainer("c", 16*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	f := vm.Allocator().Alloc(4 * 16 * mib / 4096)
	c.Read(0, f, 0, f.Blocks) // warm: the page cache is full and churning
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(time.Duration(i), f, int64(i)%f.Blocks, 1)
	}
}

// BenchmarkAblationHybridStore exercises the hybrid configuration the
// paper describes but defers evaluating: a single workload whose spill
// exceeds its memory entitlement, under pure-memory, pure-SSD and hybrid
// placement. Reported metric is steady throughput in MB/s.
func BenchmarkAblationHybridStore(b *testing.B) {
	stores := []struct {
		name string
		st   cgroup.StoreType
	}{
		{"mem", cgroup.StoreMem},
		{"ssd", cgroup.StoreSSD},
		{"hybrid", cgroup.StoreHybrid},
	}
	for _, sc := range stores {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				engine := sim.New(int64(i + 1))
				host := hypervisor.New(engine, hypervisor.Config{
					Mode:          ddcache.ModeDD,
					MemCacheBytes: 64 * mib,
					SSDCacheBytes: 1 << 30,
				})
				vm := host.NewVM(1, 512*mib, 100)
				c := vm.NewContainer("app", 64*mib, cgroup.HCacheSpec{Store: sc.st, Weight: 100})
				// ~192 MiB set: 64 in the container, 64 in the memory
				// entitlement, the rest spills (to SSD under hybrid).
				r := workload.Start(engine, c, workload.NewWebserver(workload.WebserverConfig{
					Files: 1536, MeanBlocks: 32, Think: time.Millisecond,
				}, engine.Rand()), 2)
				if err := engine.Run(60 * time.Second); err != nil {
					b.Fatal(err)
				}
				mbps += r.MBPerSec(engine.Now())
			}
			b.ReportMetric(mbps/float64(b.N), "MB/s")
		})
	}
}

// BenchmarkAblationDedup measures the physical-memory savings of the
// content-deduplication extension when containers serve clones of a
// golden file set (the paper's related-work direction).
func BenchmarkAblationDedup(b *testing.B) {
	for _, dedup := range []bool{false, true} {
		dedup := dedup
		name := "off"
		if dedup {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var savedMiB float64
			for i := 0; i < b.N; i++ {
				engine := sim.New(int64(i + 1))
				mgr := ddcache.New(
					ddcache.WithMode(ddcache.ModeDD),
					ddcache.WithMemCapacity(512*mib),
					ddcache.WithDedup(dedup),
				)
				mgr.RegisterVM(1, 100)
				front := cleancache.NewFront(1, hypercall.NewTransport(mgr, hypercall.Options{}))
				vm := guest.New(engine, guest.Config{ID: 1, MemBytes: 256 * mib}, front)
				// Two containers read clones of one golden 64 MiB file.
				golden := vm.Allocator().Alloc(16384)
				for _, name := range []string{"a", "b"} {
					c := vm.NewContainer(name, 32*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
					clone := vm.Allocator().AllocCopy(golden)
					c.Read(engine.Now(), clone, 0, clone.Blocks)
				}
				savedMiB += float64(mgr.DedupSavedBytes()) / float64(mib)
			}
			b.ReportMetric(savedMiB/float64(b.N), "saved-MiB")
		})
	}
}

// BenchmarkAblationExclusiveVsInclusive quantifies the paper's §2
// argument for exclusive caching: with an inclusive second-chance cache,
// guest and hypervisor hold duplicate copies and the effective combined
// capacity shrinks. Reported metric is steady-state throughput.
func BenchmarkAblationExclusiveVsInclusive(b *testing.B) {
	for _, inclusive := range []bool{false, true} {
		inclusive := inclusive
		name := "exclusive"
		if inclusive {
			name = "inclusive"
		}
		b.Run(name, func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				engine := sim.New(int64(i + 1))
				mgr := ddcache.New(
					ddcache.WithMode(ddcache.ModeDD),
					ddcache.WithMemCapacity(64*mib),
					ddcache.WithInclusive(inclusive),
				)
				mgr.RegisterVM(1, 100)
				front := cleancache.NewFront(1, hypercall.NewTransport(mgr, hypercall.Options{}))
				vm := guest.New(engine, guest.Config{ID: 1, MemBytes: 256 * mib}, front)
				c := vm.NewContainer("web", 64*mib, cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
				r := workload.Start(engine, c, workload.NewWebserver(workload.WebserverConfig{
					Files: 1200, MeanBlocks: 32, Think: time.Millisecond,
				}, engine.Rand()), 2)
				if err := engine.Run(60 * time.Second); err != nil {
					b.Fatal(err)
				}
				mbps += r.MBPerSec(engine.Now())
			}
			b.ReportMetric(mbps/float64(b.N), "MB/s")
		})
	}
}
