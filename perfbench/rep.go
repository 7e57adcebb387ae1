// ddlint:allow-wallclock — a repetition measures its host wall time.

package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/fsmodel"
	"doubledecker/internal/guest"
	"doubledecker/internal/sim"
)

// recorder collects what the generator observes at its calls into the
// guest: per-call virtual latencies and block counts.
type recorder struct {
	ops                     int64
	readBlocks, writeBlocks int64
	readLat, writeLat       []time.Duration
	opLat                   []time.Duration
}

func (r *recorder) reset() {
	*r = recorder{readLat: r.readLat[:0], writeLat: r.writeLat[:0], opLat: r.opLat[:0]}
}

// guestIO is the generator's handle on one container: every guest call
// goes through it, so it is where samples are taken and, in the traced
// run, where the guest layer's spans open.
type guestIO struct {
	c   *guest.Container
	rec *recorder
	t   *tracer // nil in the timed run
}

func (io *guestIO) read(now time.Duration, f *fsmodel.File, start, n int64) time.Duration {
	n = min(n, f.Blocks-start)
	var lat time.Duration
	if io.t == nil {
		lat = io.c.Read(now, f, start, n)
	} else {
		lat = io.tracedRead(now, f, start, n)
	}
	io.rec.readBlocks += n
	io.rec.readLat = append(io.rec.readLat, lat)
	return lat
}

// tracedRead checks the read identity on each call: every block read is
// a page cache hit, a second-chance hit or a disk read.
func (io *guestIO) tracedRead(now time.Duration, f *fsmodel.File, start, n int64) time.Duration {
	t := io.t
	p := t.pause()
	before := io.c.IOStats()
	t.resume(p)
	t.enter(lGuest, "guest.read")
	lat := io.c.Read(now, f, start, n)
	t.exit(lat)
	p = t.pause()
	after := io.c.IOStats()
	hits, cc, disk := after.Hits-before.Hits, after.CCHits-before.CCHits, after.DiskReads-before.DiskReads
	if hits+cc+disk != n || after.Misses-before.Misses != cc+disk {
		t.fail("read identity: %d blocks gave %d page cache hits, %d second-chance hits, %d disk reads, %d misses",
			n, hits, cc, disk, after.Misses-before.Misses)
	}
	b := &t.b
	b.guestCalls[0]++
	b.readBlocks += n
	b.readHits += hits
	b.readCC += cc
	b.readDisk += disk
	t.resume(p)
	return lat
}

// writeTx writes n blocks and, when sync is set, fsyncs the file; the
// pair is one write sample.
func (io *guestIO) writeTx(now time.Duration, f *fsmodel.File, start, n int64, sync bool) time.Duration {
	n = min(n, f.Blocks-start)
	var lat time.Duration
	if t := io.t; t != nil {
		t.enter(lGuest, "guest.write")
		lat = io.c.Write(now, f, start, n)
		t.exit(lat)
		t.b.guestCalls[1]++
		if sync {
			t.enter(lGuest, "guest.fsync")
			l := io.c.Fsync(now+lat, f)
			t.exit(l)
			t.b.guestCalls[2]++
			lat += l
		}
	} else {
		lat = io.c.Write(now, f, start, n)
		if sync {
			lat += io.c.Fsync(now+lat, f)
		}
	}
	io.rec.writeBlocks += n
	io.rec.writeLat = append(io.rec.writeLat, lat)
	return lat
}

func (io *guestIO) del(now time.Duration, f *fsmodel.File) time.Duration {
	if t := io.t; t != nil {
		t.enter(lGuest, "guest.delete")
		lat := io.c.Delete(now, f)
		t.exit(lat)
		t.b.guestCalls[3]++
		return lat
	}
	return io.c.Delete(now, f)
}

// runtimeSample reads the Go runtime's allocation, GC CPU and heap
// figures.
type runtimeSample struct {
	allocs, allocBytes uint64
	gcCPU, userCPU     float64
	heap               uint64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		userCPU:    s[3].Value.Float64(),
		heap:       s[4].Value.Uint64(),
	}
}

// modeled holds the virtual-time results of one repetition; they repeat
// exactly for a seed.
type modeled struct {
	ops                  int64
	vopsPerS, readMBps   float64
	readMean             float64 // ns
	readP50, readP99     time.Duration
	writeP99, opP99      time.Duration
	reads, writes        int
	readBlocks, wrBlocks int64
}

// hostCost holds the wall-clock results of one repetition.
type hostCost struct {
	setup         time.Duration
	window        time.Duration
	partRates     []float64 // guest ops per host second in each part of the window
	opsPerS       float64
	allocsPerOp   float64
	allocBytesOp  float64
	gcCPU, cpu    float64 // GC and GC+user CPU seconds in the window, from runtime/metrics
	peakHeapBytes uint64
}

// windowParts is how many parts a window's host rate is sampled in.
const windowParts = 8

// repResult is one repetition: build, warm up, measure a window.
type repResult struct {
	model        modeled
	host         hostCost
	before, end  counters
	steps        int64
	scAttempted  int64 // second-chance ops the Fronts submitted
	scFailed     int64 // of them failed or shed
	checkFailed  int64 // ops rejected by the benchmark's checks
	checkReasons []string
	stack        *stack
	samples      *recorder
	hostBefore   [2]blockdev.Stats // host RAM and SSD at the checkpoint (traced stack only)
}

// runRep builds the workload's host (traced when t is set), runs the
// warm-up and then the measured window, driving Engine.Step itself.
func runRep(w workloadSpec, seed int64, t *tracer, shadow bool) repResult {
	runtime.GC()
	peak := uint64(0)
	wall0 := time.Now()
	engine := sim.New(seed)
	var st *stack
	if t == nil {
		st = newHostStack(engine, w.host)
	} else {
		st = newTracedStack(engine, w.host, t, shadow)
	}
	rng := rand.New(rand.NewSource(seed))
	rec := &recorder{}
	for i, vs := range w.vms {
		vm := st.newVM(cleancache.VMID(i+1), vs.memBytes, 100)
		for _, cs := range vs.containers {
			c := vm.NewContainer(cs.name, cs.limitBytes, cs.spec)
			st.containers = append(st.containers, c)
			p := cs.newProfile(rng, c, &guestIO{c: c, rec: rec, t: t})
			startAt := engine.Now()
			if p.load != nil {
				startAt += p.load(startAt)
			}
			opName := "op." + cs.name
			for th := range cs.threads {
				var loop func()
				loop = func() {
					now := engine.Now()
					if t != nil {
						t.beginOp(opName)
					}
					lat, think := p.step(now, th)
					if t != nil {
						t.exit(lat)
					}
					rec.ops++
					rec.opLat = append(rec.opLat, lat)
					engine.Schedule(max(lat+think, time.Microsecond), loop)
				}
				engine.ScheduleAt(startAt, loop)
			}
		}
	}
	var steps int64
	runUntil := func(at time.Duration) {
		stop := false
		engine.ScheduleAt(at, func() { stop = true })
		for !stop {
			if t != nil {
				t.beginStep()
			}
			engine.Step()
			if t != nil {
				t.endStep()
			}
			if steps++; steps&8191 == 0 {
				peak = max(peak, readRuntime().heap)
			}
		}
	}
	runUntil(w.warmup)

	r := repResult{stack: st, before: st.snapshot()}
	if st.ram != nil {
		r.hostBefore = [2]blockdev.Stats{st.ram.Stats(), st.ssd.Stats()}
	}
	r.host.setup = time.Since(wall0)
	rec.reset()
	if t != nil {
		t.reset()
	}
	steps = 0
	rt0 := readRuntime()
	wall1 := time.Now()
	// The window runs in parts, each timed on its own: the host rate is
	// a median over parts, which a short stall of the host moves less
	// than it moves the rate of a whole window.
	last, lastOps := wall1, int64(0)
	for i := 1; i <= windowParts; i++ {
		runUntil(w.warmup + w.window*time.Duration(i)/windowParts)
		now := time.Now()
		r.host.partRates = append(r.host.partRates, float64(rec.ops-lastOps)/now.Sub(last).Seconds())
		last, lastOps = now, rec.ops
	}
	r.host.window = time.Since(wall1)
	rt1 := readRuntime()
	r.end = st.snapshot()
	r.steps = steps
	peak = max(peak, rt1.heap)

	ops := float64(rec.ops)
	r.host.opsPerS = ops / r.host.window.Seconds()
	r.host.allocsPerOp = float64(rt1.allocs-rt0.allocs) / ops
	r.host.allocBytesOp = float64(rt1.allocBytes-rt0.allocBytes) / ops
	r.host.gcCPU = rt1.gcCPU - rt0.gcCPU
	r.host.cpu = r.host.gcCPU + rt1.userCPU - rt0.userCPU
	r.host.peakHeapBytes = peak
	r.samples = rec
	r.model = summarize([]*recorder{rec}, w.window)
	r.checkCounters(rec)
	return r
}

// summarize computes the modeled metrics over the windows of one or
// more repetitions, pooling their samples.
func summarize(recs []*recorder, window time.Duration) modeled {
	var m modeled
	var readLat, writeLat, opLat []time.Duration
	for _, r := range recs {
		m.ops += r.ops
		m.readBlocks += r.readBlocks
		m.wrBlocks += r.writeBlocks
		readLat = append(readLat, r.readLat...)
		writeLat = append(writeLat, r.writeLat...)
		opLat = append(opLat, r.opLat...)
	}
	secs := window.Seconds() * float64(len(recs))
	m.vopsPerS = float64(m.ops) / secs
	m.readMBps = float64(m.readBlocks*fsmodel.BlockSize) / float64(mib) / secs
	m.reads, m.writes = len(readLat), len(writeLat)
	var total time.Duration
	for _, l := range readLat {
		total += l
	}
	m.readMean = ratio(float64(total), float64(len(readLat)))
	slices.Sort(readLat)
	slices.Sort(writeLat)
	slices.Sort(opLat)
	m.readP50 = quantile(readLat, 0.50)
	m.readP99 = quantile(readLat, 0.99)
	m.writeP99 = quantile(writeLat, 0.99)
	m.opP99 = quantile(opLat, 0.99)
	return m
}

// quantile is the nearest-rank quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// checkCounters counts second-chance failures and checks the identities
// the public counters must satisfy over the window.
func (r *repResult) checkCounters(rec *recorder) {
	reject := func(n int64, format string, args ...any) {
		if n < 0 {
			n = -n
		}
		r.checkFailed += max(n, 1)
		if len(r.checkReasons) < 5 {
			r.checkReasons = append(r.checkReasons, fmt.Sprintf(format, args...))
		}
	}
	b, e := r.before, r.end
	var hits, misses, cc, disk int64
	for i := range e.IO {
		hits += e.IO[i].Hits - b.IO[i].Hits
		misses += e.IO[i].Misses - b.IO[i].Misses
		cc += e.IO[i].CCHits - b.IO[i].CCHits
		disk += e.IO[i].DiskReads - b.IO[i].DiskReads
	}
	// Every block the generator read or wrote is one page cache hit or
	// miss (IOStats counts write misses too).
	if d := rec.readBlocks + rec.writeBlocks - (hits + misses); d != 0 {
		reject(d, "block identity: %d blocks read+written, %d page cache hits+misses", rec.readBlocks+rec.writeBlocks, hits+misses)
	}
	// Only on a read-only workload is every miss a second-chance hit or
	// a disk read.
	if rec.writeBlocks == 0 && misses != cc+disk {
		reject(misses-cc-disk, "read-only miss identity: %d misses, %d second-chance hits + %d disk reads", misses, cc, disk)
	}
	for i := range e.Front {
		f0, f1 := b.Front[i], e.Front[i]
		r.scAttempted += (f1.Gets - f0.Gets) + (f1.Puts - f0.Puts) + (f1.Flushes - f0.Flushes) +
			(f1.Migrates - f0.Migrates) + (f1.ReadAheads - f0.ReadAheads)
		t0, t1 := b.Transport[i], e.Transport[i]
		r.scFailed += (t1.DeadlineMisses - t0.DeadlineMisses) + (t1.ShedGets - t0.ShedGets) +
			(t1.ShedOps - t0.ShedOps) + (t1.SyncFailures - t0.SyncFailures) +
			(t1.DroppedBatches - t0.DroppedBatches) + (t1.CompletionDrops - t0.CompletionDrops)
	}
	r.scFailed += e.ShedOps - b.ShedOps
}
