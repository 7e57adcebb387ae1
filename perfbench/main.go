// ddlint:allow-wallclock — the command measures host time around the simulation.

// Command perfbench is the repository benchmark. It runs one named
// workload against the simulated DoubleDecker host in this process and
// prints its metrics; the last line of its output is one JSON object.
//
//	perfbench --workload filebench-mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it repeats a full run (build the host, warm up, measure
// a window of virtual time) until --seconds of host time have passed and
// reports the end-to-end metrics: modeled ones from the window (they
// repeat exactly for a seed, and every repetition is checked to agree)
// and host ones as medians over the repetitions. With --trace 1 it runs
// once untraced and once with tracing pass-throughs at every layer
// boundary and a sequential-oracle shadow of the cache manager, checks
// that both runs agree on every modeled metric and public counter, and
// reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"time"

	"doubledecker/internal/cleancache"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload name: filebench-mix, stream-pipeline or ycsb-tiered")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "host seconds to measure for (--trace 0)")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer run")
		spans   = flag.String("spans", "", "file to write the sampled span trees to (--trace 1)")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	fmt.Printf("workload=%s seed=%d trace=%d\n", w.name, *seed, *traced)
	var res result
	if *traced == 1 {
		res = tracedRun(w, *seed, *spans)
	} else {
		res = timedRun(w, *seed, time.Duration(*seconds)*time.Second)
	}
	for _, reason := range res.reasons {
		fmt.Println("check failed:", reason)
	}
	out, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type result struct {
	out      output
	reasons  []string
	scFailed int64
}

func (r *result) set(name string, v float64, unit string) { r.out.Metrics[name] = metricValue{v, unit} }

func (r *result) reject(format string, args ...any) {
	r.out.Correct = false
	r.reasons = append(r.reasons, fmt.Sprintf(format, args...))
}

// account adds a repetition's second-chance ops, their failures and the
// ops its checks rejected to the result.
func (r *result) account(rep repResult) {
	r.out.Attempted += rep.scAttempted
	r.out.Failed += rep.scFailed + rep.checkFailed
	r.scFailed += rep.scFailed
	for _, reason := range rep.checkReasons {
		r.reject("%s", reason)
	}
}

// report prints failed_op_frac: second-chance ops failed or shed, and
// ops rejected by the checks, over the second-chance ops submitted.
func (r *result) report() {
	r.out.Attempted = max(1, r.out.Attempted)
	fmt.Printf("failed_op_frac=%g (%d failed or shed + %d rejected by checks, of %d second-chance ops)\n",
		float64(r.out.Failed)/float64(r.out.Attempted), r.scFailed, r.out.Failed-r.scFailed, r.out.Attempted)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// printModeled prints the modeled metrics with their sample counts.
func printModeled(m modeled) {
	fmt.Printf("modeled: %d ops, %d reads (%d blocks), %d writes (%d blocks) in the window\n",
		m.ops, m.reads, m.readBlocks, m.writes, m.wrBlocks)
	fmt.Printf("  read_mean_us=%g read_p50_us=%g read_p99_us=%g (n=%d reads)  write_p99_us=%g (n=%d writes)  op_p99_us=%g (n=%d ops)\n",
		m.readMean/1e3, us(m.readP50), us(m.readP99), m.reads, us(m.writeP99), m.writes, us(m.opP99), m.ops)
}

// windows is how many repetitions, each with its own seed derived from
// the workload seed, the modeled metrics pool. One window of one seed
// carries the chance state of the cache competition it reached, so a
// single window spreads more across seeds than the bounds allow.
const windows = 3

// subSeed is the seed of repetition i: repetitions cycle through
// `windows` seeds derived from the workload seed.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i%windows) }

// timedRun repeats the workload until budget has passed, and at least
// once per window seed, and reports the end-to-end metrics: the modeled
// ones pooled over the first `windows` repetitions, the host ones as
// medians over all of them (the host rate over all their window parts).
func timedRun(w workloadSpec, seed int64, budget time.Duration) result {
	res := result{out: output{Correct: true, Metrics: map[string]metricValue{}}}
	start := time.Now()
	var reps []repResult
	for i := 0; i < windows || (time.Since(start) < budget && i < 50); i++ {
		rep := runRep(w, subSeed(seed, i), nil, false)
		rep.stack = nil
		if i >= windows {
			// A repeat of an earlier seed must reproduce it exactly.
			first := reps[i%windows]
			if rep.model != first.model || !reflect.DeepEqual(rep.before, first.before) || !reflect.DeepEqual(rep.end, first.end) {
				res.reject("repetition %d differs from repetition %d of the same seed in a modeled metric or public counter", i+1, i%windows+1)
			}
			rep.samples = nil
		}
		reps = append(reps, rep)
		fmt.Printf("rep %d (seed %d): setup %.3fs, window %.3fs, %.0f ops/s, %.1f allocs/op, gc %.3f\n", i+1, subSeed(seed, i),
			rep.host.setup.Seconds(), rep.host.window.Seconds(), rep.host.opsPerS, rep.host.allocsPerOp, ratio(rep.host.gcCPU, rep.host.cpu))
	}
	var recs []*recorder
	for _, rep := range reps[:min(windows, len(reps))] {
		res.account(rep)
		recs = append(recs, rep.samples)
	}
	res.report()
	m := summarize(recs, w.window)
	printModeled(m)

	host := func(f func(hostCost) float64) float64 {
		xs := make([]float64, len(reps))
		for i, rep := range reps {
			xs[i] = f(rep.host)
		}
		return median(xs)
	}
	res.set("setup_s", host(func(h hostCost) float64 { return h.setup.Seconds() }), "s")
	var parts []float64
	for _, rep := range reps {
		parts = append(parts, rep.host.partRates...)
	}
	res.set("sim_ops_per_s", median(parts), "1/s")
	res.set("allocs_per_op", host(func(h hostCost) float64 { return h.allocsPerOp }), "count")
	res.set("alloc_bytes_per_op", host(func(h hostCost) float64 { return h.allocBytesOp }), "B")
	// The runtime updates its CPU estimates at GC cycles, so the GC
	// share is pooled over all windows rather than taken per window.
	var gcCPU, cpu float64
	for _, rep := range reps {
		gcCPU += rep.host.gcCPU
		cpu += rep.host.cpu
	}
	res.set("gc_cpu_frac", ratio(gcCPU, cpu), "fraction")
	res.set("peak_heap_mib", host(func(h hostCost) float64 { return float64(h.peakHeapBytes) / float64(mib) }), "MiB")
	res.set("vops_per_s", m.vopsPerS, "1/s")
	res.set("read_mbps", m.readMBps, "MiB/s")
	res.set("read_mean_us", m.readMean/1e3, "us")
	res.set("op_p99_us", us(m.opP99), "us")
	if m.ops == 0 || m.reads == 0 {
		res.reject("the window completed no ops or no reads")
	}
	return res
}

// tracedRun runs the workload once untraced and once traced, checks that
// the two agree exactly, and reports the per-layer metrics.
func tracedRun(w workloadSpec, seed int64, spansPath string) result {
	res := result{out: output{Correct: true, Metrics: map[string]metricValue{}}}
	base := runRep(w, subSeed(seed, 0), nil, false)
	base.stack = nil
	t := newTracer(100)
	tr := runRep(w, subSeed(seed, 0), t, true)
	res.account(tr)

	equal := tr.model == base.model
	if !equal {
		res.reject("traced run's modeled metrics differ: traced %+v, timed %+v", tr.model, base.model)
	}
	for _, d := range diffCounters(base.before, tr.before) {
		equal = false
		res.reject("traced run differs at the steady checkpoint: %s", d)
	}
	for _, d := range diffCounters(base.end, tr.end) {
		equal = false
		res.reject("traced run differs at the end of the window: %s", d)
	}
	b := &t.b
	res.out.Failed += b.oracleMismatches + b.identityFailures
	for _, reason := range b.firstFailures {
		res.reject("%s", reason)
	}
	if b.oracleMismatches+b.identityFailures > 0 {
		res.reject("%d oracle mismatches, %d identity failures", b.oracleMismatches, b.identityFailures)
	}
	checkDispatchIdentity(&res, tr, t)
	res.report()
	printModeled(tr.model)
	fmt.Printf("equivalence: traced run matches the timed run on every modeled metric and public counter: %v\n", equal)
	fmt.Printf("oracle shadow: %d dispatches mirrored, %d mismatches\n", sum(b.dispatched[:]), b.oracleMismatches)

	for _, m := range layerMetrics(w, tr, t, base) {
		res.set(m.name, m.value, m.unit)
	}
	if spansPath != "" {
		if err := t.writeSpans(spansPath); err != nil {
			res.reject("writing spans: %v", err)
		} else {
			fmt.Printf("spans: %d kept (1 root in %d) written to %s\n", len(t.spans), t.sampleEvery, spansPath)
		}
	}
	return res
}

// checkDispatchIdentity checks that the gets and readahead probes the
// transports delivered equal the manager's Gets + ReadAheadGets, and
// that their outcomes equal its hit counters.
func checkDispatchIdentity(res *result, r repResult, t *tracer) {
	var gets, hits, raHits int64
	for i := range r.end.Pools {
		e, s := r.end.Pools[i], r.before.Pools[i]
		gets += (e.Gets - s.Gets) + (e.ReadAheadGets - s.ReadAheadGets)
		hits += e.GetHits - s.GetHits
		raHits += e.ReadAheadHits - s.ReadAheadHits
	}
	b := &t.b
	delivered := b.dispatched[cleancache.OpGet] + b.raProbes
	for _, c := range []struct {
		what              string
		boundary, counted int64
	}{
		{"gets + readahead probes delivered vs manager Gets + ReadAheadGets", delivered, gets},
		{"get hits delivered vs manager GetHits", b.dispGetOk, hits},
		{"readahead blocks extracted vs manager ReadAheadHits", b.raBlocks, raHits},
	} {
		if c.boundary != c.counted {
			d := c.boundary - c.counted
			res.out.Failed += max(d, -d)
			res.reject("identity %s: %d at the boundary, %d counted", c.what, c.boundary, c.counted)
		}
	}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// diffCounters lists the public counters that differ between two
// snapshots.
func diffCounters(a, b counters) []string {
	var out []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := range va.NumField() {
		fa, fb := va.Field(i).Interface(), vb.Field(i).Interface()
		if !reflect.DeepEqual(fa, fb) {
			out = append(out, fmt.Sprintf("%s: timed %+v, traced %+v", va.Type().Field(i).Name, fa, fb))
		}
	}
	return out
}
