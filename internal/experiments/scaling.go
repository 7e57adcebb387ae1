// Scaling experiment: hot-path throughput under concurrent guests.
// Closed-loop guests issue an SSD-heavy mix (the modeled ~90µs device
// reads dominate) against the sharded manager and against a single-lock
// baseline — the sequential oracle behind one mutex that is held across
// each operation's device wait — at 1, 2, 4 and 8 guests. Against the
// sharded manager each guest paces its own latency, so guests overlap
// their device waits and throughput grows with the guest count; against
// the baseline the wait is served while holding the global mutex, so
// adding guests adds no throughput. Throughput is host wall-clock, so
// the numbers (unlike every other experiment's) vary run to run.

package experiments

import (
	"fmt"
	"runtime"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/ddcache/oracle"
	"doubledecker/internal/store"
)

// scaling scenario geometry: both backends get identical capacities,
// large enough that the guests' keyspaces never evict.
const (
	scMemCap      = int64(64 << 20)
	scSSDCap      = int64(256 << 20)
	scOpsPerGuest = 2000
	scMinOps      = 500
)

// ScalingExp is the registered "scaling" experiment: sharded manager vs
// single-lock baseline throughput at 1, 2, 4 and 8 paced guests.
func ScalingExp(o Opts) *Result {
	opsPerGuest := o.scaledCount(scOpsPerGuest, scMinOps)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	r := newResult("scaling", "Hot-path scaling: sharded manager vs single-lock baseline, paced guests")
	t := Table{
		Title:   "Closed-loop throughput (host wall clock)",
		Columns: []string{"impl", "guests", "ops", "ops/s", "get hits", "puts", "wall ms"},
	}
	opsPerSec := map[string]map[int]float64{"sharded": {}, "single-lock": {}}
	for _, guests := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(guests)
		opts := ddcache.BackendStressOptions{Guests: guests, Ops: opsPerGuest, Seed: o.Seed, SSDHeavy: true}
		m := ddcache.New(
			ddcache.WithMode(ddcache.ModeDD),
			ddcache.WithMemCapacity(scMemCap),
			ddcache.WithSSDCapacity(scSSDCap),
		)
		baseline := oracle.NewSequential(oracle.New(oracle.Config{
			Mode: oracle.ModeDD,
			Mem:  store.NewMem(blockdev.NewRAM("scale.ram"), scMemCap),
			SSD:  store.NewSSD(blockdev.NewSSD("scale.ssd"), scSSDCap),
		}), true)
		shardedOpts := opts
		shardedOpts.Pace = true // guest sleeps its own latency: waits overlap
		runs := []struct {
			impl string
			res  ddcache.StressResult
		}{
			{"sharded", ddcache.RunStressBackend(m, shardedOpts)},
			{"single-lock", ddcache.RunStressBackend(baseline, opts)}, // wrapper paces inside the lock
		}
		for _, run := range runs {
			res := run.res
			wallMS := float64(res.Wall.Milliseconds())
			t.Rows = append(t.Rows, []string{
				run.impl, f0(float64(guests)), f0(float64(res.Ops)), f0(res.OpsPerSec()),
				f0(float64(res.GetHits)), f0(float64(res.Puts)), f0(wallMS),
			})
			r.addMetrics(fmt.Sprintf("%s.%dg.", run.impl, guests), map[string]float64{
				"cpus":        float64(guests),
				"guests":      float64(guests),
				"ops":         float64(res.Ops),
				"ops_per_sec": res.OpsPerSec(),
				"get_hits":    float64(res.GetHits),
				"puts":        float64(res.Puts),
				"wall_ms":     wallMS,
			})
			opsPerSec[run.impl][guests] = res.OpsPerSec()
		}
	}
	r.Tables = append(r.Tables, t)

	speedup := func(impl string) float64 {
		if opsPerSec[impl][1] <= 0 {
			return 0
		}
		return opsPerSec[impl][8] / opsPerSec[impl][1]
	}
	r.Metrics["ops_per_guest"] = float64(opsPerGuest)
	r.Metrics["sharded_speedup_8v1"] = speedup("sharded")
	r.Metrics["single_lock_speedup_8v1"] = speedup("single-lock")
	r.gate("sharded_speedup_8v1", ">=", 1.05)

	r.note("8-vs-1-guest speedup: sharded %.2fx (%.0f → %.0f ops/s), single-lock %.2fx (%.0f → %.0f ops/s)",
		speedup("sharded"), opsPerSec["sharded"][1], opsPerSec["sharded"][8],
		speedup("single-lock"), opsPerSec["single-lock"][1], opsPerSec["single-lock"][8])
	return r
}
