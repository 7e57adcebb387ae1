package ddcache

import (
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/store"
	"doubledecker/internal/wallclock"
)

// TestStressWallClockInjectable pins the wallclock source and checks that
// RunStress's Wall measurement comes from it — the reproducibility
// property the clockcheck analyzer exists to protect. RunStress reads
// the stopwatch exactly twice (start and finish), so a source advancing
// a fixed step per reading must yield exactly one step of Wall time, no
// matter how long the concurrent phase really took.
func TestStressWallClockInjectable(t *testing.T) {
	base := time.Unix(0, 0)
	readings := 0
	restore := wallclock.SetSource(func() time.Time {
		readings++
		return base.Add(time.Duration(readings) * 250 * time.Millisecond)
	})
	defer restore()

	mem := store.NewMem(blockdev.NewRAM("ram"), 8<<20)
	m := newManager(Config{Mode: ModeDD, Mem: mem})
	res := RunStress(m, StressOptions{VMs: 2, WorkersPerVM: 2, Ops: 200, Seed: 42})

	if res.Wall != 250*time.Millisecond {
		t.Errorf("Wall = %v, want exactly 250ms from the injected source", res.Wall)
	}
	if readings != 2 {
		t.Errorf("stopwatch read the source %d times, want 2 (start, finish)", readings)
	}
	if got, want := res.OpsPerSec(), float64(res.Ops)/0.25; got != want {
		t.Errorf("OpsPerSec = %v, want %v under the pinned clock", got, want)
	}
}
