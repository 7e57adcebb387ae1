package pagecache

import (
	"math/rand"
	"testing"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/fsmodel"
)

// churnOps drives a fixed-seed random mix of Read, Write, Fsync,
// Invalidate and FlushDirty over three limited groups sharing one VM, so
// cgroup-limit reclaim, VM-level reclaim, dirty throttling, writeback
// clustering and second-chance puts and gets all run. check, when non-nil,
// is called after every op. It returns the summed latency the calls
// returned.
func churnOps(r *rig, groups []*cgroup.Group, seed int64, ops int, check func(op int)) time.Duration {
	rng := rand.New(rand.NewSource(seed))
	files := make([][]*fsmodel.File, len(groups))
	for i := range groups {
		for _, blocks := range []int64{48, 300, 1200} {
			files[i] = append(files[i], r.newFile(blocks))
		}
	}
	var now, total time.Duration
	for op := 0; op < ops; op++ {
		gi := rng.Intn(len(groups))
		g := groups[gi]
		f := files[gi][rng.Intn(len(files[gi]))]
		var lat time.Duration
		switch k := rng.Intn(100); {
		case k < 55:
			lat = r.cache.Read(now, g, f, rng.Int63n(f.Blocks), 1+rng.Int63n(64))
		case k < 85:
			lat = r.cache.Write(now, g, f, rng.Int63n(f.Blocks), 1+rng.Int63n(32))
		case k < 91:
			lat = r.cache.Fsync(now, g, f)
		case k < 94:
			lat = r.cache.Invalidate(now, g, f)
		default:
			r.cache.FlushDirty(now, 1+rng.Intn(512))
		}
		total += lat
		now += lat + time.Duration(rng.Intn(50))*time.Microsecond
		if check != nil {
			check(op)
		}
	}
	return total
}

// newChurnRig builds the three-group rig churnOps runs on: 24 MiB of VM
// memory (about 6k pages) shared by groups limited to 1, 2 and 8 MiB,
// with a second-chance cache in front of the disk.
func newChurnRig(readWindow int) (*rig, []*cgroup.Group) {
	r := newRig(24*mib, 16*mib)
	r.cache.SetReadWindow(readWindow)
	groups := []*cgroup.Group{
		r.newGroup("a", 1*mib),
		r.newGroup("b", 2*mib),
		r.newGroup("c", 8*mib),
	}
	return r, groups
}

// TestGoldenChurn pins the per-group counters and the summed latency of
// one fixed-seed churn sequence. The page cache's storage layout is not
// observable: any change to it must reproduce these numbers exactly.
func TestGoldenChurn(t *testing.T) {
	cases := []struct {
		name       string
		readWindow int
		total      time.Duration
		stats      [3]IOStats
		pages      int64
		dirty      int
	}{
		{
			name:  "sync",
			total: 20557580383,
			stats: [3]IOStats{
				{Hits: 8894, Misses: 16928, DiskReads: 7702, DiskWrites: 5206, CCHits: 5745},
				{Hits: 13276, Misses: 11629, DiskReads: 6847, DiskWrites: 5004, CCHits: 2267},
				{Hits: 17099, Misses: 10350, DiskReads: 8125, DiskWrites: 5950},
			},
			pages: 1649,
			dirty: 90,
		},
		{
			name:       "pipelined",
			readWindow: 8,
			total:      20557388211,
			stats: [3]IOStats{
				{Hits: 8894, Misses: 16928, DiskReads: 7702, DiskWrites: 5206, CCHits: 5745},
				{Hits: 13276, Misses: 11629, DiskReads: 6847, DiskWrites: 5004, CCHits: 2267},
				{Hits: 17099, Misses: 10350, DiskReads: 8125, DiskWrites: 5950},
			},
			pages: 1649,
			dirty: 90,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, groups := newChurnRig(tc.readWindow)
			total := churnOps(r, groups, 42, 4000, nil)
			var stats [3]IOStats
			for i, g := range groups {
				stats[i] = r.cache.Stats(g)
			}
			if total != tc.total || stats != tc.stats || r.cache.TotalPages() != tc.pages || r.cache.DirtyPages() != tc.dirty {
				t.Fatalf("churn diverged from golden:\n got total=%v stats=%+v pages=%d dirty=%d\nwant total=%v stats=%+v pages=%d dirty=%d",
					total, stats, r.cache.TotalPages(), r.cache.DirtyPages(), tc.total, tc.stats, tc.pages, tc.dirty)
			}
		})
	}
}
