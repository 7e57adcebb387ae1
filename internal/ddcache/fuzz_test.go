package ddcache_test

// FuzzDispatch decodes arbitrary byte strings into Request sequences and
// drives the sharded Manager and the sequential oracle in lockstep: both
// must produce identical responses, neither may panic, and the manager's
// global invariants (occupancy within capacity, entitlements exhaustive,
// dedup refcounts positive) must hold at the end of every input.

import (
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/ddcache/oracle"
	"doubledecker/internal/store"
)

func FuzzDispatch(f *testing.F) {
	// Seed corpus: create a pool, put, get, flush, destroy, stats-on-dead.
	f.Add([]byte{0, 1, 0, 50, 5, 1, 1, 9, 7, 1, 1, 3, 5, 2, 0, 9, 8, 2, 0, 9})
	f.Add([]byte{0, 0, 0, 117, 0, 1, 0, 3, 5, 0, 0, 1, 1, 0, 0, 0, 4, 0, 0, 0})
	f.Add([]byte{0, 3, 0, 80, 2, 3, 0, 7, 3, 3, 1, 0, 6, 3, 2, 13, 8, 3, 3, 1})

	const (
		memCap = int64(256 << 10)
		ssdCap = int64(256 << 10)
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := ddcache.New(
			ddcache.WithMemBackend(store.NewMem(blockdev.NewRAM("f.ram"), memCap)),
			ddcache.WithSSDBackend(store.NewSSD(blockdev.NewSSD("f.ssd"), ssdCap)),
			ddcache.WithEvictBatch(64<<10),
			ddcache.WithDedup(true),
		)
		o := oracle.New(oracle.Config{
			Mem:             store.NewMem(blockdev.NewRAM("o.ram"), memCap),
			SSD:             store.NewSSD(blockdev.NewSSD("o.ssd"), ssdCap),
			EvictBatchBytes: 64 << 10,
			Dedup:           true,
		})
		registered := make(map[cleancache.VMID]bool)
		var created []cleancache.PoolID
		var now time.Duration
		for step := 0; len(data) >= 4; step++ {
			a, b, c, e := data[0], data[1], data[2], data[3]
			data = data[4:]
			vm := cleancache.VMID(b%4 + 1)
			if !registered[vm] {
				w := int64(a%100) + 1 // always positive: shares stay exhaustive
				m.RegisterVM(vm, w)
				o.RegisterVM(vm, w)
				registered[vm] = true
			}
			pool := cleancache.PoolID(c % 3) // unknown-pool probes when none created
			if len(created) > 0 {
				pool = created[int(c)%len(created)] // includes destroyed ids
			}
			req := cleancache.Request{
				VM:  vm,
				Key: cleancache.Key{Pool: pool, Inode: uint64(b%8) + 1, Block: int64(c % 8)},
			}
			switch a % 9 {
			case 0:
				req.Op = cleancache.OpCreateCgroup
				req.Name = "f"
				req.Spec = cgroup.HCacheSpec{Store: cgroup.StoreType(e % 4), Weight: int(e % 120)}
			case 1:
				req.Op = cleancache.OpDestroyCgroup
			case 2:
				req.Op = cleancache.OpSetCgWeight
				req.Spec = cgroup.HCacheSpec{Store: cgroup.StoreType(e % 4), Weight: int(e % 120)}
			case 3:
				req.Op = cleancache.OpMigrateObject
				if len(created) > 0 {
					req.To = created[int(e)%len(created)]
				}
			case 4:
				req.Op = cleancache.OpGetStats
			case 5, 6:
				req.Op = cleancache.OpPut
				req.Content = uint64((a ^ e) % 13) // 0 sometimes: non-dedup puts
			case 7:
				req.Op = cleancache.OpGet
			default:
				if e%2 == 0 {
					req.Op = cleancache.OpFlushPage
				} else {
					req.Op = cleancache.OpFlushInode
				}
			}
			rm := m.Dispatch(now, req)
			ro := o.Dispatch(now, req)
			if rm.Ok != ro.Ok || rm.Pool != ro.Pool || rm.Stats != ro.Stats || rm.Latency != ro.Latency {
				t.Fatalf("step %d (%v): manager %+v, oracle %+v", step, req.Op, rm, ro)
			}
			if req.Op == cleancache.OpCreateCgroup && rm.Pool != 0 {
				created = append(created, rm.Pool)
			}
			now += rm.Latency + time.Microsecond
		}

		// Invariants, regardless of input bytes.
		for _, st := range []cgroup.StoreType{cgroup.StoreMem, cgroup.StoreSSD} {
			cap := memCap
			if st == cgroup.StoreSSD {
				cap = ssdCap
			}
			if used := m.StoreUsedBytes(st); used > cap {
				t.Fatalf("store %v occupancy %d exceeds capacity %d", st, used, cap)
			}
			if len(registered) > 0 {
				var sum int64
				for vm := range registered {
					sum += m.VMEntitlement(vm, st)
				}
				if sum != cap {
					t.Fatalf("store %v entitlements sum to %d, want capacity %d", st, sum, cap)
				}
			}
		}
		if minRef, any := m.DedupMinRef(); any && minRef < 1 {
			t.Fatalf("dedup refcount dropped to %d", minRef)
		}
		for _, id := range created {
			if got, want := m.PoolStats(0, id), o.PoolStats(0, id); got != want {
				t.Fatalf("pool %d final stats: manager %+v, oracle %+v", id, got, want)
			}
		}
	})
}
