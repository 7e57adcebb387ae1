package ddcache

// Property tests for the write-behind demotion queue (demote.go): the
// dirtiness bound holds under arbitrary concurrent interleavings, a
// staled block can never be written back to the remote tier, accounting
// conserves across the tier ladder, and every tier's eviction runs under
// its own token. The concurrent test is part of the -race CI job.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/store"
	"doubledecker/internal/store/remote"
)

func newThreeTierManager(memCap, ssdCap, remoteCap int64, dq DemotionConfig) *Manager {
	return newManager(Config{
		Mode:            ModeDD,
		Mem:             store.NewMem(blockdev.NewRAM("ram"), memCap),
		SSD:             store.NewSSD(blockdev.NewSSD("ssd"), ssdCap),
		Remote:          remote.New(remote.Config{CapacityBytes: remoteCap}),
		Demotion:        dq,
		EvictBatchBytes: 64 << 10,
	})
}

// TestWriteBehindProperty hammers a tight three-tier manager from
// concurrent guests and checks the write-behind invariants: dirty bytes
// never exceed the configured bound at any interleaving (the queue's own
// high-water mark is the witness — it is recorded inside the admission
// critical section), and at quiesce the queue drains to empty with the
// conservation identity intact:
//
//	Enqueued == Drained + Cancelled + DroppedFull + DroppedError +
//	            DroppedBreaker + DirtyObjects
func TestWriteBehindProperty(t *testing.T) {
	const (
		vms      = 4
		opsPerVM = 4000
		maxDirty = int64(128 << 10)
	)
	m := newThreeTierManager(256<<10, 512<<10, 8<<20, DemotionConfig{
		MaxDirtyBytes: maxDirty,
		BatchBytes:    32 << 10,
	})
	pools := make([]cleancache.PoolID, vms)
	for v := 0; v < vms; v++ {
		vm := cleancache.VMID(v + 1)
		m.RegisterVM(vm, 100)
		pools[v], _ = m.CreatePool(0, vm, "wb", cgroup.HCacheSpec{Store: cgroup.StoreHybrid, Weight: 100})
	}

	// A sampler polls the live dirty-byte figure while workers churn; the
	// queue's high-water mark is checked after quiesce as well, so a
	// transient overshoot between samples cannot hide.
	stop := make(chan struct{})
	var samplerWg sync.WaitGroup
	samplerWg.Add(1)
	go func() {
		defer samplerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if db := m.DemotionDirtyBytes(); db > maxDirty {
				t.Errorf("dirty bytes %d exceed bound %d", db, maxDirty)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for v := 0; v < vms; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			vm := cleancache.VMID(v + 1)
			rng := rand.New(rand.NewSource(int64(v + 1)))
			now := time.Duration(0)
			for i := 0; i < opsPerVM; i++ {
				key := cleancache.Key{Pool: pools[v], Inode: uint64(1 + rng.Intn(4)), Block: rng.Int63n(512)}
				var lat time.Duration
				switch r := rng.Intn(100); {
				case r < 60:
					_, lat = m.Put(now, vm, key, 0)
				case r < 85:
					_, lat = m.Get(now, vm, key)
				case r < 95:
					lat = m.FlushPage(now, vm, key)
				default:
					lat = m.FlushInode(now, vm, key.Pool, key.Inode)
				}
				now += lat + time.Microsecond
			}
		}(v)
	}
	wg.Wait()
	close(stop)
	samplerWg.Wait()

	m.FlushDemotions(time.Hour)
	ds := m.DemotionStats()
	if ds.MaxDirtyBytes > maxDirty {
		t.Fatalf("dirty high-water %d exceeds bound %d", ds.MaxDirtyBytes, maxDirty)
	}
	if ds.DirtyBytes != 0 || ds.DirtyObjects != 0 {
		t.Fatalf("queue not empty after flush: %+v", ds)
	}
	if got := ds.Drained + ds.Cancelled + ds.DroppedFull + ds.DroppedError + ds.DroppedBreaker + ds.DirtyObjects; got != ds.Enqueued {
		t.Fatalf("conservation violated: enqueued %d, settled %d (%+v)", ds.Enqueued, got, ds)
	}
	if ds.Enqueued == 0 {
		t.Fatal("workload produced no demotions — capacities too generous to exercise the queue")
	}
}

// TestWriteBehindNoStaleServe: a block invalidated while its demotion is
// still queued must never be written back — after flushing every key and
// draining the queue, all three tiers must be empty and every get must
// miss. A resurrection would leave bytes on the remote store.
func TestWriteBehindNoStaleServe(t *testing.T) {
	const n = 512 // 2 MiB of puts through a 256 KiB SSD
	m := newManager(Config{
		Mode:            ModeDD,
		SSD:             store.NewSSD(blockdev.NewSSD("ssd"), 256<<10),
		Remote:          remote.New(remote.Config{CapacityBytes: 16 << 20}),
		EvictBatchBytes: 64 << 10,
		// BatchBytes at the dirtiness ceiling: the put-path drain trigger
		// almost never fires, so entries are still queued when the flush
		// lands.
		Demotion: DemotionConfig{MaxDirtyBytes: 1 << 20, BatchBytes: 1 << 20},
	})
	vm := cleancache.VMID(1)
	m.RegisterVM(vm, 100)
	pool, _ := m.CreatePool(0, vm, "stale", cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 100})
	now := time.Duration(0)
	for b := int64(0); b < n; b++ {
		_, lat := m.Put(now, vm, cleancache.Key{Pool: pool, Inode: 1, Block: b}, 0)
		now += lat + time.Microsecond
	}
	if ds := m.DemotionStats(); ds.DirtyObjects == 0 {
		t.Fatalf("no demotions in flight before the flush: %+v", ds)
	}
	now += m.FlushInode(now, vm, pool, 1) // invalidate everything, queued entries included
	now += m.FlushDemotions(now)

	for _, st := range []cgroup.StoreType{cgroup.StoreSSD, cgroup.StoreRemote} {
		if used := m.StoreUsedBytes(st); used != 0 {
			t.Fatalf("store %v holds %d bytes after full invalidation — a staled block was written back", st, used)
		}
	}
	for b := int64(0); b < n; b++ {
		if ok, _ := m.Get(now, vm, cleancache.Key{Pool: pool, Inode: 1, Block: b}); ok {
			t.Fatalf("block %d served after invalidation", b)
		}
	}
	if ds := m.DemotionStats(); ds.Cancelled == 0 {
		t.Fatalf("flush cancelled nothing: %+v", ds)
	}
}

// TestWriteBehindConservation puts a stream of unique objects and checks
// byte conservation across the ladder at quiesce: every admitted put is
// either resident in some tier or was dropped by eviction — demotion
// moves bytes, it never loses or duplicates them.
func TestWriteBehindConservation(t *testing.T) {
	m := newThreeTierManager(128<<10, 256<<10, 1<<20, DemotionConfig{
		MaxDirtyBytes: 256 << 10,
		BatchBytes:    64 << 10,
	})
	vm := cleancache.VMID(1)
	m.RegisterVM(vm, 100)
	pool, _ := m.CreatePool(0, vm, "consv", cgroup.HCacheSpec{Store: cgroup.StoreHybrid, Weight: 100})
	now := time.Duration(0)
	var admitted int64
	for b := int64(0); b < 2048; b++ { // 8 MiB ≫ mem+SSD+remote
		ok, lat := m.Put(now, vm, cleancache.Key{Pool: pool, Inode: 1, Block: b}, 0)
		if ok {
			admitted++
		}
		now += lat + time.Microsecond
	}
	m.FlushDemotions(now)

	resident := m.StoreUsedBytes(cgroup.StoreMem) + m.StoreUsedBytes(cgroup.StoreSSD) + m.StoreUsedBytes(cgroup.StoreRemote)
	dropped := m.TotalEvictions() * ObjectSize
	if got, want := resident+dropped, admitted*ObjectSize; got != want {
		t.Fatalf("conservation violated: resident %d + dropped %d = %d, want %d admitted bytes (%+v)",
			resident, dropped, got, want, m.DemotionStats())
	}
	if ds := m.DemotionStats(); ds.DirtyBytes != 0 || ds.DirtyObjects != 0 {
		t.Fatalf("queue not empty at quiesce: %+v", ds)
	}
	if s := m.PoolStats(vm, pool); s.Demotions == 0 {
		t.Fatalf("no demotions counted: %+v", s)
	}
}

// TestEvictTokenPerTier is the regression test for the eviction-token
// generalization: the old evictMemMu/evictSSDMu pair silently gave any
// third store no token at all, so remote capacity enforcement would have
// run unserialized. Every concrete tier must own a distinct token; types
// that never enforce directly (hybrid, unknown) get none.
func TestEvictTokenPerTier(t *testing.T) {
	m := newThreeTierManager(1<<20, 1<<20, 1<<20, DemotionConfig{})
	tokens := map[*sync.Mutex]cgroup.StoreType{}
	for _, st := range []cgroup.StoreType{cgroup.StoreMem, cgroup.StoreSSD, cgroup.StoreRemote} {
		tok := m.evictToken(st)
		if tok == nil {
			t.Fatalf("tier %v has no eviction token", st)
		}
		if prev, dup := tokens[tok]; dup {
			t.Fatalf("tiers %v and %v share one eviction token", prev, st)
		}
		tokens[tok] = st
	}
	if tok := m.evictToken(cgroup.StoreHybrid); tok != nil {
		t.Fatal("hybrid resolves before eviction and must have no token")
	}
	if tok := m.evictToken(cgroup.StoreType(99)); tok != nil {
		t.Fatal("unknown store type must have no token")
	}

	// Behavioral half: a remote-only pool overfilling the remote tier must
	// evict (true drops) under its own token rather than growing unbounded.
	rm := newManager(Config{
		Mode:            ModeDD,
		Remote:          remote.New(remote.Config{CapacityBytes: 64 << 10}),
		EvictBatchBytes: 16 << 10,
	})
	vm := cleancache.VMID(1)
	rm.RegisterVM(vm, 100)
	pool, _ := rm.CreatePool(0, vm, "r", cgroup.HCacheSpec{Store: cgroup.StoreRemote, Weight: 100})
	now := time.Duration(0)
	for b := int64(0); b < 64; b++ { // 256 KiB into a 64 KiB tier
		_, lat := rm.Put(now, vm, cleancache.Key{Pool: pool, Inode: 1, Block: b}, 0)
		now += lat + time.Microsecond
	}
	if used, cap := rm.StoreUsedBytes(cgroup.StoreRemote), int64(64<<10); used > cap {
		t.Fatalf("remote tier overshot: %d > %d", used, cap)
	}
	if rm.TotalEvictions() == 0 {
		t.Fatal("remote tier never evicted")
	}
}
