package ddcache

import (
	"testing"
	"testing/quick"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/store"
)

func newDedupMgr(memCap int64) *Manager {
	return newManager(Config{
		Mode:  ModeDD,
		Mem:   store.NewMem(blockdev.NewRAM("r"), memCap),
		Dedup: true,
	})
}

func TestDedupSharesPhysicalCopy(t *testing.T) {
	m := newDedupMgr(16 * mib)
	m.RegisterVM(1, 100)
	pa, _ := m.CreatePool(0, 1, "a", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	pb, _ := m.CreatePool(0, 1, "b", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	// Two containers cache copies of the same golden image: same content
	// ids, different keys.
	for i := int64(0); i < 100; i++ {
		m.Put(0, 1, key(pa, 1, i), uint64(1000+i))
		m.Put(0, 1, key(pb, 2, i), uint64(1000+i))
	}
	// Logical: both pools account their own copies.
	if got := m.PoolUsedBytes(pa, cgroup.StoreMem); got != 100*ObjectSize {
		t.Fatalf("pool a logical = %d", got)
	}
	if got := m.PoolUsedBytes(pb, cgroup.StoreMem); got != 100*ObjectSize {
		t.Fatalf("pool b logical = %d", got)
	}
	// Physical: one copy each.
	if got := m.StoreUsedBytes(cgroup.StoreMem); got != 100*ObjectSize {
		t.Fatalf("physical = %d, want %d", got, 100*ObjectSize)
	}
	if got := m.DedupSavedBytes(); got != 100*ObjectSize {
		t.Fatalf("saved = %d", got)
	}
}

func TestDedupRefcountOnRemoval(t *testing.T) {
	m := newDedupMgr(16 * mib)
	m.RegisterVM(1, 100)
	pa, _ := m.CreatePool(0, 1, "a", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	pb, _ := m.CreatePool(0, 1, "b", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	m.Put(0, 1, key(pa, 1, 0), 77)
	m.Put(0, 1, key(pb, 2, 0), 77)
	// Removing one reference keeps the physical copy.
	m.FlushPage(0, 1, key(pa, 1, 0))
	if got := m.StoreUsedBytes(cgroup.StoreMem); got != ObjectSize {
		t.Fatalf("physical after one flush = %d", got)
	}
	// Removing the last reference frees it.
	m.FlushPage(0, 1, key(pb, 2, 0))
	if got := m.StoreUsedBytes(cgroup.StoreMem); got != 0 {
		t.Fatalf("physical after both flushed = %d", got)
	}
}

func TestDedupZeroContentNotShared(t *testing.T) {
	m := newDedupMgr(16 * mib)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "a", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	m.Put(0, 1, key(p, 1, 0), 0) // unknown content
	m.Put(0, 1, key(p, 2, 0), 0)
	if got := m.StoreUsedBytes(cgroup.StoreMem); got != 2*ObjectSize {
		t.Fatalf("unknown-content objects deduped: %d", got)
	}
}

func TestDedupDisabledIgnoresContent(t *testing.T) {
	m := newMgr(ModeDD, 16*mib, 0)
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "a", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	m.Put(0, 1, key(p, 1, 0), 42)
	m.Put(0, 1, key(p, 2, 0), 42)
	if got := m.StoreUsedBytes(cgroup.StoreMem); got != 2*ObjectSize {
		t.Fatalf("dedup happened while disabled: %d", got)
	}
	if m.DedupSavedBytes() != 0 {
		t.Fatal("savings reported while disabled")
	}
}

func TestDedupGetReleasesReference(t *testing.T) {
	m := newDedupMgr(16 * mib)
	m.RegisterVM(1, 100)
	pa, _ := m.CreatePool(0, 1, "a", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	pb, _ := m.CreatePool(0, 1, "b", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
	m.Put(0, 1, key(pa, 1, 0), 5)
	m.Put(0, 1, key(pb, 2, 0), 5)
	if hit, _ := m.Get(0, 1, key(pa, 1, 0)); !hit {
		t.Fatal("get missed")
	}
	// The other reference still hits.
	if hit, _ := m.Get(0, 1, key(pb, 2, 0)); !hit {
		t.Fatal("shared copy lost with first get")
	}
	if got := m.StoreUsedBytes(cgroup.StoreMem); got != 0 {
		t.Fatalf("physical bytes leaked: %d", got)
	}
}

// Property: physical usage never exceeds logical usage, and both return
// to zero after all keys are flushed.
func TestPropertyDedupAccounting(t *testing.T) {
	prop := func(ops []struct {
		PoolB   bool
		Block   uint8
		Content uint8
	}) bool {
		m := newDedupMgr(64 * mib)
		m.RegisterVM(1, 100)
		pa, _ := m.CreatePool(0, 1, "a", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
		pb, _ := m.CreatePool(0, 1, "b", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 50})
		for _, op := range ops {
			p := pa
			if op.PoolB {
				p = pb
			}
			m.Put(0, 1, key(p, 1, int64(op.Block)), uint64(op.Content))
			logical := m.PoolUsedBytes(pa, cgroup.StoreMem) + m.PoolUsedBytes(pb, cgroup.StoreMem)
			if m.StoreUsedBytes(cgroup.StoreMem) > logical {
				return false
			}
		}
		for _, p := range []cleancache.PoolID{pa, pb} {
			for b := int64(0); b < 256; b++ {
				m.FlushPage(0, 1, key(p, 1, b))
			}
		}
		return m.StoreUsedBytes(cgroup.StoreMem) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInclusiveModeKeepsObjectOnGet(t *testing.T) {
	m := newManager(Config{
		Mode:      ModeDD,
		Mem:       store.NewMem(blockdev.NewRAM("r"), 16*mib),
		Inclusive: true,
	})
	m.RegisterVM(1, 100)
	p, _ := m.CreatePool(0, 1, "c", cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100})
	m.Put(0, 1, key(p, 1, 0), 0)
	if hit, _ := m.Get(0, 1, key(p, 1, 0)); !hit {
		t.Fatal("get missed")
	}
	// Inclusive: the copy survives the get.
	if hit, _ := m.Get(0, 1, key(p, 1, 0)); !hit {
		t.Fatal("inclusive cache dropped the object on get")
	}
	if got := m.StoreUsedBytes(cgroup.StoreMem); got != ObjectSize {
		t.Fatalf("used = %d", got)
	}
}
