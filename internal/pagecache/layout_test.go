package pagecache

import (
	"testing"

	"doubledecker/internal/cgroup"
)

// checkLayout verifies the slab's bookkeeping against itself: the page
// index, the per-group LRUs and dirty FIFOs, the per-inode page lists and
// the cgroup charges must all describe the same set of pages.
func checkLayout(t *testing.T, c *Cache, groups []*cgroup.Group) {
	t.Helper()
	walk := func(l pageList, k int, each func(i int32)) {
		t.Helper()
		var n int32
		prev := nilPage
		for i := l.head; i != nilPage; i = c.pages[i].links[k].next {
			if c.pages[i].links[k].prev != prev {
				t.Fatalf("list %d: page %d prev = %d, want %d", k, i, c.pages[i].links[k].prev, prev)
			}
			each(i)
			prev = i
			n++
		}
		if prev != l.tail || n != l.n {
			t.Fatalf("list %d: walked %d pages ending at %d, header says %d ending at %d", k, n, prev, l.n, l.tail)
		}
	}
	var lruPages, dirtyPages int
	for _, gs := range c.groups {
		walk(gs.lru, lruList, func(i int32) {
			if c.pages[i].group != gs.id {
				t.Fatalf("page %d on group %d's LRU belongs to group %d", i, gs.id, c.pages[i].group)
			}
			lruPages++
		})
		walk(gs.dirty, dirtyList, func(i int32) {
			if !c.pages[i].dirty || c.pages[i].group != gs.id {
				t.Fatalf("page %d on group %d's dirty FIFO: dirty=%v group=%d", i, gs.id, c.pages[i].dirty, c.pages[i].group)
			}
			dirtyPages++
		})
	}
	filePages := 0
	for inode, fl := range c.files {
		walk(fl, fileList, func(i int32) {
			p := &c.pages[i]
			if p.inode != inode || c.lookup(p.inode, p.block) != i {
				t.Fatalf("page %d on inode %d's list: inode %d, index finds %d", i, inode, p.inode, c.lookup(p.inode, p.block))
			}
			filePages++
		})
	}
	var live, dirty int
	for i := range c.pages {
		if c.pages[i].group != nilPage {
			live++
			if c.pages[i].dirty {
				dirty++
			}
		}
	}
	var charged int64
	for _, g := range groups {
		charged += g.FilePages()
	}
	if c.index.n != lruPages || lruPages != filePages || lruPages != live ||
		int64(lruPages) != c.TotalPages() || int64(lruPages) != charged {
		t.Fatalf("page counts disagree: index %d, LRUs %d, inode lists %d, live slots %d, TotalPages %d, charged %d",
			c.index.n, lruPages, filePages, live, c.TotalPages(), charged)
	}
	if c.DirtyPages() != dirtyPages || dirtyPages != dirty {
		t.Fatalf("dirty counts disagree: DirtyPages %d, dirty FIFOs %d, dirty slots %d", c.DirtyPages(), dirtyPages, dirty)
	}
}

// TestPropertyChurnLayout runs seeded random churn over three groups and
// checks after every op that the index, LRUs, dirty FIFOs, inode lists and
// cgroup charges agree.
func TestPropertyChurnLayout(t *testing.T) {
	for _, readWindow := range []int{0, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			r, groups := newChurnRig(readWindow)
			maxDirty := 0
			churnOps(r, groups, seed, 1500, func(int) {
				checkLayout(t, r.cache, groups)
				maxDirty = max(maxDirty, r.cache.DirtyPages())
			})
			if maxDirty == 0 {
				t.Fatalf("seed %d: no page was ever dirty", seed)
			}
			for _, g := range groups {
				if g.Stats().FileEvicted == 0 {
					t.Fatalf("seed %d: group %s never reclaimed", seed, g.Name())
				}
			}
		}
	}
}

// indexKey is one (inode, block) key of the page-index fuzz slab.
type indexKey struct {
	inode uint64
	block int64
}

// collidingKeys returns n distinct keys whose home slot in a table of
// minIndexSlots slots is the last one, so their probe run wraps around
// the end of the table.
func collidingKeys(n int) []indexKey {
	t := pageIndex{}
	t.grow(nil)
	var keys []indexKey
	for inode := uint64(1); len(keys) < n; inode++ {
		for block := int64(0); block < 8 && len(keys) < n; block++ {
			if t.home(inode, block) == minIndexSlots-1 {
				keys = append(keys, indexKey{inode, block})
			}
		}
	}
	return keys
}

// FuzzPageIndex drives the open-addressed page index against a map. Half
// the keys share the last home slot of the smallest table, so inserts
// probe past the end and deletes shift entries back across it; the other
// half are dense (inode, block) pairs that grow the table.
func FuzzPageIndex(f *testing.F) {
	keys := collidingKeys(7)
	for inode := uint64(100); inode < 102; inode++ {
		for block := int64(0); block < 4; block++ {
			keys = append(keys, indexKey{inode, block})
		}
	}
	pages := make([]page, len(keys))
	for i, k := range keys {
		pages[i] = page{inode: k.inode, block: k.block}
	}
	f.Add([]byte{0, 2, 4, 6, 8, 10, 12, 1, 5, 9})
	f.Add([]byte{0, 2, 4, 6, 8, 10, 12, 3, 7, 11, 13, 14, 16, 18, 20, 22, 24, 26, 28, 1, 3, 29})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var idx pageIndex
		ref := make(map[indexKey]int32)
		for _, op := range ops {
			i := int32(op>>1) % int32(len(keys))
			k := keys[i]
			if op&1 == 0 {
				if _, ok := ref[k]; !ok {
					idx.insert(pages, i)
					ref[k] = i
				}
			} else {
				idx.remove(pages, i)
				delete(ref, k)
			}
			if idx.n != len(ref) {
				t.Fatalf("index holds %d keys, reference %d", idx.n, len(ref))
			}
			for j, k := range keys {
				want, ok := ref[k]
				if !ok {
					want = nilPage
				}
				if got := idx.find(pages, k.inode, k.block); got != want {
					t.Fatalf("find(%d) = %d, want %d", j, got, want)
				}
			}
			// No entry may sit behind an empty slot on its probe run.
			mask := len(idx.slots) - 1
			for j, v := range idx.slots {
				if v == 0 {
					continue
				}
				for h := idx.home(pages[v-1].inode, pages[v-1].block); h != j; h = (h + 1) & mask {
					if idx.slots[h] == 0 {
						t.Fatalf("slot %d is unreachable from its home past empty slot %d", j, h)
					}
				}
			}
		}
	})
}

// A warmed page cache with no second-chance cache serves a miss, inserts
// the page and reclaims to make room without allocating: freed slab slots
// and index slots are reused.
func TestMissChurnDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	r := newRig(64*mib, 0)
	g := r.newGroup("c", 1*mib) // 256 pages
	f := r.newFile(1024)
	r.cache.Read(0, g, f, 0, f.Blocks)
	r.cache.Read(0, g, f, 0, f.Blocks) // slab, index and maps at steady size
	b := int64(0)
	allocs := testing.AllocsPerRun(2000, func() {
		r.cache.Read(0, g, f, b, 1)
		b = (b + 1) % f.Blocks
	})
	if st := r.cache.Stats(g); st.Hits != 0 {
		t.Fatalf("churn hit the page cache %d times; every read should miss", st.Hits)
	}
	if allocs != 0 {
		t.Fatalf("miss churn allocates %.2f times per read, want 0", allocs)
	}
}

// The page index's hash spreads a file's consecutive blocks: a sequential
// file fills a table without long probe runs.
func TestPageIndexSpreadsSequentialBlocks(t *testing.T) {
	const n = 4096
	pages := make([]page, n)
	var idx pageIndex
	for i := range pages {
		pages[i] = page{inode: 7, block: int64(i)}
		idx.insert(pages, int32(i))
	}
	mask := len(idx.slots) - 1
	longest := 0
	for j, v := range idx.slots {
		if v == 0 {
			continue
		}
		if d := (j - idx.home(pages[v-1].inode, pages[v-1].block)) & mask; d > longest {
			longest = d
		}
	}
	if longest > 32 {
		t.Fatalf("longest probe distance %d over %d sequential blocks", longest, n)
	}
}
