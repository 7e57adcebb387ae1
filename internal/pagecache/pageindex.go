package pagecache

import "math/bits"

// minIndexSlots is the page index's initial table size.
const minIndexSlots = 16

// pageIndex maps (inode, block) to slab indices. It is an open-addressed
// table with linear probing and backward-shift deletion, kept at most half
// full. A slot holds a slab index plus one (0 marks an empty slot); the
// keys themselves are read from the slab, so the table is one flat
// []int32.
type pageIndex struct {
	slots []int32
	shift uint // 64 - log2(len(slots)): home slots use the hash's top bits
	n     int
}

func (t *pageIndex) home(inode uint64, block int64) int {
	h := inode*0x9e3779b97f4a7c15 ^ uint64(block)
	h ^= h >> 32
	h *= 0xbf58476d1ce4e5b9
	return int(h >> t.shift)
}

// find returns the slab index of (inode, block), or nilPage.
func (t *pageIndex) find(pages []page, inode uint64, block int64) int32 {
	if t.n == 0 {
		return nilPage
	}
	mask := len(t.slots) - 1
	for j := t.home(inode, block); ; j = (j + 1) & mask {
		v := t.slots[j]
		if v == 0 {
			return nilPage
		}
		if p := &pages[v-1]; p.inode == inode && p.block == block {
			return v - 1
		}
	}
}

// insert indexes slab page i, whose key must not be indexed yet.
func (t *pageIndex) insert(pages []page, i int32) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow(pages)
	}
	t.place(pages, i)
	t.n++
}

func (t *pageIndex) place(pages []page, i int32) {
	mask := len(t.slots) - 1
	j := t.home(pages[i].inode, pages[i].block)
	for t.slots[j] != 0 {
		j = (j + 1) & mask
	}
	t.slots[j] = i + 1
}

func (t *pageIndex) grow(pages []page) {
	old := t.slots
	size := max(2*len(old), minIndexSlots)
	t.slots = make([]int32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, v := range old {
		if v != 0 {
			t.place(pages, v-1)
		}
	}
}

// remove unindexes slab page i (a no-op when it is not indexed). Later
// members of the probe run shift back into the hole, so no tombstones are
// left behind.
func (t *pageIndex) remove(pages []page, i int32) {
	if t.n == 0 {
		return
	}
	mask := len(t.slots) - 1
	j := t.home(pages[i].inode, pages[i].block)
	for t.slots[j] != i+1 {
		if t.slots[j] == 0 {
			return
		}
		j = (j + 1) & mask
	}
	for k := (j + 1) & mask; t.slots[k] != 0; k = (k + 1) & mask {
		v := t.slots[k]
		// The entry at k may fill the hole at j unless its home lies
		// cyclically in (j, k].
		if h := t.home(pages[v-1].inode, pages[v-1].block); (k-h)&mask >= (k-j)&mask {
			t.slots[j] = v
			j = k
		}
	}
	t.slots[j] = 0
	t.n--
}
