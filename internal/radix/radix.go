// Package radix implements the sparse radix tree the DoubleDecker
// indexing module uses to map file block offsets to cache objects —
// the same structure (6 bits per level, grow-on-demand height) the Linux
// page cache and the paper's per-file block index are built on.
package radix

// fanout is 2^bits children per node.
const (
	bits   = 6
	fanout = 1 << bits
	mask   = fanout - 1
	// maxLevels bounds the height of any tree: non-negative int64 keys
	// have 63 significant bits, bits of them per level.
	maxLevels = (63 + bits - 1) / bits
)

type node struct {
	slots [fanout]any // *node at interior levels, user values at leaves
	count int         // occupied slots
}

// Tree maps non-negative int64 keys to values. The zero value is not
// usable; construct with New.
type Tree struct {
	root   *node
	height int // levels below root; key space = fanout^(height+1)
	size   int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{}}
}

// Len reports the number of stored keys.
func (t *Tree) Len() int { return t.size }

// maxKey returns the largest key representable at the current height.
func (t *Tree) maxKey() int64 {
	const maxInt64 = int64(^uint64(0) >> 1)
	k := int64(1)
	for i := 0; i <= t.height; i++ {
		if k > maxInt64/fanout { // next level covers the whole int64 space
			return maxInt64
		}
		k *= fanout
	}
	return k - 1
}

// grow raises the tree height until key fits.
func (t *Tree) grow(key int64) {
	for key > t.maxKey() {
		if t.root.count == 0 {
			t.height++
			continue
		}
		n := &node{}
		n.slots[0] = t.root
		n.count = 1
		t.root = n
		t.height++
	}
}

func slotIndex(key int64, level int) int {
	return int(key>>(uint(level)*bits)) & mask
}

// Insert stores v under key, returning the previous value if any. Negative
// keys are not supported and are ignored (returns nil).
func (t *Tree) Insert(key int64, v any) any {
	if key < 0 || v == nil {
		return nil
	}
	t.grow(key)
	n := t.root
	for level := t.height; level > 0; level-- {
		idx := slotIndex(key, level)
		child, ok := n.slots[idx].(*node)
		if !ok {
			child = &node{}
			n.slots[idx] = child
			n.count++
		}
		n = child
	}
	idx := slotIndex(key, 0)
	prev := n.slots[idx]
	n.slots[idx] = v
	if prev == nil {
		n.count++
		t.size++
	}
	return prev
}

// Get returns the value stored under key, or nil.
func (t *Tree) Get(key int64) any {
	if key < 0 || key > t.maxKey() {
		return nil
	}
	n := t.root
	for level := t.height; level > 0; level-- {
		child, ok := n.slots[slotIndex(key, level)].(*node)
		if !ok {
			return nil
		}
		n = child
	}
	return n.slots[slotIndex(key, 0)]
}

// Delete removes key, returning the value that was stored, or nil. Interior
// nodes left empty are pruned.
func (t *Tree) Delete(key int64) any {
	if key < 0 || key > t.maxKey() {
		return nil
	}
	// Record the path for pruning, on the stack: path[i] is the node at
	// level height-i.
	var path [maxLevels]*node
	depth := 0
	n := t.root
	for level := t.height; level > 0; level-- {
		path[depth] = n
		depth++
		child, ok := n.slots[slotIndex(key, level)].(*node)
		if !ok {
			return nil
		}
		n = child
	}
	idx := slotIndex(key, 0)
	v := n.slots[idx]
	if v == nil {
		return nil
	}
	n.slots[idx] = nil
	n.count--
	t.size--
	// Prune empty nodes bottom-up.
	for i := depth - 1; i >= 0 && n.count == 0; i-- {
		parent := path[i]
		level := t.height - i
		parent.slots[slotIndex(key, level)] = nil
		parent.count--
		n = parent
	}
	return v
}

// ForEach visits all (key, value) pairs in ascending key order. Returning
// false from fn stops the walk early.
func (t *Tree) ForEach(fn func(key int64, v any) bool) {
	t.walk(t.root, t.height, 0, fn)
}

func (t *Tree) walk(n *node, level int, prefix int64, fn func(int64, any) bool) bool {
	for i := 0; i < fanout; i++ {
		if n.slots[i] == nil {
			continue
		}
		key := prefix | int64(i)<<(uint(level)*bits)
		if level == 0 {
			if !fn(key, n.slots[i]) {
				return false
			}
			continue
		}
		child, ok := n.slots[i].(*node)
		if !ok {
			continue
		}
		if !t.walk(child, level-1, key, fn) {
			return false
		}
	}
	return true
}
