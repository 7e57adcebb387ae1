package pagecache

import "time"

// nilPage ends the slab's intrusive lists and marks a free slot.
const nilPage int32 = -1

// The intrusive lists a page sits on, indexing page.links: every resident
// page is on its group's LRU and its inode's page list, and a dirty page
// is also on its group's dirty FIFO.
const (
	lruList = iota
	dirtyList
	fileList
	numLists
)

// link is a page's position in one intrusive list: the slab indices of
// its neighbours, nilPage past either end.
type link struct{ prev, next int32 }

// page is one resident page-cache page, stored by value in the slab. It
// names its group by index into Cache.groups and its list neighbours by
// slab index, so it holds no pointers.
type page struct {
	inode   uint64
	block   int64
	diskOff int64
	content uint64 // content identity (for deduplicating cache stores)
	touched time.Duration
	group   int32 // index into Cache.groups; nilPage on a free slot
	dirty   bool
	links   [numLists]link
}

// pageList is the head of one intrusive list through the slab. On an LRU
// head is the most recently used page; on a dirty FIFO it is the oldest.
type pageList struct {
	head, tail int32
	n          int32
}

func emptyList() pageList { return pageList{head: nilPage, tail: nilPage} }

// slab holds every page by value. Freed slots are chained through
// links[lruList].next and reused before the slab grows. Growing moves the
// slab, so no *page may be held across a call that can allocate a page.
type slab struct {
	pages []page
	free  int32
}

func (s *slab) alloc() int32 {
	if i := s.free; i != nilPage {
		s.free = s.pages[i].links[lruList].next
		return i
	}
	s.pages = append(s.pages, page{})
	return int32(len(s.pages) - 1)
}

func (s *slab) release(i int32) {
	s.pages[i] = page{group: nilPage}
	s.pages[i].links[lruList].next = s.free
	s.free = i
}

func (s *slab) pushFront(l *pageList, k int, i int32) {
	s.pages[i].links[k] = link{prev: nilPage, next: l.head}
	if l.head != nilPage {
		s.pages[l.head].links[k].prev = i
	} else {
		l.tail = i
	}
	l.head = i
	l.n++
}

func (s *slab) pushBack(l *pageList, k int, i int32) {
	s.pages[i].links[k] = link{prev: l.tail, next: nilPage}
	if l.tail != nilPage {
		s.pages[l.tail].links[k].next = i
	} else {
		l.head = i
	}
	l.tail = i
	l.n++
}

// unlink removes page i, which must be on l, from l.
func (s *slab) unlink(l *pageList, k int, i int32) {
	lk := s.pages[i].links[k]
	if lk.prev != nilPage {
		s.pages[lk.prev].links[k].next = lk.next
	} else {
		l.head = lk.next
	}
	if lk.next != nilPage {
		s.pages[lk.next].links[k].prev = lk.prev
	} else {
		l.tail = lk.prev
	}
	l.n--
}

func (s *slab) moveToFront(l *pageList, k int, i int32) {
	if l.head == i {
		return
	}
	s.unlink(l, k, i)
	s.pushFront(l, k, i)
}
