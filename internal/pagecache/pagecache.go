// Package pagecache models the guest OS disk page cache with the
// DoubleDecker extensions: pages are charged to the cgroup of the process
// that faulted them, reclaim runs per-cgroup LRU lists (it implements
// cgroup.FileReclaimer), clean evictions are offered to the second-chance
// cache (cleancache put), lookup misses consult it (cleancache get), and
// invalidations flush it — the exclusive-caching protocol of the paper's
// Figure 1/2.
package pagecache

import (
	"slices"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/fsmodel"
)

// PageHitCost is the CPU cost of serving one page from the page cache.
const PageHitCost = 700 * time.Nanosecond

// dirtyRatioDivisor caps the dirty-page backlog at 1/this of VM memory;
// writers exceeding it are throttled into foreground writeback, as the
// kernel's dirty_ratio mechanism does. Without this, writers outrun the
// disk for free and starve every reader behind the unbounded async queue.
const dirtyRatioDivisor = 10

// IOStats aggregates one group's page cache activity.
type IOStats struct {
	Hits       int64 // page cache hits
	Misses     int64 // page cache misses (any source)
	DiskReads  int64 // blocks read from the virtual disk
	DiskWrites int64 // blocks written back
	CCHits     int64 // misses served by the second-chance cache
	// DeadlineFallbacks counts misses caused by a second-chance probe
	// blowing its latency budget: the transport failed the get to a miss
	// and the read fell back to disk instead of blocking past budget.
	DeadlineFallbacks int64
}

// groupState is the page cache's per-group state. Groups are held by
// pointer, so a *groupState (and its stats) stays valid while the group
// table grows.
type groupState struct {
	g     *cgroup.Group
	id    int32 // index in Cache.groups, as named by page.group
	stats IOStats
	lru   pageList
	// dirty pages are tracked per group (as the kernel's per-bdi/task
	// dirty accounting does) so one container's write flood throttles
	// only itself.
	dirty pageList
}

// Cache is one VM's page cache.
type Cache struct {
	root  *cgroup.Root
	front *cleancache.Front // may be nil: no second-chance cache
	disk  blockdev.Device

	slab                           // every resident page, by value
	index      pageIndex           // (inode, block) → slab index
	files      map[uint64]pageList // inode → its resident pages
	groups     []*groupState
	groupIDs   map[*cgroup.Group]int32
	dirtyTotal int
	syncBlocks []int64 // Fsync's scratch buffer

	// accessHook, when set, observes every read access (hit or miss) —
	// the feed for MRC/WSS estimators driving adaptive policies.
	accessHook func(g *cgroup.Group, inode uint64, block int64)

	// readWindow is the number of in-flight second-chance probes Read
	// keeps outstanding across a miss-run (Front.GetAsync handles); 0
	// selects the synchronous probe-per-block path.
	readWindow int

	// writeSeq makes written blocks' content unique: a dirtied page no
	// longer matches any template content.
	writeSeq uint64
}

var _ cgroup.FileReclaimer = (*Cache)(nil)

// New wires a page cache to its VM's memory controller, second-chance
// front (nil to disable) and virtual disk. It installs itself as the
// root's file reclaimer.
func New(root *cgroup.Root, front *cleancache.Front, disk blockdev.Device) *Cache {
	c := &Cache{
		root:     root,
		front:    front,
		disk:     disk,
		slab:     slab{free: nilPage},
		files:    make(map[uint64]pageList),
		groupIDs: make(map[*cgroup.Group]int32),
	}
	root.SetReclaimer(c)
	return c
}

// SetAccessHook installs an observer for read accesses. Pass nil to
// remove it.
func (c *Cache) SetAccessHook(fn func(g *cgroup.Group, inode uint64, block int64)) {
	c.accessHook = fn
}

// SetReadWindow sets how many async second-chance probes Read keeps in
// flight across a detected miss-run (0 = synchronous probe per block).
// With a window, a miss-run issues up to window GetAsync handles up
// front — overlapping the hypercall crossings with the run scan and
// consuming the transport's readahead staging buffer — and resolves them
// in access order. No-op without a cleancache front.
func (c *Cache) SetReadWindow(n int) {
	if n < 0 {
		n = 0
	}
	c.readWindow = n
}

// ReadWindow reports the configured async probe window.
func (c *Cache) ReadWindow() int { return c.readWindow }

// Stats returns the accumulated counters for g.
func (c *Cache) Stats(g *cgroup.Group) IOStats {
	if gs := c.stateIf(g); gs != nil {
		return gs.stats
	}
	return IOStats{}
}

// stateIf returns g's state, or nil if the cache has never seen g.
func (c *Cache) stateIf(g *cgroup.Group) *groupState {
	if id, ok := c.groupIDs[g]; ok {
		return c.groups[id]
	}
	return nil
}

// state returns g's state, adding g to the group table on first use.
func (c *Cache) state(g *cgroup.Group) *groupState {
	if gs := c.stateIf(g); gs != nil {
		return gs
	}
	gs := &groupState{g: g, id: int32(len(c.groups)), lru: emptyList(), dirty: emptyList()}
	c.groupIDs[g] = gs.id
	c.groups = append(c.groups, gs)
	return gs
}

func (c *Cache) lookup(inode uint64, block int64) int32 {
	return c.index.find(c.pages, inode, block)
}

func (c *Cache) markDirty(i int32) {
	p := &c.pages[i]
	p.dirty = true
	c.pushBack(&c.groups[p.group].dirty, dirtyList, i)
	c.dirtyTotal++
}

// markClean takes dirty page i off its group's dirty FIFO.
func (c *Cache) markClean(i int32) {
	p := &c.pages[i]
	p.dirty = false
	c.unlink(&c.groups[p.group].dirty, dirtyList, i)
	c.dirtyTotal--
}

// insert adds a page for gs, making room under the cgroup and VM limits
// first. Returns the reclaim latency incurred.
func (c *Cache) insert(now time.Duration, gs *groupState, inode uint64, block, diskOff int64, content uint64, dirty bool) time.Duration {
	lat := gs.g.EnsureRoom(now, 1)
	i := c.alloc()
	c.pages[i] = page{inode: inode, block: block, diskOff: diskOff, content: content, group: gs.id, touched: now + lat}
	c.index.insert(c.pages, i)
	fl, ok := c.files[inode]
	if !ok {
		fl = emptyList()
	}
	c.pushFront(&fl, fileList, i)
	c.files[inode] = fl
	c.pushFront(&gs.lru, lruList, i)
	if dirty {
		c.markDirty(i)
	}
	gs.g.ChargeFile(1)
	return lat
}

// touch refreshes a page's LRU position.
func (c *Cache) touch(now time.Duration, i int32) {
	p := &c.pages[i]
	p.touched = now
	c.moveToFront(&c.groups[p.group].lru, lruList, i)
}

// drop removes a page from all structures without writeback and frees
// its slot.
func (c *Cache) drop(i int32) {
	p := &c.pages[i]
	gs := c.groups[p.group]
	c.index.remove(c.pages, i)
	fl := c.files[p.inode]
	c.unlink(&fl, fileList, i)
	if fl.n == 0 {
		delete(c.files, p.inode)
	} else {
		c.files[p.inode] = fl
	}
	c.unlink(&gs.lru, lruList, i)
	if p.dirty {
		c.markClean(i)
	}
	gs.g.UnchargeFile(1)
	c.release(i)
}

// Read serves n blocks of f starting at start on behalf of g, returning
// the total latency: page cache hits at memory cost, second-chance hits at
// hypercall+store cost, the rest from the virtual disk.
func (c *Cache) Read(now time.Duration, g *cgroup.Group, f *fsmodel.File, start, n int64) time.Duration {
	gs := c.state(g)
	st := &gs.stats
	inode := uint64(f.Inode)
	var lat time.Duration
	end := start + n
	if end > f.Blocks {
		end = f.Blocks
	}
	for b := start; b < end; b++ {
		at := now + lat
		if c.accessHook != nil {
			c.accessHook(g, inode, b)
		}
		if i := c.lookup(inode, b); i != nilPage {
			c.touch(at, i)
			lat += PageHitCost
			st.Hits++
			continue
		}
		if c.front != nil && c.readWindow > 0 {
			// Pipelined path: the whole miss-run is probed through
			// in-flight async handles (readPipelined counts the misses).
			next, ml := c.readPipelined(at, gs, f, b, end)
			lat += ml
			b = next - 1
			continue
		}
		st.Misses++
		if c.front != nil {
			hit, l := c.front.Get(at, g, inode, b)
			lat += l
			if hit {
				st.CCHits++
				il := c.insert(at+l, gs, inode, b, f.BlockOffset(b), f.ContentKey(b), false)
				lat += il + PageHitCost
				continue
			}
		}
		// Disk miss: extend the run across consecutive blocks that miss
		// both caches (readahead — one seek serves the whole run). A
		// block found in the second-chance cache during the scan is
		// inserted, accounted, and terminates the run.
		runEnd := b + 1
		ccStopped := false
		for runEnd < end {
			if c.lookup(inode, runEnd) != nilPage {
				break
			}
			if c.front != nil {
				hit, l := c.front.Get(now+lat, g, inode, runEnd)
				lat += l
				if hit {
					if c.accessHook != nil {
						c.accessHook(g, inode, runEnd)
					}
					st.Misses++
					st.CCHits++
					il := c.insert(now+lat, gs, inode, runEnd, f.BlockOffset(runEnd), f.ContentKey(runEnd), false)
					lat += il + PageHitCost
					ccStopped = true
					break
				}
			}
			runEnd++
		}
		runLen := runEnd - b
		// Guest virtual-disk errors are outside the cleancache failure
		// model (the guest would retry or surface EIO to the app); the
		// simulation charges the latency and carries on.
		dl, _ := c.disk.Read(now+lat, f.BlockOffset(b), runLen*fsmodel.BlockSize) // ddlint:err-ok guest disk errors are outside the cleancache failure model
		lat += dl
		st.DiskReads += runLen
		st.Misses += runLen - 1
		for rb := b; rb < runEnd; rb++ {
			if c.accessHook != nil && rb > b {
				c.accessHook(g, inode, rb)
			}
			il := c.insert(now+lat, gs, inode, rb, f.BlockOffset(rb), f.ContentKey(rb), false)
			lat += il + PageHitCost
		}
		b = runEnd - 1
		if ccStopped {
			b = runEnd // the runEnd block was served by the second-chance hit
		}
	}
	return lat
}

// readPipelined serves the miss-run starting at block b through the
// async read contract: it issues up to readWindow Front.GetAsync probes
// at a time — the submissions overlap their hypercall crossings and feed
// the sequential-stream detector before any handle is awaited, so the
// transport's readahead staging runs ahead of consumption — then
// resolves the handles in access order. Second-chance hits are inserted
// as they resolve; contiguous miss verdicts coalesce into single disk
// run reads, spanning window boundaries (the run is flushed only at a
// second-chance hit, a resident page, or the end of the request), which
// preserves the synchronous path's readahead-style seek amortization.
// The probed set is identical to the synchronous path: every
// non-resident block until the first resident page or the request end.
// Returns the first block not consumed and the latency charged.
func (c *Cache) readPipelined(base time.Duration, gs *groupState, f *fsmodel.File, b, end int64) (int64, time.Duration) {
	g, st := gs.g, &gs.stats
	inode := uint64(f.Inode)
	var (
		lat              time.Duration
		runStart, runLen int64
		handles          []*cleancache.PendingRead
	)
	flushRun := func() {
		if runLen == 0 {
			return
		}
		dl, _ := c.disk.Read(base+lat, f.BlockOffset(runStart), runLen*fsmodel.BlockSize) // ddlint:err-ok guest disk errors are outside the cleancache failure model
		lat += dl
		st.DiskReads += runLen
		for rb := runStart; rb < runStart+runLen; rb++ {
			il := c.insert(base+lat, gs, inode, rb, f.BlockOffset(rb), f.ContentKey(rb), false)
			lat += il + PageHitCost
		}
		runLen = 0
	}
	wb := b
	for wb < end && c.lookup(inode, wb) == nilPage {
		we := wb
		for we < end && we-wb < int64(c.readWindow) && c.lookup(inode, we) == nilPage {
			we++
		}
		handles = handles[:0]
		for pb := wb; pb < we; pb++ {
			if c.accessHook != nil && pb > b {
				c.accessHook(g, inode, pb)
			}
			pr, sl := c.front.GetAsync(base+lat, g, inode, pb)
			lat += sl
			handles = append(handles, pr)
		}
		st.Misses += we - wb
		for i, pr := range handles {
			hit, wl := c.front.AwaitRead(base+lat, pr)
			lat += wl
			pb := wb + int64(i)
			if !hit {
				if pr.Expired() {
					st.DeadlineFallbacks++
				}
				if runLen == 0 {
					runStart = pb
				}
				runLen++
				continue
			}
			flushRun()
			st.CCHits++
			il := c.insert(base+lat, gs, inode, pb, f.BlockOffset(pb), f.ContentKey(pb), false)
			lat += il + PageHitCost
		}
		wb = we
	}
	flushRun()
	return wb, lat
}

// Write dirties n blocks of f starting at start (whole-block writes, no
// read-modify-write). Stale second-chance copies are invalidated.
func (c *Cache) Write(now time.Duration, g *cgroup.Group, f *fsmodel.File, start, n int64) time.Duration {
	gs := c.state(g)
	inode := uint64(f.Inode)
	lat := c.throttleDirty(now, gs)
	end := start + n
	if end > f.Blocks {
		end = f.Blocks
	}
	for b := start; b < end; b++ {
		at := now + lat
		if i := c.lookup(inode, b); i != nilPage {
			c.touch(at, i)
			if !c.pages[i].dirty {
				c.markDirty(i)
			}
			c.writeSeq++
			c.pages[i].content = ^c.writeSeq // written content is unique
			lat += PageHitCost
			gs.stats.Hits++
			continue
		}
		gs.stats.Misses++
		// A stale copy may live in the second-chance cache; invalidate.
		if c.front != nil {
			lat += c.front.FlushPage(at, g, inode, b)
		}
		c.writeSeq++
		il := c.insert(now+lat, gs, inode, b, f.BlockOffset(b), ^c.writeSeq, true)
		lat += il + PageHitCost
	}
	return lat
}

// Fsync synchronously writes back every dirty page of f, coalescing
// contiguous runs into single disk writes.
func (c *Cache) Fsync(now time.Duration, g *cgroup.Group, f *fsmodel.File) time.Duration {
	fl, ok := c.files[uint64(f.Inode)]
	if !ok {
		return 0
	}
	// Collect dirty blocks in ascending order for run coalescing.
	dirtyBlocks := c.syncBlocks[:0]
	for i := fl.head; i != nilPage; i = c.pages[i].links[fileList].next {
		if c.pages[i].dirty {
			dirtyBlocks = append(dirtyBlocks, c.pages[i].block)
		}
	}
	c.syncBlocks = dirtyBlocks
	if len(dirtyBlocks) == 0 {
		return 0
	}
	slices.Sort(dirtyBlocks)
	st := &c.state(g).stats
	var lat time.Duration
	runStart := dirtyBlocks[0]
	runLen := int64(1)
	flushRun := func(startBlock, length int64) {
		wl, _ := c.disk.Write(now+lat, f.BlockOffset(startBlock), length*fsmodel.BlockSize) // ddlint:err-ok guest disk errors are outside the cleancache failure model
		lat += wl
		st.DiskWrites += length
	}
	for _, b := range dirtyBlocks[1:] {
		if b == runStart+runLen {
			runLen++
			continue
		}
		flushRun(runStart, runLen)
		runStart, runLen = b, 1
	}
	flushRun(runStart, runLen)
	for i := fl.head; i != nilPage; i = c.pages[i].links[fileList].next {
		if c.pages[i].dirty {
			c.markClean(i)
		}
	}
	return lat
}

// Invalidate drops all pages of f (file deletion/truncation) without
// writeback and flushes the file from the second-chance cache.
func (c *Cache) Invalidate(now time.Duration, g *cgroup.Group, f *fsmodel.File) time.Duration {
	if fl, ok := c.files[uint64(f.Inode)]; ok {
		for i := fl.head; i != nilPage; {
			next := c.pages[i].links[fileList].next
			c.drop(i)
			i = next
		}
	}
	if c.front != nil {
		return c.front.FlushInode(now, g, uint64(f.Inode))
	}
	return 0
}

// dirtyRun measures the oldest dirty page of gs plus the following
// entries that are disk-contiguous with it (writeback clustering), at
// most max pages. It returns the run's first page and length without
// mutating state.
func (c *Cache) dirtyRun(gs *groupState, max int) (first int32, n int) {
	first = gs.dirty.head
	if first == nilPage {
		return nilPage, 0
	}
	n = 1
	last := first
	for q := c.pages[first].links[dirtyList].next; q != nilPage && n < max; q = c.pages[q].links[dirtyList].next {
		if c.pages[q].inode != c.pages[first].inode ||
			c.pages[q].diskOff != c.pages[last].diskOff+fsmodel.BlockSize {
			break
		}
		last = q
		n++
	}
	return first, n
}

// cleanOldest marks the n oldest dirty pages of gs clean, counting them
// as written back.
func (c *Cache) cleanOldest(gs *groupState, n int) {
	for ; n > 0; n-- {
		gs.stats.DiskWrites++
		c.markClean(gs.dirty.head)
	}
}

// dirtyLimit returns the dirty-page threshold for this VM.
func (c *Cache) dirtyLimit() int {
	limit := int(c.root.LimitPages() / dirtyRatioDivisor)
	if limit < 256 {
		limit = 256
	}
	return limit
}

// throttleDirty blocks a writer in foreground writeback of its own dirty
// pages until its backlog is back under its share of the threshold,
// returning the stall time. Other groups' dirt never stalls this writer.
func (c *Cache) throttleDirty(now time.Duration, gs *groupState) time.Duration {
	limit := c.dirtyLimit() / 2
	var lat time.Duration
	for int(gs.dirty.n) > limit {
		first, n := c.dirtyRun(gs, 256)
		if n == 0 {
			break
		}
		wl, _ := c.disk.Write(now+lat, c.pages[first].diskOff, int64(n)*fsmodel.BlockSize) // ddlint:err-ok guest disk errors are outside the cleancache failure model
		lat += wl
		c.cleanOldest(gs, n)
	}
	return lat
}

// FlushDirty writes back up to max dirty pages (oldest first),
// asynchronously — the background flusher thread. Contiguous dirty runs
// (files written in order dirty adjacent pages back-to-back) are issued as
// single device writes, as the kernel's writeback clustering does.
// Returns pages cleaned.
func (c *Cache) FlushDirty(now time.Duration, max int) int {
	n := 0
	groups := c.root.Groups()
	// Drain every group each round so one container's write flood cannot
	// starve another's few dirty pages (which would otherwise stall that
	// container in reclaim-time writeback). Each round splits the budget
	// across the groups that have dirt.
	for n < max && c.dirtyTotal > 0 {
		dirtyGroups := 0
		for _, gs := range c.groups {
			if gs.dirty.n > 0 {
				dirtyGroups++
			}
		}
		if dirtyGroups == 0 {
			break
		}
		quota := (max - n) / dirtyGroups
		if quota < 1 {
			quota = 1
		}
		progressed := false
		for _, g := range groups {
			gs := c.stateIf(g)
			if gs == nil || gs.dirty.n == 0 || n >= max {
				continue
			}
			limit := quota
			if rem := max - n; limit > rem {
				limit = rem
			}
			first, run := c.dirtyRun(gs, limit)
			if run == 0 {
				continue
			}
			_ = c.disk.WriteAsync(now, c.pages[first].diskOff, int64(run)*fsmodel.BlockSize) // ddlint:err-ok background writeback; errors surface on the next sync write
			c.cleanOldest(gs, run)
			n += run
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return n
}

// DirtyPages reports the number of dirty pages pending writeback.
func (c *Cache) DirtyPages() int { return c.dirtyTotal }

// Resident reports whether a block is currently in the page cache,
// without touching LRU state — an inspection hook for tests and tooling.
func (c *Cache) Resident(inode uint64, block int64) bool {
	return c.lookup(inode, block) != nilPage
}

// TotalPages reports resident file pages across all groups.
func (c *Cache) TotalPages() int64 {
	var n int64
	for _, gs := range c.groups {
		n += int64(gs.lru.n)
	}
	return n
}

// --- cgroup.FileReclaimer ---------------------------------------------------

// ReclaimFile implements cgroup.FileReclaimer: it evicts up to want of
// g's coldest file pages. Dirty pages are written back synchronously
// first (direct reclaim stalls on dirty pages, which keeps writers from
// outrunning the disk through the reclaim path); clean pages are offered
// to the second-chance cache (the paper's put on clean evict).
func (c *Cache) ReclaimFile(now time.Duration, g *cgroup.Group, want int64) (int64, time.Duration) {
	gs := c.stateIf(g)
	if gs == nil {
		return 0, 0
	}
	var (
		freed int64
		lat   time.Duration
	)
	for freed < want && gs.lru.n > 0 {
		i := gs.lru.tail
		if c.pages[i].dirty {
			// Cluster the writeback: walk up the LRU for contiguous
			// dirty pages of the same file (they aged together) and
			// clean them with one device write.
			n, last := int64(1), i
			for q := c.pages[i].links[lruList].prev; q != nilPage; q = c.pages[q].links[lruList].prev {
				if !c.pages[q].dirty || c.pages[q].inode != c.pages[i].inode ||
					c.pages[q].diskOff != c.pages[last].diskOff+fsmodel.BlockSize {
					break
				}
				last = q
				n++
			}
			wl, _ := c.disk.Write(now+lat, c.pages[i].diskOff, n*fsmodel.BlockSize) // ddlint:err-ok guest disk errors are outside the cleancache failure model
			lat += wl
			for q := i; n > 0; n-- {
				gs.stats.DiskWrites++
				c.markClean(q)
				q = c.pages[q].links[lruList].prev
			}
		}
		if c.front != nil {
			p := &c.pages[i]
			_, pl := c.front.Put(now+lat, g, p.inode, p.block, p.content)
			lat += pl
		}
		c.drop(i)
		freed++
	}
	return freed, lat
}

// OldestFilePage implements cgroup.FileReclaimer.
func (c *Cache) OldestFilePage(g *cgroup.Group) (time.Duration, bool) {
	gs := c.stateIf(g)
	if gs == nil || gs.lru.n == 0 {
		return 0, false
	}
	return c.pages[gs.lru.tail].touched, true
}
