// Package guest models a virtual machine's software stack: the memory
// controller (cgroups), the page cache with cleancache integration, a
// virtual disk, and container lifecycle — the guest half of the
// DoubleDecker cooperative design. Containers expose the file and
// anonymous-memory operations the workload generators drive.
package guest

import (
	"fmt"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/fsmodel"
	"doubledecker/internal/pagecache"
	"doubledecker/internal/sim"
	"doubledecker/internal/trace"
)

// DefaultReadAheadWindow is the readahead/async-probe window stock
// pipeline-enabled configurations use (see hypervisor.Config): deep
// enough to amortize a batched crossing over a whole window of probes,
// shallow enough to stay well inside the transport's staging buffer.
const DefaultReadAheadWindow = 32

// Config parameterizes a VM.
type Config struct {
	ID       cleancache.VMID
	MemBytes int64
	// KernelReserveBytes approximates the guest kernel footprint;
	// defaults to 64 MiB.
	KernelReserveBytes int64
	// FlushInterval is the background writeback period (default 1s).
	FlushInterval time.Duration
	// FlushBatchPages bounds each background writeback round
	// (default 2048 pages = 8 MiB).
	FlushBatchPages int
	// HypercallFlushInterval is the period of the transport flush tick
	// that drains buffered hypercall batches so puts and flushes never
	// linger unsent (default 10ms).
	HypercallFlushInterval time.Duration
	// ReadAheadWindow enables the pipelined read path: sequential-stream
	// detection in the cleancache front (READ_AHEAD ops prefetching up to
	// this many blocks ahead into the hypervisor-side staging buffer) and
	// the page cache's async probe window of the same depth
	// (pagecache.Cache.SetReadWindow). Zero disables both.
	ReadAheadWindow int
	// WatchdogPeriod drives the transport deadline watchdog: every period
	// the VM sweeps its transport (cleancache.DeadlineTransport.Watchdog)
	// and fails over-budget async waiters as misses, releasing their ring
	// slots, waiter-table entries and any staged readahead they cover.
	// Zero disables the tick — only meaningful when the transport has an
	// OpBudget configured.
	WatchdogPeriod time.Duration
	// Disk overrides the VM's virtual disk; nil selects a 7200 RPM HDD.
	Disk blockdev.Device
}

// VM is one guest: memory controller + page cache + virtual disk.
type VM struct {
	id     cleancache.VMID
	engine *sim.Engine
	root   *cgroup.Root
	cache  *pagecache.Cache
	front  *cleancache.Front // nil when hypervisor caching is off
	disk   blockdev.Device
	alloc  *fsmodel.Allocator

	containers []*Container
	flusher    *sim.Event
	hcFlusher  *sim.Event // transport flush tick; nil when front is nil
	watchdog   *sim.Event // deadline watchdog tick; nil when disabled
}

// New builds a VM. front may be nil to run without a second-chance cache.
func New(engine *sim.Engine, cfg Config, front *cleancache.Front) *VM {
	if cfg.KernelReserveBytes == 0 {
		cfg.KernelReserveBytes = 64 << 20
	}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = time.Second
	}
	if cfg.FlushBatchPages == 0 {
		cfg.FlushBatchPages = 2048
	}
	if cfg.HypercallFlushInterval == 0 {
		cfg.HypercallFlushInterval = 10 * time.Millisecond
	}
	disk := cfg.Disk
	if disk == nil {
		disk = blockdev.NewHDD(fmt.Sprintf("vm%d-disk", cfg.ID))
	}
	vm := &VM{
		id:     cfg.ID,
		engine: engine,
		root:   cgroup.NewRoot(cfg.MemBytes, cfg.KernelReserveBytes),
		disk:   disk,
		alloc:  fsmodel.NewAllocator(),
		front:  front,
	}
	if front != nil && cfg.ReadAheadWindow > 0 {
		front.SetReadAhead(cfg.ReadAheadWindow)
	}
	vm.cache = pagecache.New(vm.root, front, vm.disk)
	if front != nil && cfg.ReadAheadWindow > 0 {
		vm.cache.SetReadWindow(cfg.ReadAheadWindow)
	}
	vm.flusher = engine.Every(cfg.FlushInterval, func() {
		vm.cache.FlushDirty(engine.Now(), cfg.FlushBatchPages)
	})
	if front != nil {
		vm.hcFlusher = engine.Every(cfg.HypercallFlushInterval, func() {
			front.FlushTransport(engine.Now())
		})
		if cfg.WatchdogPeriod > 0 {
			if dt, ok := front.Transport().(cleancache.DeadlineTransport); ok {
				vm.watchdog = engine.Every(cfg.WatchdogPeriod, func() {
					dt.Watchdog(engine.Now())
				})
			}
		}
	}
	return vm
}

// ID reports the VM's hypervisor-visible id.
func (vm *VM) ID() cleancache.VMID { return vm.id }

// Engine returns the simulation engine driving this VM.
func (vm *VM) Engine() *sim.Engine { return vm.engine }

// Root exposes the VM's memory controller.
func (vm *VM) Root() *cgroup.Root { return vm.root }

// PageCache exposes the VM's page cache.
func (vm *VM) PageCache() *pagecache.Cache { return vm.cache }

// Front exposes the VM's cleancache layer (nil when disabled).
func (vm *VM) Front() *cleancache.Front { return vm.front }

// Disk exposes the VM's virtual disk.
func (vm *VM) Disk() blockdev.Device { return vm.disk }

// Allocator exposes the VM's file allocator (one filesystem per VM).
func (vm *VM) Allocator() *fsmodel.Allocator { return vm.alloc }

// Shutdown cancels background activity (writeback, transport and watchdog
// ticks), draining any buffered hypercall batch first, then closes the
// transport: outstanding async gets and staged readahead are failed as
// misses and every waiter-table entry, ring slot and staged page is
// released — the crash-safe teardown path.
func (vm *VM) Shutdown() {
	vm.flusher.Cancel()
	if vm.watchdog != nil {
		vm.watchdog.Cancel()
	}
	if vm.hcFlusher != nil {
		vm.front.FlushTransport(vm.engine.Now())
		vm.hcFlusher.Cancel()
		if dt, ok := vm.front.Transport().(cleancache.DeadlineTransport); ok {
			dt.Close(vm.engine.Now())
		}
	}
}

// RecordTrace attaches a recorder that captures every page cache read
// access into log (container names interned automatically). The returned
// function detaches the recorder. Only one access-hook consumer can be
// active at a time.
func (vm *VM) RecordTrace(log *trace.Log) (detach func()) {
	vm.cache.SetAccessHook(func(g *cgroup.Group, inode uint64, block int64) {
		log.Append(trace.Record{
			At:        vm.engine.Now(),
			Kind:      trace.KindRead,
			Container: log.ContainerID(g.Name()),
			Inode:     inode,
			Block:     block,
			Count:     1,
		})
	})
	return func() { vm.cache.SetAccessHook(nil) }
}

// Containers returns the live containers in creation order.
func (vm *VM) Containers() []*Container {
	out := make([]*Container, len(vm.containers))
	copy(out, vm.containers)
	return out
}

// Container is one application container (an LXC-style cgroup plus its
// hypervisor cache pool).
type Container struct {
	name  string
	vm    *VM
	group *cgroup.Group
}

// NewContainer boots a container: creates its cgroup with the given
// memory limit and hypervisor cache spec, and fires the CREATE_CGROUP
// event so the hypervisor cache assigns a pool.
func (vm *VM) NewContainer(name string, limitBytes int64, spec cgroup.HCacheSpec) *Container {
	g := vm.root.NewGroup(name, limitBytes, vm.disk)
	g.SetSpec(spec)
	if vm.front != nil {
		vm.front.RegisterGroup(vm.engine.Now(), g)
	}
	c := &Container{name: name, vm: vm, group: g}
	vm.containers = append(vm.containers, c)
	return c
}

// DestroyContainer shuts a container down: DESTROY_CGROUP plus cgroup
// removal. Its page cache pages are dropped.
func (vm *VM) DestroyContainer(c *Container) {
	if vm.front != nil {
		vm.front.UnregisterGroup(vm.engine.Now(), c.group)
	}
	// Drop remaining file pages by reclaiming everything.
	for {
		freed, _ := vm.cache.ReclaimFile(vm.engine.Now(), c.group, 1<<20)
		if freed == 0 {
			break
		}
	}
	vm.root.RemoveGroup(c.group)
	for i, other := range vm.containers {
		if other == c {
			vm.containers = append(vm.containers[:i], vm.containers[i+1:]...)
			break
		}
	}
}

// Name reports the container name.
func (c *Container) Name() string { return c.name }

// VM reports the hosting VM.
func (c *Container) VM() *VM { return c.vm }

// Group exposes the container's cgroup.
func (c *Container) Group() *cgroup.Group { return c.group }

// SetSpec updates the container's <T, W> tuple and propagates it to the
// hypervisor cache (SET_CG_WEIGHT).
func (c *Container) SetSpec(spec cgroup.HCacheSpec) {
	c.group.SetSpec(spec)
	if c.vm.front != nil {
		c.vm.front.UpdateSpec(c.vm.engine.Now(), c.group)
	}
}

// SetMemLimit updates the container's cgroup memory limit.
func (c *Container) SetMemLimit(bytes int64) { c.group.SetLimitBytes(bytes) }

// CacheStats returns the hypervisor cache statistics for this container
// (the paper's GET_STATS).
func (c *Container) CacheStats() cleancache.PoolStats {
	if c.vm.front == nil {
		return cleancache.PoolStats{}
	}
	return c.vm.front.GroupStats(c.group)
}

// IOStats returns the container's page cache counters.
func (c *Container) IOStats() pagecache.IOStats { return c.vm.cache.Stats(c.group) }

// --- I/O operations driven by workloads -------------------------------------

// Read reads n blocks of f from start, returning the operation latency.
func (c *Container) Read(now time.Duration, f *fsmodel.File, start, n int64) time.Duration {
	return c.vm.cache.Read(now, c.group, f, start, n)
}

// Write writes n blocks of f from start.
func (c *Container) Write(now time.Duration, f *fsmodel.File, start, n int64) time.Duration {
	return c.vm.cache.Write(now, c.group, f, start, n)
}

// Fsync persists f's dirty pages synchronously.
func (c *Container) Fsync(now time.Duration, f *fsmodel.File) time.Duration {
	return c.vm.cache.Fsync(now, c.group, f)
}

// Delete invalidates f everywhere (page cache + second-chance cache).
func (c *Container) Delete(now time.Duration, f *fsmodel.File) time.Duration {
	return c.vm.cache.Invalidate(now, c.group, f)
}

// GrowAnon extends the container's anonymous working set.
func (c *Container) GrowAnon(now time.Duration, pages int64) time.Duration {
	return c.group.GrowAnon(now, pages)
}

// TouchAnon touches anonymous pages (swap-ins if swapped).
func (c *Container) TouchAnon(now time.Duration, pages int64) time.Duration {
	return c.group.TouchAnon(now, pages, c.vm.engine.Rand())
}
