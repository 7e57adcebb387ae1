package main

import (
	"fmt"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/ddcache/oracle"
	"doubledecker/internal/guest"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/hypervisor"
	"doubledecker/internal/pagecache"
	"doubledecker/internal/sim"
	"doubledecker/internal/store"
	"doubledecker/internal/store/remote"
)

// stack is one built host with its guests, and handles on every public
// counter the benchmark reads.
type stack struct {
	manager    *ddcache.Manager
	remote     *remote.Store // nil without the remote tier
	vms        []*guest.VM
	transports []*hypercall.Transport
	containers []*guest.Container
	// Host RAM and SSD devices: hypervisor.Host does not expose them, so
	// they are set only in the traced stack, which builds its own.
	ram *blockdev.RAM
	ssd *blockdev.SSD
	// stores are the manager's mem, SSD and remote backends in the traced
	// stack, read for their capacity and usage.
	stores [3]store.Backend

	newVM func(id cleancache.VMID, memBytes, weight int64) *guest.VM
}

// newHostStack builds the host the way users do: hypervisor.New with
// stock defaults (pipelined read path on) and only the cache sizes set.
func newHostStack(engine *sim.Engine, h hostSpec) *stack {
	host := hypervisor.New(engine, hypervisor.Config{
		Mode:             ddcache.ModeDD,
		MemCacheBytes:    h.mem,
		SSDCacheBytes:    h.ssd,
		RemoteCacheBytes: h.remote,
	})
	s := &stack{manager: host.Manager(), remote: host.Remote()}
	s.newVM = func(id cleancache.VMID, memBytes, weight int64) *guest.VM {
		vm := host.NewVM(id, memBytes, weight)
		s.vms = append(s.vms, vm)
		s.transports = append(s.transports, host.Transport(id))
		return vm
	}
	return s
}

// newTracedStack builds the same host from the public constructors
// hypervisor.New uses, with a tracing pass-through at every boundary:
// Front→transport, transport→manager, manager→store and page
// cache→virtual disk. With shadow set, every dispatch is mirrored into a
// sequential oracle with its own, identically configured stores.
func newTracedStack(engine *sim.Engine, h hostSpec, t *tracer, shadow bool) *stack {
	s := &stack{ram: blockdev.NewRAM("host-ram"), ssd: blockdev.NewSSD("host-ssd", blockdev.WithFaults(nil))}
	opts := []ddcache.Option{ddcache.WithMode(ddcache.ModeDD)}
	ocfg := oracle.Config{Mode: oracle.ModeDD}
	if h.mem > 0 {
		s.stores[0] = store.NewMem(s.ram, h.mem)
		opts = append(opts, ddcache.WithMemBackend(&tracedStore{Backend: s.stores[0], t: t, layer: lStoreMem}))
		ocfg.Mem = store.NewMem(blockdev.NewRAM("oracle-ram"), h.mem)
	}
	if h.ssd > 0 {
		s.stores[1] = store.NewSSD(s.ssd, h.ssd)
		opts = append(opts, ddcache.WithSSDBackend(&tracedStore{Backend: s.stores[1], t: t, layer: lStoreSSD}))
		ocfg.SSD = store.NewSSD(blockdev.NewSSD("oracle-ssd"), h.ssd)
	}
	if h.remote > 0 {
		s.remote = remote.New(remote.Config{CapacityBytes: h.remote})
		s.stores[2] = s.remote
		opts = append(opts, ddcache.WithRemoteBackend(&tracedStore{Backend: s.remote, t: t, layer: lStoreRemote}))
		ocfg.Remote = remote.New(remote.Config{CapacityBytes: h.remote})
	}
	s.manager = ddcache.New(opts...)
	be := &tracedBackend{t: t, m: s.manager}
	if shadow {
		be.shadow = oracle.New(ocfg)
	}
	topts := hypercall.Options{AsyncGets: true, ZeroCopy: true}
	s.newVM = func(id cleancache.VMID, memBytes, weight int64) *guest.VM {
		s.manager.RegisterVM(id, weight)
		if be.shadow != nil {
			be.shadow.RegisterVM(id, weight)
		}
		tr := hypercall.NewTransport(be, topts)
		front := cleancache.NewFront(id, &tracedTransport{t: t, in: tr})
		disk := &tracedDisk{Device: blockdev.NewHDD(fmt.Sprintf("vm%d-disk", id)), t: t}
		vm := guest.New(engine, guest.Config{
			ID: id, MemBytes: memBytes, ReadAheadWindow: guest.DefaultReadAheadWindow, Disk: disk,
		}, front)
		s.vms = append(s.vms, vm)
		s.transports = append(s.transports, tr)
		return vm
	}
	return s
}

// counters is every public counter of a built stack, compared exactly
// between the timed and the traced run.
type counters struct {
	IO        []pagecache.IOStats
	Pools     []cleancache.PoolStats
	Front     []cleancache.FrontStats
	Transport []hypercall.TransportStats
	Disks     []blockdev.Stats
	Demotion  ddcache.DemotionStats
	Remote    remote.CostStats
	Evictions int64
	ShedOps   int64
	StoreUsed [3]int64
}

func (s *stack) snapshot() counters {
	var c counters
	for _, ct := range s.containers {
		c.IO = append(c.IO, ct.IOStats())
		c.Pools = append(c.Pools, s.manager.PoolStats(ct.VM().ID(), cleancache.PoolID(ct.Group().PoolID())))
	}
	for i, vm := range s.vms {
		c.Front = append(c.Front, vm.Front().Stats())
		c.Transport = append(c.Transport, s.transports[i].Stats())
		c.Disks = append(c.Disks, vm.Disk().Stats())
	}
	c.Demotion = s.manager.DemotionStats()
	if s.remote != nil {
		c.Remote = s.remote.Cost()
	}
	c.Evictions = s.manager.TotalEvictions()
	c.ShedOps = s.manager.ShedOps()
	for i, st := range []cgroup.StoreType{cgroup.StoreMem, cgroup.StoreSSD, cgroup.StoreRemote} {
		c.StoreUsed[i] = s.manager.StoreUsedBytes(st)
	}
	return c
}
