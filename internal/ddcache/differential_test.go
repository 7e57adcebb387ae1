package ddcache_test

// Model-based differential tests: the sharded Manager is checked
// op-for-op against the deliberately naive sequential oracle
// (internal/ddcache/oracle). Both implementations receive the same
// deterministic op stream; verdicts, latencies, statistics and occupancy
// must agree after every op, with a deep structural comparison at every
// barrier. A linearizability-style variant drives concurrent per-VM
// streams (run under -race by the scaling CI job) and then replays the
// recorded logs through the oracle as one sequential interleaving.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/ddcache/oracle"
	"doubledecker/internal/store"
	"doubledecker/internal/store/remote"
)

// duo drives a sharded Manager and a sequential Oracle in lockstep.
type duo struct {
	t testing.TB
	m *ddcache.Manager
	o *oracle.Oracle

	// the oracle's stores, for physical-usage compares
	oMem, oSSD, oRemote store.Backend
	memCap              int64
	ssdCap              int64
	remoteCap           int64
	dedup               bool

	vms     []cleancache.VMID
	created []cleancache.PoolID // every pool id ever returned
	live    []cleancache.PoolID
	now     time.Duration
	nops    int
}

func newDuo(t testing.TB, mode ddcache.Mode, memCap, ssdCap, batch int64, dedup bool) *duo {
	return newTieredDuo(t, mode, memCap, ssdCap, 0, batch, dedup)
}

// newTieredDuo builds a manager/oracle pair over up to three tiers. The
// remote tier's modeled latencies are a pure function of the call
// sequence (see store/remote), so the two independent instances stay in
// lockstep and even slow-hit latencies must compare equal.
func newTieredDuo(t testing.TB, mode ddcache.Mode, memCap, ssdCap, remoteCap, batch int64, dedup bool) *duo {
	mopts := []ddcache.Option{ddcache.WithMode(mode), ddcache.WithEvictBatch(batch), ddcache.WithDedup(dedup)}
	ocfg := oracle.Config{Mode: oracle.Mode(mode), EvictBatchBytes: batch, Dedup: dedup}
	d := &duo{t: t, memCap: memCap, ssdCap: ssdCap, remoteCap: remoteCap, dedup: dedup}
	if memCap > 0 {
		mopts = append(mopts, ddcache.WithMemBackend(store.NewMem(blockdev.NewRAM("m.ram"), memCap)))
		d.oMem = store.NewMem(blockdev.NewRAM("o.ram"), memCap)
		ocfg.Mem = d.oMem
	}
	if ssdCap > 0 {
		mopts = append(mopts, ddcache.WithSSDBackend(store.NewSSD(blockdev.NewSSD("m.ssd"), ssdCap)))
		d.oSSD = store.NewSSD(blockdev.NewSSD("o.ssd"), ssdCap)
		ocfg.SSD = d.oSSD
	}
	if remoteCap > 0 {
		// A small demotion queue keeps the drain triggers firing often.
		dq := ddcache.DemotionConfig{MaxDirtyBytes: 64 << 10, BatchBytes: 16 << 10}
		mopts = append(mopts,
			ddcache.WithRemoteBackend(remote.New(remote.Config{CapacityBytes: remoteCap})),
			ddcache.WithDemotion(dq))
		d.oRemote = remote.New(remote.Config{CapacityBytes: remoteCap})
		ocfg.Remote = d.oRemote
		ocfg.Demotion = oracle.DemotionConfig(dq)
	}
	d.m = ddcache.New(mopts...)
	d.o = oracle.New(ocfg)
	for i, w := range []int64{100, 80, 60, 40} {
		vm := cleancache.VMID(i + 1)
		d.m.RegisterVM(vm, w)
		d.o.RegisterVM(vm, w)
		d.vms = append(d.vms, vm)
	}
	return d
}

// step dispatches req to both implementations and requires identical
// responses (verdict, allocated pool, stats and latency — the device
// models are deterministic, so even latencies must agree sequentially).
func (d *duo) step(req cleancache.Request) cleancache.Response {
	rm := d.m.Dispatch(d.now, req)
	ro := d.o.Dispatch(d.now, req)
	if rm.Ok != ro.Ok || rm.Pool != ro.Pool || rm.Count != ro.Count || rm.Stats != ro.Stats || rm.Latency != ro.Latency {
		d.t.Fatalf("op %d (%v vm=%d key=%+v) diverged:\n  manager %+v\n  oracle  %+v",
			d.nops, req.Op, req.VM, req.Key, rm, ro)
	}
	if req.Op == cleancache.OpCreateCgroup && rm.Pool != 0 {
		d.created = append(d.created, rm.Pool)
		d.live = append(d.live, rm.Pool)
	}
	if req.Op == cleancache.OpDestroyCgroup {
		for i, id := range d.live {
			if id == req.Key.Pool {
				d.live = append(d.live[:i], d.live[i+1:]...)
				break
			}
		}
	}
	d.now += rm.Latency + time.Microsecond
	d.nops++
	return rm
}

// allTiers is every concrete tier a three-level run can place objects
// in; two-tier duos compare zero against zero for the remote slot.
var allTiers = []cgroup.StoreType{cgroup.StoreMem, cgroup.StoreSSD, cgroup.StoreRemote}

// barrier deep-compares every pool and VM the run has ever seen, plus
// the global invariants the sharded implementation must preserve.
func (d *duo) barrier() {
	t := d.t
	for _, id := range d.created {
		for _, st := range allTiers {
			if got, want := d.m.PoolUsedBytes(id, st), d.o.PoolUsedBytes(id, st); got != want {
				t.Fatalf("op %d: pool %d used[%v]: manager %d, oracle %d", d.nops, id, st, got, want)
			}
			if got, want := d.m.PoolEntitlement(id, st), d.o.PoolEntitlement(id, st); got != want {
				t.Fatalf("op %d: pool %d entitlement[%v]: manager %d, oracle %d", d.nops, id, st, got, want)
			}
		}
		if got, want := d.m.PoolTotalBytes(id), d.o.PoolTotalBytes(id); got != want {
			t.Fatalf("op %d: pool %d total bytes: manager %d, oracle %d", d.nops, id, got, want)
		}
		if got, want := d.m.PoolStats(0, id), d.o.PoolStats(0, id); got != want {
			t.Fatalf("op %d: pool %d stats:\n  manager %+v\n  oracle  %+v", d.nops, id, got, want)
		}
	}
	var entSum [3]int64
	for _, vm := range d.vms {
		for si, st := range allTiers {
			got, want := d.m.VMEntitlement(vm, st), d.o.VMEntitlement(vm, st)
			if got != want {
				t.Fatalf("op %d: vm %d entitlement[%v]: manager %d, oracle %d", d.nops, vm, st, got, want)
			}
			entSum[si] += got
		}
	}
	// Entitlements sum to capacity (every registered VM has positive
	// weight, so the largest-remainder shares are exhaustive).
	for si, cap := range []int64{d.memCap, d.ssdCap, d.remoteCap} {
		if cap > 0 && entSum[si] != cap {
			t.Fatalf("op %d: VM entitlements sum to %d, want capacity %d (store %v)", d.nops, entSum[si], cap, allTiers[si])
		}
	}
	// Physical usage: manager store vs oracle store, and ≤ capacity
	// (sequential runs never overshoot).
	oracleStores := []store.Backend{d.oMem, d.oSSD, d.oRemote}
	for si, st := range allTiers {
		want := int64(0)
		if oracleStores[si] != nil {
			want = oracleStores[si].UsedBytes()
		}
		if got := d.m.StoreUsedBytes(st); got != want {
			t.Fatalf("op %d: store %v used: manager %d, oracle %d", d.nops, st, got, want)
		}
		caps := []int64{d.memCap, d.ssdCap, d.remoteCap}
		if caps[si] > 0 && want > caps[si] {
			t.Fatalf("op %d: store %v used %d exceeds capacity %d", d.nops, st, want, caps[si])
		}
	}
	if got, want := d.m.TotalEvictions(), d.o.TotalEvictions(); got != want {
		t.Fatalf("op %d: total evictions: manager %d, oracle %d", d.nops, got, want)
	}
	if got, want := d.m.DemotionStats(), ddcache.DemotionStats(d.o.DemotionStats()); got != want {
		t.Fatalf("op %d: demotion stats:\n  manager %+v\n  oracle  %+v", d.nops, got, want)
	}
	if got, want := d.m.DedupSavedBytes(), d.o.DedupSavedBytes(); got != want {
		t.Fatalf("op %d: dedup saved: manager %d, oracle %d", d.nops, got, want)
	}
	if minRef, any := d.m.DedupMinRef(); any && minRef < 1 {
		t.Fatalf("op %d: dedup refcount dropped to %d", d.nops, minRef)
	}
}

// run drives ops deterministic operations from seed through both
// implementations, with a barrier every 4096 ops and at the end.
func (d *duo) run(seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	storeChoices := []cgroup.StoreType{0, cgroup.StoreMem}
	if d.ssdCap > 0 {
		storeChoices = append(storeChoices, cgroup.StoreSSD, cgroup.StoreHybrid)
	}
	if d.remoteCap > 0 {
		storeChoices = append(storeChoices, cgroup.StoreRemote)
		if d.ssdCap == 0 {
			// mem+remote: hybrid pools demote mem→remote directly.
			storeChoices = append(storeChoices, cgroup.StoreHybrid)
		}
	}
	randSpec := func() cgroup.HCacheSpec {
		return cgroup.HCacheSpec{
			Store:  storeChoices[rng.Intn(len(storeChoices))],
			Weight: rng.Intn(150) - 10, // includes ≤0: exercises the keep-old/default rules
		}
	}
	randPool := func() cleancache.PoolID {
		if len(d.live) == 0 || rng.Intn(50) == 0 {
			return cleancache.PoolID(7777) // unknown pool: miss paths
		}
		return d.live[rng.Intn(len(d.live))]
	}
	for i := 0; i < ops; i++ {
		vm := d.vms[rng.Intn(len(d.vms))]
		r := rng.Intn(1000)
		switch {
		case len(d.live) == 0 || (r < 15 && len(d.live) < 8):
			d.step(cleancache.Request{Op: cleancache.OpCreateCgroup, VM: vm, Name: fmt.Sprintf("p%d", d.nops), Spec: randSpec()})
		case r < 22:
			d.step(cleancache.Request{Op: cleancache.OpDestroyCgroup, VM: vm, Key: cleancache.Key{Pool: randPool()}})
		case r < 50:
			d.step(cleancache.Request{Op: cleancache.OpSetCgWeight, VM: vm, Key: cleancache.Key{Pool: randPool()}, Spec: randSpec()})
		case r < 60:
			w := int64(1 + rng.Intn(200))
			d.m.SetVMWeight(vm, w)
			d.o.SetVMWeight(vm, w)
		case r < 75:
			d.step(cleancache.Request{
				Op: cleancache.OpMigrateObject, VM: vm,
				Key: cleancache.Key{Pool: randPool(), Inode: uint64(1 + rng.Intn(24))},
				To:  randPool(),
			})
		case r < 90:
			d.step(cleancache.Request{Op: cleancache.OpGetStats, VM: vm, Key: cleancache.Key{Pool: randPool()}})
		case r < 95 && d.memCap > 0:
			n := d.memCap/2 + rng.Int63n(d.memCap)
			lm := d.m.SetMemCapacity(d.now, n)
			lo := d.o.SetMemCapacity(d.now, n)
			if lm != lo {
				d.t.Fatalf("op %d: SetMemCapacity(%d) latency: manager %v, oracle %v", d.nops, n, lm, lo)
			}
			d.memCap = n
			d.now += lm + time.Microsecond
			d.nops++
		case r < 98 && d.ssdCap > 0:
			n := d.ssdCap/2 + rng.Int63n(d.ssdCap)
			lm := d.m.SetSSDCapacity(d.now, n)
			lo := d.o.SetSSDCapacity(d.now, n)
			if lm != lo {
				d.t.Fatalf("op %d: SetSSDCapacity(%d) latency: manager %v, oracle %v", d.nops, n, lm, lo)
			}
			d.ssdCap = n
			d.now += lm + time.Microsecond
			d.nops++
		case r < 100 && d.remoteCap > 0:
			n := d.remoteCap/2 + rng.Int63n(d.remoteCap)
			lm := d.m.SetRemoteCapacity(d.now, n)
			lo := d.o.SetRemoteCapacity(d.now, n)
			if lm != lo {
				d.t.Fatalf("op %d: SetRemoteCapacity(%d) latency: manager %v, oracle %v", d.nops, n, lm, lo)
			}
			d.remoteCap = n
			d.now += lm + time.Microsecond
			d.nops++
		default:
			key := cleancache.Key{Pool: randPool(), Inode: uint64(1 + rng.Intn(24)), Block: rng.Int63n(24)}
			req := cleancache.Request{VM: vm, Key: key}
			switch x := rng.Intn(100); {
			case x < 50:
				req.Op = cleancache.OpPut
				if d.dedup && rng.Intn(4) > 0 {
					// Heavy sharing across pools and VMs; one put in four
					// stays content-free so the demotion path (which skips
					// dedup'd objects) is exercised in dedup runs too.
					req.Content = 1 + uint64(rng.Intn(40))
				}
			case x < 78:
				req.Op = cleancache.OpGet
			case x < 85:
				req.Op = cleancache.OpReadAhead
				req.Count = 1 + rng.Int63n(8)
			case x < 95:
				req.Op = cleancache.OpFlushPage
			default:
				req.Op = cleancache.OpFlushInode
			}
			d.step(req)
		}
		if d.nops%4096 == 0 {
			d.barrier()
		}
	}
	d.barrier()
}

// TestDifferentialOracle is the acceptance-criteria run: ≥100k ops
// across 3 seeds, each seed a different configuration, every op compared
// against the sequential model.
func TestDifferentialOracle(t *testing.T) {
	cases := []struct {
		name   string
		seed   int64
		mode   ddcache.Mode
		memCap int64
		ssdCap int64
		batch  int64
		dedup  bool
		ops    int
	}{
		{name: "dd-hybrid-dedup", seed: 1, mode: ddcache.ModeDD, memCap: 2 << 20, ssdCap: 4 << 20, batch: 256 << 10, dedup: true, ops: 50000},
		{name: "dd-mem-only", seed: 2, mode: ddcache.ModeDD, memCap: 1 << 20, batch: 64 << 10, ops: 50000},
		{name: "global-baseline", seed: 3, mode: ddcache.ModeGlobal, memCap: 2 << 20, ssdCap: 2 << 20, batch: 256 << 10, dedup: true, ops: 50000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newDuo(t, tc.mode, tc.memCap, tc.ssdCap, tc.batch, tc.dedup)
			d.run(tc.seed, tc.ops)
		})
	}
}

// TestDifferentialOracleThreeTier extends the acceptance run to the
// remote tier: 3 seeds × 50k ops with capacities tight enough that
// evictions continuously demote down the ladder and gets routinely come
// back as slow remote hits. Per-op latency equality covers the modeled
// remote round trips, and every barrier compares the demotion queues'
// full counter sets — so a divergence in write-behind ordering, dirtiness
// accounting or drop policy is caught within 4096 ops.
func TestDifferentialOracleThreeTier(t *testing.T) {
	cases := []struct {
		name      string
		seed      int64
		memCap    int64
		ssdCap    int64
		remoteCap int64
		batch     int64
		dedup     bool
		ops       int
	}{
		{name: "three-tier-hybrid", seed: 11, memCap: 1 << 20, ssdCap: 2 << 20, remoteCap: 8 << 20, batch: 128 << 10, ops: 50000},
		{name: "three-tier-dedup", seed: 12, memCap: 1 << 20, ssdCap: 1 << 20, remoteCap: 4 << 20, batch: 64 << 10, dedup: true, ops: 50000},
		{name: "mem-remote", seed: 13, memCap: 1 << 20, remoteCap: 4 << 20, batch: 64 << 10, ops: 50000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newTieredDuo(t, ddcache.ModeDD, tc.memCap, tc.ssdCap, tc.remoteCap, tc.batch, tc.dedup)
			d.run(tc.seed, tc.ops)
			// Quiesce: both queues must drain identically, to empty.
			lm := d.m.FlushDemotions(d.now)
			lo := d.o.FlushDemotions(d.now)
			if lm != lo {
				t.Fatalf("final FlushDemotions latency: manager %v, oracle %v", lm, lo)
			}
			d.barrier()
			ds := d.m.DemotionStats()
			if ds.DirtyBytes != 0 || ds.DirtyObjects != 0 {
				t.Fatalf("demotion queue not empty after flush: %+v", ds)
			}
			if tc.remoteCap > 0 && ds.Enqueued == 0 {
				t.Fatalf("run produced no demotions — workload does not exercise the tier ladder")
			}
		})
	}
}

// recordedOp is one entry of a per-VM op log: the request and the
// verdict the concurrent manager produced.
type recordedOp struct {
	req cleancache.Request
	ok  bool
}

// TestDifferentialLinearizable drives concurrent per-VM streams against
// the sharded manager, then replays the logs through the sequential
// oracle as one interleaving and requires every recorded verdict to
// reproduce.
//
// The workload is constructed so the per-VM streams commute: each VM
// touches only its own pools, content identities are partitioned per VM,
// and capacity is ample (no eviction, no put rejects), so every
// interleaving of the per-VM logs is equivalent — if the concurrent run
// was linearizable at all, the round-robin merge is a witness. A verdict
// the oracle cannot reproduce therefore means the concurrent run matches
// NO sequential interleaving (lost update, resurrected object, leaked
// dedup reference...), which is exactly what this test exists to catch.
func TestDifferentialLinearizable(t *testing.T) {
	const (
		vms      = 4
		poolsPer = 2
		opsPerVM = 5000
		memCap   = int64(64 << 20) // ample: the workload never fills it
	)
	mgr := ddcache.New(
		ddcache.WithMode(ddcache.ModeDD),
		ddcache.WithMemBackend(store.NewMem(blockdev.NewRAM("m.ram"), memCap)),
		ddcache.WithDedup(true),
	)
	oMem := store.NewMem(blockdev.NewRAM("o.ram"), memCap)
	orc := oracle.New(oracle.Config{Mode: oracle.ModeDD, Mem: oMem, Dedup: true})

	// Sequential setup on both: identical pool ids.
	pools := make([][]cleancache.PoolID, vms)
	for v := 0; v < vms; v++ {
		vm := cleancache.VMID(v + 1)
		mgr.RegisterVM(vm, 100)
		orc.RegisterVM(vm, 100)
		for p := 0; p < poolsPer; p++ {
			req := cleancache.Request{Op: cleancache.OpCreateCgroup, VM: vm, Name: "lin", Spec: cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100}}
			rm := mgr.Dispatch(0, req)
			ro := orc.Dispatch(0, req)
			if rm.Pool != ro.Pool {
				t.Fatalf("setup: pool ids diverged (%d vs %d)", rm.Pool, ro.Pool)
			}
			pools[v] = append(pools[v], rm.Pool)
		}
	}

	// Concurrent phase: one goroutine per VM, recording its log.
	logs := make([][]recordedOp, vms)
	var wg sync.WaitGroup
	for v := 0; v < vms; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			vm := cleancache.VMID(v + 1)
			rng := rand.New(rand.NewSource(int64(100 + v)))
			log := make([]recordedOp, 0, opsPerVM)
			for i := 0; i < opsPerVM; i++ {
				pool := pools[v][rng.Intn(poolsPer)]
				key := cleancache.Key{Pool: pool, Inode: uint64(1 + rng.Intn(16)), Block: rng.Int63n(16)}
				req := cleancache.Request{VM: vm, Key: key}
				switch r := rng.Intn(100); {
				case r < 45:
					req.Op = cleancache.OpPut
					// Content partitioned per VM: streams commute.
					req.Content = uint64(v+1)<<32 | uint64(1+rng.Intn(8))
				case r < 80:
					req.Op = cleancache.OpGet
				case r < 90:
					req.Op = cleancache.OpFlushPage
				case r < 95:
					req.Op = cleancache.OpFlushInode
				default:
					req.Op = cleancache.OpMigrateObject
					req.To = pools[v][rng.Intn(poolsPer)]
				}
				resp := mgr.Dispatch(0, req)
				log = append(log, recordedOp{req: req, ok: resp.Ok})
			}
			logs[v] = log
		}(v)
	}
	wg.Wait()

	// Replay the round-robin merge through the oracle.
	for i := 0; i < opsPerVM; i++ {
		for v := 0; v < vms; v++ {
			rec := logs[v][i]
			resp := orc.Dispatch(0, rec.req)
			wantOk := rec.ok
			switch rec.req.Op {
			case cleancache.OpGet, cleancache.OpPut:
				if resp.Ok != wantOk {
					t.Fatalf("replay vm %d op %d (%v %+v): concurrent run said ok=%v, sequential oracle says ok=%v",
						v+1, i, rec.req.Op, rec.req.Key, wantOk, resp.Ok)
				}
			}
		}
	}

	// Final states must agree exactly.
	for v := 0; v < vms; v++ {
		for _, id := range pools[v] {
			if got, want := mgr.PoolStats(0, id), orc.PoolStats(0, id); got != want {
				t.Fatalf("pool %d final stats:\n  manager %+v\n  oracle  %+v", id, got, want)
			}
			if got, want := mgr.PoolTotalBytes(id), orc.PoolTotalBytes(id); got != want {
				t.Fatalf("pool %d final bytes: manager %d, oracle %d", id, got, want)
			}
		}
	}
	if got, want := mgr.StoreUsedBytes(cgroup.StoreMem), oMem.UsedBytes(); got != want {
		t.Fatalf("final store usage: manager %d, oracle %d", got, want)
	}
	if got, want := mgr.DedupSavedBytes(), orc.DedupSavedBytes(); got != want {
		t.Fatalf("final dedup saved: manager %d, oracle %d", got, want)
	}
}
