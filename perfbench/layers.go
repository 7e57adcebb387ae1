package main

import (
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cleancache"
)

type metric struct {
	name  string
	value float64
	unit  string
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func pct(a, b int64) float64 { return 100 * ratio(float64(a), float64(b)) }

// layerMetrics derives the per-layer metrics of the traced window: the
// tracer's boundary counts and span sums, and the deltas of the public
// counters over the window.
func layerMetrics(w workloadSpec, r repResult, t *tracer, base repResult) []metric {
	ops := float64(r.model.ops)
	perOp := func(x int64) float64 { return ratio(float64(x), ops) }
	nsPerOp := func(d time.Duration) float64 { return ratio(float64(d), ops) }
	b, e, s := &t.b, r.end, r.before
	acc := t.acc
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }

	add("sim.events_per_op", perOp(r.steps), "count")
	add("sim.self_ns_per_op", nsPerOp(acc[lSim].selfNs), "ns")
	add("workload.self_ns_per_op", nsPerOp(acc[lOp].selfNs), "ns")

	add("guest.self_ns_per_op", nsPerOp(acc[lGuest].selfNs), "ns")
	add("guest.read_p50_us", us(r.model.readP50), "us")
	add("guest.read_p99_us", us(r.model.readP99), "us")
	add("guest.write_p99_us", us(r.model.writeP99), "us")
	add("guest.read.calls", float64(b.guestCalls[0]), "count")
	add("guest.write.calls", float64(b.guestCalls[1]), "count")
	add("guest.fsync.calls", float64(b.guestCalls[2]), "count")
	add("guest.delete.calls", float64(b.guestCalls[3]), "count")
	var diskReads, diskWrites int64
	for i := range e.IO {
		diskReads += e.IO[i].DiskReads - s.IO[i].DiskReads
		diskWrites += e.IO[i].DiskWrites - s.IO[i].DiskWrites
	}
	add("pagecache.hit_pct", pct(b.readHits, b.readBlocks), "%")
	add("pagecache.cc_served_pct", pct(b.readCC, b.readCC+b.readDisk), "%")
	add("pagecache.disk_blocks_per_op", perOp(diskReads), "count")
	add("pagecache.writeback_blocks_per_op", perOp(diskWrites), "count")

	add("cleancache.gets_per_op", perOp(b.submitted[cleancache.OpGet]), "count")
	add("cleancache.puts_per_op", perOp(b.submitted[cleancache.OpPut]), "count")
	add("cleancache.readaheads_per_op", perOp(b.submitted[cleancache.OpReadAhead]), "count")
	add("cleancache.get_hit_pct", pct(b.getHits, b.submitted[cleancache.OpGet]), "%")

	var calls, batches, batched, async, stagedHits, stagedFills, mapped, failed int64
	for i := range e.Transport {
		x, y := s.Transport[i], e.Transport[i]
		calls += y.Calls - x.Calls
		batches += y.Batches - x.Batches
		batched += y.BatchedOps - x.BatchedOps
		async += y.AsyncGets - x.AsyncGets
		stagedHits += y.StagedHits - x.StagedHits
		stagedFills += y.StagedFills - x.StagedFills
		mapped += y.PagesMapped - x.PagesMapped
		failed += (y.DeadlineMisses - x.DeadlineMisses) + (y.ShedGets - x.ShedGets) + (y.ShedOps - x.ShedOps) +
			(y.SyncFailures - x.SyncFailures) + (y.DroppedBatches - x.DroppedBatches) + (y.CompletionDrops - x.CompletionDrops)
	}
	hyp := acc[lHypercall]
	add("hypercall.self_ns_per_call", ratio(float64(hyp.selfNs), float64(hyp.calls)), "ns")
	add("hypercall.self_vus_per_op", nsPerOp(hyp.selfVs)/1e3, "us")
	add("hypercall.await_vus_per_op", nsPerOp(b.awaitV)/1e3, "us")
	add("hypercall.crossings_per_op", perOp(calls), "count")
	add("hypercall.ops_per_batch", ratio(float64(batched), float64(batches)), "count")
	add("hypercall.async_gets_per_op", perOp(async), "count")
	add("hypercall.staged_useful_pct", pct(stagedHits, stagedFills), "%")
	add("hypercall.pages_mapped_per_op", perOp(mapped), "count")
	add("hypercall.failed_ops", float64(failed), "count")

	dd := acc[lDDCache]
	var gets, getHits, puts, raGets, raHits, demotions int64
	for i := range e.Pools {
		gets += e.Pools[i].Gets - s.Pools[i].Gets
		getHits += e.Pools[i].GetHits - s.Pools[i].GetHits
		puts += e.Pools[i].Puts - s.Pools[i].Puts
		raGets += e.Pools[i].ReadAheadGets - s.Pools[i].ReadAheadGets
		raHits += e.Pools[i].ReadAheadHits - s.Pools[i].ReadAheadHits
		demotions += e.Pools[i].Demotions - s.Pools[i].Demotions
	}
	add("ddcache.get.calls", float64(b.dispatched[cleancache.OpGet]), "count")
	add("ddcache.put.calls", float64(b.dispatched[cleancache.OpPut]), "count")
	add("ddcache.flush.calls", float64(b.dispatched[cleancache.OpFlushPage]+b.dispatched[cleancache.OpFlushInode]), "count")
	add("ddcache.readahead.calls", float64(b.dispatched[cleancache.OpReadAhead]), "count")
	add("ddcache.self_ns_per_dispatch", ratio(float64(dd.selfNs), float64(dd.calls)), "ns")
	add("ddcache.self_vus_per_dispatch", ratio(float64(dd.selfVs), float64(dd.calls))/1e3, "us")
	add("ddcache.get_hit_pct", pct(b.dispGetOk, b.dispatched[cleancache.OpGet]), "%")
	add("ddcache.readahead_useful_pct", pct(b.raBlocks, b.raProbes), "%")
	add("ddcache.put_reject_pct", pct(b.putReject, b.dispatched[cleancache.OpPut]), "%")
	add("ddcache.lookup_to_store_pct", pct(getHits+raHits, puts), "%")
	add("ddcache.evictions", float64(e.Evictions-s.Evictions), "count")
	add("ddcache.demotions", float64(demotions), "count")
	add("ddcache.demote_cancelled", float64(e.Demotion.Cancelled-s.Demotion.Cancelled), "count")

	for i, tier := range []string{"mem", "ssd", "remote"} {
		a := acc[lStoreMem+i]
		add("store."+tier+".fetch.calls", float64(b.storeCalls[i][0]), "count")
		add("store."+tier+".store.calls", float64(b.storeCalls[i][1]), "count")
		add("store."+tier+".self_ns_per_call", ratio(float64(a.selfNs), float64(a.calls)), "ns")
		add("store."+tier+".vus_per_call", ratio(float64(a.vns), float64(a.calls))/1e3, "us")
		var used float64
		if st := r.stack.stores[i]; st != nil {
			used = pct(st.UsedBytes(), st.CapacityBytes())
		}
		add("store."+tier+".used_pct", used, "%")
	}
	add("store.remote.requests", float64(e.Remote.Requests-s.Remote.Requests), "count")
	add("store.remote.bytes", float64(e.Remote.Bytes-s.Remote.Bytes), "B")

	var disk0, disk1 blockdev.Stats
	for i := range e.Disks {
		disk0 = addStats(disk0, s.Disks[i])
		disk1 = addStats(disk1, e.Disks[i])
	}
	devs := []struct {
		name        string
		from, to    blockdev.Stats
		parallelism int
	}{
		{"vmdisk", disk0, disk1, len(e.Disks)},
		{"hostssd", r.hostBefore[1], r.stack.ssd.Stats(), 1},
		{"hostram", r.hostBefore[0], r.stack.ram.Stats(), 1},
	}
	for _, d := range devs {
		add("blockdev."+d.name+".reads", float64(d.to.Reads-d.from.Reads), "count")
		add("blockdev."+d.name+".writes", float64(d.to.Writes-d.from.Writes), "count")
		busy := d.to.BusyTime - d.from.BusyTime
		add("blockdev."+d.name+".busy_pct", 100*ratio(float64(busy), float64(w.window)*float64(d.parallelism)), "%")
		add("blockdev."+d.name+".errors", float64((d.to.ReadErrors+d.to.WriteErrors)-(d.from.ReadErrors+d.from.WriteErrors)), "count")
	}

	// The traced rate leaves out the host time spent in the oracle shadow
	// and the identity checks, which is reported on its own.
	traced := ops / (r.host.window - (t.excluded - t.exclAt)).Seconds()
	add("trace.sim_ops_per_s", traced, "1/s")
	add("trace.overhead_pct", 100*(ratio(base.host.opsPerS, traced)-1), "%")
	add("trace.oracle_ns_per_op", nsPerOp(b.oracleNs), "ns")
	return out
}

func addStats(a, b blockdev.Stats) blockdev.Stats {
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.BytesRead += b.BytesRead
	a.BytesWritten += b.BytesWritten
	a.ReadErrors += b.ReadErrors
	a.WriteErrors += b.WriteErrors
	a.BusyTime += b.BusyTime
	return a
}
