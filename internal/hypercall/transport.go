package hypercall

import (
	"sync"
	"time"

	"doubledecker/internal/cleancache"
	"doubledecker/internal/fault"
	"doubledecker/internal/metrics"
)

// Batch bounds: up to 512 ops per crossing, and up to 512 pages — 2 MiB
// of 4 KiB page payload, mirroring the paper's 2 MiB eviction
// granularity.
const (
	DefaultMaxBatchOps   = 512
	DefaultMaxBatchPages = 512
)

// Retry defaults: exponential backoff from 10 µs capped at 1 ms, with at
// most 8 delivery attempts per crossing before the payload is abandoned.
const (
	DefaultRetryBase   = 10 * time.Microsecond
	DefaultRetryCap    = time.Millisecond
	DefaultMaxAttempts = 8
)

// DefaultStagingPages bounds the per-VM staging buffer: 256 pages (1 MiB)
// of readahead-filled blocks awaiting consumption.
//
// DefaultMaxRequeues bounds how many crossings a flush salvaged from an
// abandoned batch may ride before the transport gives up on it: under a
// persistent fault every drain would otherwise re-queue the same flushes
// forever, livelocking the flush tick.
const (
	DefaultStagingPages = 256
	DefaultMaxRequeues  = 4
)

// Options parameterizes a Transport. Ring bounds, staging size and the
// retry policy are the Default* constants above.
type Options struct {
	// Unbatched disables coalescing: every op pays its own world switch,
	// the pre-batching behaviour. The baseline for the transport
	// experiment.
	Unbatched bool
	// AsyncGets enables tagged get pipelining: gets ride the batch ring as
	// tagged frames instead of paying a private synchronous crossing, and
	// their completions are demultiplexed by tag when the batch drains.
	// Multiple gets per VM may then be outstanding at once (SubmitAsync /
	// Await); Submit still blocks, but shares the batch crossing. Ignored
	// in Unbatched mode.
	AsyncGets bool
	// ZeroCopy hands bulk response pages back as shared-page references
	// (MapPages) instead of copies: tagged gets reserve no page budget in
	// the batch and readahead fills map their blocks into the staging
	// buffer at DefaultPageMapCost per page.
	ZeroCopy bool
	// Latency receives every op's charged latency by op code; nil
	// disables recording.
	Latency *OpLatency
	// Faults injects transport faults (drop, corrupt, latency) at sites
	// SiteBatch, SiteCall and SiteCompletion; nil disables injection.
	Faults *fault.Injector
	// OpBudget is the per-operation latency budget for the data path
	// (gets and readahead): a get whose cumulative virtual latency —
	// drains, retries, backoff, stalls — would exceed the budget resolves
	// as a miss with its charged wait clamped to the budget, and the
	// guest falls back to disk. Zero disables deadline enforcement.
	// Control ops and flushes are exempt: they carry correctness, not
	// data, and must run to completion.
	OpBudget time.Duration
	// MaxInflightGets caps the number of outstanding async get waiters;
	// submissions over the cap are shed as immediate misses (counted as
	// ShedGets, never errors). Zero means unlimited.
	MaxInflightGets int
	// MaxQueuedOps caps the ring's buffered-op depth for droppable
	// batchable ops (puts, readaheads): submissions over the cap are shed
	// (counted as ShedOps). Flushes are never shed — a lost flush breaks
	// the cleancache contract — so the cap bounds best-effort traffic
	// while invalidations always get through. Zero means unlimited.
	MaxQueuedOps int
}

// TransportStats is a snapshot of one transport's traffic.
type TransportStats struct {
	// Calls is the number of world switches (batched crossings + sync
	// ops).
	Calls int64
	// PagesCopied is the number of pages moved across the boundary.
	PagesCopied int64
	// PagesMapped is the number of pages handed over as zero-copy
	// shared-page references.
	PagesMapped int64
	// Batches is the number of multi-op crossings.
	Batches int64
	// BatchedOps is the number of untagged operations accepted into the
	// ring (puts, flushes, readaheads). Tagged gets are counted in
	// AsyncGets instead, and flushes re-pushed after an abandoned
	// crossing in RequeuedOps.
	BatchedOps int64
	// SyncOps is the number of operations delivered synchronously (gets,
	// control ops, and everything in Unbatched mode).
	SyncOps int64
	// AsyncGets is the number of gets delivered as tagged batch frames.
	AsyncGets int64
	// StagedHits is the number of gets served from the staging buffer
	// without paying a crossing.
	StagedHits int64
	// StagedFills is the number of blocks readahead placed in the staging
	// buffer; StagedEvictions counts the ones pushed out unconsumed.
	StagedFills     int64
	StagedEvictions int64
	// StagedPages is the number of blocks currently staged.
	StagedPages int64
	// Pending is the number of operations currently buffered.
	Pending int64
	// Retries is the number of crossings re-sent after a drop or a
	// checksum rejection.
	Retries int64
	// Backoff is the total virtual time spent backing off before retries.
	Backoff time.Duration
	// Drops and Corrupts count the in-flight faults the channel observed.
	Drops    int64
	Corrupts int64
	// DroppedBatches is the number of batches abandoned after
	// DefaultMaxAttempts delivery attempts.
	DroppedBatches int64
	// RequeuedOps is the number of flush ops from abandoned batches
	// re-queued for the next crossing.
	RequeuedOps int64
	// FlushAbandoned is the number of flushes dropped after
	// DefaultMaxRequeues abandoned crossings.
	FlushAbandoned int64
	// SyncFailures is the number of synchronous ops whose crossing was
	// abandoned (reported Ok=false to the guest).
	SyncFailures int64
	// DeadlineMisses is the number of data-path ops that resolved as
	// misses because their latency budget expired (WatchdogFails of them
	// were failed by the watchdog sweep rather than at resolution).
	DeadlineMisses int64
	WatchdogFails  int64
	// ShedGets and ShedOps count admission-control rejections: gets shed
	// at the inflight cap and puts/readaheads shed at the queue cap, all
	// reported to the guest as immediate misses, never errors.
	ShedGets int64
	ShedOps  int64
	// CompletionDrops is the number of drains whose completions were lost
	// to an injected fault at SiteCompletion; their waiters resolve as
	// misses via the watchdog or the await fallback.
	CompletionDrops int64
	// Waiters is the number of async get handles currently outstanding
	// (in the waiter table); it must drain to zero at quiesce.
	Waiters int64
	// MaxGetLatency is the largest latency charged to any single get —
	// the liveness bound the deadline budget enforces.
	MaxGetLatency time.Duration
}

// OpLatency is a per-op-code sink for the latency a transport charges:
// one histogram per cleancache.OpCode. Several transports may share one
// sink, whose histograms then aggregate over all of them. Recording
// costs a histogram lock per op, so stock transports carry no sink.
type OpLatency struct {
	hists []*metrics.Histogram // indexed by OpCode
}

// NewOpLatency returns an empty sink with one histogram per op code.
func NewOpLatency() *OpLatency {
	ops := cleancache.OpCodes()
	l := &OpLatency{hists: make([]*metrics.Histogram, int(ops[len(ops)-1])+1)}
	for _, op := range ops {
		l.hists[op] = metrics.NewHistogram()
	}
	return l
}

// Op returns op's histogram, or nil for an unknown op code.
func (l *OpLatency) Op(op cleancache.OpCode) *metrics.Histogram {
	if int(op) < len(l.hists) {
		return l.hists[op]
	}
	return nil
}

// Transport is the batched, pipelined hypercall path from one VM to the
// hypervisor cache manager. It implements cleancache.Transport.
//
// Batchable operations (put, flush, readahead) are appended to a bounded
// Ring and delivered together in one crossing — one world switch for the
// whole batch plus per-page copy costs — when the ring fills or when the
// guest's flush tick calls Flush. Synchronous operations (get and the
// control ops) first drain the ring, preserving per-VM FIFO order, so
// the backend observes exactly the unbatched operation sequence: a get
// following a buffered put of the same key sees the put.
//
// With AsyncGets enabled, gets instead ride the ring as tagged frames:
// the frame keeps its FIFO position (so ordering against buffered puts
// and flushes is unchanged), but its completion — (tag, ok, ready-at) —
// is demultiplexed back to a per-op waiter, letting one VM keep several
// gets in flight and letting completions land out of submission order in
// virtual time.
//
// Readahead responses fill a bounded staging buffer modelling the per-VM
// shared staging region: subsequent gets for staged blocks are answered
// from the buffer without any crossing at all. Staged entries are
// invalidated by the ops that could stale them (put, flush, migrate,
// destroy), both at Submit and again at each op's FIFO position during a
// drain — an op buffered behind a readahead must kill the blocks that
// readahead stages ahead of it. Dropping a staged page is always safe
// under the cleancache contract.
//
// Transport is safe for concurrent use by a VM's vCPU threads.
type Transport struct {
	be  cleancache.Backend
	lat *OpLatency

	// mu guards the ring and the traffic counters below. ch is set once at
	// construction and read without the lock (Channel()); the Channel is
	// internally consistent on its own.
	mu   sync.Mutex
	ch   *Channel
	ring *Ring // ddlint:guarded-by mu

	unbatched bool
	asyncGets bool
	zeroCopy  bool
	// The staging bound and retry policy are the Default* constants; they
	// are fields so package tests can shrink them.
	stagingCap  int
	retryBase   time.Duration
	retryCap    time.Duration
	maxAttempts int
	maxRequeues int
	opBudget    time.Duration
	maxInflight int
	maxQueued   int

	// Async get demultiplexing: the next frame tag (tag 0 is reserved for
	// untagged handles), the waiters keyed by tag, and the completions of
	// the drain in progress.
	nextTag     uint64            // ddlint:guarded-by mu
	waiters     map[uint64]waiter // ddlint:guarded-by mu
	completions []Completion      // ddlint:guarded-by mu

	// Staging buffer: readahead-filled blocks and the virtual time their
	// fill completes. stagedOrder is the FIFO eviction queue (lazily
	// pruned: consumed or invalidated keys go stale in place).
	staged      map[cleancache.Key]time.Duration // ddlint:guarded-by mu
	stagedOrder []cleancache.Key                 // ddlint:guarded-by mu

	batches         int64         // ddlint:guarded-by mu
	batchedOps      int64         // ddlint:guarded-by mu
	syncOps         int64         // ddlint:guarded-by mu
	asyncGetOps     int64         // ddlint:guarded-by mu
	stagedHits      int64         // ddlint:guarded-by mu
	stagedFills     int64         // ddlint:guarded-by mu
	stagedEvictions int64         // ddlint:guarded-by mu
	retries         int64         // ddlint:guarded-by mu
	backoff         time.Duration // ddlint:guarded-by mu
	droppedBatches  int64         // ddlint:guarded-by mu
	requeuedOps     int64         // ddlint:guarded-by mu
	flushAbandoned  int64         // ddlint:guarded-by mu
	syncFailures    int64         // ddlint:guarded-by mu
	deadlineMisses  int64         // ddlint:guarded-by mu
	watchdogFails   int64         // ddlint:guarded-by mu
	shedGets        int64         // ddlint:guarded-by mu
	shedOps         int64         // ddlint:guarded-by mu
	completionDrops int64         // ddlint:guarded-by mu
	maxGetLat       time.Duration // ddlint:guarded-by mu
}

// waiter is one outstanding async get: its handle, and the key it covers
// so a watchdog-failed get can invalidate staged readahead over the same
// block.
type waiter struct {
	pg  *cleancache.PendingGet
	key cleancache.Key
}

var (
	_ cleancache.Transport         = (*Transport)(nil)
	_ cleancache.AsyncTransport    = (*Transport)(nil)
	_ cleancache.DeadlineTransport = (*Transport)(nil)
)

// NewTransport wires a batched transport to be.
func NewTransport(be cleancache.Backend, opts Options) *Transport {
	return &Transport{
		be:          be,
		lat:         opts.Latency,
		ch:          NewChannel().WithFaults(opts.Faults),
		ring:        NewRing(DefaultMaxBatchOps, DefaultMaxBatchPages),
		unbatched:   opts.Unbatched,
		asyncGets:   opts.AsyncGets && !opts.Unbatched,
		zeroCopy:    opts.ZeroCopy,
		stagingCap:  DefaultStagingPages,
		retryBase:   DefaultRetryBase,
		retryCap:    DefaultRetryCap,
		maxAttempts: DefaultMaxAttempts,
		maxRequeues: DefaultMaxRequeues,
		opBudget:    opts.OpBudget,
		maxInflight: opts.MaxInflightGets,
		maxQueued:   opts.MaxQueuedOps,
		nextTag:     1, // tag 0 is the "no tag" sentinel on untagged handles
		waiters:     make(map[uint64]waiter),
		staged:      make(map[cleancache.Key]time.Duration),
	}
}

// Channel exposes the underlying cost/traffic model.
func (t *Transport) Channel() *Channel { return t.ch }

// Stats snapshots the transport's traffic counters.
func (t *Transport) Stats() TransportStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TransportStats{
		Calls:           t.ch.Calls(),
		PagesCopied:     t.ch.PagesCopied(),
		PagesMapped:     t.ch.PagesMapped(),
		Batches:         t.batches,
		BatchedOps:      t.batchedOps,
		SyncOps:         t.syncOps,
		AsyncGets:       t.asyncGetOps,
		StagedHits:      t.stagedHits,
		StagedFills:     t.stagedFills,
		StagedEvictions: t.stagedEvictions,
		StagedPages:     int64(len(t.staged)),
		Pending:         int64(t.ring.Len()),
		Retries:         t.retries,
		Backoff:         t.backoff,
		Drops:           t.ch.Drops(),
		Corrupts:        t.ch.Corrupts(),
		DroppedBatches:  t.droppedBatches,
		RequeuedOps:     t.requeuedOps,
		FlushAbandoned:  t.flushAbandoned,
		SyncFailures:    t.syncFailures,
		DeadlineMisses:  t.deadlineMisses,
		WatchdogFails:   t.watchdogFails,
		ShedGets:        t.shedGets,
		ShedOps:         t.shedOps,
		CompletionDrops: t.completionDrops,
		Waiters:         int64(len(t.waiters)),
		MaxGetLatency:   t.maxGetLat,
	}
}

// Submit implements cleancache.Transport. Batchable ops are buffered and
// acknowledged optimistically (Ok=true — the guest drops the page either
// way, matching the paper's fire-and-forget put semantics); the reported
// latency is whatever drain this submission triggered. Synchronous ops
// drain the ring, pay their own crossing, dispatch, and return the
// backend's answer with transport cost folded into Latency. Gets check
// the staging buffer first and, when AsyncGets is on, ride the batch as
// tagged frames instead of paying a private crossing.
func (t *Transport) Submit(now time.Duration, req cleancache.Request) cleancache.Response {
	t.mu.Lock()
	defer t.mu.Unlock()

	t.invalidateStagedLocked(req)

	if !t.unbatched && req.Op.Batchable() {
		if t.maxQueued > 0 && t.ring.Len() >= t.maxQueued {
			// Admission control: over the queue cap, best-effort ops are
			// shed instead of buffered — the page is simply not cached (or
			// not prefetched), free under the cleancache contract. Flushes
			// fall through: dropping an invalidation would leave the
			// hypervisor holding an object the guest dirtied.
			switch req.Op {
			case cleancache.OpPut, cleancache.OpReadAhead:
				t.shedOps++
				return cleancache.Response{Op: req.Op, Ok: false}
			default: // ddlint:nonexhaustive — only flushes remain batchable
			}
		}
		var lat time.Duration
		if !t.ring.Fits(req.Op.Pages()) {
			lat = t.drainLocked(now)
		}
		t.ring.Push(req)
		t.batchedOps++
		if t.ring.Full() {
			lat += t.drainLocked(now + lat)
		}
		return cleancache.Response{Op: req.Op, Ok: true, Latency: lat}
	}

	if req.Op == cleancache.OpGet && t.asyncGets {
		pg, lat := t.enqueueGetLocked(now, req)
		if !pg.Done() {
			lat += t.drainLocked(now + lat)
		}
		return t.resolveLocked(now, lat, pg)
	}

	// stalled records that this get passed over a staged fill too late for
	// its budget: if it then misses, the budget is why, and it counts as
	// one deadline miss when it resolves.
	var stalled bool
	if req.Op == cleancache.OpGet {
		// A staged block is guest-visible memory: consuming it needs no
		// crossing and no drain. Nothing buffered can stale it — the ops
		// that could (put, flush) invalidated it at their own Submit.
		wait, hit, st := t.consumeStagedLocked(now, req.Key)
		if hit {
			t.observe(req.Op, wait)
			return cleancache.Response{Op: req.Op, Ok: true, Latency: wait}
		}
		stalled = st
	}

	// Synchronous path: barrier-drain buffered ops first so the backend
	// sees FIFO order, then pay this op's own crossing. The dispatch
	// timestamp `at` is threaded explicitly — every drain, delivery and
	// backoff advances it — so the backend is invoked at exactly the
	// virtual time the request arrives and the guest-visible latency is
	// always at-now plus the backend's own latency.
	at := now
	at += t.drainLocked(at)
	// The drain may have dispatched a buffered readahead whose fills this
	// op invalidates (migrate, destroy): the submit-time invalidation
	// above ran before those blocks were staged, so repeat it now that
	// this op is about to apply behind them in FIFO order.
	t.invalidateStagedLocked(req)
	if req.Op == cleancache.OpGet {
		// The drain may have dispatched a buffered readahead that staged
		// this very block: re-check before paying a crossing.
		wait, hit, st := t.consumeStagedLocked(at, req.Key)
		stalled = stalled || st
		if hit {
			lat := at + wait - now
			if t.opBudget > 0 && lat > t.opBudget {
				// The barrier drain alone blew the budget: the guest
				// stopped waiting, so the staged block is dropped (fail-
				// to-miss) and the charge is clamped.
				t.deadlineMisses++
				t.observe(req.Op, t.opBudget)
				return cleancache.Response{Op: req.Op, Ok: false, Latency: t.opBudget}
			}
			t.observe(req.Op, lat)
			return cleancache.Response{Op: req.Op, Ok: true, Latency: lat}
		}
	}
	// Data-path ops carry a latency budget: the retry loop gives up once
	// the deadline passes, and an over-budget get resolves as a miss with
	// its charge clamped. Control ops and flushes are exempt — they carry
	// correctness and must run to completion whatever the cost.
	var deadline time.Duration
	if t.opBudget > 0 && (req.Op == cleancache.OpGet || req.Op == cleancache.OpReadAhead) {
		deadline = now + t.opBudget
	}
	clat, ok := t.crossLocked(at, req.Op.Pages(), t.payload(Frame{Req: req}), SiteCall, deadline)
	at += clat
	t.syncOps++
	if !ok {
		// The call never reached the hypervisor. Reporting Ok=false is
		// cleancache-safe: a failed get is a miss (the guest re-reads from
		// its virtual disk), a failed control op surfaces to its caller.
		t.syncFailures++
		lat := at - now
		if deadline > 0 && req.Op == cleancache.OpGet && lat > t.opBudget {
			lat = t.opBudget // the guest stopped waiting at the deadline
		}
		t.observe(req.Op, lat)
		return cleancache.Response{Op: req.Op, Ok: false, Latency: lat}
	}
	resp := t.be.Dispatch(at, req)
	if req.Op == cleancache.OpReadAhead {
		// Unbatched transports deliver READ_AHEAD synchronously; the
		// backend has already extracted the blocks under the exclusive
		// protocol, so the response must fill the staging buffer —
		// discarding it would silently evict up to Count cached blocks
		// and turn the following gets into guaranteed misses.
		t.stageLocked(at, req, resp)
	}
	resp.Latency += at - now
	if req.Op == cleancache.OpGet && deadline > 0 && now+resp.Latency > deadline {
		// The answer landed past the budget: the guest already fell back
		// to disk, so the verdict is a miss (the extracted block is
		// dropped — fail-to-miss, never data loss) and the charge is the
		// budget, not the stalled crossing.
		t.deadlineMisses++
		resp.Ok = false
		resp.Latency = t.opBudget
	} else if stalled && !resp.Ok {
		t.deadlineMisses++
	}
	t.observe(req.Op, resp.Latency)
	return resp
}

// SubmitAsync implements cleancache.AsyncTransport: it issues a get
// without waiting for its completion. The request is pushed as a tagged
// frame (draining the ring only if the frame does not fit) and a handle
// is returned for Await. The returned latency is the submission cost
// charged to the caller now — any drain this push triggered — not the
// get's completion time. Ops other than get, and transports without
// AsyncGets, fall back to the synchronous Submit and return an
// already-completed handle.
func (t *Transport) SubmitAsync(now time.Duration, req cleancache.Request) (*cleancache.PendingGet, time.Duration) {
	if req.Op != cleancache.OpGet || !t.asyncGets {
		resp := t.Submit(now, req)
		return cleancache.CompletedPendingGet(resp, now+resp.Latency), resp.Latency
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.enqueueGetLocked(now, req)
}

// Await implements cleancache.AsyncTransport: it blocks (in virtual
// time) until pg completes, forcing a ring drain if the completion is
// still in flight. The returned Latency is the wait remaining from now;
// a get whose completion already landed in the past costs nothing more.
func (t *Transport) Await(now time.Duration, pg *cleancache.PendingGet) cleancache.Response {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lat time.Duration
	if !pg.Done() {
		lat = t.drainLocked(now)
	}
	return t.resolveLocked(now, lat, pg)
}

// enqueueGetLocked pushes req as a tagged frame, serving it from the
// staging buffer instead when the block is staged (no crossing at all).
// Returns the pending handle and the submission latency charged now.
//
// ddlint:requires-lock mu
func (t *Transport) enqueueGetLocked(now time.Duration, req cleancache.Request) (*cleancache.PendingGet, time.Duration) {
	if wait, hit, _ := t.consumeStagedLocked(now, req.Key); hit {
		return t.armDeadline(now, cleancache.ReadyPendingGet(true, now+wait)), 0
	}
	if t.maxInflight > 0 && len(t.waiters) >= t.maxInflight {
		// Admission control: over the inflight cap the get is shed as an
		// immediate miss — the guest reads from disk — instead of growing
		// the waiter table without bound while the transport is stalled.
		t.shedGets++
		return cleancache.ReadyPendingGet(false, now), 0
	}
	pages := req.Op.Pages()
	if t.zeroCopy {
		pages = 0 // the answer page is mapped, not copied through the batch
	}
	var lat time.Duration
	if !t.ring.Fits(pages) {
		lat = t.drainLocked(now)
		// That drain may have dispatched a readahead staging this block.
		// The drain's own latency counts against the budget too — the
		// armed deadline turns an over-budget resolution into a clamped
		// miss.
		if wait, hit, _ := t.consumeStagedLocked(now+lat, req.Key); hit {
			return t.armDeadline(now, cleancache.ReadyPendingGet(true, now+lat+wait)), lat
		}
	}
	tag := t.nextTag
	t.nextTag++
	pg := cleancache.NewPendingGet(tag)
	if t.opBudget > 0 {
		pg.SetDeadline(now + t.opBudget)
	}
	t.waiters[tag] = waiter{pg: pg, key: req.Key}
	t.ring.PushTagged(tag, req, pages)
	t.asyncGetOps++
	if t.ring.Full() {
		lat += t.drainLocked(now + lat)
	}
	return pg, lat
}

// armDeadline arms a handle's latency budget relative to its submission
// time (a no-op without a configured budget), so Resolve clamps an
// over-budget resolution to a miss even for handles that never entered
// the waiter table.
func (t *Transport) armDeadline(now time.Duration, pg *cleancache.PendingGet) *cleancache.PendingGet {
	if t.opBudget > 0 {
		pg.SetDeadline(now + t.opBudget)
	}
	return pg
}

// resolveLocked turns a completed handle into the guest-visible
// response via PendingGet.Resolve. submitLat is the latency already
// accumulated by the caller this submission (drains it triggered); the
// reported latency is the later of that and the completion's ready-at.
// Failure of the crossing (abandoned batch) is reported as Ok=false — a
// miss, never data loss — and counted as a sync failure. Idempotent: a
// second resolution returns the recorded response with only the wait
// remaining from now, and accounting happens only on the first.
//
// ddlint:requires-lock mu
func (t *Transport) resolveLocked(now, submitLat time.Duration, pg *cleancache.PendingGet) cleancache.Response {
	preExpired := pg.DeadlineExceeded() // watchdog fails were counted at the sweep
	resp, first := pg.Resolve(now, submitLat)
	if !first {
		return resp
	}
	if tag := pg.Tag(); tag != 0 {
		// A waiter can resolve without a delivered completion — its
		// completions were lost in flight, or the transport is being torn
		// down — and must still release its table entry, or the waiter
		// table leaks an entry per lost completion.
		delete(t.waiters, tag)
	}
	if pg.DeadlineExceeded() {
		if !preExpired {
			t.deadlineMisses++
		}
	} else if pg.Failed() {
		t.syncFailures++
	}
	t.observe(cleancache.OpGet, resp.Latency)
	return resp
}

// consumeStagedLocked serves key from the staging buffer if present:
// the entry is consumed (gets are exclusive) and the returned wait is
// the time until its fill completes — zero for a block staged in the
// past. The fill already paid the page movement, so consumption is free.
// Under a latency budget, a fill that will not be ready within the
// budget is left staged (it may serve a later get once ready) and the
// lookup misses now with stalled set — the guest is not made to wait
// past its deadline for a stalled prefetch. The lookup counts no
// deadline miss itself: a get is counted once, when it resolves (a
// tagged get's frame consumes the stalled fill at the drain and
// resolves past its deadline).
//
// ddlint:requires-lock mu
func (t *Transport) consumeStagedLocked(now time.Duration, key cleancache.Key) (wait time.Duration, hit, stalled bool) {
	if t.opBudget > 0 {
		if readyAt, ok := t.staged[key]; ok && readyAt-now > t.opBudget {
			return 0, false, true
		}
	}
	readyAt, ok := t.stagedHitLocked(key)
	if !ok {
		return 0, false, false
	}
	if readyAt <= now {
		return 0, true, false
	}
	return readyAt - now, true, false
}

// stageLocked records a readahead response: the extracted blocks become
// staged entries whose fill completes after the backend latency plus the
// page handover — mapped references under ZeroCopy, copies otherwise.
// The buffer is bounded; the oldest unconsumed entries are evicted,
// which is always safe (an evicted block is simply re-fetched).
//
// ddlint:requires-lock mu
func (t *Transport) stageLocked(at time.Duration, req cleancache.Request, resp cleancache.Response) {
	if resp.Count <= 0 {
		return
	}
	n := int(resp.Count)
	ready := at + resp.Latency
	if t.zeroCopy {
		ready += t.ch.MapPages(n)
	} else {
		ready += t.ch.CopyPages(n)
	}
	for i := int64(0); i < resp.Count; i++ {
		key := cleancache.Key{Pool: req.Key.Pool, Inode: req.Key.Inode, Block: req.Key.Block + i}
		if _, dup := t.staged[key]; dup {
			t.staged[key] = ready
			continue
		}
		for len(t.staged) >= t.stagingCap {
			t.evictStagedLocked()
		}
		t.staged[key] = ready
		t.stagedOrder = append(t.stagedOrder, key)
		t.stagedFills++
	}
}

// evictStagedLocked removes the oldest live staged entry, skipping keys
// already consumed or invalidated (their order slots went stale).
//
// ddlint:requires-lock mu
func (t *Transport) evictStagedLocked() {
	for len(t.stagedOrder) > 0 {
		key := t.stagedOrder[0]
		t.stagedOrder = t.stagedOrder[1:]
		if _, live := t.staged[key]; live {
			delete(t.staged, key)
			t.stagedEvictions++
			return
		}
	}
}

// invalidateStagedLocked drops staged blocks the submitted op could
// stale: the guest is about to overwrite or invalidate them, and serving
// a stale staged page would violate the cleancache contract. Dropping is
// always safe — a dropped staged block is re-fetched on demand.
//
// ddlint:requires-lock mu
func (t *Transport) invalidateStagedLocked(req cleancache.Request) {
	if len(t.staged) == 0 {
		return
	}
	switch req.Op {
	case cleancache.OpPut, cleancache.OpFlushPage:
		delete(t.staged, req.Key)
	case cleancache.OpFlushInode, cleancache.OpMigrateObject:
		for key := range t.staged {
			if key.Pool == req.Key.Pool && key.Inode == req.Key.Inode {
				delete(t.staged, key)
			}
		}
	case cleancache.OpDestroyCgroup:
		for key := range t.staged {
			if key.Pool == req.Key.Pool {
				delete(t.staged, key)
			}
		}
	default: // ddlint:nonexhaustive — gets and the remaining control ops cannot stale staged blocks
	}
}

// crossLocked delivers payload across the boundary, re-sending dropped or
// checksum-rejected crossings with capped exponential backoff. Replay is
// idempotent because batches are FIFO and all-or-nothing: the receiver
// either received the whole batch or saw none of it, so re-sending the
// same frames cannot double-apply an op. The delivery timestamp `at`
// advances through every attempt and backoff, so each retry hits the
// fault plan at the virtual time it actually occurs. A non-zero deadline
// bounds the retry loop in virtual time: once `at` passes it, further
// retries cannot produce an answer anyone is still waiting for, so the
// crossing is abandoned early. Returns the total latency (at-now:
// crossings plus backoff) and whether the payload was delivered within
// the attempt and deadline budgets. Requires t.mu.
//
// ddlint:requires-lock mu
func (t *Transport) crossLocked(now time.Duration, pages int, payload []byte, site string, deadline time.Duration) (time.Duration, bool) {
	at := now
	backoff := t.retryBase
	for attempt := 1; ; attempt++ {
		dlat, err := t.ch.Deliver(at, pages, payload, site)
		at += dlat
		if err == nil {
			return at - now, true
		}
		if attempt >= t.maxAttempts {
			return at - now, false
		}
		if deadline > 0 && at >= deadline {
			return at - now, false
		}
		t.retries++
		t.backoff += backoff
		at += backoff
		backoff *= 2
		if backoff > t.retryCap {
			backoff = t.retryCap
		}
	}
}

// requeueLocked empties an abandoned batch at virtual time at, salvaging
// what the contract requires:
//
//   - puts and readaheads are dropped — the pages are simply not cached
//     (or not prefetched), free under the cleancache contract;
//   - tagged gets complete their waiters with Ok=false — a miss, so the
//     guest re-reads from its virtual disk, never data loss;
//   - flushes stay in the ring, in FIFO order, for the next crossing,
//     since a lost flush would leave the hypervisor holding an object the
//     guest invalidated — but only up to maxRequeues abandoned crossings
//     each, so a persistent transport fault surfaces as FlushAbandoned
//     instead of re-queuing the same flushes forever.
//
// Requires t.mu.
//
// ddlint:requires-lock mu
func (t *Transport) requeueLocked(at time.Duration) {
	t.ring.Retain(func(f *Frame) bool {
		if f.Tagged {
			if !f.cancelled { // else the watchdog already failed the waiter
				t.failWaiterLocked(f.Tag, at)
			}
			return false
		}
		switch f.Req.Op {
		case cleancache.OpPut, cleancache.OpReadAhead:
			return false // droppable, fire-and-forget
		default: // ddlint:nonexhaustive — only flushes remain buffered untagged
		}
		f.requeues++
		if f.requeues > t.maxRequeues {
			t.flushAbandoned++
			return false
		}
		t.requeuedOps++
		return true
	})
}

// failWaiterLocked completes a tagged get's waiter as a transport
// failure at virtual time at.
//
// ddlint:requires-lock mu
func (t *Transport) failWaiterLocked(tag uint64, at time.Duration) {
	w, ok := t.waiters[tag]
	if !ok {
		return
	}
	delete(t.waiters, tag)
	w.pg.Fail(at)
}

// Flush implements cleancache.Transport: the guest's periodic transport
// tick (and shutdown) drains buffered ops.
func (t *Transport) Flush(now time.Duration) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drainLocked(now)
}

// Watchdog implements cleancache.DeadlineTransport: it sweeps the waiter
// table for handles whose deadline has passed with the completion still
// in flight, failing each as a deadline miss and releasing its
// transport-side resources — the waiter-table entry now, the ring slot
// at the next drain (the frame, if still buffered, is marked cancelled:
// it must not dispatch, or the exclusive protocol would extract the block
// with nobody left to consume it), and any staged readahead covering the
// same block (a fill nobody is waiting for anymore). Returns how many
// waiters it failed. A no-op without a configured budget.
func (t *Transport) Watchdog(now time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.opBudget <= 0 {
		return 0
	}
	n := 0
	for tag, w := range t.waiters {
		dl := w.pg.Deadline()
		if dl <= 0 || now < dl {
			continue
		}
		delete(t.waiters, tag)
		delete(t.staged, w.key)
		t.ring.Cancel(tag)
		w.pg.FailDeadline(dl)
		t.watchdogFails++
		t.deadlineMisses++
		n++
	}
	return n
}

// Close implements cleancache.DeadlineTransport: crash-safe teardown
// with work still in flight. Buffered ops get one final drain (flushes
// must reach the hypervisor; cancelled frames release their slots), any
// waiter still pending afterwards fails as a miss, and the staging
// buffer is dropped — staged blocks were already extracted from the
// pools, so dropping them is the exclusive protocol's normal fail-to-
// miss, never data loss. Counters survive Close; the waiter and staging
// tables are empty afterwards.
func (t *Transport) Close(now time.Duration) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	lat := t.drainLocked(now)
	for tag, w := range t.waiters {
		delete(t.waiters, tag)
		w.pg.Fail(now + lat)
	}
	t.stagedEvictions += int64(len(t.staged))
	for key := range t.staged {
		delete(t.staged, key)
	}
	t.stagedOrder = t.stagedOrder[:0]
	return lat
}

// drainLocked delivers the buffered batch in one checksummed crossing:
// one world switch for the whole batch plus the page copies (re-sent with
// backoff if the crossing is dropped or corrupted in flight), then each
// op dispatched in FIFO order at its pipelined delivery time. Puts and
// flushes accumulate serially — the hypervisor applies them in order on
// the draining vCPU's time. Tagged gets and readaheads dispatch at their
// FIFO position but do not delay the ops behind them: their latency
// lands on their own completion (the waiter's ready-at, the staged
// fill's ready-at) instead of the draining caller, which is what lets
// several gets overlap. Completions are collected during the walk and
// demultiplexed to waiters afterwards. Returns the total latency charged
// to the draining caller. Requires t.mu.
func (t *Transport) drainLocked(now time.Duration) time.Duration {
	ops := t.ring.Len()
	if ops == 0 {
		return 0
	}
	pages := t.ring.Pages()
	// A configured budget caps the batch crossing's retry loop too: a
	// drain is charged to whichever caller triggered it, and no caller
	// should burn more than one budget's worth of retries on it.
	var dl time.Duration
	if t.opBudget > 0 {
		dl = now + t.opBudget
	}
	lat, ok := t.crossLocked(now, pages, t.payload(t.ring.Frames()...), SiteBatch, dl)
	if !ok {
		// Attempt budget exhausted: abandon the batch, salvaging what the
		// contract requires (see requeueLocked).
		t.droppedBatches++
		t.requeueLocked(now + lat)
		return lat
	}
	t.batches++
	perOp := lat / time.Duration(ops) // amortized transport share
	acc := lat
	t.completions = t.completions[:0]
	t.ring.Drain(func(f *Frame) {
		if f.Tagged {
			// A frame the watchdog cancelled while it sat in the ring only
			// releases its slot: dispatching would extract the block under
			// the exclusive protocol with nobody left to consume it.
			if !f.cancelled {
				t.completeGetLocked(now+acc, f)
			}
			return
		}
		if f.Req.Op == cleancache.OpReadAhead {
			resp := t.be.Dispatch(now+acc, f.Req)
			t.stageLocked(now+acc, f.Req, resp)
			t.observe(f.Req.Op, resp.Latency+perOp)
			return
		}
		// An invalidating op (put, flush) kills matching staged blocks at
		// its FIFO position, not only at Submit: a readahead earlier in
		// this same drain may have staged the pre-op content after the
		// submit-time invalidation ran, and serving that block once this
		// op applies would violate the cleancache contract.
		t.invalidateStagedLocked(f.Req)
		resp := t.be.Dispatch(now+acc, f.Req)
		acc += resp.Latency
		t.observe(f.Req.Op, resp.Latency+perOp)
	})
	// The completions cross back on their own delivery: the fault plan can
	// stall or lose them independently of the submissions. Lost
	// completions leave their waiters pending — the watchdog sweep or the
	// await fallback fails each as a miss within its budget.
	var cdelay time.Duration
	if len(t.completions) > 0 && t.ch.Faulty() {
		var lost bool
		cdelay, lost = t.ch.CompletionFault(now + acc)
		if lost {
			t.completionDrops++
			t.completions = t.completions[:0]
		}
	}
	t.deliverCompletionsLocked(cdelay)
	return acc
}

// completeGetLocked dispatches one tagged get at virtual time at and
// appends its completion. A block staged by an earlier
// readahead in the same batch is served from the staging buffer — the
// whole point of issuing the readahead ahead of the stream. Requires
// t.mu.
//
// ddlint:requires-lock mu
func (t *Transport) completeGetLocked(at time.Duration, f *Frame) {
	if readyAt, hit := t.stagedHitLocked(f.Req.Key); hit {
		if readyAt < at {
			readyAt = at
		}
		t.completions = append(t.completions, Completion{Tag: f.Tag, Ok: true, At: readyAt})
		return
	}
	resp := t.be.Dispatch(at, f.Req)
	ready := at + resp.Latency
	if t.zeroCopy && resp.Ok {
		ready += t.ch.MapPages(1)
	}
	t.completions = append(t.completions, Completion{Tag: f.Tag, Ok: resp.Ok, Count: resp.Count, At: ready})
}

// stagedHitLocked consumes key from the staging buffer if present,
// returning its fill-ready time. Split from consumeStagedLocked so the
// drain path can clamp ready-at to the dispatch time itself.
//
// ddlint:requires-lock mu
func (t *Transport) stagedHitLocked(key cleancache.Key) (time.Duration, bool) {
	readyAt, ok := t.staged[key]
	if !ok {
		return 0, false
	}
	delete(t.staged, key)
	t.stagedHits++
	return readyAt, true
}

// deliverCompletionsLocked demultiplexes the drain's completions to their
// waiters by tag, with delay (an injected completion-path latency) added
// to every ready-time. Requires t.mu.
//
// ddlint:requires-lock mu
func (t *Transport) deliverCompletionsLocked(delay time.Duration) {
	for _, c := range t.completions {
		w, ok := t.waiters[c.Tag]
		if !ok {
			continue
		}
		delete(t.waiters, c.Tag)
		w.pg.Complete(c.Ok, c.At+delay)
	}
	t.completions = t.completions[:0]
}

// payload returns the wire encoding of frames: the bytes a faulty
// crossing checksums and may corrupt in flight. A healthy channel can
// neither lose nor corrupt a crossing, so nothing would read the bytes
// and payload returns nil.
func (t *Transport) payload(frames ...Frame) []byte {
	if !t.ch.Faulty() {
		return nil
	}
	var b []byte
	for _, f := range frames {
		if f.Tagged {
			b = EncodeTagged(b, f.Tag, f.Req)
		} else {
			b = EncodeRequest(b, f.Req)
		}
	}
	return b
}

// observe records one op's charged latency in the latency sink, if any,
// and tracks the worst charge any single get saw — the liveness bound
// the deadline budget enforces.
//
// ddlint:requires-lock mu
func (t *Transport) observe(op cleancache.OpCode, d time.Duration) {
	if op == cleancache.OpGet && d > t.maxGetLat {
		t.maxGetLat = d
	}
	if t.lat == nil {
		return
	}
	if h := t.lat.Op(op); h != nil {
		h.Observe(d)
	}
}
