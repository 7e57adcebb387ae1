package hypercall

import (
	"testing"
	"time"

	"doubledecker/internal/cleancache"
	"doubledecker/internal/fault"
)

// raBackend wraps seqBackend with READ_AHEAD support and an optional
// per-key get latency, for driving the staging and pipelining paths.
type raBackend struct {
	*seqBackend
	getLat map[cleancache.Key]time.Duration
}

func newRABackend() *raBackend {
	return &raBackend{seqBackend: newSeqBackend()}
}

func (b *raBackend) Dispatch(now time.Duration, req cleancache.Request) cleancache.Response {
	switch req.Op {
	case cleancache.OpReadAhead:
		b.ops = append(b.ops, req)
		resp := cleancache.Response{Op: req.Op, Latency: 300 * time.Nanosecond}
		for i := int64(0); i < req.Count; i++ {
			key := cleancache.Key{Pool: req.Key.Pool, Inode: req.Key.Inode, Block: req.Key.Block + i}
			if !b.pools[key.Pool][key] {
				break
			}
			delete(b.pools[key.Pool], key)
			resp.Count++
		}
		resp.Ok = resp.Count > 0
		return resp
	case cleancache.OpGet:
		if d, ok := b.getLat[req.Key]; ok {
			resp := b.seqBackend.Dispatch(now, req)
			resp.Latency = d
			return resp
		}
	}
	return b.seqBackend.Dispatch(now, req)
}

func get(pool cleancache.PoolID, inode uint64, block int64) cleancache.Request {
	return cleancache.Request{
		Op: cleancache.OpGet, VM: 1,
		Key: cleancache.Key{Pool: pool, Inode: inode, Block: block},
	}
}

func readAhead(pool cleancache.PoolID, inode uint64, block, count int64) cleancache.Request {
	return cleancache.Request{
		Op: cleancache.OpReadAhead, VM: 1,
		Key:   cleancache.Key{Pool: pool, Inode: inode, Block: block},
		Count: count,
	}
}

func TestAsyncGetsShareOneCrossing(t *testing.T) {
	be := newRABackend()
	tr := NewTransport(be, Options{AsyncGets: true})
	pool := newPool(t, tr)
	for b := int64(0); b < 4; b++ {
		tr.Submit(0, put(pool, 1, b))
	}
	tr.Flush(0)

	callsBefore := tr.Stats().Calls
	var pending []*cleancache.PendingGet
	for b := int64(0); b < 4; b++ {
		pg, lat := tr.SubmitAsync(0, get(pool, 1, b))
		if lat != 0 {
			t.Fatalf("block %d: submission charged %v with a non-full ring", b, lat)
		}
		pending = append(pending, pg)
	}
	tr.Flush(0)

	s := tr.Stats()
	if got := s.Calls - callsBefore; got != 1 {
		t.Fatalf("4 async gets took %d crossings, want 1", got)
	}
	if s.AsyncGets != 4 {
		t.Fatalf("AsyncGets = %d, want 4", s.AsyncGets)
	}
	// All four completions share the crossing and dispatch at the same
	// pipelined instant: each costs one batch crossing plus its own
	// backend latency, far below four serialized sync crossings.
	crossing := DefaultCallCost + 4*DefaultPageCopyCost
	for i, pg := range pending {
		resp := tr.Await(0, pg)
		if !resp.Ok {
			t.Fatalf("get %d missed", i)
		}
		if want := crossing + 300*time.Nanosecond; resp.Latency != want {
			t.Fatalf("get %d latency = %v, want %v", i, resp.Latency, want)
		}
	}
	// Sync baseline for comparison: each get pays its own crossing.
	syncPer := DefaultCallCost + DefaultPageCopyCost + 300*time.Nanosecond
	if all := crossing + 300*time.Nanosecond; all >= 4*syncPer {
		t.Fatalf("async batch (%v) not faster than 4 sync gets (%v)", all, 4*syncPer)
	}
}

func TestTaggedFramesPreserveFIFO(t *testing.T) {
	// An async get keeps its ring position: the backend must observe the
	// exact submission order even though the get's completion is
	// demultiplexed separately.
	be := newRABackend()
	tr := NewTransport(be, Options{AsyncGets: true})
	pool := newPool(t, tr)
	opsBefore := len(be.ops)

	tr.Submit(0, put(pool, 1, 0))
	pg, _ := tr.SubmitAsync(0, get(pool, 1, 0))
	tr.Submit(0, put(pool, 1, 1))
	tr.Submit(0, cleancache.Request{
		Op: cleancache.OpFlushPage, VM: 1,
		Key: cleancache.Key{Pool: pool, Inode: 1, Block: 1},
	})
	tr.Flush(0)

	if resp := tr.Await(0, pg); !resp.Ok {
		t.Fatal("get behind a buffered put of the same key missed: FIFO broken")
	}
	want := []cleancache.OpCode{cleancache.OpPut, cleancache.OpGet, cleancache.OpPut, cleancache.OpFlushPage}
	got := be.ops[opsBefore:]
	if len(got) != len(want) {
		t.Fatalf("backend saw %d ops, want %d", len(got), len(want))
	}
	for i, req := range got {
		if req.Op != want[i] {
			t.Fatalf("backend op %d = %v, want %v", i, req.Op, want[i])
		}
	}
}

func TestAsyncCompletionsLandOutOfOrder(t *testing.T) {
	be := newRABackend()
	tr := NewTransport(be, Options{AsyncGets: true})
	pool := newPool(t, tr)
	tr.Submit(0, put(pool, 1, 0))
	tr.Submit(0, put(pool, 1, 1))
	tr.Flush(0)
	be.getLat = map[cleancache.Key]time.Duration{
		{Pool: pool, Inode: 1, Block: 0}: 10 * time.Microsecond,
		{Pool: pool, Inode: 1, Block: 1}: 300 * time.Nanosecond,
	}

	slow, _ := tr.SubmitAsync(0, get(pool, 1, 0))
	fast, _ := tr.SubmitAsync(0, get(pool, 1, 1))
	tr.Flush(0)

	slowResp := tr.Await(0, slow)
	fastResp := tr.Await(0, fast)
	if !slowResp.Ok || !fastResp.Ok {
		t.Fatalf("gets missed: slow %+v fast %+v", slowResp, fastResp)
	}
	if fastResp.Latency >= slowResp.Latency {
		t.Fatalf("later-submitted fast get (%v) did not complete before slow get (%v)",
			fastResp.Latency, slowResp.Latency)
	}
}

func TestReadAheadServesGetsWithoutCrossing(t *testing.T) {
	be := newRABackend()
	tr := NewTransport(be, Options{})
	pool := newPool(t, tr)
	for b := int64(0); b < 8; b++ {
		tr.Submit(0, put(pool, 1, b))
	}
	tr.Flush(0)

	tr.Submit(0, readAhead(pool, 1, 0, 8))
	tr.Flush(0)
	if s := tr.Stats(); s.StagedFills != 8 || s.StagedPages != 8 {
		t.Fatalf("readahead staged %d blocks (%d live), want 8", s.StagedFills, s.StagedPages)
	}

	callsBefore := tr.Stats().Calls
	at := time.Millisecond // past the fill's ready-at
	for b := int64(0); b < 8; b++ {
		resp := tr.Submit(at, get(pool, 1, b))
		if !resp.Ok {
			t.Fatalf("staged block %d missed", b)
		}
		if resp.Latency != 0 {
			t.Fatalf("staged block %d charged %v after fill completed", b, resp.Latency)
		}
	}
	s := tr.Stats()
	if got := s.Calls - callsBefore; got != 0 {
		t.Fatalf("staged gets paid %d crossings, want 0", got)
	}
	if s.StagedHits != 8 || s.StagedPages != 0 {
		t.Fatalf("StagedHits = %d, StagedPages = %d, want 8 and 0", s.StagedHits, s.StagedPages)
	}
	// A get before the fill completes waits for it rather than crossing.
	tr.Submit(at, put(pool, 2, 0))
	tr.Flush(at)
	tr.Submit(at, readAhead(pool, 2, 0, 1))
	flat := tr.Flush(at)
	resp := tr.Submit(at+flat, get(pool, 2, 0))
	if !resp.Ok || resp.Latency <= 0 {
		t.Fatalf("get during fill: %+v, want a hit with a positive wait", resp)
	}
}

func TestReadAheadAndTaggedGetInOneBatch(t *testing.T) {
	// A readahead and a get for a block it stages ride the same crossing:
	// the drain must serve the get from the freshly staged block, not
	// dispatch it against a backend that just extracted the object.
	be := newRABackend()
	tr := NewTransport(be, Options{AsyncGets: true})
	pool := newPool(t, tr)
	for b := int64(0); b < 4; b++ {
		tr.Submit(0, put(pool, 1, b))
	}
	tr.Flush(0)
	opsBefore := len(be.ops)

	tr.Submit(0, readAhead(pool, 1, 0, 4))
	pg, _ := tr.SubmitAsync(0, get(pool, 1, 2))
	tr.Flush(0)

	if resp := tr.Await(0, pg); !resp.Ok {
		t.Fatal("get behind same-batch readahead missed")
	}
	for _, req := range be.ops[opsBefore:] {
		if req.Op == cleancache.OpGet {
			t.Fatal("get dispatched to the backend despite same-batch staging")
		}
	}
	if s := tr.Stats(); s.StagedHits != 1 {
		t.Fatalf("StagedHits = %d, want 1", s.StagedHits)
	}
}

func TestStagedInvalidation(t *testing.T) {
	be := newRABackend()
	tr := NewTransport(be, Options{})
	pool := newPool(t, tr)
	for b := int64(0); b < 4; b++ {
		tr.Submit(0, put(pool, 1, b))
	}
	tr.Submit(0, put(pool, 2, 0))
	tr.Flush(0)
	tr.Submit(0, readAhead(pool, 1, 0, 4))
	tr.Submit(0, readAhead(pool, 2, 0, 1))
	tr.Flush(0)
	if s := tr.Stats(); s.StagedPages != 5 {
		t.Fatalf("StagedPages = %d, want 5", s.StagedPages)
	}

	// A put overwrites one staged block.
	tr.Submit(0, put(pool, 1, 3))
	if s := tr.Stats(); s.StagedPages != 4 {
		t.Fatalf("after put: StagedPages = %d, want 4", s.StagedPages)
	}
	// A flush of the inode drops its remaining staged blocks.
	tr.Submit(0, cleancache.Request{
		Op: cleancache.OpFlushInode, VM: 1,
		Key: cleancache.Key{Pool: pool, Inode: 1},
	})
	if s := tr.Stats(); s.StagedPages != 1 {
		t.Fatalf("after flush-inode: StagedPages = %d, want 1", s.StagedPages)
	}
	// Destroying the pool empties it.
	tr.Submit(0, cleancache.Request{
		Op: cleancache.OpDestroyCgroup, VM: 1,
		Key: cleancache.Key{Pool: pool},
	})
	if s := tr.Stats(); s.StagedPages != 0 {
		t.Fatalf("after destroy: StagedPages = %d, want 0", s.StagedPages)
	}
}

func TestStagingBufferBounded(t *testing.T) {
	be := newRABackend()
	tr := NewTransport(be, Options{StagingPages: 4})
	pool := newPool(t, tr)
	for b := int64(0); b < 8; b++ {
		tr.Submit(0, put(pool, 1, b))
	}
	tr.Flush(0)
	tr.Submit(0, readAhead(pool, 1, 0, 8))
	tr.Flush(0)

	s := tr.Stats()
	if s.StagedPages != 4 {
		t.Fatalf("StagedPages = %d, want cap 4", s.StagedPages)
	}
	if s.StagedEvictions != 4 {
		t.Fatalf("StagedEvictions = %d, want 4", s.StagedEvictions)
	}
	// FIFO eviction: the oldest blocks (0..3) were pushed out, 4..7 live.
	for b := int64(4); b < 8; b++ {
		if resp := tr.Submit(time.Millisecond, get(pool, 1, b)); !resp.Ok {
			t.Fatalf("block %d evicted, want newest 4 retained", b)
		}
	}
}

func TestZeroCopyMapsBulkPages(t *testing.T) {
	be := newRABackend()
	tr := NewTransport(be, Options{AsyncGets: true, ZeroCopy: true})
	pool := newPool(t, tr)
	for b := int64(0); b < 4; b++ {
		tr.Submit(0, put(pool, 1, b))
	}
	tr.Flush(0)
	copiedAfterPuts := tr.Stats().PagesCopied

	// Readahead fill maps its blocks instead of copying them.
	tr.Submit(0, readAhead(pool, 1, 0, 2))
	tr.Flush(0)
	s := tr.Stats()
	if s.PagesMapped != 2 {
		t.Fatalf("PagesMapped after fill = %d, want 2", s.PagesMapped)
	}
	if s.PagesCopied != copiedAfterPuts {
		t.Fatalf("zero-copy fill copied pages: %d -> %d", copiedAfterPuts, s.PagesCopied)
	}
	// A tagged get's answer page is mapped at completion and reserves no
	// batch page budget.
	pg, _ := tr.SubmitAsync(0, get(pool, 1, 3))
	tr.Flush(0)
	if resp := tr.Await(0, pg); !resp.Ok {
		t.Fatal("zero-copy get missed")
	}
	s = tr.Stats()
	if s.PagesMapped != 3 {
		t.Fatalf("PagesMapped after get = %d, want 3", s.PagesMapped)
	}
	if s.PagesCopied != copiedAfterPuts {
		t.Fatalf("zero-copy get copied pages: %d -> %d", copiedAfterPuts, s.PagesCopied)
	}
}

func TestFlushRequeueCapSurfacesAbandonment(t *testing.T) {
	// Satellite regression: a persistent transport fault must not
	// re-queue the same flush forever. After MaxRequeues abandoned
	// crossings the flush is dropped and surfaced as FlushAbandoned.
	inj := fault.New(fault.Plan{Rules: []fault.Rule{
		{Site: SiteBatch, Kind: fault.KindDrop, To: time.Second},
	}})
	be := newRABackend()
	tr := NewTransport(be, Options{
		Faults:      inj,
		MaxAttempts: 2,
		MaxRequeues: 2,
		RetryBase:   time.Microsecond,
		RetryCap:    time.Microsecond,
	})

	tr.Submit(0, put(1, 1, 0))
	tr.Submit(0, cleancache.Request{
		Op: cleancache.OpFlushPage, VM: 1,
		Key: cleancache.Key{Pool: 1, Inode: 1, Block: 0},
	})

	tr.Flush(0) // abandon #1: put dropped, flush requeued (gen 1)
	if s := tr.Stats(); s.Pending != 1 || s.RequeuedOps != 1 || s.FlushAbandoned != 0 {
		t.Fatalf("after abandon 1: %+v", s)
	}
	tr.Flush(0) // abandon #2: flush requeued (gen 2)
	if s := tr.Stats(); s.Pending != 1 || s.RequeuedOps != 2 || s.FlushAbandoned != 0 {
		t.Fatalf("after abandon 2: %+v", s)
	}
	tr.Flush(0) // abandon #3: gen 3 > MaxRequeues, flush dropped
	s := tr.Stats()
	if s.Pending != 0 {
		t.Fatalf("flush still pending after exceeding requeue cap: %+v", s)
	}
	if s.FlushAbandoned != 1 {
		t.Fatalf("FlushAbandoned = %d, want 1", s.FlushAbandoned)
	}
	if s.DroppedBatches != 3 {
		t.Fatalf("DroppedBatches = %d, want 3", s.DroppedBatches)
	}
	// The transport is live again: nothing buffered, later ops proceed.
	if lat := tr.Flush(2 * time.Second); lat != 0 {
		t.Fatalf("empty flush charged %v", lat)
	}
}

func TestRequeueGenerationsResetOnDelivery(t *testing.T) {
	// A flush that survives one abandoned crossing and then delivers must
	// clear its generation: the cap counts consecutive failures, not
	// lifetime ones.
	inj := fault.New(fault.Plan{Rules: []fault.Rule{
		{Site: SiteBatch, Kind: fault.KindDrop, To: time.Millisecond},
	}})
	be := newRABackend()
	tr := NewTransport(be, Options{
		Faults:      inj,
		MaxAttempts: 2,
		MaxRequeues: 1,
		RetryBase:   time.Microsecond,
		RetryCap:    time.Microsecond,
	})
	tr.Submit(0, cleancache.Request{
		Op: cleancache.OpFlushPage, VM: 1,
		Key: cleancache.Key{Pool: 1, Inode: 1, Block: 0},
	})
	tr.Flush(0) // abandoned, requeued at gen 1 == MaxRequeues
	if s := tr.Stats(); s.Pending != 1 {
		t.Fatalf("flush not requeued: %+v", s)
	}
	tr.Flush(2 * time.Millisecond) // outside the fault window: delivered
	if s := tr.Stats(); s.Pending != 0 || s.FlushAbandoned != 0 || s.Batches != 1 {
		t.Fatalf("flush not delivered cleanly: %+v", s)
	}
}

func TestAbandonedAsyncGetIsMissNotLoss(t *testing.T) {
	inj := fault.New(fault.Plan{Rules: []fault.Rule{
		{Site: SiteBatch, Kind: fault.KindDrop, From: time.Millisecond, To: 2 * time.Millisecond},
	}})
	be := newRABackend()
	tr := NewTransport(be, Options{
		AsyncGets:   true,
		Faults:      inj,
		MaxAttempts: 2,
		RetryBase:   time.Microsecond,
		RetryCap:    time.Microsecond,
	})
	pool := newPool(t, tr)
	tr.Submit(0, put(pool, 1, 0))
	tr.Flush(0)

	pg, _ := tr.SubmitAsync(time.Millisecond, get(pool, 1, 0))
	tr.Flush(time.Millisecond) // inside the drop window: batch abandoned
	resp := tr.Await(time.Millisecond, pg)
	if resp.Ok {
		t.Fatal("abandoned async get reported a hit")
	}
	if s := tr.Stats(); s.SyncFailures != 1 {
		t.Fatalf("SyncFailures = %d, want 1", s.SyncFailures)
	}
	// Miss, not loss: the object is still cached and a later get hits.
	resp = tr.Submit(3*time.Millisecond, get(pool, 1, 0))
	if !resp.Ok {
		t.Fatal("object lost after abandoned get crossing")
	}
}

// clockBackend records the virtual time every op is dispatched at, for
// pinning the transport's dispatch-timestamp arithmetic.
type clockBackend struct {
	*raBackend
	at []time.Duration
}

func (b *clockBackend) Dispatch(now time.Duration, req cleancache.Request) cleancache.Response {
	b.at = append(b.at, now)
	return b.raBackend.Dispatch(now, req)
}

func TestSyncDispatchClockInvariant(t *testing.T) {
	// Satellite regression: retries and backoff must advance the dispatch
	// timestamp exactly as they advance the guest-visible latency. For
	// every synchronous op, dispatch-time − submit-time must equal the
	// response latency minus the backend's own contribution, under
	// corruption-induced retries and latency spikes alike.
	inj := fault.New(fault.Plan{Rules: []fault.Rule{
		{Site: SiteCall, Kind: fault.KindCorrupt, Nth: 3},
		{Site: SiteCall, Kind: fault.KindLatency, Nth: 2, Delay: 5 * time.Microsecond},
	}})
	be := &clockBackend{raBackend: newRABackend()}
	tr := NewTransport(be, Options{Faults: inj})
	pool := newPool(t, tr)
	tr.Submit(0, put(pool, 1, 0))
	tr.Flush(0)
	be.at = be.at[:0]

	for i := 0; i < 10; i++ {
		now := time.Duration(i) * time.Millisecond
		n := len(be.at)
		resp := tr.Submit(now, get(pool, 9, int64(i))) // cold keys: always dispatched
		if len(be.at) != n+1 {
			t.Fatalf("op %d: dispatched %d times, want 1", i, len(be.at)-n)
		}
		backendLat := 300 * time.Nanosecond
		if gotTransport, wantTransport := resp.Latency-backendLat, be.at[n]-now; gotTransport != wantTransport {
			t.Fatalf("op %d: transport latency %v but dispatch advanced %v (resp %+v)",
				i, gotTransport, wantTransport, resp)
		}
	}
}

func TestDrainInvalidatesStagedBehindReadAhead(t *testing.T) {
	// Regression: an invalidating op submitted while a READ_AHEAD
	// covering the same key is still buffered finds nothing to
	// invalidate at Submit; the drain then dispatches the readahead
	// first (FIFO) and stages the pre-op content. The op dispatching
	// behind it must kill those staged blocks — a later get served from
	// the staging buffer would violate get-after-flush.
	be := newRABackend()
	tr := NewTransport(be, Options{})
	pool := newPool(t, tr)
	for b := int64(0); b < 2; b++ {
		tr.Submit(0, put(pool, 1, b))
	}
	tr.Flush(0)

	// FLUSH_PAGE buffered behind the readahead that stages its key.
	tr.Submit(0, readAhead(pool, 1, 0, 2))
	tr.Submit(0, cleancache.Request{
		Op: cleancache.OpFlushPage, VM: 1,
		Key: cleancache.Key{Pool: pool, Inode: 1, Block: 0},
	})
	tr.Flush(0)
	if resp := tr.Submit(time.Millisecond, get(pool, 1, 0)); resp.Ok {
		t.Fatal("get after flush served a stale staged block")
	}
	if resp := tr.Submit(time.Millisecond, get(pool, 1, 1)); !resp.Ok {
		t.Fatal("unflushed staged block lost")
	}

	// FLUSH_INODE behind the readahead drops every staged block of the
	// inode.
	for b := int64(0); b < 2; b++ {
		tr.Submit(0, put(pool, 2, b))
	}
	tr.Flush(0)
	tr.Submit(0, readAhead(pool, 2, 0, 2))
	tr.Submit(0, cleancache.Request{
		Op: cleancache.OpFlushInode, VM: 1,
		Key: cleancache.Key{Pool: pool, Inode: 2},
	})
	tr.Flush(0)
	if s := tr.Stats(); s.StagedPages != 0 {
		t.Fatalf("StagedPages = %d after flush-inode behind readahead, want 0", s.StagedPages)
	}
	if resp := tr.Submit(time.Millisecond, get(pool, 2, 0)); resp.Ok {
		t.Fatal("get after flush-inode served a stale staged block")
	}

	// A PUT behind the readahead overwrites the key: the stale staged
	// copy dies and the get dispatches against the backend's fresh one.
	tr.Submit(0, put(pool, 3, 0))
	tr.Flush(0)
	tr.Submit(0, readAhead(pool, 3, 0, 1))
	tr.Submit(0, put(pool, 3, 0))
	tr.Flush(0)
	opsBefore := len(be.ops)
	if resp := tr.Submit(time.Millisecond, get(pool, 3, 0)); !resp.Ok {
		t.Fatal("get after put behind readahead missed")
	}
	if len(be.ops) == opsBefore {
		t.Fatal("get served from staging instead of the put's fresh copy")
	}
}

func TestSyncOpInvalidatesBlocksStagedByItsOwnDrain(t *testing.T) {
	// A synchronous invalidating op (DESTROY_CGROUP) barrier-drains the
	// ring first; a buffered readahead in that drain stages blocks the
	// destroy then invalidates. The submit-time invalidation ran before
	// the fills existed, so the post-drain pass must remove them.
	be := newRABackend()
	tr := NewTransport(be, Options{})
	pool := newPool(t, tr)
	for b := int64(0); b < 2; b++ {
		tr.Submit(0, put(pool, 1, b))
	}
	tr.Flush(0)
	tr.Submit(0, readAhead(pool, 1, 0, 2))
	tr.Submit(0, cleancache.Request{
		Op: cleancache.OpDestroyCgroup, VM: 1,
		Key: cleancache.Key{Pool: pool},
	})
	if s := tr.Stats(); s.StagedPages != 0 {
		t.Fatalf("StagedPages = %d after destroy behind readahead, want 0", s.StagedPages)
	}
	if resp := tr.Submit(time.Millisecond, get(pool, 1, 0)); resp.Ok {
		t.Fatal("get after destroy served a stale staged block")
	}
}

func TestUnbatchedReadAheadStagesBlocks(t *testing.T) {
	// Regression: on an unbatched transport READ_AHEAD takes the
	// synchronous path. The backend extracts the blocks under the
	// exclusive protocol, so the response must fill the staging buffer —
	// discarding it would silently evict up to Count cached blocks and
	// turn the following gets into guaranteed misses.
	be := newRABackend()
	tr := NewTransport(be, Options{Unbatched: true})
	pool := newPool(t, tr)
	for b := int64(0); b < 4; b++ {
		tr.Submit(0, put(pool, 1, b))
	}
	if resp := tr.Submit(0, readAhead(pool, 1, 0, 4)); !resp.Ok {
		t.Fatalf("unbatched readahead failed: %+v", resp)
	}
	s := tr.Stats()
	if s.StagedFills != 4 || s.StagedPages != 4 {
		t.Fatalf("unbatched readahead staged %d blocks (%d live), want 4", s.StagedFills, s.StagedPages)
	}
	callsBefore := s.Calls
	for b := int64(0); b < 4; b++ {
		if resp := tr.Submit(time.Millisecond, get(pool, 1, b)); !resp.Ok {
			t.Fatalf("block %d lost by unbatched readahead", b)
		}
	}
	if got := tr.Stats().Calls - callsBefore; got != 0 {
		t.Fatalf("staged gets paid %d crossings, want 0", got)
	}
	// Invalidation still applies on the unbatched path: stage again,
	// flush one key synchronously, and the staged copy must die.
	for b := int64(0); b < 2; b++ {
		tr.Submit(0, put(pool, 2, b))
	}
	tr.Submit(0, readAhead(pool, 2, 0, 2))
	tr.Submit(0, cleancache.Request{
		Op: cleancache.OpFlushPage, VM: 1,
		Key: cleancache.Key{Pool: pool, Inode: 2, Block: 0},
	})
	if resp := tr.Submit(time.Millisecond, get(pool, 2, 0)); resp.Ok {
		t.Fatal("unbatched get after flush served a stale staged block")
	}
	if resp := tr.Submit(time.Millisecond, get(pool, 2, 1)); !resp.Ok {
		t.Fatal("unbatched unflushed staged block lost")
	}
}
