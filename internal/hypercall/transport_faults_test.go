package hypercall

import (
	"testing"
	"time"

	"doubledecker/internal/cleancache"
	"doubledecker/internal/fault"
)

func TestChecksum(t *testing.T) {
	a := []byte("doubledecker batch payload")
	if Checksum(a) != Checksum(a) {
		t.Fatal("checksum not deterministic")
	}
	b := append([]byte(nil), a...)
	b[3] ^= 0x40
	if Checksum(a) == Checksum(b) {
		t.Fatal("single-bit flip not detected")
	}
	if Checksum(nil) != Checksum([]byte{}) {
		t.Fatal("empty payload checksums disagree")
	}
}

func TestCorruptBatchRetriesAndDelivers(t *testing.T) {
	// Corrupt only the very first crossing (window [0, 1ns)); the retry
	// happens after backoff, outside the window, and succeeds.
	inj := fault.New(fault.Plan{Rules: []fault.Rule{
		{Site: SiteBatch, Kind: fault.KindCorrupt, To: 1},
	}})
	be := newSeqBackend()
	tr := NewTransport(be, Options{Faults: inj})
	pool := newPool(t, tr)

	tr.Submit(0, put(pool, 1, 0))
	tr.Flush(0)

	s := tr.Stats()
	if s.Corrupts != 1 || s.Retries != 1 || s.DroppedBatches != 0 {
		t.Fatalf("stats after corrupted crossing: %+v", s)
	}
	if s.Backoff <= 0 {
		t.Fatal("retry charged no backoff")
	}
	if s.Batches != 1 {
		t.Fatalf("batch not delivered after retry: %+v", s)
	}
	// The put arrived exactly once despite the replay.
	if resp := tr.Submit(0, cleancache.Request{
		Op: cleancache.OpGet, VM: 1,
		Key: cleancache.Key{Pool: pool, Inode: 1, Block: 0},
	}); !resp.Ok {
		t.Fatal("retried put did not reach the backend")
	}
}

func TestAbandonedBatchDropsPutsRequeuesFlushes(t *testing.T) {
	// Every crossing in [0, 1ms) is dropped; with 3 attempts and a tiny
	// backoff the whole budget burns inside the window.
	inj := fault.New(fault.Plan{Rules: []fault.Rule{
		{Site: SiteBatch, Kind: fault.KindDrop, To: time.Millisecond},
	}})
	be := newSeqBackend()
	tr := NewTransport(be, Options{Faults: inj})
	tr.maxAttempts, tr.retryBase, tr.retryCap = 3, time.Microsecond, 2*time.Microsecond
	pool := newPool(t, tr)

	tr.Submit(0, put(pool, 1, 0))
	tr.Submit(0, cleancache.Request{
		Op: cleancache.OpFlushPage, VM: 1,
		Key: cleancache.Key{Pool: pool, Inode: 2, Block: 0},
	})
	tr.Flush(0)

	s := tr.Stats()
	if s.DroppedBatches != 1 || s.Drops != 3 || s.Retries != 2 {
		t.Fatalf("stats after abandoned batch: %+v", s)
	}
	// The put was dropped (cleancache-safe); the flush was re-queued.
	if s.RequeuedOps != 1 || s.Pending != 1 {
		t.Fatalf("requeue after abandoned batch: %+v", s)
	}
	// Past the fault window the re-queued flush is delivered.
	tr.Flush(2 * time.Millisecond)
	s = tr.Stats()
	if s.Pending != 0 || s.Batches != 1 {
		t.Fatalf("requeued flush not delivered: %+v", s)
	}
	if n := len(be.ops); n != 2 || be.ops[1].Op != cleancache.OpFlushPage {
		t.Fatalf("backend saw %d ops, want create+flush: %+v", n, be.ops)
	}
}

func TestSyncFailureReportsMissWithoutLosingData(t *testing.T) {
	// Synchronous crossings fail during [1ms, 10ms); batches are fine.
	inj := fault.New(fault.Plan{Rules: []fault.Rule{
		{Site: SiteCall, Kind: fault.KindDrop, From: time.Millisecond, To: 10 * time.Millisecond},
	}})
	be := newSeqBackend()
	tr := NewTransport(be, Options{Faults: inj})
	tr.maxAttempts = 2
	pool := newPool(t, tr) // now=0: before the fault window
	tr.Submit(0, put(pool, 1, 0))
	tr.Flush(0)

	get := cleancache.Request{
		Op: cleancache.OpGet, VM: 1,
		Key: cleancache.Key{Pool: pool, Inode: 1, Block: 0},
	}
	resp := tr.Submit(2*time.Millisecond, get)
	if resp.Ok {
		t.Fatal("get succeeded through a dropped crossing")
	}
	if s := tr.Stats(); s.SyncFailures != 1 {
		t.Fatalf("sync failure not counted: %+v", s)
	}
	// The object was never fetched, so once the transport recovers the
	// guest's next get still hits: a failed sync op is a miss, not a loss.
	if resp := tr.Submit(20*time.Millisecond, get); !resp.Ok {
		t.Fatal("object lost by a failed sync crossing")
	}
}

func TestRetryBackoffIsCapped(t *testing.T) {
	inj := fault.New(fault.Plan{Rules: []fault.Rule{
		{Site: SiteBatch, Kind: fault.KindDrop, Prob: 1},
	}})
	be := newSeqBackend()
	tr := NewTransport(be, Options{Faults: inj})
	tr.maxAttempts, tr.retryBase, tr.retryCap = 5, 10*time.Microsecond, 20*time.Microsecond
	pool := newPool(t, tr)
	tr.Submit(0, put(pool, 1, 0))
	tr.Flush(0)

	// Four backoffs between five attempts: 10 + 20 + 20 + 20 µs.
	want := 70 * time.Microsecond
	if s := tr.Stats(); s.Backoff != want {
		t.Fatalf("total backoff %v, want %v (stats %+v)", s.Backoff, want, s)
	}
}
