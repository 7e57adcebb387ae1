package ddcache

import (
	"testing"
	"time"
)

func testBreakerConfig() BreakerConfig {
	return BreakerConfig{
		Threshold: 3,
		Window:    time.Second,
		Cooldown:  5 * time.Second,
		Probes:    2,
	}
}

func TestBreakerNilIsNoOp(t *testing.T) {
	var b *breaker
	if !b.allow(0) {
		t.Fatal("nil breaker must allow")
	}
	b.onSuccess()
	b.onFailure(0)
	if s := b.snapshot(); s.State != "closed" || s.Trips != 0 {
		t.Fatalf("nil breaker snapshot: %+v", s)
	}
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b := newBreaker(testBreakerConfig())
	// Two errors inside the window: still closed.
	b.onFailure(0)
	b.onFailure(100 * time.Millisecond)
	if !b.allow(200 * time.Millisecond) {
		t.Fatal("breaker tripped below threshold")
	}
	// Third error trips it.
	b.onFailure(200 * time.Millisecond)
	if b.allow(300 * time.Millisecond) {
		t.Fatal("breaker did not trip at threshold")
	}
	s := b.snapshot()
	if s.State != "open" || s.Trips != 1 {
		t.Fatalf("snapshot after trip: %+v", s)
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	b := newBreaker(testBreakerConfig())
	// Three errors, but spread wider than the 1s window: never trips.
	b.onFailure(0)
	b.onFailure(2 * time.Second)
	b.onFailure(4 * time.Second)
	if !b.allow(4 * time.Second) {
		t.Fatal("stale errors outside the window tripped the breaker")
	}
	// Three errors bunched inside one window trip it (the stale 4s error
	// has slid out by then).
	b.onFailure(6 * time.Second)
	b.onFailure(6*time.Second + 200*time.Millisecond)
	b.onFailure(6*time.Second + 400*time.Millisecond)
	if b.allow(6*time.Second + 500*time.Millisecond) {
		t.Fatal("errors inside the window did not trip")
	}
}

func TestBreakerHalfOpenRestores(t *testing.T) {
	b := newBreaker(testBreakerConfig())
	for i := 0; i < 3; i++ {
		b.onFailure(time.Duration(i) * time.Millisecond)
	}
	if b.allow(time.Second) {
		t.Fatal("open breaker allowed before cooldown")
	}
	// Cooldown elapsed: the next operation is admitted as a probe.
	at := 10 * time.Second
	if !b.allow(at) {
		t.Fatal("cooldown elapsed but probe rejected")
	}
	if s := b.snapshot(); s.State != "half-open" || s.Probes == 0 {
		t.Fatalf("snapshot in half-open: %+v", s)
	}
	// Two consecutive successes (cfg.Probes) restore the device.
	b.onSuccess()
	if s := b.snapshot(); s.State != "half-open" {
		t.Fatalf("restored after one probe success: %+v", s)
	}
	b.onSuccess()
	s := b.snapshot()
	if s.State != "closed" || s.Restores != 1 {
		t.Fatalf("snapshot after restore: %+v", s)
	}
	// Back in closed: traffic flows and the error window restarts empty.
	if !b.allow(at + time.Second) {
		t.Fatal("restored breaker rejects traffic")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b := newBreaker(testBreakerConfig())
	for i := 0; i < 3; i++ {
		b.onFailure(time.Duration(i) * time.Millisecond)
	}
	at := 10 * time.Second
	if !b.allow(at) {
		t.Fatal("probe rejected")
	}
	b.onFailure(at) // probe failed: re-trip immediately
	if b.allow(at + time.Second) {
		t.Fatal("failed probe did not reopen the breaker")
	}
	s := b.snapshot()
	if s.State != "open" || s.Trips != 2 {
		t.Fatalf("snapshot after re-trip: %+v", s)
	}
	// A second full cooldown is required again.
	if !b.allow(at + 10*time.Second) {
		t.Fatal("second cooldown did not admit probes")
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for st, want := range map[breakerState]string{
		breakerClosed:   "closed",
		breakerOpen:     "open",
		breakerHalfOpen: "half-open",
	} {
		if st.String() != want {
			t.Fatalf("state %d = %q, want %q", st, st.String(), want)
		}
	}
}
