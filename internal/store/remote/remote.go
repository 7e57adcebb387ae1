// Package remote models an S3-like remote object store as a third cache
// tier behind the store.Backend interface (ROADMAP item 1): a wide-area
// service with a configurable per-request latency distribution, a
// throughput cap shared by all transfers, and per-request plus per-byte
// cost accounting reported by Cost.
//
// The device model differs from the host devices in internal/blockdev in
// one important way: a remote object store is not an FCFS disk. Requests
// overlap their round trips — only the transfer bytes serialize on the
// modeled network pipe — so N concurrent gets pay one base latency each,
// not N queued service times.
//
// Concurrency contract: self-locking, like the other store backends.
// Capacity and usage accounting is atomic; the pipe cursor and cost
// tallies are guarded by a leaf mutex taken for a few arithmetic ops.
//
// Determinism contract: given the same sequence of Store/Fetch calls at
// the same virtual times, two Store instances produce identical
// latencies. The per-request jitter is a pure function of an internal
// request counter (no rand, no wall clock), which is what lets the cache
// manager and the sequential oracle each drive their own instance and
// still agree on every charged latency.
//
// Failure contract: identical to package store. A failed Store charges no
// usage; a failed Fetch leaves usage charged until the caller Releases.
// Fault injection uses the sites "<name>.put" and "<name>.get".
package remote

import (
	"sync"
	"sync/atomic"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/fault"
)

func init() {
	// Every remote store consults sites "<name>.get" and "<name>.put".
	fault.RegisterSites("*.get", "*.put")
}

// Defaults for Config zero fields. The latency numbers model a same-region
// object store: a ~2 ms request floor with sub-millisecond spread, far
// above SSD (~90 µs) but well below the ~8.5 ms random read of the virtual
// disks guests fall back to on a miss — which is exactly why a remote slow
// hit is still a win.
const (
	DefaultBaseLatency = 2 * time.Millisecond
	DefaultJitter      = 500 * time.Microsecond
	DefaultBytesPerSec = 200 << 20 // 200 MiB/s provisioned pipe

	// DefaultCostPerRequestNanos is ~$4e-7 per request (S3 GET pricing
	// tier), in nano-dollars.
	DefaultCostPerRequestNanos = 400
	// DefaultCostPerGiBNanos is $0.09/GiB transfer, in nano-dollars.
	DefaultCostPerGiBNanos = 90_000_000
)

// Config sizes the modeled service. Zero fields take the defaults above;
// Name defaults to "remote" and prefixes the fault sites and metric names.
type Config struct {
	Name          string
	CapacityBytes int64
	// BaseLatency is the fixed per-request round-trip floor.
	BaseLatency time.Duration
	// Jitter is the width of the per-request latency spread: request i
	// pays BaseLatency plus a deterministic point in [0, Jitter).
	Jitter time.Duration
	// BytesPerSec caps throughput: transfer bytes serialize on one
	// modeled pipe while round trips overlap.
	BytesPerSec int64
	// CostPerRequestNanos and CostPerGiBNanos account the modeled bill
	// in nano-dollars per request and per GiB transferred.
	CostPerRequestNanos int64
	CostPerGiBNanos     int64
	// Faults, when non-nil, is consulted on every request under the
	// sites "<name>.get" and "<name>.put".
	Faults *fault.Injector
}

// CostStats is a snapshot of the accounted bill.
type CostStats struct {
	Requests  int64 // requests issued (including failed ones — the service bills them)
	Bytes     int64 // payload bytes moved (or attempted)
	CostNanos int64 // modeled bill in nano-dollars
}

// Store is the remote object backend. It implements store.Backend.
type Store struct {
	cfg      Config
	capacity atomic.Int64
	used     atomic.Int64

	requests atomic.Int64
	bytes    atomic.Int64
	fetchSeq atomic.Int64 // drives the deterministic jitter

	// mu is a leaf lock guarding only the pipe cursor.
	mu        sync.Mutex
	busyUntil time.Duration

	siteGet, sitePut string
}

// New returns a remote store with cfg's zero fields defaulted.
func New(cfg Config) *Store {
	if cfg.Name == "" {
		cfg.Name = "remote"
	}
	if cfg.BaseLatency <= 0 {
		cfg.BaseLatency = DefaultBaseLatency
	}
	if cfg.Jitter < 0 {
		cfg.Jitter = 0
	} else if cfg.Jitter == 0 {
		cfg.Jitter = DefaultJitter
	}
	if cfg.BytesPerSec <= 0 {
		cfg.BytesPerSec = DefaultBytesPerSec
	}
	if cfg.CostPerRequestNanos <= 0 {
		cfg.CostPerRequestNanos = DefaultCostPerRequestNanos
	}
	if cfg.CostPerGiBNanos <= 0 {
		cfg.CostPerGiBNanos = DefaultCostPerGiBNanos
	}
	s := &Store{
		cfg:     cfg,
		siteGet: cfg.Name + ".get",
		sitePut: cfg.Name + ".put",
	}
	s.capacity.Store(cfg.CapacityBytes)
	return s
}

// Type implements store.Backend.
func (s *Store) Type() cgroup.StoreType { return cgroup.StoreRemote }

// CapacityBytes implements store.Backend.
func (s *Store) CapacityBytes() int64 { return s.capacity.Load() }

// SetCapacityBytes implements store.Backend.
func (s *Store) SetCapacityBytes(n int64) { s.capacity.Store(n) }

// UsedBytes implements store.Backend.
func (s *Store) UsedBytes() int64 { return s.used.Load() }

// account tallies one billed request of size bytes.
func (s *Store) account(size int64) {
	s.requests.Add(1)
	s.bytes.Add(size)
}

// jitter returns the deterministic latency spread for request seq: a
// Weyl-style multiplicative hash mapped onto [0, cfg.Jitter).
func (s *Store) jitter(seq int64) time.Duration {
	if s.cfg.Jitter <= 0 {
		return 0
	}
	h := uint64(seq) * 0x9e3779b97f4a7c15
	return time.Duration(int64(s.cfg.Jitter) * int64(h>>54) >> 10)
}

// transfer admits size bytes onto the pipe at now, returning the wait
// until the bytes clear it. Only transfers serialize; round trips overlap.
func (s *Store) transfer(now time.Duration, size int64) time.Duration {
	t := time.Duration(size * int64(time.Second) / s.cfg.BytesPerSec)
	s.mu.Lock()
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	s.busyUntil = start + t
	wait := s.busyUntil - now
	s.mu.Unlock()
	return wait
}

// faultAdjust resolves an injector decision against the nominal service
// time, mirroring the blockdev semantics: latency stretches the request,
// a stall replaces it with the timeout the caller waits out, and the
// failing kinds (io-error, drop, corrupt) produce the structured error.
func (s *Store) faultAdjust(now time.Duration, site string, svc time.Duration) (time.Duration, error) {
	if s.cfg.Faults == nil {
		return svc, nil
	}
	d := s.cfg.Faults.Decide(now, site)
	switch d.Kind {
	case fault.KindLatency:
		return svc + d.Delay, nil
	case fault.KindStall:
		return d.Delay, &fault.Error{Site: site, Kind: d.Kind}
	default:
		if d.Fails() {
			return svc, &fault.Error{Site: site, Kind: d.Kind}
		}
		return svc, nil
	}
}

// Store implements store.Backend: an asynchronous upload. The caller pays
// only the submission cost; the transfer is absorbed by the pipe. A
// rejected upload charges no usage (and the submission cost is still
// paid), matching the package store failure contract.
func (s *Store) Store(now time.Duration, size int64) (time.Duration, error) {
	s.account(size)
	if _, err := s.faultAdjust(now, s.sitePut, 0); err != nil {
		return time.Microsecond, err
	}
	s.transfer(now, size) // absorbed: the pipe is busy, the caller is not
	s.used.Add(size)
	return time.Microsecond, nil
}

// Fetch implements store.Backend: a synchronous download — the slow hit.
// The caller waits out the pipe, the round-trip floor and the jitter.
func (s *Store) Fetch(now time.Duration, size int64) (time.Duration, error) {
	s.account(size)
	svc := s.cfg.BaseLatency + s.jitter(s.fetchSeq.Add(1))
	svc, err := s.faultAdjust(now, s.siteGet, svc)
	if err != nil {
		return svc, err
	}
	return svc + s.transfer(now, size), nil
}

// Release implements store.Backend. The clamp mirrors store.release: a
// remote eviction is a true drop, and usage never reads negative.
func (s *Store) Release(size int64) {
	for {
		cur := s.used.Load()
		next := cur - size
		if next < 0 {
			next = 0
		}
		if s.used.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Cost reports the accounted bill so far.
func (s *Store) Cost() CostStats {
	req, b := s.requests.Load(), s.bytes.Load()
	const gib = int64(1) << 30
	return CostStats{
		Requests:  req,
		Bytes:     b,
		CostNanos: req*s.cfg.CostPerRequestNanos + b/gib*s.cfg.CostPerGiBNanos + (b%gib)*s.cfg.CostPerGiBNanos/gib,
	}
}
