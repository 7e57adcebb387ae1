package ddcache

import (
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/policy"
	"doubledecker/internal/store"
	"doubledecker/internal/store/remote"
)

// Option configures a Manager built by New.
type Option func(*Config)

// New returns a manager configured by functional options:
//
//	m := ddcache.New(
//		ddcache.WithMode(ddcache.ModeDD),
//		ddcache.WithMemCapacity(256<<20),
//		ddcache.WithSSDCapacity(1<<30),
//	)
//
// Unset knobs take the package defaults (ModeDD, 2 MiB eviction batches,
// 300 ns op overhead, Algorithm 1 victim selection).
func New(opts ...Option) *Manager {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return newManager(cfg)
}

// WithMode selects container awareness (ModeDD or ModeGlobal).
func WithMode(m Mode) Option { return func(c *Config) { c.Mode = m } }

// WithMemBackend installs an explicit memory store.
func WithMemBackend(be store.Backend) Option { return func(c *Config) { c.Mem = be } }

// WithMemCapacity installs a RAM-backed memory store of n bytes.
func WithMemCapacity(n int64) Option {
	return func(c *Config) { c.Mem = store.NewMem(blockdev.NewRAM("ram"), n) }
}

// WithSSDBackend installs an explicit SSD store.
func WithSSDBackend(be store.Backend) Option { return func(c *Config) { c.SSD = be } }

// WithSSDCapacity installs a simulated-SSD store of n bytes.
func WithSSDCapacity(n int64) Option {
	return func(c *Config) { c.SSD = store.NewSSD(blockdev.NewSSD("ssd"), n) }
}

// WithRemoteBackend installs an explicit remote object-store backend as
// the third tier.
func WithRemoteBackend(be store.Backend) Option { return func(c *Config) { c.Remote = be } }

// WithRemoteCapacity installs a modeled remote object store of n bytes
// with the default latency, throughput and cost parameters.
func WithRemoteCapacity(n int64) Option {
	return func(c *Config) { c.Remote = remote.New(remote.Config{CapacityBytes: n}) }
}

// WithDemotion tunes the write-behind demotion queue (zero fields keep
// the DemotionConfig defaults). Only meaningful with a remote backend.
func WithDemotion(d DemotionConfig) Option { return func(c *Config) { c.Demotion = d } }

// WithRemoteBreaker tunes the remote tier's circuit breaker; the zero
// value keeps the defaults.
func WithRemoteBreaker(b BreakerConfig) Option { return func(c *Config) { c.RemoteBreaker = b } }

// WithEvictBatch sets the eviction granularity (the paper uses 2 MiB).
func WithEvictBatch(n int64) Option { return func(c *Config) { c.EvictBatchBytes = n } }

// WithOpOverhead sets the manager-internal CPU cost per operation.
func WithOpOverhead(d time.Duration) Option { return func(c *Config) { c.OpOverhead = d } }

// WithVictimSelector swaps the Algorithm 1 victim-selection variant.
func WithVictimSelector(fn func(ents []policy.Entity, evictionSize int64) int) Option {
	return func(c *Config) { c.VictimSelector = fn }
}

// WithDedup enables content deduplication within each store.
func WithDedup(on bool) Option { return func(c *Config) { c.Dedup = on } }

// WithDedupShards sets the stripe width of the sharded content-reference
// table (0 keeps DefaultDedupShards). More shards reduce put/put
// contention on the dedup path at a few hundred bytes per shard.
func WithDedupShards(n int) Option { return func(c *Config) { c.DedupShards = n } }

// WithInclusive disables the exclusive-caching protocol (ablation only).
func WithInclusive(on bool) Option { return func(c *Config) { c.Inclusive = on } }

// WithSSDBreaker tunes the SSD circuit breaker (threshold, window,
// cooldown, probe count); the zero value keeps the defaults.
func WithSSDBreaker(b BreakerConfig) Option { return func(c *Config) { c.Breaker = b } }

// WithMaxInflightOps sets the hypervisor-wide admission budget: data-path
// ops (gets, puts, readahead) over this many concurrent dispatches are
// shed as immediate misses. Zero disables admission control.
func WithMaxInflightOps(n int64) Option { return func(c *Config) { c.MaxInflightOps = n } }
