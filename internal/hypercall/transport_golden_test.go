package hypercall

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"testing"
	"time"

	"doubledecker/internal/cleancache"
	"doubledecker/internal/fault"
)

// goldenPlan is the fault plan of the chaos golden configuration: drops,
// corruptions and latency spikes on both submission sites, and lost
// completion frames.
func goldenPlan() fault.Plan {
	return fault.Plan{Seed: 11, Rules: []fault.Rule{
		// A 2 ms outage abandons every batch crossing, so flushes ride
		// the requeue path until they are given up.
		{Site: SiteBatch, Kind: fault.KindDrop, From: 20 * time.Millisecond, To: 22 * time.Millisecond},
		{Site: SiteBatch, Kind: fault.KindDrop, Prob: 0.25},
		{Site: SiteBatch, Kind: fault.KindCorrupt, Prob: 0.10},
		{Site: SiteBatch, Kind: fault.KindLatency, Prob: 0.05, Delay: 150 * time.Microsecond},
		{Site: SiteCall, Kind: fault.KindDrop, Prob: 0.05},
		{Site: SiteCall, Kind: fault.KindLatency, Prob: 0.05, Delay: 150 * time.Microsecond},
		{Site: SiteCompletion, Kind: fault.KindDrop, Prob: 0.10},
	}}
}

// runGoldenStream drives a fixed-seed stream of puts (single and in
// ring-filling bursts), flushes, migrations, pool teardowns, sync and
// async gets, readahead-led streams, flush ticks and (under a budget)
// watchdog sweeps through a transport over the deterministic test
// backend, then closes it. Every value the transport returns is written
// to w, one line per call.
func runGoldenStream(w io.Writer, opts Options) TransportStats {
	be := newRABackend()
	tr := NewTransport(be, opts)
	rng := rand.New(rand.NewSource(3))
	var now time.Duration

	newPool := func() cleancache.PoolID {
		resp := tr.Submit(now, cleancache.Request{Op: cleancache.OpCreateCgroup, VM: 1, Name: "g"})
		fmt.Fprintf(w, "create %v %d %d\n", resp.Ok, resp.Latency, resp.Pool)
		now += resp.Latency
		return resp.Pool
	}
	pools := []cleancache.PoolID{newPool(), newPool()}
	key := func() cleancache.Key {
		return cleancache.Key{
			Pool:  pools[rng.Intn(len(pools))],
			Inode: uint64(1 + rng.Intn(4)),
			Block: int64(rng.Intn(96)),
		}
	}
	submit := func(tag string, req cleancache.Request) {
		resp := tr.Submit(now, req)
		fmt.Fprintf(w, "%s %v %d %d\n", tag, resp.Ok, resp.Latency, resp.Count)
		now += resp.Latency
	}
	var handles []*cleancache.PendingGet
	await := func(pg *cleancache.PendingGet) {
		resp := tr.Await(now, pg)
		fmt.Fprintf(w, "await %v %d %d\n", resp.Ok, resp.Latency, resp.Count)
		now += resp.Latency
	}

	for i := 0; i < 6000; i++ {
		now += time.Duration(rng.Intn(20)) * time.Microsecond
		switch r := rng.Intn(1000); {
		case r < 440:
			submit("put", cleancache.Request{Op: cleancache.OpPut, VM: 1, Key: key(), Content: uint64(i)})
		case r < 520:
			submit("flush-page", cleancache.Request{Op: cleancache.OpFlushPage, VM: 1, Key: key()})
		case r < 540:
			submit("flush-inode", cleancache.Request{Op: cleancache.OpFlushInode, VM: 1, Key: key()})
		case r < 550:
			k := key()
			submit("migrate", cleancache.Request{Op: cleancache.OpMigrateObject, VM: 1, Key: k, To: pools[0]})
		case r < 553:
			j := rng.Intn(len(pools))
			submit("destroy", cleancache.Request{Op: cleancache.OpDestroyCgroup, VM: 1, Key: cleancache.Key{Pool: pools[j]}})
			pools[j] = newPool()
		case r < 670:
			submit("get", cleancache.Request{Op: cleancache.OpGet, VM: 1, Key: key()})
		case r < 820:
			pg, lat := tr.SubmitAsync(now, cleancache.Request{Op: cleancache.OpGet, VM: 1, Key: key()})
			fmt.Fprintf(w, "submit-async %d %v\n", lat, pg.Done())
			now += lat
			handles = append(handles, pg)
		case r < 850:
			submit("readahead", cleancache.Request{Op: cleancache.OpReadAhead, VM: 1, Key: key(), Count: int64(1 + rng.Intn(8))})
		case r < 880:
			// A stream: readahead, then a get for each block it covers.
			k, n := key(), int64(2+rng.Intn(6))
			submit("readahead", cleancache.Request{Op: cleancache.OpReadAhead, VM: 1, Key: k, Count: n})
			for b := int64(0); b < n; b++ {
				gk := k
				gk.Block += b
				pg, lat := tr.SubmitAsync(now, cleancache.Request{Op: cleancache.OpGet, VM: 1, Key: gk})
				fmt.Fprintf(w, "submit-async %d %v\n", lat, pg.Done())
				now += lat
				handles = append(handles, pg)
			}
		case r < 883:
			// A burst past the ring's page bound.
			for j := 0; j < DefaultMaxBatchPages+40; j++ {
				submit("put", cleancache.Request{Op: cleancache.OpPut, VM: 1, Key: key(), Content: uint64(i)})
			}
		case r < 940:
			lat := tr.Flush(now)
			fmt.Fprintf(w, "flush-tick %d\n", lat)
			now += lat
		case r < 970:
			if opts.OpBudget > 0 {
				fmt.Fprintf(w, "watchdog %d\n", tr.Watchdog(now))
			}
		default:
			// Redeem a random outstanding handle, or the oldest few.
			if len(handles) > 0 {
				j := rng.Intn(len(handles))
				await(handles[j])
				handles = append(handles[:j], handles[j+1:]...)
			}
		}
		for len(handles) > 12 {
			await(handles[0])
			handles = handles[1:]
		}
	}
	fmt.Fprintf(w, "close %d\n", tr.Close(now))
	for _, pg := range handles {
		await(pg)
	}
	return tr.Stats()
}

// TestTransportGolden pins every latency, verdict and count the
// transport returns over a fixed-seed op stream, plus its final
// counters, in four configurations. Any change to the transport's
// internals must leave all four unchanged.
func TestTransportGolden(t *testing.T) {
	cases := []struct {
		name   string
		opts   func() Options
		digest uint64
		lines  int
		stats  TransportStats
	}{
		{
			name:   "unbatched",
			opts:   func() Options { return Options{Unbatched: true} },
			digest: 0x4584489594df83de, lines: 25903,
			stats: TransportStats{
				Calls: 23490, PagesCopied: 22871, SyncOps: 23490,
				StagedHits: 245, StagedFills: 410, StagedEvictions: 1,
				MaxGetLatency: 3150 * time.Nanosecond,
			},
		},
		{
			name:   "batched-sync-gets",
			opts:   func() Options { return Options{} },
			digest: 0x3693462a48e7ea68, lines: 25903,
			stats: TransportStats{
				Calls: 3742, PagesCopied: 22871, Batches: 1449, BatchedOps: 21197, SyncOps: 2293,
				StagedHits: 245, StagedFills: 410, StagedEvictions: 1,
				MaxGetLatency: 65100 * time.Nanosecond,
			},
		},
		{
			name:   "async-zerocopy",
			opts:   func() Options { return Options{AsyncGets: true, ZeroCopy: true} },
			digest: 0xee26183bb73c08c7, lines: 25903,
			stats: TransportStats{
				Calls: 1152, PagesCopied: 20255, PagesMapped: 1183,
				Batches: 1065, BatchedOps: 21197, SyncOps: 87, AsyncGets: 2434,
				StagedHits: 245, StagedFills: 410, StagedEvictions: 1,
				MaxGetLatency: 63750 * time.Nanosecond,
			},
		},
		{
			name: "async-zerocopy-budget-faults",
			opts: func() Options {
				return Options{
					AsyncGets: true, ZeroCopy: true,
					OpBudget:        100 * time.Microsecond,
					MaxInflightGets: 10,
					MaxQueuedOps:    200,
					Faults:          fault.New(goldenPlan()),
				}
			},
			digest: 0xf462bac5470364b2, lines: 26096,
			stats: TransportStats{
				Calls: 1719, PagesCopied: 10958, PagesMapped: 673,
				Batches: 1061, BatchedOps: 9480, SyncOps: 87, AsyncGets: 2335,
				StagedHits: 99, StagedFills: 153, StagedEvictions: 1,
				Retries: 554, Backoff: 9780 * time.Microsecond, Drops: 558, Corrupts: 103,
				DroppedBatches: 17, RequeuedOps: 35, FlushAbandoned: 4, SyncFailures: 69,
				DeadlineMisses: 1684, WatchdogFails: 128, ShedGets: 109, ShedOps: 11717,
				CompletionDrops: 90, MaxGetLatency: 100 * time.Microsecond,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := fnv.New64a()
			cw := &countingWriter{w: h}
			st := runGoldenStream(cw, tc.opts())
			if h.Sum64() != tc.digest || cw.lines != tc.lines {
				t.Errorf("trace digest %#x over %d lines, want %#x over %d", h.Sum64(), cw.lines, tc.digest, tc.lines)
			}
			if st != tc.stats {
				t.Errorf("final stats\n got %+v\nwant %+v", st, tc.stats)
			}
		})
	}
}

// countingWriter counts the lines written through it.
type countingWriter struct {
	w     io.Writer
	lines int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	for _, b := range p {
		if b == '\n' {
			c.lines++
		}
	}
	return c.w.Write(p)
}
