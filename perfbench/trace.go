// ddlint:allow-wallclock — the tracer times each layer boundary in host
// nanoseconds; virtual time is taken only from the simulated calls.

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/ddcache/oracle"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/store"
)

// Layers the tracer attributes time to. lSim is one Engine.Step, lOp one
// generated guest op (the benchmark's own generator code) and lBg a
// background root (writeback, transport flush or watchdog tick); the
// rest are the program's modules, timed at the calls into them.
const (
	lSim = iota
	lOp
	lBg
	lGuest
	lHypercall
	lDDCache
	lStoreMem
	lStoreSSD
	lStoreRemote
	lDisk
	nLayers
)

// layerAcc sums one layer's spans: calls, self host ns (minus the child
// spans they enclose), and virtual ns, total and self.
type layerAcc struct {
	calls       int64
	selfNs      time.Duration
	vns, selfVs time.Duration
}

// span is one recorded boundary call of a sampled root. Start and End
// are host ns since the tracer started; VirtualNs is the latency the
// call returned; Root identifies the causing guest op (or background
// root); Parent is the index of the parent span in the written file, -1
// for a root.
type span struct {
	Name      string `json:"name"`
	Root      int64  `json:"root"`
	Parent    int32  `json:"parent"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	VirtualNs int64  `json:"virtual_ns"`
}

type frame struct {
	layer    int
	start    time.Duration
	excl     time.Duration // tracer.excluded at entry
	childNs  time.Duration
	childV   time.Duration
	span     int32 // index into tracer.spans, -1 when not sampled
	implicit bool  // background root opened by its first child
}

// tracer keeps per-layer sums for every call and full span trees for one
// root in every sampleEvery.
type tracer struct {
	t0       time.Time
	excluded time.Duration // host time spent in checks, removed from spans
	exclAt   time.Duration // excluded at the last reset
	stack    []frame
	acc      [nLayers]layerAcc

	sampleEvery int64
	maxSpans    int
	roots       int64
	sampled     bool
	spans       []span

	b boundary
}

// boundary counts what crosses the layer boundaries, by op code where
// the boundary carries cleancache ops.
type boundary struct {
	guestCalls [4]int64 // read, write, fsync, delete

	// Page cache outcomes of the blocks the generator read, from the
	// container's IOStats around each Read call.
	readBlocks, readHits, readCC, readDisk int64

	submitted [16]int64 // Front → transport, by op
	getHits   int64
	awaitV    time.Duration

	dispatched [16]int64 // transport → manager, by op
	dispGetOk  int64
	putReject  int64
	raProbes   int64 // READ_AHEAD blocks probed, terminating miss included
	raBlocks   int64 // READ_AHEAD blocks extracted

	storeCalls [3][2]int64 // mem/ssd/remote × fetch/store

	oracleNs         time.Duration
	oracleMismatches int64
	identityFailures int64
	firstFailures    []string
}

func newTracer(sampleEvery int64) *tracer {
	return &tracer{t0: time.Now(), sampleEvery: sampleEvery, maxSpans: 400000}
}

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// reset clears sums, counters and kept spans at the steady checkpoint.
func (t *tracer) reset() {
	t.acc = [nLayers]layerAcc{}
	t.b = boundary{}
	t.exclAt = t.excluded
	t.spans = t.spans[:0]
}

// pause and resume bracket benchmark-side work (oracle shadow, identity
// snapshots) so that it is charged to no span.
func (t *tracer) pause() time.Duration { return t.now() }

func (t *tracer) resume(from time.Duration) time.Duration {
	d := t.now() - from
	t.excluded += d
	return d
}

func (t *tracer) push(layer int, name string, implicit bool) {
	f := frame{layer: layer, start: t.now(), excl: t.excluded, span: -1, implicit: implicit}
	if t.sampled && len(t.spans) < t.maxSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 && t.stack[n-1].layer != lSim {
			parent = t.stack[n-1].span
		}
		f.span = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: name, Root: t.roots, Parent: parent, Start: int64(f.start)})
	}
	t.stack = append(t.stack, f)
}

// atRoot reports whether the next span opens a new root: nothing is open
// beyond the current Engine.Step.
func (t *tracer) atRoot() bool {
	n := len(t.stack)
	return n == 0 || t.stack[n-1].layer == lSim
}

func (t *tracer) newRoot() {
	t.roots++
	t.sampled = t.roots%t.sampleEvery == 0
}

// enter opens a boundary span. A call with no guest op open belongs to
// background activity and first opens a root span named after it.
func (t *tracer) enter(layer int, name string) {
	if t.atRoot() {
		t.newRoot()
		t.push(lBg, bgName(name), true)
	}
	t.push(layer, name, false)
}

func bgName(first string) string {
	switch first {
	case "hypercall.flush":
		return "bg.transport_flush"
	case "hypercall.watchdog":
		return "bg.watchdog"
	default:
		return "bg.writeback"
	}
}

// exit closes the innermost span; vlat is the virtual latency the call
// returned.
func (t *tracer) exit(vlat time.Duration) {
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	end := t.now()
	dur := end - f.start - (t.excluded - f.excl)
	a := &t.acc[f.layer]
	a.calls++
	a.selfNs += dur - f.childNs
	a.vns += vlat
	a.selfVs += max(0, vlat-f.childV)
	if f.span >= 0 {
		t.spans[f.span].End = int64(end)
		t.spans[f.span].VirtualNs = int64(vlat)
	}
	if n == 0 {
		return
	}
	p := &t.stack[n-1]
	p.childNs += dur
	p.childV += vlat
	// A background root opened outside any Engine.Step (set-up, load
	// phase) ends with its only child.
	if p.implicit && n == 1 {
		t.exit(p.childV)
	}
}

// beginStep and endStep bracket one Engine.Step; endStep closes the
// step's background root, if one was opened.
func (t *tracer) beginStep() { t.push(lSim, "sim.step", false) }

func (t *tracer) endStep() {
	if n := len(t.stack); n > 0 && t.stack[n-1].implicit {
		t.exit(t.stack[n-1].childV)
	}
	t.exit(0)
}

func (t *tracer) beginOp(name string) {
	t.newRoot()
	t.push(lOp, name, false)
}

func (t *tracer) fail(format string, args ...any) {
	t.b.identityFailures++
	if len(t.b.firstFailures) < 5 {
		t.b.firstFailures = append(t.b.firstFailures, fmt.Sprintf(format, args...))
	}
}

// writeSpans writes the kept span trees as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// submitNames and dispatchNames hold a span name per op code, so the
// hot path builds no strings.
var submitNames, dispatchNames [16]string

func init() {
	for _, op := range cleancache.OpCodes() {
		submitNames[op] = "hypercall.submit." + op.String()
		dispatchNames[op] = "ddcache.dispatch." + op.String()
	}
}

// tracedTransport sits between the cleancache Front and the VM's
// hypercall transport. It implements every capability the transport
// does, so the Front and guest take the same paths as without it.
type tracedTransport struct {
	t  *tracer
	in *hypercall.Transport
}

var (
	_ cleancache.AsyncTransport    = (*tracedTransport)(nil)
	_ cleancache.DeadlineTransport = (*tracedTransport)(nil)
)

func (w *tracedTransport) Submit(now time.Duration, req cleancache.Request) cleancache.Response {
	w.t.enter(lHypercall, submitNames[req.Op])
	resp := w.in.Submit(now, req)
	w.t.exit(resp.Latency)
	w.t.b.submitted[req.Op]++
	if req.Op == cleancache.OpGet && resp.Ok {
		w.t.b.getHits++
	}
	return resp
}

func (w *tracedTransport) SubmitAsync(now time.Duration, req cleancache.Request) (*cleancache.PendingGet, time.Duration) {
	w.t.enter(lHypercall, submitNames[req.Op])
	pg, lat := w.in.SubmitAsync(now, req)
	w.t.exit(lat)
	w.t.b.submitted[req.Op]++
	return pg, lat
}

func (w *tracedTransport) Await(now time.Duration, pg *cleancache.PendingGet) cleancache.Response {
	w.t.enter(lHypercall, "hypercall.await")
	resp := w.in.Await(now, pg)
	w.t.exit(resp.Latency)
	w.t.b.awaitV += resp.Latency
	if resp.Ok {
		w.t.b.getHits++
	}
	return resp
}

func (w *tracedTransport) Flush(now time.Duration) time.Duration {
	w.t.enter(lHypercall, "hypercall.flush")
	lat := w.in.Flush(now)
	w.t.exit(lat)
	return lat
}

func (w *tracedTransport) Watchdog(now time.Duration) int {
	w.t.enter(lHypercall, "hypercall.watchdog")
	n := w.in.Watchdog(now)
	w.t.exit(0)
	return n
}

func (w *tracedTransport) Close(now time.Duration) time.Duration {
	w.t.enter(lHypercall, "hypercall.close")
	lat := w.in.Close(now)
	w.t.exit(lat)
	return lat
}

// tracedBackend sits between a transport and the cache manager. When
// shadow is set, every dispatch is replayed into the sequential oracle
// and any difference in verdict or latency is counted.
type tracedBackend struct {
	t      *tracer
	m      *ddcache.Manager
	shadow *oracle.Oracle
}

func (b *tracedBackend) Dispatch(now time.Duration, req cleancache.Request) cleancache.Response {
	b.t.enter(lDDCache, dispatchNames[req.Op])
	resp := b.m.Dispatch(now, req)
	b.t.exit(resp.Latency)
	c := &b.t.b
	c.dispatched[req.Op]++
	switch req.Op {
	case cleancache.OpGet:
		if resp.Ok {
			c.dispGetOk++
		}
	case cleancache.OpPut:
		if !resp.Ok {
			c.putReject++
		}
	case cleancache.OpReadAhead:
		c.raBlocks += resp.Count
		c.raProbes += resp.Count
		if resp.Count < req.Count {
			c.raProbes++ // the probe that found no block
		}
	default: // ddlint:nonexhaustive — only data ops have outcomes to count
	}
	if b.shadow != nil {
		from := b.t.pause()
		want := b.shadow.Dispatch(now, req)
		c.oracleNs += b.t.resume(from)
		if want != resp {
			c.oracleMismatches++
			if len(c.firstFailures) < 5 {
				c.firstFailures = append(c.firstFailures,
					fmt.Sprintf("oracle: %v %+v: manager %+v, oracle %+v", req.Op, req.Key, resp, want))
			}
		}
	}
	return resp
}

// tracedStore sits between the manager and one store backend.
type tracedStore struct {
	store.Backend
	t     *tracer
	layer int
}

func (s *tracedStore) Store(now time.Duration, size int64) (time.Duration, error) {
	s.t.enter(s.layer, storeNames[s.layer-lStoreMem][1])
	lat, err := s.Backend.Store(now, size)
	s.t.exit(lat)
	s.t.b.storeCalls[s.layer-lStoreMem][1]++
	return lat, err
}

func (s *tracedStore) Fetch(now time.Duration, size int64) (time.Duration, error) {
	s.t.enter(s.layer, storeNames[s.layer-lStoreMem][0])
	lat, err := s.Backend.Fetch(now, size)
	s.t.exit(lat)
	s.t.b.storeCalls[s.layer-lStoreMem][0]++
	return lat, err
}

var storeNames = [3][2]string{
	{"store.mem.fetch", "store.mem.store"},
	{"store.ssd.fetch", "store.ssd.store"},
	{"store.remote.fetch", "store.remote.store"},
}

// tracedDisk sits between a guest page cache and its virtual disk.
type tracedDisk struct {
	blockdev.Device
	t *tracer
}

func (d *tracedDisk) Read(now time.Duration, offset, size int64) (time.Duration, error) {
	d.t.enter(lDisk, "blockdev.vmdisk.read")
	lat, err := d.Device.Read(now, offset, size)
	d.t.exit(lat)
	return lat, err
}

func (d *tracedDisk) Write(now time.Duration, offset, size int64) (time.Duration, error) {
	d.t.enter(lDisk, "blockdev.vmdisk.write")
	lat, err := d.Device.Write(now, offset, size)
	d.t.exit(lat)
	return lat, err
}

func (d *tracedDisk) WriteAsync(now time.Duration, offset, size int64) error {
	d.t.enter(lDisk, "blockdev.vmdisk.write_async")
	err := d.Device.WriteAsync(now, offset, size)
	d.t.exit(0)
	return err
}
