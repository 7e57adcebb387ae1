package hypercall

import "doubledecker/internal/cleancache"

// Ring is the per-VM bounded queue of frames awaiting one multi-op
// crossing. It models the shared ring a real transport would map between
// guest and hypervisor: frames are appended in FIFO order, and the ring
// is bounded both by operation count and by page payload (the paper's
// 2 MiB granularity). Frames are held as values, as a VMCALL carries its
// arguments; a frame is wire-encoded only when a faulty crossing needs a
// payload to checksum (see Transport.payload).
//
// Ring is not self-locking; the owning Transport serializes access.
type Ring struct {
	maxOps   int
	maxPages int

	frames []Frame
	pages  int
}

// NewRing returns an empty ring bounded by maxOps frames and maxPages
// pages of payload.
func NewRing(maxOps, maxPages int) *Ring {
	return &Ring{maxOps: maxOps, maxPages: maxPages}
}

// Len reports the number of buffered operations.
func (r *Ring) Len() int { return len(r.frames) }

// Pages reports the page payload of the buffered operations.
func (r *Ring) Pages() int { return r.pages }

// Fits reports whether one more op moving pages of data can be accepted
// without exceeding the ring bounds.
func (r *Ring) Fits(pages int) bool {
	return len(r.frames) < r.maxOps && r.pages+pages <= r.maxPages
}

// Full reports whether the ring has reached either bound (no further
// page-carrying op fits).
func (r *Ring) Full() bool {
	return len(r.frames) >= r.maxOps || r.pages >= r.maxPages
}

// Push appends req to the ring. The caller must have checked Fits.
func (r *Ring) Push(req cleancache.Request) {
	r.push(Frame{Req: req, pages: req.Op.Pages()})
}

// PushTagged appends a tagged request: an asynchronous get riding the
// batch, whose completion is demultiplexed by tag. pages is the response
// payload the frame reserves in the batch's page budget (0 when the
// answer page is mapped instead of copied). The caller must have checked
// Fits.
func (r *Ring) PushTagged(tag uint64, req cleancache.Request, pages int) {
	r.push(Frame{Tagged: true, Tag: tag, Req: req, pages: pages})
}

func (r *Ring) push(f Frame) {
	r.frames = append(r.frames, f)
	r.pages += f.pages
}

// Frames returns the buffered frames in FIFO order. The slice aliases the
// ring: callers may mark frames in place but must not retain it across
// Push, Drain or Retain.
func (r *Ring) Frames() []Frame { return r.frames }

// Cancel marks the buffered tagged frame tag cancelled, so the drain that
// carries it releases its slot without dispatching. It reports whether
// the frame was still buffered.
func (r *Ring) Cancel(tag uint64) bool {
	for i := range r.frames {
		if f := &r.frames[i]; f.Tagged && f.Tag == tag {
			f.cancelled = true
			return true
		}
	}
	return false
}

// Drain invokes fn on every buffered frame in FIFO order and empties the
// ring.
func (r *Ring) Drain(fn func(f *Frame)) {
	for i := range r.frames {
		fn(&r.frames[i])
	}
	r.frames = r.frames[:0]
	r.pages = 0
}

// Retain invokes keep on every buffered frame in FIFO order, compacts the
// frames it returns true for to the front of the ring, still in FIFO
// order, and drops the rest.
func (r *Ring) Retain(keep func(f *Frame) bool) {
	n, pages := 0, 0
	for i := range r.frames {
		if keep(&r.frames[i]) {
			r.frames[n] = r.frames[i]
			pages += r.frames[n].pages
			n++
		}
	}
	r.frames = r.frames[:n]
	r.pages = pages
}
