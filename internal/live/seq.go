package live

import (
	"fmt"
	"math"

	"repro/internal/ids"
)

// envelope is the one frame type on the wire. It wraps every protocol
// message with the sending site's identity and a per-link monotonic
// sequence number. The sequence is the protocol edge's defence against
// an adversarial transport: the resequencer at each mailbox uses it to
// restore exactly-once, in-order delivery per link, so the protocol
// cores never see reordering or duplication no matter what the network
// does in between. An unsequenced frame (seq 0, no msg) is a standalone
// cumulative acknowledgement from src: see ackFrame.
type envelope struct {
	src ids.Client
	seq uint64
	msg message
	// ack piggybacks the sender's cumulative acknowledgement for the
	// reverse link (every seq <= ack received from the destination); 0
	// carries no information. Only set when the ARQ layer is active.
	ack uint64
}

// maxResequencerGap bounds how many out-of-order messages one link may
// buffer at a mailbox. The chaos policy only permutes deliveries already
// in flight, so a gap can never grow unboundedly unless a message was
// lost or a sequence number corrupted — at which point the run must die
// loudly rather than hang waiting for a seq that will never arrive.
const maxResequencerGap = 1 << 16

// nextSeq returns the sequence number after cur. Sequence numbers start
// at 1 (0 marks an unstamped message) and must never wrap: a wrapped
// counter would alias a live seq with an ancient one and the dedup logic
// would silently drop fresh messages, so overflow is a loud failure.
func nextSeq(cur uint64) uint64 {
	if cur == math.MaxUint64 {
		panic("live: link sequence number wrapped")
	}
	return cur + 1
}

// resequencer restores the per-link invariant at one mailbox edge: for
// each source site it tracks the next expected sequence number, buffers
// arrivals past a gap, and drops duplicates (both already-delivered and
// already-buffered ones). It is touched only by the mailbox's single
// pump goroutine, so it needs no locking.
type resequencer struct {
	next map[ids.Client]uint64             // next expected seq per source
	held map[ids.Client]map[uint64]message // out-of-order arrivals per source
}

func newResequencer() *resequencer {
	return &resequencer{
		next: make(map[ids.Client]uint64),
		held: make(map[ids.Client]map[uint64]message),
	}
}

// accept takes one arrived envelope and appends to out the messages that
// are now deliverable in order: nothing (a duplicate, or a gap still
// open), or the envelope's message followed by any buffered successors
// it unblocks.
func (r *resequencer) accept(e envelope, out []message) []message {
	if e.seq == 0 {
		panic(fmt.Sprintf("live: unstamped %T from %v reached a resequencer", e.msg, e.src))
	}
	want, ok := r.next[e.src]
	if !ok {
		want = 1
	}
	switch {
	case e.seq < want:
		return out // duplicate of an already-delivered message
	case e.seq > want:
		h := r.held[e.src]
		if h == nil {
			h = make(map[uint64]message)
			r.held[e.src] = h
		}
		if _, dup := h[e.seq]; !dup {
			if len(h) >= maxResequencerGap {
				panic(fmt.Sprintf("live: resequencer gap from %v exceeds %d (lost or corrupt sequence?)", e.src, maxResequencerGap))
			}
			h[e.seq] = e.msg
		}
		return out
	}
	out = append(out, e.msg)
	want = nextSeq(want)
	for {
		m, ok := r.held[e.src][want]
		if !ok {
			break
		}
		delete(r.held[e.src], want)
		out = append(out, m)
		want = nextSeq(want)
	}
	// A drained gap must not leave its empty inner map behind: with many
	// sources over a long run those husks accumulate without bound.
	if h, ok := r.held[e.src]; ok && len(h) == 0 {
		delete(r.held, e.src)
	}
	r.next[e.src] = want
	return out
}

// delivered returns the cumulative in-order delivery point for one
// source: every seq <= delivered has been handed to the consumer. This
// is exactly the value a cumulative acknowledgement may carry.
func (r *resequencer) delivered(src ids.Client) uint64 {
	if n, ok := r.next[src]; ok {
		return n - 1
	}
	return 0
}
