package live

import (
	"math"
	"testing"

	"repro/internal/ids"
)

// env builds a test envelope carrying its own seq as payload.
func env(src ids.Client, seq uint64) envelope {
	return envelope{src: src, seq: seq, msg: seq}
}

// wantOut asserts accept returned exactly the given payload seqs in order.
func wantOut(t *testing.T, got []message, want ...uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("accept returned %d messages %v, want %d", len(got), got, len(want))
	}
	for i, m := range got {
		if m.(uint64) != want[i] {
			t.Fatalf("accept[%d] = %v, want %d", i, m, want[i])
		}
	}
}

func TestResequencerInOrder(t *testing.T) {
	r := newResequencer()
	for seq := uint64(1); seq <= 5; seq++ {
		wantOut(t, r.accept(env(0, seq), nil), seq)
	}
}

func TestResequencerGapBuffering(t *testing.T) {
	r := newResequencer()
	// 2 and 3 arrive ahead of 1: buffered, then released in order.
	wantOut(t, r.accept(env(0, 2), nil))
	wantOut(t, r.accept(env(0, 3), nil))
	wantOut(t, r.accept(env(0, 1), nil), 1, 2, 3)
	// The gap buffer is empty again; 4 flows straight through.
	wantOut(t, r.accept(env(0, 4), nil), 4)
	// accept appends after what the caller's buffer already holds.
	wantOut(t, r.accept(env(0, 6), []message{uint64(0)}), 0)
	wantOut(t, r.accept(env(0, 5), []message{uint64(0)}), 0, 5, 6)
}

func TestResequencerDupDrop(t *testing.T) {
	r := newResequencer()
	wantOut(t, r.accept(env(0, 1), nil), 1)
	// Duplicate of a delivered message: dropped.
	wantOut(t, r.accept(env(0, 1), nil))
	// Duplicate of a buffered (gap) message: dropped, then delivered once.
	wantOut(t, r.accept(env(0, 3), nil))
	wantOut(t, r.accept(env(0, 3), nil))
	wantOut(t, r.accept(env(0, 2), nil), 2, 3)
	wantOut(t, r.accept(env(0, 2), nil))
	wantOut(t, r.accept(env(0, 3), nil))
}

func TestResequencerPerSourceStreams(t *testing.T) {
	r := newResequencer()
	// Sources sequence independently: seq 1 from each is deliverable, and
	// a gap on one source does not block the other.
	wantOut(t, r.accept(env(0, 2), nil))
	wantOut(t, r.accept(env(1, 1), nil), 1)
	wantOut(t, r.accept(env(ids.Server, 1), nil), 1)
	wantOut(t, r.accept(env(0, 1), nil), 1, 2)
}

// TestResequencerHeldMapDrained is the regression test for the per-source
// submap leak: once a gap drains, the source's inner held map must be
// deleted, not left empty in r.held forever.
func TestResequencerHeldMapDrained(t *testing.T) {
	r := newResequencer()
	// Open gaps on two sources, then drain both fully.
	wantOut(t, r.accept(env(0, 3), nil))
	wantOut(t, r.accept(env(0, 2), nil))
	wantOut(t, r.accept(env(1, 2), nil))
	wantOut(t, r.accept(env(0, 1), nil), 1, 2, 3)
	if len(r.held) != 1 {
		t.Fatalf("after source 0 drained: %d held entries, want 1 (source 1 still gapped)", len(r.held))
	}
	wantOut(t, r.accept(env(1, 1), nil), 1, 2)
	if len(r.held) != 0 {
		t.Fatalf("after full drain: %d residual held submaps, want 0", len(r.held))
	}
	// A partially drained gap keeps its entries.
	wantOut(t, r.accept(env(0, 5), nil))
	wantOut(t, r.accept(env(0, 7), nil))
	wantOut(t, r.accept(env(0, 4), nil), 4, 5)
	if len(r.held[0]) != 1 {
		t.Fatalf("partially drained gap holds %d, want 1 (seq 7)", len(r.held[0]))
	}
	wantOut(t, r.accept(env(0, 6), nil), 6, 7)
	if len(r.held) != 0 {
		t.Fatalf("after second drain: %d residual held submaps, want 0", len(r.held))
	}
}

func TestResequencerDelivered(t *testing.T) {
	r := newResequencer()
	if got := r.delivered(0); got != 0 {
		t.Fatalf("delivered of unseen source = %d, want 0", got)
	}
	r.accept(env(0, 1), nil)
	r.accept(env(0, 2), nil)
	r.accept(env(0, 4), nil) // gapped: not yet delivered
	if got := r.delivered(0); got != 2 {
		t.Fatalf("delivered = %d, want 2 (seq 4 still gapped)", got)
	}
	r.accept(env(0, 3), nil)
	if got := r.delivered(0); got != 4 {
		t.Fatalf("delivered = %d, want 4 after the gap closed", got)
	}
}

func TestResequencerUnstampedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("seq 0 (unstamped) must panic")
		}
	}()
	newResequencer().accept(env(0, 0), nil)
}

func TestResequencerGapOverflowPanics(t *testing.T) {
	r := newResequencer()
	// Hold the gap open at seq 1 and flood arrivals past it.
	for seq := uint64(2); seq < maxResequencerGap+2; seq++ {
		r.accept(env(0, seq), nil)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unbounded gap growth must panic, not hang the run")
		}
	}()
	r.accept(env(0, maxResequencerGap+2), nil)
}

func TestNextSeqWraparoundGuard(t *testing.T) {
	if got := nextSeq(0); got != 1 {
		t.Fatalf("nextSeq(0) = %d, want 1", got)
	}
	if got := nextSeq(41); got != 42 {
		t.Fatalf("nextSeq(41) = %d, want 42", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("sequence wraparound must panic: a wrapped counter would alias live and ancient seqs")
		}
	}()
	nextSeq(math.MaxUint64)
}
