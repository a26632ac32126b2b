package live

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
)

// payload labels one test message with its source and position.
type payload struct {
	src ids.Client
	n   int
}

// settle waits until every box's pump has handed off everything enqueued
// so far and parked, so a check for extra deliveries sees all of them.
func settle(t *testing.T, boxes ...*mailbox) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, b := range boxes {
		for {
			b.mu.Lock()
			done := b.queue.n == 0 && (b.idle || !b.started)
			b.mu.Unlock()
			if done {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("mailbox pump never settled (blocked on a full mailbox?)")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// runLinkFIFO drives nsrc concurrent senders of count messages each into
// one destination mailbox through a network with the given policy, and
// asserts the destination reads every sender's stream exactly once and in
// order, whatever the link did in between.
func runLinkFIFO(t *testing.T, policy *linkPolicy, latency time.Duration, nsrc, count int) {
	t.Helper()
	dst := newMailbox(8)
	net := newNetwork(latency, func(ids.Client) *mailbox { return dst }, policy)
	defer net.stop()
	var senders sync.WaitGroup
	for s := 0; s < nsrc; s++ {
		s := s
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := 0; i < count; i++ {
				net.send(ids.Client(s), 9, payload{src: ids.Client(s), n: i})
			}
		}()
	}
	next := make(map[ids.Client]int)
	for got := 0; got < nsrc*count; got++ {
		select {
		case m := <-dst.ch:
			p := m.(payload)
			if p.n != next[p.src] {
				t.Fatalf("from %v: delivery %d arrived, want %d (reordered, lost or duplicated)", p.src, p.n, next[p.src])
			}
			next[p.src]++
		case <-time.After(10 * time.Second):
			t.Fatalf("delivery stalled after %d of %d messages", got, nsrc*count)
		}
	}
	senders.Wait()
	settle(t, dst)
	select {
	case m := <-dst.ch:
		t.Fatalf("extra delivery %v after all %d expected (duplicate leaked through)", m, nsrc*count)
	default:
	}
}

func TestMailboxPerLinkFIFOConcurrentEnqueuers(t *testing.T) {
	runLinkFIFO(t, nil, 20*time.Microsecond, 4, 300)
}

func TestMailboxPerLinkFIFOZeroLatency(t *testing.T) {
	runLinkFIFO(t, nil, 0, 4, 300)
}

// TestMailboxPerLinkFIFOUnderChaos is the tentpole invariant at its
// sharpest: with the link adversarially reordering, duplicating and
// jittering deliveries, the resequencer at the mailbox edge must still
// hand the consumer exactly-once, in-order streams per sender.
func TestMailboxPerLinkFIFOUnderChaos(t *testing.T) {
	chaos := ChaosConfig{Reorder: 0.5, Duplicate: 0.4, Jitter: 100 * time.Microsecond}
	for seed := uint64(1); seed <= 3; seed++ {
		runLinkFIFO(t, newLinkPolicy(chaos, seed), 20*time.Microsecond, 4, 300)
	}
}

// TestZeroLatencySendDoesNotDeadlock is the regression test for the
// inline-delivery bug: with Latency == 0 the network used to deliver
// straight into dst.ch from the sender's own goroutine, so two sites
// sending to each other with full (tiny) mailbox buffers deadlocked —
// exactly a server↔client send cycle under load. All sends must go
// through the enqueue/pump path so a sender never blocks.
func TestZeroLatencySendDoesNotDeadlock(t *testing.T) {
	a := newMailbox(1)
	b := newMailbox(1)
	boxes := map[ids.Client]*mailbox{0: a, 1: b}
	net := newNetwork(0, func(c ids.Client) *mailbox { return boxes[c] }, nil)
	defer net.stop()
	const n = 64
	sent := make(chan struct{}, 2)
	go func() {
		for i := 0; i < n; i++ {
			net.send(0, 1, i)
		}
		sent <- struct{}{}
	}()
	go func() {
		for i := 0; i < n; i++ {
			net.send(1, 0, i)
		}
		sent <- struct{}{}
	}()
	deadline := time.After(5 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-sent:
		case <-deadline:
			t.Fatal("zero-latency send cycle deadlocked on full mailbox buffers")
		}
	}
	// Drain both mailboxes so every pump delivery completes.
	for i := 0; i < n; i++ {
		<-a.ch
		<-b.ch
	}
	settle(t, a, b)
	for _, box := range []*mailbox{a, b} {
		select {
		case m := <-box.ch:
			t.Fatalf("extra delivery %v after all %d expected", m, n)
		default:
		}
	}
}

// TestRingQueueMatchesSliceModel drives a mailbox's ring queue directly,
// with no pump, against a slice model of the insert rule (displace slots
// before the tail, clamped to the front): chaos displacement after the
// head has wrapped, growth while the contents are wrapped, and a
// displacement larger than the queue must all pop in the model's order.
func TestRingQueueMatchesSliceModel(t *testing.T) {
	var r ring
	var model []uint64
	next := uint64(1)
	push := func(displace int) {
		t.Helper()
		r.insert(delivery{env: envelope{seq: next}}, displace)
		pos := len(model) - displace
		if pos < 0 {
			pos = 0
		}
		model = append(model, 0)
		copy(model[pos+1:], model[pos:])
		model[pos] = next
		next++
	}
	pop := func() {
		t.Helper()
		if got := r.pop().env.seq; got != model[0] {
			t.Fatalf("pop = %d, want %d (model %v)", got, model[0], model)
		}
		model = model[1:]
	}

	for i := 0; i < 6; i++ {
		push(0)
	}
	for i := 0; i < 4; i++ {
		pop()
	}
	if r.head == 0 {
		t.Fatal("precondition: head did not advance")
	}
	// Fill the first buffer to the brim: the contents wrap past the end.
	for len(model) < len(r.buf) {
		push(len(model) % 3)
	}
	if r.head+r.n <= len(r.buf) {
		t.Fatalf("precondition: contents not wrapped (head %d, n %d, cap %d)", r.head, r.n, len(r.buf))
	}
	capBefore := len(r.buf)
	push(2) // grows while wrapped, then displaces
	if len(r.buf) != 2*capBefore {
		t.Fatalf("ring grew to %d slots, want %d", len(r.buf), 2*capBefore)
	}
	push(len(model) + 5) // displacement past the front clamps to it
	push(0)
	for len(model) > 0 {
		pop()
	}

	// A longer seeded mix of pushes, pops and displacements, crossing the
	// wrap point and several growths.
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		if len(model) > 0 && rnd.Intn(5) < 2 {
			pop()
		} else {
			push(rnd.Intn(6))
		}
	}
	for len(model) > 0 {
		pop()
	}
	if r.n != 0 {
		t.Fatalf("ring holds %d deliveries after the model drained", r.n)
	}
}

// TestSendPathAllocs pins the allocation-free wire path: once a clean
// link is warm, sending an already boxed message through the ring queue,
// the pump and the resequencer to the owner's channel allocates nothing.
func TestSendPathAllocs(t *testing.T) {
	dst := newMailbox(1)
	net := newNetwork(0, func(ids.Client) *mailbox { return dst }, nil)
	defer net.stop()
	var m message = payload{src: 0, n: 1}
	roundTrip := func() {
		net.send(0, 1, m)
		<-dst.ch
	}
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	if got := testing.AllocsPerRun(1000, roundTrip); got != 0 {
		t.Fatalf("send → pump → resequencer → ch allocates %v times per message, want 0", got)
	}
}

// TestChaosPolicyDeterministic pins the seeded policy: the same seed must
// yield the same fault decisions on every link, so a failing chaos run
// can be replayed.
func TestChaosPolicyDeterministic(t *testing.T) {
	chaos := ChaosConfig{Reorder: 0.3, Duplicate: 0.2, Jitter: time.Millisecond, Drop: 0.3}
	a := newLinkPolicy(chaos, 7)
	b := newLinkPolicy(chaos, 7)
	other := newLinkPolicy(chaos, 8)
	k := linkKey{src: ids.Server, dst: 3}
	now := time.Now()
	same, diff := 0, 0
	for i := 0; i < 200; i++ {
		da, db := a.roll(k, now), b.roll(k, now)
		if da != db {
			t.Fatalf("roll %d diverged for identical seeds: %+v vs %+v", i, da, db)
		}
		if da == other.roll(k, now) {
			same++
		} else {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds never diverged; policy ignores the seed")
	}
}

// TestChaosDropIndependentStream pins the stream discipline that makes
// Drop a pure extension: enabling it must not shift the reorder,
// duplicate or jitter decisions of an otherwise identical seeded run,
// because each link draws drop from its own separately split stream.
func TestChaosDropIndependentStream(t *testing.T) {
	base := ChaosConfig{Reorder: 0.3, Duplicate: 0.2, Jitter: time.Millisecond}
	withDrop := base
	withDrop.Drop = 0.5
	a := newLinkPolicy(base, 7)
	b := newLinkPolicy(withDrop, 7)
	k := linkKey{src: ids.Server, dst: 3}
	now := time.Now()
	drops := 0
	for i := 0; i < 500; i++ {
		da, db := a.roll(k, now), b.roll(k, now)
		if da.displace != db.displace || da.duplicate != db.duplicate || da.jitter != db.jitter {
			t.Fatalf("roll %d: enabling Drop shifted other fault decisions: %+v vs %+v", i, da, db)
		}
		if da.drop {
			t.Fatalf("roll %d: policy without Drop rolled a drop", i)
		}
		if db.drop {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("Drop=0.5 never dropped in 500 rolls")
	}
}

func TestChaosConfigValidate(t *testing.T) {
	bad := []ChaosConfig{
		{Reorder: -0.1},
		{Reorder: 1.1},
		{Duplicate: -0.1},
		{Duplicate: 2},
		{Jitter: -time.Second},
		{Drop: -0.1},
		{Drop: 1.5},
		{Partition: PartitionConfig{Prob: -0.1}},
		{Partition: PartitionConfig{Prob: 1.1}},
		{Partition: PartitionConfig{Prob: 0.5, Down: -time.Millisecond}},
		{Partition: PartitionConfig{Prob: 0.5, Down: 0, Every: -time.Second}},
		// Every must exceed Down: a window that never closes can't heal.
		{Partition: PartitionConfig{Prob: 0.5, Down: 10 * time.Millisecond, Every: 5 * time.Millisecond}},
		{Partition: PartitionConfig{Prob: 0.5, Down: 10 * time.Millisecond, Every: 10 * time.Millisecond}},
	}
	for i, c := range bad {
		if c.validate() == nil {
			t.Errorf("case %d: invalid chaos config %+v accepted", i, c)
		}
	}
	ok := ChaosConfig{Reorder: 1, Duplicate: 1, Jitter: time.Second, Drop: 1,
		Partition: PartitionConfig{Prob: 1, Down: time.Millisecond, Every: time.Second}}
	if err := ok.validate(); err != nil {
		t.Errorf("valid chaos config rejected: %v", err)
	}
	// Zero Every is legal: withDefaults resolves it to 10×Down.
	zeroEvery := PartitionConfig{Prob: 1, Down: 3 * time.Millisecond}
	if err := (ChaosConfig{Partition: zeroEvery}).validate(); err != nil {
		t.Errorf("partition config with default Every rejected: %v", err)
	}
	if got := zeroEvery.withDefaults().Every; got != 30*time.Millisecond {
		t.Errorf("withDefaults Every = %v, want 10×Down = 30ms", got)
	}
	if (ChaosConfig{}).enabled() {
		t.Error("zero chaos config reports enabled")
	}
	if !ok.enabled() {
		t.Error("non-zero chaos config reports disabled")
	}
	if !(ChaosConfig{Drop: 0.1}).enabled() {
		t.Error("drop-only chaos config reports disabled")
	}
	if !(ChaosConfig{Partition: PartitionConfig{Prob: 0.1, Down: time.Millisecond}}).enabled() {
		t.Error("partition-only chaos config reports disabled")
	}
	if (ChaosConfig{Partition: PartitionConfig{Prob: 0.1}}).enabled() {
		t.Error("partition config with zero Down reports enabled")
	}
}

// TestChaosPartitionIndependentStream pins that enabling Partition does
// not shift the reorder/duplicate/jitter/drop decisions of an otherwise
// identical seeded run: partition placement draws from its own split.
func TestChaosPartitionIndependentStream(t *testing.T) {
	base := ChaosConfig{Reorder: 0.3, Duplicate: 0.2, Jitter: time.Millisecond, Drop: 0.3}
	withPart := base
	withPart.Partition = PartitionConfig{Prob: 1, Down: time.Hour, Every: 2 * time.Hour}
	a := newLinkPolicy(base, 7)
	b := newLinkPolicy(withPart, 7)
	k := linkKey{src: ids.Server, dst: 3}
	start := time.Now()
	parts := 0
	for i := 0; i < 500; i++ {
		// Sweep now across more than one full window cycle so the rolls
		// sample both in-window and up-time instants whatever the phase.
		now := start.Add(time.Duration(i) * 15 * time.Second)
		da, db := a.roll(k, now), b.roll(k, now)
		if da.displace != db.displace || da.duplicate != db.duplicate ||
			da.jitter != db.jitter || da.drop != db.drop {
			t.Fatalf("roll %d: enabling Partition shifted other fault decisions: %+v vs %+v", i, da, db)
		}
		if da.partitioned {
			t.Fatalf("roll %d: policy without Partition rolled a window", i)
		}
		if db.partitioned {
			parts++
		}
	}
	if parts == 0 {
		t.Fatal("Prob=1 hour-long window never marked a transmission partitioned")
	}
}

// TestChaosLinkStreamsOrderIndependent pins the per-link stream
// derivation: a link's fault sequence must depend only on the seed and
// the link's endpoints, never on which links happened to transmit first.
// Two policies with the same seed but opposite first-touch order must
// still agree on every link's directives.
func TestChaosLinkStreamsOrderIndependent(t *testing.T) {
	chaos := ChaosConfig{Reorder: 0.4, Duplicate: 0.3, Jitter: time.Millisecond, Drop: 0.2,
		Partition: PartitionConfig{Prob: 0.5, Down: time.Hour, Every: 2 * time.Hour}}
	a := newLinkPolicy(chaos, 7)
	b := newLinkPolicy(chaos, 7)
	ka := linkKey{src: ids.Server, dst: 1}
	kb := linkKey{src: 2, dst: ids.Server}
	now := time.Now()
	// Touch the links in opposite orders, interleaving draws.
	var seqA, seqB []directive
	for i := 0; i < 100; i++ {
		seqA = append(seqA, a.roll(ka, now))
		a.roll(kb, now)
	}
	for i := 0; i < 100; i++ {
		b.roll(kb, now)
		seqB = append(seqB, b.roll(ka, now))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("roll %d on %v diverged with different link first-touch order: %+v vs %+v",
				i, ka, seqA[i], seqB[i])
		}
	}
	// The partition oracle must agree too (same affliction and phase; the
	// exact remaining time differs by the policies' creation-epoch delta,
	// so compare only in-window state).
	if da, db := a.downFor(ka, now), b.downFor(ka, now); (da > 0) != (db > 0) {
		t.Fatalf("downFor diverged with different first-touch order: %v vs %v", da, db)
	}
}

func TestARQConfigValidate(t *testing.T) {
	bad := []ARQConfig{
		{RTO: -time.Millisecond},
		{MaxRTO: -time.Millisecond},
		{RTO: 10 * time.Millisecond, MaxRTO: 5 * time.Millisecond},
		{RetransmitCap: -1},
		{AckDelay: -time.Microsecond},
	}
	for i, c := range bad {
		if c.validate() == nil {
			t.Errorf("case %d: invalid ARQ config %+v accepted", i, c)
		}
	}
	if err := (ARQConfig{}).validate(); err != nil {
		t.Errorf("zero ARQ config rejected: %v", err)
	}
	def := (ARQConfig{}).withDefaults()
	if def.RTO <= 0 || def.MaxRTO < def.RTO || def.RetransmitCap <= 0 || def.AckDelay <= 0 {
		t.Errorf("defaults not self-consistent: %+v", def)
	}
}
