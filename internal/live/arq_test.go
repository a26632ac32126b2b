package live

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
)

// newTestARQ builds an arq over a network whose every destination is one
// sink mailbox (no acks generated there), for driving the layer's state
// machine directly. The huge RTO keeps the retransmit timer from firing
// unless a test wants it to. The network's pumps stop when the test ends.
func newTestARQ(t *testing.T, cfg ARQConfig) (*arq, *mailbox) {
	sink := newMailbox(1024)
	net := newNetwork(0, func(ids.Client) *mailbox { return sink }, nil)
	t.Cleanup(net.stop)
	net.arq = newARQ(cfg, net, nil)
	return net.arq, sink
}

// retain stamps and retains n envelopes on link k, as network.send would.
func retain(a *arq, k linkKey, n int) {
	for seq := uint64(1); seq <= uint64(n); seq++ {
		env := envelope{src: k.src, seq: seq, msg: seq}
		a.stampAndRetain(k, &env)
	}
}

// senderState snapshots one link's sender half under the arq lock.
func senderState(a *arq, k linkKey) (unacked int, acked uint64, armed bool, rto time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.send[k]
	if s == nil {
		return 0, 0, false, 0
	}
	return len(s.unacked), s.acked, s.timer.armed, s.rto
}

func arqStatsNow(a *arq) arqStats {
	return a.snapshot()
}

func TestARQCumulativeAckAdvancement(t *testing.T) {
	a, _ := newTestARQ(t, ARQConfig{RTO: time.Hour})
	defer a.stop()
	k := linkKey{src: 0, dst: 1}
	retain(a, k, 5)
	if n, _, armed, _ := senderState(a, k); n != 5 || !armed {
		t.Fatalf("after 5 sends: unacked=%d armed=%v, want 5 true", n, armed)
	}
	// A cumulative ack covers everything at or below it.
	a.onAck(k, 3)
	if n, acked, armed, _ := senderState(a, k); n != 2 || acked != 3 || !armed {
		t.Fatalf("after ack 3: unacked=%d acked=%d armed=%v, want 2 3 true", n, acked, armed)
	}
	// A stale (lower) ack is a no-op.
	a.onAck(k, 2)
	if n, acked, _, _ := senderState(a, k); n != 2 || acked != 3 {
		t.Fatalf("stale ack regressed state: unacked=%d acked=%d", n, acked)
	}
	// Acking the rest empties the buffer and disarms the timer.
	a.onAck(k, 5)
	if n, acked, armed, _ := senderState(a, k); n != 0 || acked != 5 || armed {
		t.Fatalf("after ack 5: unacked=%d acked=%d armed=%v, want 0 5 false", n, acked, armed)
	}
}

func TestARQAckResetsBackoff(t *testing.T) {
	a, _ := newTestARQ(t, ARQConfig{RTO: time.Hour})
	defer a.stop()
	k := linkKey{src: 0, dst: 1}
	retain(a, k, 2)
	// Simulate accumulated backoff, then watch an ack reset it.
	a.mu.Lock()
	a.send[k].rto = 4 * time.Hour
	a.send[k].attempts = 7
	a.mu.Unlock()
	a.onAck(k, 1)
	a.mu.Lock()
	rto, attempts := a.send[k].rto, a.send[k].attempts
	a.mu.Unlock()
	if rto != time.Hour || attempts != 0 {
		t.Fatalf("ack did not reset backoff: rto=%v attempts=%d", rto, attempts)
	}
	// Only frontier ADVANCE resets backoff: a duplicate of the same ack
	// carries no evidence the link recovered, so the accumulated state
	// must survive it untouched.
	a.mu.Lock()
	a.send[k].rto = 4 * time.Hour
	a.send[k].attempts = 7
	a.mu.Unlock()
	a.onAck(k, 1)
	a.mu.Lock()
	rto, attempts = a.send[k].rto, a.send[k].attempts
	a.mu.Unlock()
	if rto != 4*time.Hour || attempts != 7 {
		t.Fatalf("stale ack reset backoff: rto=%v attempts=%d, want 4h 7", rto, attempts)
	}
}

// downPolicy builds a link policy whose every link is inside a partition
// window essentially always: Down covers all but 1ms of each cycle, so
// whatever phase a link draws, it is down at any sampled instant (bar a
// one-in-3.6-million sliver, fixed by the seed).
func downPolicy(seed uint64) *linkPolicy {
	return newLinkPolicy(ChaosConfig{Partition: PartitionConfig{
		Prob: 1, Down: time.Hour, Every: time.Hour + time.Millisecond,
	}}, seed)
}

// TestARQQuarantinePausesCapAndBackoff drives the retransmit callback by
// hand while the link is inside a partition window: every fire must be
// quarantined — burning neither retransmit attempts nor backoff growth,
// and never tripping the cap — because an outage is a property of the
// link, not evidence the peer died.
func TestARQQuarantinePausesCapAndBackoff(t *testing.T) {
	policy := downPolicy(1)
	sink := newMailbox(1024)
	net := newNetwork(0, func(ids.Client) *mailbox { return sink }, policy)
	var fatal error
	net.arq = newARQ(ARQConfig{RTO: time.Hour, MaxRTO: 4 * time.Hour, RetransmitCap: 3}, net, func(err error) { fatal = err })
	a := net.arq
	defer a.stop()
	k := linkKey{src: 0, dst: 1}
	if net.linkDown(k) == 0 {
		t.Fatal("precondition: link not inside a partition window")
	}
	retain(a, k, 1)
	// Fire well past the cap of 3; every fire lands inside the window.
	for i := 0; i < 10; i++ {
		a.mu.Lock()
		due := a.send[k].timer.due
		a.mu.Unlock()
		a.fireRetransmit(k, due)
	}
	a.mu.Lock()
	attempts, rto := a.send[k].attempts, a.send[k].rto
	a.mu.Unlock()
	if attempts != 0 {
		t.Fatalf("quarantined fires burned %d retransmit attempts", attempts)
	}
	if rto != time.Hour {
		t.Fatalf("quarantined fires grew backoff to %v", rto)
	}
	st := arqStatsNow(a)
	if st.quarantined != 10 {
		t.Fatalf("quarantined = %d, want 10", st.quarantined)
	}
	if st.retransmits != 0 {
		t.Fatalf("quarantined fires transmitted %d times into a down link", st.retransmits)
	}
	if fatal != nil {
		t.Fatalf("quarantine tripped the retransmit cap: %v", fatal)
	}
}

// TestARQStaleTimerAfterQuarantineAckIsNoop is the timer-audit
// regression: a quarantine re-arm moves the timer's deadline, so the
// pre-quarantine timer — and any fire after an ack has drained the
// envelope — must be inert. A stale fire that retransmitted an
// already-acked envelope would resurrect it in the peer's resequencer
// window and count phantom retransmits.
func TestARQStaleTimerAfterQuarantineAckIsNoop(t *testing.T) {
	policy := downPolicy(1)
	sink := newMailbox(1024)
	net := newNetwork(0, func(ids.Client) *mailbox { return sink }, policy)
	net.arq = newARQ(ARQConfig{RTO: time.Hour, MaxRTO: 4 * time.Hour, RetransmitCap: 3}, net, nil)
	a := net.arq
	defer a.stop()
	k := linkKey{src: 0, dst: 1}
	retain(a, k, 1)
	a.mu.Lock()
	preDue := a.send[k].timer.due
	a.mu.Unlock()
	a.fireRetransmit(k, preDue) // quarantined: re-arms with a later deadline
	if got := arqStatsNow(a).quarantined; got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	a.mu.Lock()
	quarantineDue := a.send[k].timer.due
	a.mu.Unlock()
	// The ack lands while the quarantine timer is parked.
	a.onAck(k, 1)
	if n, _, _, _ := senderState(a, k); n != 0 {
		t.Fatalf("unacked = %d after ack, want 0", n)
	}
	before := a.net.messages()
	a.fireRetransmit(k, preDue)        // pre-quarantine timer: superseded arming
	a.fireRetransmit(k, quarantineDue) // quarantine timer: arming retired by the ack
	if got := a.net.messages(); got != before {
		t.Fatalf("stale timer fire transmitted %d messages after the envelope was acked", got-before)
	}
	if st := arqStatsNow(a); st.retransmits != 0 || st.quarantined != 1 {
		t.Fatalf("stale fires moved counters: retransmits=%d quarantined=%d", st.retransmits, st.quarantined)
	}
}

// TestARQRetransmitBackoffScheduling lets the RTO timer fire for real:
// an unacked envelope (the receiver generates no acks) is retransmitted
// with doubling timeouts up to MaxRTO, and the resequencer at the
// destination absorbs every spurious copy.
func TestARQRetransmitBackoffScheduling(t *testing.T) {
	dst := newMailbox(256)
	dst.owner = 1 // no dst.arq: the receiver never acks
	net := newNetwork(0, func(ids.Client) *mailbox { return dst }, nil)
	defer net.stop()
	net.arq = newARQ(ARQConfig{RTO: 10 * time.Millisecond, MaxRTO: 40 * time.Millisecond, RetransmitCap: 100}, net, nil)
	defer net.arq.stop()

	net.send(0, 1, "payload")
	deadline := time.Now().Add(5 * time.Second)
	for arqStatsNow(net.arq).retransmits < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := arqStatsNow(net.arq)
	if st.retransmits < 3 {
		t.Fatalf("retransmits = %d after waiting, want >= 3", st.retransmits)
	}
	// Fires waited 10ms, 20ms, 40ms, 40ms, ...: the recorded max is the cap.
	if st.maxRTO != 40*time.Millisecond {
		t.Fatalf("maxRTO = %v, want 40ms", st.maxRTO)
	}
	if _, _, _, rto := senderState(net.arq, linkKey{src: 0, dst: 1}); rto != 40*time.Millisecond {
		t.Fatalf("backoff rto = %v, want capped at 40ms", rto)
	}
	// The consumer sees the message exactly once; retransmits are dups.
	select {
	case <-dst.ch:
	case <-time.After(time.Second):
		t.Fatal("original delivery missing")
	}
	select {
	case m := <-dst.ch:
		t.Fatalf("retransmit leaked through the resequencer: %v", m)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestARQRetransmitOfAckedSeqIsNoop pins both halves of the no-op: a
// timer fire after everything was acked transmits nothing, and a fire
// of a superseded arming goes into the void.
func TestARQRetransmitOfAckedSeqIsNoop(t *testing.T) {
	a, _ := newTestARQ(t, ARQConfig{RTO: time.Hour})
	defer a.stop()
	k := linkKey{src: 0, dst: 1}
	retain(a, k, 2)
	a.onAck(k, 2)
	before := a.net.messages()
	a.mu.Lock()
	due := a.send[k].timer.due
	a.mu.Unlock()
	a.fireRetransmit(k, due) // empty buffer: nothing to do
	if got := a.net.messages(); got != before {
		t.Fatalf("retransmit of fully acked link sent %d messages", got-before)
	}
	// A fire of the earlier arming against a nonempty buffer is equally
	// inert.
	retain(a, k, 1) // seq 1 again on a fresh... reuse link with seq 3
	a.fireRetransmit(k, due)
	if got := a.net.messages(); got != before {
		t.Fatalf("stale-arming retransmit sent %d messages", got-before)
	}
	if st := arqStatsNow(a); st.retransmits != 0 {
		t.Fatalf("no-op retransmits counted: %d", st.retransmits)
	}
}

// twoSiteRig wires two owned, ack-generating mailboxes through one
// network+arq, the full reliable-delivery loop.
func twoSiteRig(t *testing.T, cfg ARQConfig, policy *linkPolicy, latency time.Duration) (*network, *mailbox, *mailbox, chan error) {
	t.Helper()
	a, b := newMailbox(4096), newMailbox(4096)
	a.owner, b.owner = 0, 1
	boxes := map[ids.Client]*mailbox{0: a, 1: b}
	net := newNetwork(latency, func(c ids.Client) *mailbox { return boxes[c] }, policy)
	t.Cleanup(net.stop)
	fatals := make(chan error, 1)
	net.arq = newARQ(cfg, net, func(err error) {
		select {
		case fatals <- err:
		default:
		}
	})
	a.arq, b.arq = net.arq, net.arq
	return net, a, b, fatals
}

// TestARQAckCoalescing: several deliveries inside one AckDelay window
// produce a single standalone cumulative ack that drains the whole
// sender buffer.
func TestARQAckCoalescing(t *testing.T) {
	net, _, b, _ := twoSiteRig(t, ARQConfig{RTO: time.Hour, AckDelay: 50 * time.Millisecond}, nil, 0)
	defer net.arq.stop()
	const n = 5
	for i := 0; i < n; i++ {
		net.send(0, 1, i)
	}
	for i := 0; i < n; i++ {
		select {
		case <-b.ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("delivery %d missing", i)
		}
	}
	k := linkKey{src: 0, dst: 1}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if unacked, acked, _, _ := senderState(net.arq, k); unacked == 0 && acked == n {
			break
		}
		if time.Now().After(deadline) {
			unacked, acked, _, _ := senderState(net.arq, k)
			t.Fatalf("ack never drained the buffer: unacked=%d acked=%d", unacked, acked)
		}
		time.Sleep(time.Millisecond)
	}
	st := arqStatsNow(net.arq)
	if st.acksSent != 1 {
		t.Fatalf("standalone acks = %d, want 1 (coalesced)", st.acksSent)
	}
	if st.acksCoalesced != n-1 {
		t.Fatalf("coalesced arrivals = %d, want %d", st.acksCoalesced, n-1)
	}
}

// TestARQPiggybackSuppressesStandaloneAck: reverse-direction traffic
// inside the coalescing window carries the ack, so no standalone ack is
// ever transmitted.
func TestARQPiggybackSuppressesStandaloneAck(t *testing.T) {
	net, a, b, _ := twoSiteRig(t, ARQConfig{RTO: time.Hour, AckDelay: time.Hour}, nil, 0)
	defer net.arq.stop()
	net.send(0, 1, "ping")
	select {
	case <-b.ch:
	case <-time.After(5 * time.Second):
		t.Fatal("ping missing")
	}
	// The standalone ack is parked behind the huge AckDelay; the reply
	// envelope must piggyback it.
	net.send(1, 0, "pong")
	select {
	case <-a.ch:
	case <-time.After(5 * time.Second):
		t.Fatal("pong missing")
	}
	k := linkKey{src: 0, dst: 1}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if unacked, _, _, _ := senderState(net.arq, k); unacked == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("piggybacked ack never reached the sender")
		}
		time.Sleep(time.Millisecond)
	}
	st := arqStatsNow(net.arq)
	if st.acksPiggybacked == 0 {
		t.Fatal("no piggybacked ack counted")
	}
	if st.acksSent != 0 {
		t.Fatalf("standalone acks = %d, want 0 (piggyback should win)", st.acksSent)
	}
}

// TestARQDupArrivalTriggersReack: a duplicate of an already-delivered
// seq means the sender missed our ack; a fresh standalone ack must go
// out even though the cumulative point did not advance.
func TestARQDupArrivalTriggersReack(t *testing.T) {
	a, _ := newTestARQ(t, ARQConfig{RTO: time.Hour, AckDelay: 5 * time.Millisecond})
	defer a.stop()
	a.noteReceived(0, 1, 1, 1)
	waitAcks := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for arqStatsNow(a).acksSent < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := arqStatsNow(a).acksSent; got != want {
			t.Fatalf("acksSent = %d, want %d", got, want)
		}
	}
	waitAcks(1)
	// Same seq again: no advance, but the retransmission demands a re-ack.
	a.noteReceived(0, 1, 1, 1)
	waitAcks(2)
}

// TestARQReliableLinkDropDupReorder is the satellite interaction test:
// one link under drop×duplicate×reorder chaos still hands the consumer
// every message exactly once and in order, because the ARQ layer
// retransmits what the wire loses and the resequencer absorbs what it
// multiplies or scrambles.
func TestARQReliableLinkDropDupReorder(t *testing.T) {
	chaos := ChaosConfig{Drop: 0.3, Duplicate: 0.3, Reorder: 0.3}
	for seed := uint64(1); seed <= 3; seed++ {
		policy := newLinkPolicy(chaos, seed)
		net, a, b, fatals := twoSiteRig(t,
			ARQConfig{RTO: 2 * time.Millisecond, MaxRTO: 16 * time.Millisecond, RetransmitCap: 100, AckDelay: 500 * time.Microsecond},
			policy, 20*time.Microsecond)
		const count = 300
		var sender sync.WaitGroup
		sender.Add(1)
		go func() {
			defer sender.Done()
			for i := 0; i < count; i++ {
				net.send(0, 1, payload{src: 0, n: i})
			}
		}()
		for want := 0; want < count; want++ {
			select {
			case m := <-b.ch:
				p := m.(payload)
				if p.n != want {
					t.Fatalf("seed %d: delivery %d arrived, want %d (loss not recovered in order)", seed, p.n, want)
				}
			case err := <-fatals:
				t.Fatalf("seed %d: link declared dead during recoverable chaos: %v", seed, err)
			case <-time.After(30 * time.Second):
				t.Fatalf("seed %d: delivery stalled at %d of %d", seed, want, count)
			}
		}
		sender.Wait()
		// Wait until every envelope is acked, then stop the layer and
		// settle the wire before checking nothing extra leaks through.
		deadline := time.Now().Add(30 * time.Second)
		for {
			if unacked, _, _, _ := senderState(net.arq, linkKey{src: 0, dst: 1}); unacked == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: sender buffer never drained", seed)
			}
			time.Sleep(time.Millisecond)
		}
		net.arq.stop()
		settle(t, a, b)
		select {
		case m := <-b.ch:
			t.Fatalf("seed %d: extra delivery %v (duplicate leaked)", seed, m)
		default:
		}
		if st := arqStatsNow(net.arq); st.retransmits == 0 {
			t.Fatalf("seed %d: 30%% drop produced no retransmits", seed)
		}
	}
}

// TestARQRetransmitCapFailsLoudly: a link that drops everything must
// exhaust its retransmit budget and report a dead link through the fatal
// hook — an explicit error, never a silent hang.
func TestARQRetransmitCapFailsLoudly(t *testing.T) {
	policy := newLinkPolicy(ChaosConfig{Drop: 1}, 1)
	net, _, _, fatals := twoSiteRig(t,
		ARQConfig{RTO: time.Millisecond, MaxRTO: 2 * time.Millisecond, RetransmitCap: 3, AckDelay: time.Millisecond},
		policy, 0)
	defer net.arq.stop()
	net.send(0, 1, "doomed")
	select {
	case err := <-fatals:
		if !strings.Contains(err.Error(), "retransmit cap") {
			t.Fatalf("fatal error %q does not name the retransmit cap", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("total loss never reported a dead link")
	}
	// The failed flag must stop the layer from retransmitting further.
	n := arqStatsNow(net.arq).retransmits
	time.Sleep(20 * time.Millisecond)
	if again := arqStatsNow(net.arq).retransmits; again != n {
		t.Fatalf("retransmits kept running after the link was declared dead: %d -> %d", n, again)
	}
}
