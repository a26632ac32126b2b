package live

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ids"
)

// ARQConfig tunes the per-link automatic-repeat-request layer that makes
// delivery reliable over a lossy transport (Chaos.Drop > 0): senders
// retain unacked envelopes and retransmit the lowest one on a timeout
// with exponential backoff; receivers return cumulative acknowledgements,
// piggybacked on reverse-direction envelopes when traffic exists and as
// standalone coalesced ack messages otherwise. The zero value means
// "enabled with defaults"; fields left zero take the defaults below.
type ARQConfig struct {
	// Disabled turns retransmission off entirely. With Chaos.Drop > 0 a
	// lost protocol message then stalls the run, which the stall timeout
	// converts into a loud error — never a silent hang.
	Disabled bool
	// RTO is the initial retransmission timeout for the lowest unacked
	// envelope on a link. Default 5ms.
	RTO time.Duration
	// MaxRTO caps the exponential backoff. Default 16×RTO.
	MaxRTO time.Duration
	// RetransmitCap bounds how many times the same lowest unacked
	// envelope is retransmitted before the link is presumed dead and the
	// run fails with an explicit error. Default 25.
	RetransmitCap int
	// AckDelay is the coalescing window for standalone acknowledgements:
	// an ack-worthy arrival arms one timer per link, and every further
	// arrival inside the window rides on the same cumulative ack.
	// Default RTO/4.
	AckDelay time.Duration
}

// validate reports the first bad ARQ knob.
func (c ARQConfig) validate() error {
	switch {
	case c.RTO < 0:
		return fmt.Errorf("live: ARQ.RTO must be >= 0, got %v", c.RTO)
	case c.MaxRTO < 0:
		return fmt.Errorf("live: ARQ.MaxRTO must be >= 0, got %v", c.MaxRTO)
	case c.RTO > 0 && c.MaxRTO > 0 && c.MaxRTO < c.RTO:
		return fmt.Errorf("live: ARQ.MaxRTO (%v) must not be below ARQ.RTO (%v)", c.MaxRTO, c.RTO)
	case c.RetransmitCap < 0:
		return fmt.Errorf("live: ARQ.RetransmitCap must be >= 0, got %d", c.RetransmitCap)
	case c.AckDelay < 0:
		return fmt.Errorf("live: ARQ.AckDelay must be >= 0, got %v", c.AckDelay)
	}
	return nil
}

// withDefaults resolves zero fields to the documented defaults.
func (c ARQConfig) withDefaults() ARQConfig {
	if c.RTO == 0 {
		c.RTO = 5 * time.Millisecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 16 * c.RTO
	}
	if c.RetransmitCap == 0 {
		c.RetransmitCap = 25
	}
	if c.AckDelay == 0 {
		c.AckDelay = c.RTO / 4
	}
	return c
}

// ackFrame is a standalone cumulative acknowledgement: the acking site
// (from) has contiguously received every seq <= cum on the link sender →
// from. It travels as an unsequenced envelope. Acks are unreliable —
// they may be dropped, reordered or duplicated like any transmission —
// which is safe because they are cumulative and a retransmission
// arriving as a duplicate provokes a fresh ack.
func ackFrame(from ids.Client, cum uint64) envelope {
	return envelope{src: from, ack: cum}
}

// arqStats are the observability counters the ARQ layer maintains; a
// snapshot lands in Stats so chaos-drop runs are debuggable without a
// debugger.
type arqStats struct {
	retransmits     int64
	quarantined     int64 // retransmit fires deferred by a partition window
	acksSent        int64 // standalone ack messages transmitted
	acksCoalesced   int64 // ack-worthy arrivals absorbed by a pending ack
	acksPiggybacked int64 // acks that rode on reverse-direction envelopes
	maxRTO          time.Duration
}

// arqTimer is the one timer of a link half. It is made on the first arm
// and re-armed with Reset ever after; its callback passes the time it
// fired. A fire is current only while the timer is armed and not before
// the arming's deadline: anything else is a callback of an earlier
// arming that was superseded (disarmed, or re-armed) after it started,
// and must do nothing.
type arqTimer struct {
	t     *time.Timer
	fire  func() // made once per link half
	armed bool
	due   time.Time
}

// arm schedules the timer's callback d from now; caller holds a.mu.
func (t *arqTimer) arm(d time.Duration) {
	t.armed = true
	t.due = time.Now().Add(d)
	if t.t == nil {
		t.t = time.AfterFunc(d, t.fire)
		return
	}
	t.t.Stop() // Stop before Reset (timerhygiene); no channel to drain
	t.t.Reset(d)
}

// disarm cancels a pending fire; caller holds a.mu.
func (t *arqTimer) disarm() {
	if t.armed {
		t.t.Stop()
		t.armed = false
	}
}

// current reports whether a fire at now belongs to the live arming.
func (t *arqTimer) current(now time.Time) bool {
	return t.armed && !now.Before(t.due)
}

// arqSender is the sender half of one directed link: the envelopes put
// on the wire but not yet covered by a cumulative ack, and the
// retransmit timer state for the lowest of them.
type arqSender struct {
	unacked  map[uint64]envelope
	acked    uint64 // highest cumulative ack received
	attempts int    // retransmissions of the current lowest unacked
	rto      time.Duration
	timer    arqTimer
}

// arqRecv is the receiver half of one directed link: the cumulative
// delivery point mirrored from the mailbox resequencer, how much of it
// has been put on the wire as an ack, and the coalescing timer (armed
// while a standalone ack is pending).
type arqRecv struct {
	cum   uint64 // contiguously delivered from the peer
	acked uint64 // last cumulative ack transmitted (standalone or piggyback)
	reack bool   // a duplicate arrival demands re-acking without advance
	timer arqTimer
}

// arq is the automatic-repeat-request layer sitting between network.send
// and the resequencers. One instance serves the whole cluster, holding
// both halves of every directed link. Lock ordering: a.mu is outermost —
// it is held across transmissions (which take the network and mailbox
// locks) so that stop() can guarantee no transmission starts after it
// returns; nothing that holds a network or mailbox lock ever calls back
// into arq.
type arq struct {
	cfg ARQConfig
	net *network
	// fatal reports an unrecoverable link (retransmit cap exhausted). It
	// is invoked at most once, with a.mu held, so it must not call back
	// into the arq or block.
	fatal func(error)

	mu      sync.Mutex
	stopped bool
	failed  bool
	send    map[linkKey]*arqSender
	recv    map[linkKey]*arqRecv
	stats   arqStats
}

func newARQ(cfg ARQConfig, net *network, fatal func(error)) *arq {
	return &arq{
		cfg:   cfg.withDefaults(),
		net:   net,
		fatal: fatal,
		send:  make(map[linkKey]*arqSender),
		recv:  make(map[linkKey]*arqRecv),
	}
}

func (a *arq) sender(k linkKey) *arqSender {
	s := a.send[k]
	if s == nil {
		s = &arqSender{unacked: make(map[uint64]envelope), rto: a.cfg.RTO}
		s.timer.fire = func() { a.fireRetransmit(k, time.Now()) }
		a.send[k] = s
	}
	return s
}

func (a *arq) receiver(k linkKey) *arqRecv {
	r := a.recv[k]
	if r == nil {
		r = &arqRecv{}
		r.timer.fire = func() { a.fireAck(k, time.Now()) }
		a.recv[k] = r
	}
	return r
}

// stampAndRetain prepares one freshly sequenced envelope for a lossy
// link: the reverse link's cumulative ack is piggybacked onto it, and a
// copy is retained in the link's retransmission buffer until an ack
// covers it. Called by network.send before the first transmission, so a
// dropped first copy is already recoverable.
func (a *arq) stampAndRetain(k linkKey, env *envelope) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stopped {
		return // shutdown stragglers: transmit once, no retransmission
	}
	env.ack = a.piggybackLocked(k)
	s := a.sender(k)
	s.unacked[env.seq] = *env
	if !s.timer.armed {
		s.timer.arm(s.rto)
	}
}

// piggybackLocked returns the cumulative ack to ride on a src→dst
// envelope: what src has contiguously delivered from dst (the reverse
// link). A pending standalone ack that this piggyback now covers is
// suppressed.
func (a *arq) piggybackLocked(k linkKey) uint64 {
	r := a.recv[linkKey{src: k.dst, dst: k.src}]
	if r == nil || r.cum == 0 {
		return 0
	}
	if r.cum > r.acked || r.reack {
		a.stats.acksPiggybacked++
	}
	r.acked = r.cum
	r.reack = false
	r.timer.disarm()
	return r.cum
}

// onAck applies one cumulative acknowledgement (standalone or
// piggybacked) to the sender half of link k: every envelope with seq <=
// cum leaves the retransmission buffer, the backoff resets, and the
// timer re-arms for the new lowest unacked (or disarms when none
// remain).
func (a *arq) onAck(k linkKey, cum uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.send[k]
	if s == nil || cum <= s.acked {
		return
	}
	s.acked = cum
	for seq := range s.unacked {
		if seq <= cum {
			delete(s.unacked, seq)
		}
	}
	s.attempts = 0
	s.rto = a.cfg.RTO
	s.timer.disarm()
	if !a.stopped && len(s.unacked) > 0 {
		s.timer.arm(s.rto)
	}
}

// noteReceived records one envelope arrival at the receiver half of link
// src→owner: cum is the resequencer's new contiguous delivery point, seq
// the arriving envelope's. An advance past what was acked — or a
// duplicate of an already-delivered seq, which means the sender is
// retransmitting because our previous ack was lost — schedules a
// standalone cumulative ack after the coalescing delay, unless reverse
// traffic piggybacks it first.
func (a *arq) noteReceived(src, owner ids.Client, seq, cum uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stopped {
		return
	}
	k := linkKey{src: src, dst: owner}
	r := a.receiver(k)
	dup := seq <= r.cum
	r.cum = cum
	if dup {
		r.reack = true
	}
	if cum <= r.acked && !r.reack {
		return // nothing new to acknowledge
	}
	if r.timer.armed {
		a.stats.acksCoalesced++
		return
	}
	r.timer.arm(a.cfg.AckDelay)
}

// fireAck is the coalescing timer's callback, fired at now: transmit one
// standalone cumulative ack for link k back to its sender.
func (a *arq) fireAck(k linkKey, now time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.recv[k]
	if a.stopped || r == nil || !r.timer.current(now) {
		return
	}
	r.timer.armed = false
	if r.cum <= r.acked && !r.reack {
		return
	}
	r.acked = r.cum
	r.reack = false
	a.stats.acksSent++
	// k.dst (the receiver) acks back to k.src over the reverse link; the
	// ack is a plain unsequenced transmission, subject to the same chaos.
	a.net.transmit(linkKey{src: k.dst, dst: k.src}, ackFrame(k.dst, r.cum))
}

// fireRetransmit is the RTO callback, fired at now: re-send link k's
// lowest unacked envelope (with a refreshed piggyback ack), double the
// backoff up to MaxRTO, and re-arm. Exhausting the retransmit cap on one
// envelope declares the link dead and fails the run through the fatal
// hook — loss without progress must end loudly, never hang.
func (a *arq) fireRetransmit(k linkKey, now time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.send[k]
	if a.stopped || a.failed || s == nil || !s.timer.current(now) {
		return
	}
	s.timer.armed = false
	if len(s.unacked) == 0 {
		return
	}
	var lowest uint64
	for seq := range s.unacked {
		if lowest == 0 || seq < lowest {
			lowest = seq
		}
	}
	down := a.net.linkDown(k)
	// Partitions are directed: the data path may be up while the reverse
	// path eats every ack, which is just as unable to make progress. The
	// quarantine oracle takes the round trip's worst half.
	if rev := a.net.linkDown(linkKey{src: k.dst, dst: k.src}); rev > down {
		down = rev
	}
	if down > 0 {
		// Quarantine: the round trip crosses a partition window. An outage
		// is an administrative fact about the link, not evidence the peer
		// died, so this fire must burn neither retransmit attempts nor
		// backoff — both pause, and the timer re-arms for the remaining
		// down time so the retransmission lands right as the link heals.
		a.stats.quarantined++
		s.timer.arm(down)
		return
	}
	if s.attempts >= a.cfg.RetransmitCap {
		a.failed = true
		if a.fatal != nil {
			a.fatal(fmt.Errorf("live: retransmit cap (%d) exhausted on link %v→%v at seq %d — link presumed dead",
				a.cfg.RetransmitCap, k.src, k.dst, lowest))
		}
		return
	}
	env := s.unacked[lowest]
	env.ack = a.piggybackLocked(k)
	s.attempts++
	if s.rto > a.stats.maxRTO {
		a.stats.maxRTO = s.rto // the timeout this fire actually waited out
	}
	s.rto *= 2
	if s.rto > a.cfg.MaxRTO {
		s.rto = a.cfg.MaxRTO
	}
	a.stats.retransmits++
	s.timer.arm(s.rto)
	a.net.transmit(k, env)
}

// stop disarms every timer and bars all future transmissions. Because
// timer callbacks transmit while holding a.mu, any transmission already
// past its stopped-check completes before stop returns — after stop, the
// layer enqueues nothing, so the network's pumps can be stopped.
func (a *arq) stop() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stopped = true
	for _, s := range a.send {
		s.timer.disarm()
	}
	for _, r := range a.recv {
		r.timer.disarm()
	}
}

// snapshot returns the observability counters.
func (a *arq) snapshot() arqStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}
