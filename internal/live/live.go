// Package live is a real concurrent implementation of the paper's
// data-shipping client-server system: one server goroutine and one
// goroutine per client site, exchanging messages over latency-injecting
// in-process links. It implements all three protocols — server-based
// strict 2PL, group 2PL with lock grouping, reader batching and MR1W,
// and caching 2PL with lock retention and callbacks — over an in-memory
// versioned store, and records a history for the serializability oracle.
//
// Where the discrete-event engines (package engine) measure the paper's
// curves deterministically, this package demonstrates the protocols under
// genuine concurrency and gives downstream users an adoptable library
// shape: Run drives a workload; Cluster/Client expose the moving parts.
// The protocol decision logic itself lives in package protocol — the
// same state machines the engines execute — so this package only adapts
// events to messages, goroutines and wall-clock timers.
//
// One deliberate protocol addition: in g-2PL the data items migrate
// client-to-client, so the server cannot see releases that travel between
// clients. Each client therefore cc's the server with a small "done"
// notification when it finishes an item, keeping the server's wait-for
// graph (deadlock detection) current. The extra message is off the
// critical path.
package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/ids"
	"repro/internal/lock"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Protocol selects the live protocol implementation.
type Protocol int

const (
	// S2PL runs server-based strict two-phase locking.
	S2PL Protocol = iota
	// G2PL runs group two-phase locking with forward lists and MR1W.
	G2PL
	// C2PL runs caching two-phase locking: locks and data copies belong
	// to client sites and survive transaction boundaries; conflicting
	// requests trigger server callbacks (recalls).
	C2PL
)

// String returns the paper's protocol name.
func (p Protocol) String() string {
	switch p {
	case S2PL:
		return "s-2PL"
	case G2PL:
		return "g-2PL"
	case C2PL:
		return "c-2PL"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Config describes a live cluster run.
type Config struct {
	Protocol      Protocol
	Clients       int
	Latency       time.Duration // one-way link latency
	Workload      workload.Config
	TxnsPerClient int // committed transactions each client must finish
	Seed          uint64
	NoMR1W        bool
	// StallTimeout bounds the whole run: if the clients have not all
	// reached their commit target within it, Run fails with a stall
	// error. Zero means the two-minute default.
	StallTimeout time.Duration
	// Chaos injects link faults (reorder, duplicate, jitter, drop,
	// partition windows); the zero value leaves the network well-behaved.
	Chaos ChaosConfig
	// ARQ tunes the retransmission layer that masks Chaos.Drop and heals
	// Chaos.Partition windows; it is engaged only when Drop > 0 or
	// Partition is configured, and not Disabled. See ARQConfig.
	ARQ ARQConfig
	// WAL turns on the shard sites' write-ahead log: prepare records are
	// appended (and synced through the fsync seam) before a yes vote
	// leaves the site, decision records before a commit installs, so a
	// crashed site can redo committed writes and re-derive its 2PC
	// participant state. Required by Crash; usable alone to measure the
	// logging cost. Sharded clusters only.
	WAL bool
	// WALCheckpointEvery rolls a checkpoint into each WAL (shard and
	// coordinator) after that many appends, truncating the log prefix the
	// snapshot supersedes; zero never checkpoints, so logs grow without
	// bound. Requires WAL.
	WALCheckpointEvery int
	// Crash injects site crash-restart faults: between two protocol
	// messages a shard site (Prob) or the coordinator (CoordProb) may
	// lose all volatile state and rejoin by replaying its WAL. Requires
	// WAL and a sharded cluster. See CrashConfig.
	Crash CrashConfig
	// Shards > 1 splits the lock space across that many range-partitioned
	// lock-server shard sites with a 2PC commit coordinator (s-2PL only);
	// Shards <= 1 keeps the classic single server.
	Shards int
	// CrossRatio is the probability a transaction may cross shard
	// boundaries (workload.CrossProb); the rest stay shard-confined.
	CrossRatio float64
	// Bank turns each transaction's writes into a balance transfer
	// between its two items, preserving the global balance sum — the
	// cross-shard atomicity invariant. Requires a sharded cluster and a
	// 2-item all-write workload.
	Bank bool
	// InitialBalance seeds every item's value for Bank runs.
	InitialBalance int64
	// Victim selects the deadlock victim policy used when detection finds
	// a cycle (s-2PL and the sharded coordinator; zero value: requester).
	Victim protocol.VictimPolicy
	// Deadlock selects the conflict-resolution strategy: detect-and-abort
	// (zero value), No-Wait, Wait-Die or Wound-Wait.
	Deadlock protocol.DeadlockPolicy
}

// effectiveWorkload is the workload configuration the generators actually
// run: cluster sharding maps onto the workload's shard-confinement knobs.
func (c Config) effectiveWorkload() workload.Config {
	wl := c.Workload
	if c.Shards > 1 {
		wl.Shards = c.Shards
		wl.CrossProb = c.CrossRatio
	}
	return wl
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Clients <= 0:
		return fmt.Errorf("live: Clients must be positive, got %d", c.Clients)
	case c.Latency < 0:
		return fmt.Errorf("live: Latency must be >= 0, got %v", c.Latency)
	case c.TxnsPerClient <= 0:
		return fmt.Errorf("live: TxnsPerClient must be positive, got %d", c.TxnsPerClient)
	case c.StallTimeout < 0:
		return fmt.Errorf("live: StallTimeout must be >= 0, got %v", c.StallTimeout)
	case c.Protocol != S2PL && c.Protocol != G2PL && c.Protocol != C2PL:
		return fmt.Errorf("live: unknown protocol %d", int(c.Protocol))
	case c.Shards < 0:
		return fmt.Errorf("live: Shards must be >= 0, got %d", c.Shards)
	case c.Shards > 1 && c.Protocol != S2PL:
		return fmt.Errorf("live: sharding requires s-2PL, got %v", c.Protocol)
	case c.CrossRatio < 0 || c.CrossRatio > 1:
		return fmt.Errorf("live: CrossRatio must be in [0,1], got %v", c.CrossRatio)
	case c.CrossRatio > 0 && c.Shards <= 1:
		return fmt.Errorf("live: CrossRatio needs Shards > 1")
	case c.Bank && c.Shards <= 1:
		return fmt.Errorf("live: Bank requires a sharded cluster")
	case c.InitialBalance != 0 && !c.Bank:
		return fmt.Errorf("live: InitialBalance requires Bank")
	case c.Bank && (c.Workload.MinTxnItems != 2 || c.Workload.MaxTxnItems != 2 || c.Workload.ReadProb != 0):
		return fmt.Errorf("live: Bank requires a 2-item all-write workload")
	case c.Victim < protocol.VictimRequester || c.Victim > protocol.VictimLeastHeld:
		return fmt.Errorf("live: unknown victim policy %d", int(c.Victim))
	case c.Deadlock < protocol.PolicyDetect || c.Deadlock > protocol.PolicyWoundWait:
		return fmt.Errorf("live: unknown deadlock policy %d", int(c.Deadlock))
	case c.WAL && c.Shards <= 1:
		return fmt.Errorf("live: WAL requires a sharded cluster")
	case c.Crash.enabled() && c.Shards <= 1:
		return fmt.Errorf("live: Crash requires a sharded cluster")
	case c.Crash.enabled() && !c.WAL:
		return fmt.Errorf("live: Crash requires WAL — without redo, committed writes die with the site")
	case c.WALCheckpointEvery < 0:
		return fmt.Errorf("live: WALCheckpointEvery must be >= 0, got %d", c.WALCheckpointEvery)
	case c.WALCheckpointEvery > 0 && !c.WAL:
		return fmt.Errorf("live: WALCheckpointEvery requires WAL")
	}
	if err := c.Chaos.validate(); err != nil {
		return err
	}
	if err := c.ARQ.validate(); err != nil {
		return err
	}
	if err := c.Crash.validate(); err != nil {
		return err
	}
	return c.effectiveWorkload().Validate()
}

// Stats summarizes a cluster run.
type Stats struct {
	Commits  int64
	Aborts   int64
	Messages int64
	Elapsed  time.Duration
	// MeanResponse is the mean commit latency over committed transactions.
	MeanResponse time.Duration
	// P50/P95/P99 are commit-latency percentiles over a deterministic
	// reservoir of committed transactions.
	P50, P95, P99 time.Duration
	// MeanBlocked estimates the mean lock-wait per server round trip: the
	// observed wait minus two link latencies, clamped at zero.
	MeanBlocked time.Duration
	// Causes breaks the aborts down by what killed them (deadlock cycle,
	// wound, die, no-wait).
	Causes stats.AbortCauses

	// Reliability counters: what chaos did to the wire and what the ARQ
	// layer did about it. All zero on a well-behaved network.
	Dropped         int64 // transmissions lost to Chaos.Drop
	PartitionDrops  int64 // transmissions killed inside partition windows
	Quarantined     int64 // retransmit fires deferred by link quarantine
	Retransmits     int64 // envelopes re-sent by the RTO timer
	AcksSent        int64 // standalone cumulative acks transmitted
	AcksCoalesced   int64 // ack-worthy arrivals absorbed by a pending ack
	AcksPiggybacked int64 // acks carried on reverse-direction envelopes
	// MaxRTO is the longest retransmission timeout any link actually
	// waited out; zero means no retransmission was ever needed.
	MaxRTO time.Duration

	// Failure-recovery counters: crash-restart faults and the WAL work
	// that survived them. All zero without Config.Crash / Config.WAL.
	Crashes     int64 // shard-site crash-restarts injected
	WALAppends  int64 // records appended (and synced) to all WALs
	WALReplayed int64 // records replayed by redo passes after crashes
	// Coordinator recovery and termination-protocol counters
	// (DESIGN.md §16); all zero without coordinator crashes.
	CoordRestarts         int64 // coordinator crash-restarts injected
	Inquiries             int64 // in-doubt inquiries the coordinator answered
	InDoubtResolvedCommit int64 // inquiries resolved commit (from the log)
	InDoubtResolvedAbort  int64 // inquiries resolved abort (presumed)
	// Checkpoint/truncation counters; zero unless WALCheckpointEvery > 0.
	WALCheckpoints int64 // checkpoint records rolled across all WALs
	WALTruncated   int64 // log records dropped by checkpoint truncation

	// TwoPC holds the coordinator's per-phase counters on a sharded run,
	// summed over its incarnations (a crashed one contributes the commit
	// requests it decided); all zero on a single-server cluster.
	TwoPC stats.TwoPC
}

// message is anything deliverable to a mailbox.
type message any

// Protocol messages. Values carried by items are the installing
// transaction's id, so a read can be checked against its version.
type (
	// reqMsg asks the server for a data item.
	reqMsg struct {
		txn    ids.Txn
		client ids.Client
		item   ids.Item
		write  bool
		// epoch is the transaction's operation index — the block-episode
		// id the sharded coordinator orders block/clear reports by. The
		// single server ignores it.
		epoch int
		// ts is the transaction's priority timestamp (first incarnation's
		// id), used by the Wait-Die/Wound-Wait policies.
		ts ids.Txn
	}
	// dataMsg delivers a data item (copy or exclusive) to a client,
	// together with the forward-list routing plan (nil under s-2PL).
	dataMsg struct {
		txn     ids.Txn // recipient transaction
		item    ids.Item
		version ids.Txn
		value   int64
		plan    *protocol.FlightPlan
	}
	// abortMsg tells a client its transaction lost a deadlock.
	abortMsg struct {
		txn ids.Txn
	}
	// releaseMsg is s-2PL's combined commit/release, carrying updates; an
	// aborted victim sends it empty with aborted set.
	releaseMsg struct {
		txn     ids.Txn
		writes  []writeUpdate
		aborted bool
	}
	// fwdMsg is g-2PL's client-to-client (or client-to-server) hand-off
	// of an item, or a reader's release to the next writer. Releases to a
	// writer carry the data too (the paper's basic-mode delivery).
	fwdMsg struct {
		item    ids.Item
		from    ids.Txn
		to      ids.Txn // recipient transaction; ids.None for the server
		version ids.Txn
		value   int64
		release bool // reader release (no data ownership transfer)
		plan    *protocol.FlightPlan
	}
	// doneMsg cc's the server when a transaction finishes an item.
	doneMsg struct {
		txn  ids.Txn
		item ids.Item
	}
	// grantMsg is c-2PL's lock grant to a client cache; the data rides
	// along (redundantly, when the client already holds a copy).
	grantMsg struct {
		txn     ids.Txn
		item    ids.Item
		mode    lock.Mode
		version ids.Txn
		value   int64
	}
	// recallMsg is c-2PL's server callback asking a client to give a
	// cached item back.
	recallMsg struct {
		item ids.Item
	}
	// deferMsg is a client's answer to a recall: its running transaction
	// used the item, so the release waits for that transaction's end.
	deferMsg struct {
		txn    ids.Txn
		client ids.Client
		item   ids.Item
		ts     ids.Txn // priority timestamp, as in reqMsg
	}
	// crelMsg is a client's immediate cache release of a recalled item.
	crelMsg struct {
		client ids.Client
		item   ids.Item
	}
	// finishMsg is c-2PL's combined end-of-transaction message: committed
	// updates plus the cache releases that ride on it (deferred recalls).
	finishMsg struct {
		txn      ids.Txn
		client   ids.Client
		writes   []writeUpdate
		released []ids.Item
	}
)

// writeUpdate carries one installed value in a commit release.
type writeUpdate struct {
	item  ids.Item
	value int64
}

// delivery is one in-flight frame on a link, held by value so nothing on
// the wire is boxed.
type delivery struct {
	at  time.Time
	env envelope
}

// ring is a mailbox's queue of in-flight deliveries: a circular buffer
// that doubles when full, so steady traffic reuses its slots. len(buf) is
// zero or a power of two.
type ring struct {
	buf  []delivery
	head int // slot of the front delivery
	n    int // deliveries queued
}

// insert queues d displace slots before the tail: 0 appends, chaos
// reordering passes more, and a displacement past the front clamps to it.
func (r *ring) insert(d delivery, displace int) {
	if r.n == len(r.buf) {
		r.grow()
	}
	pos := r.n - displace
	if pos < 0 {
		pos = 0
	}
	mask := len(r.buf) - 1
	for i := r.n; i > pos; i-- {
		r.buf[(r.head+i)&mask] = r.buf[(r.head+i-1)&mask]
	}
	r.buf[(r.head+pos)&mask] = d
	r.n++
}

// pop removes and returns the front delivery; the ring must not be empty.
func (r *ring) pop() delivery {
	d := r.buf[r.head]
	r.buf[r.head] = delivery{} // release the message to the collector
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return d
}

// grow doubles a full ring, unwrapping its contents to start at slot 0.
func (r *ring) grow() {
	buf := make([]delivery, max(8, 2*len(r.buf)))
	copy(buf, r.buf[r.head:])
	copy(buf[len(r.buf)-r.head:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// mailbox is an endpoint of the latency-injecting network: a ring queue
// of in-flight deliveries, the one long-lived pump goroutine that drains
// it, and the channel the owning site goroutine reads. The wire makes no
// ordering promise — chaos mode deliberately reorders and duplicates
// deliveries — so in-order, exactly-once delivery is not an assumption
// but an invariant enforced here: every envelope carries a per-link
// sequence number and the pump routes it through a resequencer before
// the owner reads it from ch. The protocols need that invariant (in
// c-2PL especially, a commit's finish message must not be overtaken by a
// later cache release, or a promoted waiter would read a stale version).
type mailbox struct {
	ch chan message

	// owner is the site this mailbox belongs to, and arq the cluster's
	// retransmission layer; together they let the pump acknowledge
	// deliveries back to their senders. arq nil means no acks (reliable
	// links, or the layer is disabled).
	owner ids.Client
	arq   *arq

	mu      sync.Mutex
	queue   ring
	started bool // the pump has been launched
	idle    bool // the pump is parked on wake with nothing in hand

	// wake is enqueue's signal to a parked pump. Only a pump marked idle
	// is signalled, and it consumes the signal before it can be marked
	// idle again, so one slot always suffices.
	wake chan struct{}

	// reseq restores per-source order; only the pump touches it.
	reseq *resequencer
}

func newMailbox(buf int) *mailbox {
	return &mailbox{
		ch:    make(chan message, buf),
		wake:  make(chan struct{}, 1),
		reseq: newResequencer(),
	}
}

// enqueue queues a delivery displace slots before the tail (0 appends;
// chaos reordering passes more). It never blocks the caller: the first
// enqueue launches the mailbox's pump on network n, and later ones
// signal the pump only when it is parked.
func (b *mailbox) enqueue(d delivery, displace int, n *network) {
	b.mu.Lock()
	b.queue.insert(d, displace)
	start, wake := !b.started, b.idle
	b.started, b.idle = true, false
	b.mu.Unlock()
	switch {
	case start:
		n.startPump(b)
	case wake:
		b.wake <- struct{}{}
	}
}

// pump is the mailbox's delivery goroutine. It pops deliveries in queue
// order, waits out each one's remaining latency on a single reused
// timer, resequences it per source into a reused buffer, and hands what
// is due to ch; with the queue empty it parks until enqueue wakes it. It
// exits when quit closes, from whichever of those waits it is in,
// abandoning anything undelivered.
func (b *mailbox) pump(quit <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	var out []message
	for {
		b.mu.Lock()
		for b.queue.n == 0 {
			b.idle = true
			b.mu.Unlock()
			select {
			case <-b.wake:
			case <-quit:
				return
			}
			b.mu.Lock()
		}
		d := b.queue.pop()
		b.mu.Unlock()
		if wait := time.Until(d.at); wait > 0 {
			// Every earlier wait ended by receiving from C (or by
			// returning), so Reset cannot leave a stale tick behind.
			if timer == nil {
				timer = time.NewTimer(wait)
			} else {
				timer.Reset(wait)
			}
			select {
			case <-timer.C:
			case <-quit:
				return
			}
		}
		out = b.deliverable(d.env, out[:0])
		for _, m := range out {
			select {
			case b.ch <- m:
			case <-quit:
				return
			}
		}
	}
}

// deliverable resequences one popped frame, appending to out the
// messages now due in order: none while a gap is open or for a
// duplicate, several when an arrival closes a gap. When the ARQ layer is
// active, an envelope also feeds the acknowledgement machinery — its
// piggybacked ack is applied to this site's own sender buffers, and the
// arrival is noted so a cumulative ack travels back — and a standalone
// ack frame is consumed here, never reaching the owner.
func (b *mailbox) deliverable(e envelope, out []message) []message {
	if e.seq == 0 { // a standalone ack frame
		if b.arq != nil {
			b.arq.onAck(linkKey{src: b.owner, dst: e.src}, e.ack)
		}
		return out
	}
	out = b.reseq.accept(e, out)
	if b.arq != nil {
		if e.ack > 0 {
			b.arq.onAck(linkKey{src: b.owner, dst: e.src}, e.ack)
		}
		b.arq.noteReceived(e.src, b.owner, e.seq, b.reseq.delivered(e.src))
	}
	return out
}

// linkKey identifies one directed link between sites.
type linkKey struct{ src, dst ids.Client }

// network delivers messages after a fixed latency. The link itself is not
// trusted to preserve order — or, with Chaos.Drop, even to deliver: the
// sender stamps each message with the link's next sequence number, an
// optional chaos policy perturbs (and may lose) the in-flight
// deliveries, the ARQ layer retains and retransmits unacked envelopes,
// and the receiving mailbox's resequencer restores exactly-once,
// in-order delivery per link.
type network struct {
	latency time.Duration
	lookup  func(ids.Client) *mailbox
	policy  *linkPolicy // nil: well-behaved links
	arq     *arq        // nil: no retransmission layer

	msgs     atomic.Int64 // transmissions, a duplicate counting twice
	dropped  atomic.Int64 // transmissions lost to Chaos.Drop
	partDrop atomic.Int64 // transmissions lost inside partition windows

	// mu guards seqs, and orders pump launches against stop.
	mu   sync.Mutex
	seqs map[linkKey]uint64

	quit  chan struct{} // closed by stop: every pump exits
	pumps sync.WaitGroup
}

func newNetwork(latency time.Duration, lookup func(ids.Client) *mailbox, policy *linkPolicy) *network {
	return &network{
		latency: latency,
		lookup:  lookup,
		policy:  policy,
		seqs:    make(map[linkKey]uint64),
		quit:    make(chan struct{}),
	}
}

// send stamps m with the src→dst link's next sequence number, retains it
// for retransmission when the ARQ layer is active, and schedules its
// delivery. Sends never block the caller: even zero-latency deliveries go
// through the destination's pump, because delivering inline from the
// sender's goroutine lets a full mailbox deadlock a send cycle between
// two sites.
func (n *network) send(src, dst ids.Client, m message) {
	k := linkKey{src: src, dst: dst}
	n.mu.Lock()
	seq := nextSeq(n.seqs[k])
	n.seqs[k] = seq
	n.mu.Unlock()

	env := envelope{src: src, seq: seq, msg: m}
	if n.arq != nil {
		// Retain before the first transmission: a dropped first copy must
		// already sit in the retransmission buffer.
		n.arq.stampAndRetain(k, &env)
	}
	n.transmit(k, env)
}

// transmit puts one frame — a stamped envelope, a retransmission of one,
// or a standalone ack — on link k, applying the chaos policy between
// stamp and delivery. A dropped transmission is counted and discarded; a
// duplicated one is enqueued twice. Drop and duplicate are independent:
// the duplicate copy of a dropped transmission still arrives. A
// partition window is not independent of anything — the link itself is
// down, so both copies are lost.
func (n *network) transmit(k linkKey, e envelope) {
	now := time.Now()
	var d directive
	if n.policy != nil {
		d = n.policy.roll(k, now)
	}
	copies := int64(1)
	if d.duplicate {
		copies = 2
	}
	n.msgs.Add(copies)
	if d.partitioned {
		n.partDrop.Add(copies)
		return
	}
	if d.drop {
		n.dropped.Add(1)
	}

	at := now.Add(n.latency + d.jitter)
	box := n.lookup(k.dst)
	if !d.drop {
		box.enqueue(delivery{at: at, env: e}, d.displace, n)
	}
	if d.duplicate {
		box.enqueue(delivery{at: at, env: e}, 0, n)
	}
}

// startPump launches b's pump, unless stop has already run.
func (n *network) startPump(b *mailbox) {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case <-n.quit:
		return
	default:
	}
	n.pumps.Add(1)
	go b.pump(n.quit, &n.pumps)
}

// stop ends every pump — parked, waiting out a latency, or blocked on a
// full mailbox — and returns once all have exited; deliveries still in
// flight are abandoned. Nothing may send once stop has begun.
func (n *network) stop() {
	n.mu.Lock()
	close(n.quit)
	n.mu.Unlock()
	n.pumps.Wait()
}

func (n *network) messages() int64 { return n.msgs.Load() }

func (n *network) dropCount() int64 { return n.dropped.Load() }

func (n *network) partDropCount() int64 { return n.partDrop.Load() }

// linkDown reports how much longer link k stays inside a partition
// window (zero: the link is up, or no partition chaos is configured).
func (n *network) linkDown(k linkKey) time.Duration {
	if n.policy == nil {
		return 0
	}
	return n.policy.downFor(k, time.Now())
}

// auditLog is a concurrency-safe wrapper over history.Log.
type auditLog struct {
	mu  sync.Mutex
	log history.Log
}

func (a *auditLog) commit(c history.Committed) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.log.Commit(c)
}

func (a *auditLog) abort() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.log.Abort()
}
