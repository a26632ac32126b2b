package live

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/history"
	"repro/internal/ids"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Termination-protocol backoff bounds: a shard with in-doubt (prepared)
// transactions inquires after inquiryBase of silence, doubling up to
// inquiryMax. The base sits well above a healthy decision round-trip so
// clean runs almost never inquire, and well below the stall timeout so a
// coordinator crash resolves long before the harness gives up.
const (
	inquiryBase = 2 * time.Millisecond
	inquiryMax  = 50 * time.Millisecond
)

// Sharded s-2PL messages (DESIGN.md §13). They ride the same chaos-proof
// transport as everything else: the resequencer gives each directed link
// exactly-once in-order delivery, which is all the presumed-abort
// protocol asks of its network.
type (
	// blockedMsg reports a blocked transaction, with its local wait
	// edges and block episode, from a shard to the coordinator. The
	// reporting shard rides along so a shard's crash-restart can purge
	// its unretracted reports.
	blockedMsg struct {
		txn    ids.Txn
		client ids.Client
		shard  int
		epoch  int
		held   int
		waits  []ids.Txn
	}
	// clearedMsg retracts a previously reported block. It echoes the
	// episode so the coordinator can reject a clear that lost a
	// cross-link race to a newer episode's report.
	clearedMsg struct {
		txn   ids.Txn
		epoch int
	}
	// voteMsg carries one shard's prepare vote to the coordinator,
	// echoing the soliciting prepare's coordinator epoch.
	voteMsg struct {
		txn   ids.Txn
		shard int
		epoch int
		yes   bool
	}
	// commitReqMsg asks the coordinator to commit a fully-granted
	// transaction. It carries the commit record and the staged per-shard
	// writes, so the coordinator can audit-log the commit at decision
	// time and attach each shard's writes to its decision.
	commitReqMsg struct {
		txn      ids.Txn
		client   ids.Client
		shards   []int
		rec      history.Committed
		writesBy map[int][]writeUpdate
	}
	// prepareMsg asks a shard to vote on a transaction. The epoch is the
	// soliciting coordinator incarnation's; the vote echoes it so a
	// restarted coordinator never counts a dead incarnation's answers.
	prepareMsg struct {
		txn   ids.Txn
		epoch int
	}
	// decisionMsg delivers the global commit/abort decision to one
	// shard, carrying the writes a commit installs there.
	decisionMsg struct {
		txn    ids.Txn
		commit bool
		writes []writeUpdate
	}
	// outcomeMsg reports the final outcome to the requesting client.
	outcomeMsg struct {
		txn    ids.Txn
		commit bool
	}
	// abortDoneMsg closes a client's abort unwind at the coordinator.
	abortDoneMsg struct {
		txn ids.Txn
	}
	// restartMsg announces a shard site's crash-restart to every client:
	// transactions with ungranted or unprepared state there were
	// forgotten and must abort instead of waiting forever on grants that
	// will never come. Prepared transactions were recovered from the WAL
	// and are resolved by their 2PC round, so committing clients ignore
	// the announcement.
	restartMsg struct {
		shard int
	}
	// inquireMsg is the termination protocol (DESIGN.md §16): a prepared
	// (in-doubt) shard asks the coordinator what became of a transaction
	// whose decision never arrived — because the coordinator crashed, or
	// because the shard itself restarted into the prepared state from its
	// WAL. The coordinator answers from its commit log or presumes abort.
	inquireMsg struct {
		txn   ids.Txn
		shard int
	}
	// decideAckMsg acknowledges a commit decision's arrival at a shard.
	// Once every shard in a round acknowledges, the coordinator may forget
	// the round and truncate its commit record — only then is "no record"
	// proof of abort rather than amnesia.
	decideAckMsg struct {
		txn   ids.Txn
		shard int
	}
	// coordRestartMsg announces the coordinator's crash-restart. Clients
	// with an unresolved commit request re-send it (the round may have
	// died with the old process, and a duplicate of a decided round is
	// filtered by the done tombstone); shards re-send their live block
	// reports, rebuilding the global deadlock graph the crash destroyed.
	coordRestartMsg struct{}
)

// shardSite is one lock-server shard: a goroutine owning one partition of
// the item space — its locks (a protocol.Participant) and its slice of
// the versioned store. All state is owned by the site goroutine. The
// participant and store are volatile — a crash fault discards them — and
// only the WAL survives a crash (DESIGN.md §15).
type shardSite struct {
	cl   *cluster
	idx  int
	mbox *mailbox
	part *protocol.Participant

	versions map[ids.Item]ids.Txn
	values   map[ids.Item]int64

	// Failure machinery: nil wal means no logging, nil crashRng means no
	// crash faults. The counters feed Stats after shutdown.
	wal      *wal
	crashRng *rng.Stream
	crashes  int64
	replayed int64

	// Termination-protocol timer: armed whenever the prepared (in-doubt)
	// set is non-empty, firing inquiries with exponential backoff. inqC is
	// nil when disarmed; inqDelay is the next backoff interval.
	inqTimer *time.Timer
	inqC     <-chan time.Time
	inqDelay time.Duration
}

func newShardSite(cl *cluster, idx int) *shardSite {
	mbox := newMailbox(16 * cl.cfg.Clients)
	mbox.owner = ids.ShardSite(idx)
	mbox.arq = cl.net.arq
	ss := &shardSite{
		cl:       cl,
		idx:      idx,
		mbox:     mbox,
		part:     protocol.NewParticipant(idx, cl.cfg.Victim, cl.cfg.Deadlock),
		versions: make(map[ids.Item]ids.Txn),
		values:   make(map[ids.Item]int64),
	}
	if cl.cfg.WAL {
		ss.wal = &wal{}
	}
	if cl.cfg.Crash.Prob > 0 {
		ss.crashRng = newCrashStream(cl.cfg.Seed, idx)
	}
	ss.seedBalances()
	return ss
}

// seedBalances installs the initial per-item balances of a Bank run —
// the store's time-zero state, re-applied before a WAL redo pass.
func (ss *shardSite) seedBalances() {
	if ss.cl.cfg.InitialBalance == 0 {
		return
	}
	for i := 0; i < ss.cl.cfg.Workload.Items; i++ {
		if ss.cl.smap.Of(ids.Item(i)) == ss.idx {
			ss.values[ids.Item(i)] = ss.cl.cfg.InitialBalance
		}
	}
}

func (ss *shardSite) loop() {
	ss.inqTimer = time.NewTimer(time.Hour)
	defer ss.inqTimer.Stop()
	for {
		select {
		case <-ss.cl.stopc:
			return
		case <-ss.inqC:
			ss.inqC = nil
			ss.fireInquiries()
		case m := <-ss.mbox.ch:
			crashable := true
			switch msg := m.(type) {
			case quiesceMsg:
				// The harness probe is not a protocol message; crashing on
				// it would let the quiesce loop itself induce faults.
				crashable = false
				msg.reply <- ss.part.Quiet()
			case reqMsg:
				ss.shardRequest(msg)
			case releaseMsg:
				ss.shardRelease(msg)
			case prepareMsg:
				ss.shardPrepare(msg)
			case decisionMsg:
				ss.shardDecide(msg)
			case coordRestartMsg:
				// The restarted coordinator lost its assembled deadlock
				// graph; re-file this shard's live block reports.
				ss.applyShard(ss.part.Resync())
			default:
				panic(fmt.Sprintf("live: shard %d got unexpected %T", ss.idx, m))
			}
			if crashable {
				ss.maybeCheckpoint()
				ss.maybeCrash()
				ss.armInquiry()
			}
		}
	}
}

// armInquiry keeps the termination-protocol timer consistent with the
// in-doubt set: armed (at the current backoff) while any prepared
// transaction awaits its decision, disarmed — with the backoff reset —
// once the set drains.
func (ss *shardSite) armInquiry() {
	if ss.wal == nil {
		return // termination protocol rides the recovery layer
	}
	if ss.part.PreparedCount() == 0 {
		if ss.inqC != nil {
			stopTimer(ss.inqTimer)
			ss.inqC = nil
		}
		ss.inqDelay = 0
		return
	}
	if ss.inqC == nil {
		if ss.inqDelay == 0 {
			ss.inqDelay = inquiryBase
		}
		rearm(ss.inqTimer, ss.inqDelay)
		ss.inqC = ss.inqTimer.C
	}
}

// fireInquiries asks the coordinator about every in-doubt transaction,
// then re-arms with doubled backoff. The answers are decisions (commit
// from the coordinator's log, abort by presumption), so each inquiry
// round either resolves the set or narrows it.
func (ss *shardSite) fireInquiries() {
	for _, txn := range ss.part.PreparedTxns() {
		ss.cl.net.send(ids.ShardSite(ss.idx), ids.Coordinator, inquireMsg{txn: txn, shard: ss.idx})
	}
	ss.inqDelay *= 2
	if ss.inqDelay > inquiryMax {
		ss.inqDelay = inquiryMax
	}
	ss.armInquiry()
}

// maybeCheckpoint rolls a checkpoint once enough appends accumulated
// since the last one: the store snapshot plus the in-doubt prepared set,
// after which the log prefix is truncated.
func (ss *shardSite) maybeCheckpoint() {
	every := ss.cl.cfg.WALCheckpointEvery
	if ss.wal == nil || every <= 0 || ss.wal.sinceCkpt < every {
		return
	}
	ck := walRecord{
		kind:       walCheckpoint,
		ckVersions: maps.Clone(ss.versions),
		ckValues:   maps.Clone(ss.values),
	}
	for _, txn := range ss.part.PreparedTxns() {
		snap := ss.part.PreparedSnapshot(txn)
		ck.ckPrepared = append(ck.ckPrepared, walRecord{
			kind: walPrepare, txn: snap.Txn, client: snap.Client, ts: snap.Ts, locks: snap.Locks,
		})
	}
	ss.wal.checkpoint(ck)
}

// maybeCrash rolls the crash fault after one protocol message. The
// crash point sits between messages, never inside one, so a WAL append
// is always atomic with the state transition it logs — the contract a
// torn-write-detecting on-disk log would restore.
func (ss *shardSite) maybeCrash() {
	if ss.crashRng == nil || ss.crashes >= ss.cl.cfg.Crash.max() {
		return
	}
	if !ss.crashRng.Bool(ss.cl.cfg.Crash.Prob) {
		return
	}
	ss.crashRestart()
}

// crashRestart is the fault itself: every piece of volatile state —
// participant (locks, queues, votes), versions, values — is discarded
// and rebuilt from the WAL. Committed writes are redone, in-doubt
// transactions (logged prepares without a logged decision) re-enter the
// prepared state with their locks adopted, and every client is told the
// site restarted so transactions with forgotten state here abort
// promptly. The transport state (sequence numbers, resequencers, ARQ
// buffers) deliberately survives: the modeled fault is a database
// process crash behind a reliable session layer, so in-flight votes and
// decisions still arrive exactly once.
func (ss *shardSite) crashRestart() {
	ss.crashes++
	ss.part = protocol.NewParticipant(ss.idx, ss.cl.cfg.Victim, ss.cl.cfg.Deadlock)
	ss.versions = make(map[ids.Item]ids.Txn)
	ss.values = make(map[ids.Item]int64)
	ss.seedBalances()
	indoubt, replayed := ss.wal.replay(ss.versions, ss.values)
	ss.replayed += replayed
	if len(indoubt) > 0 {
		recs := make([]protocol.RecoveredTxn, len(indoubt))
		for i, r := range indoubt {
			recs[i] = protocol.RecoveredTxn{Txn: r.txn, Client: r.client, Ts: r.ts, Locks: r.locks}
		}
		ss.part.Recover(recs)
	}
	for i := 0; i < ss.cl.cfg.Clients; i++ {
		ss.cl.net.send(ids.ShardSite(ss.idx), ids.Client(i), restartMsg{shard: ss.idx})
	}
	// The coordinator purges this shard's unretracted block reports: the
	// restarted site forgot it filed them, so no clear is coming. FIFO on
	// this link orders every pre-crash report before the notice.
	ss.cl.net.send(ids.ShardSite(ss.idx), ids.Coordinator, restartMsg{shard: ss.idx})
}

func (ss *shardSite) shardRequest(m reqMsg) {
	ss.applyShard(ss.part.Request(protocol.LockRequest{
		Txn: m.txn, Client: m.client, Item: m.item, Write: m.write, Epoch: m.epoch, Ts: m.ts,
	}))
}

// shardRelease handles a client-side abort unwind; commits never arrive
// this way (their writes and releases ride the coordinator's decision).
func (ss *shardSite) shardRelease(m releaseMsg) {
	if !m.aborted {
		panic(fmt.Sprintf("live: shard %d got a commit release for %v; commits ride decisions", ss.idx, m.txn))
	}
	if ss.wal != nil && ss.part.Prepared(m.txn) {
		// The client's abort release can overtake the coordinator's abort
		// decision (different links). A client only unwinds a transaction
		// whose round is abort-decided, so the release carries the same
		// authority — and it must leave the same log record, or a crash
		// would replay the logged prepare as in-doubt and re-adopt locks
		// the unwind already freed (conflicting with their next holder).
		ss.wal.append(walRecord{kind: walDecide, txn: m.txn, commit: false})
	}
	ss.applyShard(ss.part.ClientAbort(m.txn))
}

func (ss *shardSite) shardPrepare(m prepareMsg) {
	was := ss.part.Prepared(m.txn)
	acts := ss.part.Prepare(m.txn, m.epoch)
	if ss.wal != nil && !was && ss.part.Prepared(m.txn) {
		// WAL before wire: once the yes vote leaves (applyShard below),
		// the coordinator may decide commit, so the prepared state — and
		// the locks pinning that decision's install — must already be
		// durable.
		snap := ss.part.PreparedSnapshot(m.txn)
		ss.wal.append(walRecord{
			kind: walPrepare, txn: m.txn, client: snap.Client, ts: snap.Ts, locks: snap.Locks,
		})
	}
	ss.applyShard(acts)
}

// shardDecide applies the coordinator's decision. Commit writes install
// only while the shard still carries the transaction — a duplicate or
// presumed-abort decision must change nothing.
func (ss *shardSite) shardDecide(m decisionMsg) {
	install := m.commit && ss.part.Involved(m.txn)
	if ss.wal != nil && (install || (!m.commit && ss.part.Prepared(m.txn))) {
		// Commit installs are redone from this record. Aborts are logged
		// only for prepared transactions: that is exactly what lets redo
		// tell a decided transaction from an in-doubt one.
		var writes []writeUpdate
		if install {
			writes = m.writes
		}
		ss.wal.append(walRecord{kind: walDecide, txn: m.txn, commit: m.commit, writes: writes})
	}
	if install {
		for _, w := range m.writes {
			ss.versions[w.item] = m.txn
			ss.values[w.item] = w.value
		}
	}
	ss.applyShard(ss.part.Decide(m.txn, m.commit))
	if ss.wal != nil && m.commit {
		// Acknowledge every commit decision — even a duplicate that found
		// nothing to install — so the coordinator's unacked round drains
		// and its commit record becomes truncatable. Only a fully-acked
		// record may be dropped: until then "no record" must mean abort,
		// never amnesia.
		ss.cl.net.send(ids.ShardSite(ss.idx), ids.Coordinator, decideAckMsg{txn: m.txn, shard: ss.idx})
	}
}

// applyShard emits the participant core's ordered decisions as messages —
// the single delivery site for sharded grants, local abort notices and
// the shard→coordinator control traffic.
func (ss *shardSite) applyShard(acts []protocol.PartAction) {
	for _, a := range acts {
		switch a.Kind {
		case protocol.PartGrant:
			ss.cl.net.send(ids.ShardSite(ss.idx), a.Client, dataMsg{
				txn:     a.Txn,
				item:    a.Req.Item,
				version: ss.versions[a.Req.Item],
				value:   ss.values[a.Req.Item],
			})
		case protocol.PartAbort:
			// Addressed via Txn/Client, not Req: a wounded lock holder has
			// no queued request for the core to echo back.
			ss.cl.net.send(ids.ShardSite(ss.idx), a.Client, abortMsg{txn: a.Txn})
		case protocol.PartBlocked:
			ss.cl.net.send(ids.ShardSite(ss.idx), ids.Coordinator, blockedMsg{
				txn: a.Txn, client: a.Client, shard: ss.idx, epoch: a.Epoch, held: a.Held, waits: a.WaitsFor,
			})
		case protocol.PartCleared:
			ss.cl.net.send(ids.ShardSite(ss.idx), ids.Coordinator, clearedMsg{txn: a.Txn, epoch: a.Epoch})
		case protocol.PartVote:
			ss.cl.net.send(ids.ShardSite(ss.idx), ids.Coordinator, voteMsg{txn: a.Txn, shard: ss.idx, epoch: a.Epoch, yes: a.Yes})
		default:
			panic(fmt.Sprintf("live: shard %d emitting unknown action kind %d", ss.idx, int(a.Kind)))
		}
	}
}

// coordSite is the 2PC commit coordinator site: a goroutine wrapping the
// pure protocol.Coordinator plus the commit records held between a
// commit request and its decision. Commits are audit-logged here, at
// decision time, so the oracle's log order matches the decision order —
// a dependent transaction can only reach its own decision after this
// one's, on this same goroutine.
type coordSite struct {
	cl    *cluster
	mbox  *mailbox
	coord *protocol.Coordinator

	pending map[ids.Txn]commitReqMsg

	// Recovery machinery (DESIGN.md §16), nil/zero without cfg.WAL: the
	// commit log, its in-memory mirror of decided-but-unacked rounds
	// (rebuilt by replay; acks are volatile), the crash stream, and the
	// observability counters harvested into Stats after shutdown.
	cwal           *coordWAL
	logged         map[ids.Txn]*coordRound
	crashRng       *rng.Stream
	crashes        int64
	replayed       int64
	inquiries      int64
	resolvedCommit int64
	resolvedAbort  int64
	// crashedTPC sums the 2PC counters of crashed incarnations, counting
	// only the commit requests each one decided: clients retry the rest
	// with a later incarnation, which counts them again.
	crashedTPC stats.TwoPC
}

func newCoordSite(cl *cluster) *coordSite {
	mbox := newMailbox(16 * cl.cfg.Clients)
	mbox.owner = ids.Coordinator
	mbox.arq = cl.net.arq
	coord := protocol.NewCoordinator(cl.cfg.Victim, cl.cfg.Deadlock)
	if cl.cfg.Crash.Prob > 0 || cl.cfg.Deadlock == protocol.PolicyWoundWait {
		// One-phase commit is not crash-durable (see SetAlwaysPrepare):
		// under participant crash faults every commit runs a voting round,
		// so the prepared state pinning its install is always WAL-logged.
		// Coordinator-only crashes keep one-phase: a one-phase decision is
		// logged before it leaves, and no participant forgets state.
		//
		// Wound-Wait needs the round for a different reason: it is the one
		// policy that kills a RUNNING holder, so a shard's wound can race
		// the coordinator's unilateral one-phase commit — two deciders,
		// and the shard drops the "committed" writes as not-involved. A
		// voting round serializes them at the shard: the prepare either
		// shields the transaction from wounds or finds it wounded and
		// votes no.
		coord.SetAlwaysPrepare(true)
	}
	cs := &coordSite{
		cl:      cl,
		mbox:    mbox,
		coord:   coord,
		pending: make(map[ids.Txn]commitReqMsg),
	}
	if cl.cfg.WAL {
		coord.SetRecoverable(true)
		cs.cwal = &coordWAL{}
		cs.logged = make(map[ids.Txn]*coordRound)
	}
	if cl.cfg.Crash.CoordProb > 0 {
		cs.crashRng = newCoordCrashStream(cl.cfg.Seed)
	}
	return cs
}

func (cs *coordSite) loop() {
	for {
		select {
		case <-cs.cl.stopc:
			return
		case m := <-cs.mbox.ch:
			crashable := true
			switch msg := m.(type) {
			case quiesceMsg:
				crashable = false
				msg.reply <- cs.coord.Quiet()
			case blockedMsg:
				cs.coordBlocked(msg)
			case clearedMsg:
				cs.coord.Cleared(msg.txn, msg.epoch)
			case voteMsg:
				cs.coordVote(msg)
			case commitReqMsg:
				cs.coordCommitReq(msg)
			case abortDoneMsg:
				cs.coordAbortDone(msg)
			case inquireMsg:
				cs.coordInquire(msg)
			case decideAckMsg:
				cs.coordAck(msg)
			case restartMsg:
				cs.coord.ShardRestarted(msg.shard)
			default:
				panic(fmt.Sprintf("live: coordinator got unexpected %T", m))
			}
			if crashable {
				cs.maybeCheckpoint()
				cs.maybeCrash()
			}
		}
	}
}

func (cs *coordSite) coordBlocked(m blockedMsg) {
	cs.apply2PC(cs.coord.Blocked(m.txn, m.client, m.shard, m.epoch, m.held, m.waits))
}

func (cs *coordSite) coordVote(m voteMsg) {
	cs.apply2PC(cs.coord.Vote(m.txn, m.shard, m.epoch, m.yes))
}

func (cs *coordSite) coordCommitReq(m commitReqMsg) {
	cs.pending[m.txn] = m
	acts := cs.coord.CommitRequest(m.txn, m.client, m.shards)
	if len(acts) == 0 && cs.coord.Done(m.txn) {
		// A client retry across a coordinator restart, for a round that was
		// decided before the crash. The decision, its durable record and
		// the outcome reply were all emitted atomically (crash points sit
		// between messages), so the reply is already on the wire —
		// re-answering would double-count the outcome. The core absorbs
		// the retry; only the stored request must not leak. (A retry for a
		// PRESUMED-abort tombstone is different: that promise was made to
		// an inquiring shard, never to the client, so the core returns the
		// owed abort reply and this branch is not taken.)
		delete(cs.pending, m.txn)
	}
	cs.apply2PC(acts)
}

// coordInquire answers a termination-protocol inquiry, counting how each
// in-doubt transaction resolved. An empty answer means the round is still
// voting — the decision will arrive on its own and the shard's backoff
// covers the wait.
func (cs *coordSite) coordInquire(m inquireMsg) {
	cs.inquiries++
	acts := cs.coord.Inquire(m.txn, m.shard)
	if len(acts) > 0 {
		if acts[0].Commit {
			cs.resolvedCommit++
		} else {
			cs.resolvedAbort++
		}
	}
	cs.apply2PC(acts)
}

// coordAck drains one shard's commit-decision acknowledgment; a fully
// acknowledged round leaves the mirror, making its log record dead weight
// the next checkpoint truncates.
func (cs *coordSite) coordAck(m decideAckMsg) {
	cs.coord.Acked(m.txn, m.shard)
	r := cs.logged[m.txn]
	if r == nil {
		return
	}
	r.acked[m.shard] = true
	if len(r.acked) == len(r.shards) {
		delete(cs.logged, m.txn)
	}
}

// logCommit forces the commit record before the round's first Decide
// leaves (WAL before wire): if the coordinator crashes past this point,
// replay re-sends the decisions; if it crashes before, presumed abort
// gives every prepared participant the same answer the round would now
// never produce. Called only for freshly decided rounds — recovery
// re-decides find their round already mirrored in logged.
func (cs *coordSite) logCommit(txn ids.Txn) {
	m, ok := cs.pending[txn]
	if !ok {
		return
	}
	shards := slices.Clone(m.shards)
	slices.Sort(shards)
	shards = slices.Compact(shards)
	r := &coordRound{
		txn:      txn,
		client:   m.client,
		shards:   shards,
		writesBy: m.writesBy,
		acked:    make(map[int]bool, len(shards)),
	}
	cs.cwal.append(coordRec{kind: coordCommit, round: *r})
	cs.logged[txn] = r
}

// writesFor resolves the staged writes a commit decision installs at one
// shard: from the live request record, or — after a coordinator restart
// discarded the pending table — from the logged round that survives it.
func (cs *coordSite) writesFor(txn ids.Txn, shard int) []writeUpdate {
	if m, ok := cs.pending[txn]; ok {
		return m.writesBy[shard]
	}
	if r := cs.logged[txn]; r != nil {
		return r.writesBy[shard]
	}
	return nil
}

// maybeCheckpoint rolls a coordinator checkpoint once enough commit
// records accumulated: the unacked rounds are snapshotted and the log
// prefix — including every fully-acked commit record — is truncated.
func (cs *coordSite) maybeCheckpoint() {
	every := cs.cl.cfg.WALCheckpointEvery
	if cs.cwal == nil || every <= 0 || cs.cwal.sinceCkpt < every {
		return
	}
	ck := coordRec{kind: coordCheckpoint}
	for _, txn := range slices.Sorted(maps.Keys(cs.logged)) {
		r := cs.logged[txn]
		ck.ckRounds = append(ck.ckRounds, coordRound{
			txn: r.txn, client: r.client, shards: r.shards, writesBy: r.writesBy,
		})
	}
	cs.cwal.checkpoint(ck)
}

// maybeCrash rolls the coordinator crash fault after one protocol
// message, same between-messages contract as the shard sites'.
func (cs *coordSite) maybeCrash() {
	if cs.crashRng == nil || cs.crashes >= cs.cl.cfg.Crash.max() {
		return
	}
	if !cs.crashRng.Bool(cs.cl.cfg.Crash.CoordProb) {
		return
	}
	cs.crashRestart()
}

// crashRestart is the coordinator fault: the core (voting rounds, the
// deadlock graph, tombstones), the pending request table and the logged
// mirror are all discarded; only the WAL survives. Replay rebuilds the
// decided-but-unacked rounds, recovery re-sends their commit decisions,
// and the restart is announced so clients retry unresolved commit
// requests and shards re-file their block reports. Everything the log
// does not mention is presumed abort — the termination protocol's
// inquiries resolve any participant left prepared by a dead round.
func (cs *coordSite) crashRestart() {
	cs.crashes++
	dead := cs.coord.Counters()
	dead.Txns = dead.Commits + dead.Aborts
	cs.crashedTPC.Merge(dead)
	coord := protocol.NewCoordinator(cs.cl.cfg.Victim, cs.cl.cfg.Deadlock)
	if cs.cl.cfg.Crash.Prob > 0 {
		coord.SetAlwaysPrepare(true)
	}
	coord.SetRecoverable(true)
	// Each incarnation votes in its own epoch, so a retried round never
	// counts yes votes a dead incarnation solicited (the voter may have
	// been aborted by a termination-protocol answer in between).
	coord.SetEpoch(int(cs.crashes))
	cs.coord = coord
	cs.pending = make(map[ids.Txn]commitReqMsg)
	rounds, replayed := cs.cwal.replay()
	cs.replayed += replayed
	cs.logged = make(map[ids.Txn]*coordRound, len(rounds))
	recs := make([]protocol.RecoveredRound, 0, len(rounds))
	for i := range rounds {
		r := &rounds[i]
		cs.logged[r.txn] = r
		recs = append(recs, protocol.RecoveredRound{Txn: r.txn, Client: r.client, Shards: r.shards})
	}
	cs.apply2PC(cs.coord.Recover(recs))
	for i := 0; i < cs.cl.cfg.Clients; i++ {
		cs.cl.net.send(ids.Coordinator, ids.Client(i), coordRestartMsg{})
	}
	for k := range cs.cl.shards {
		cs.cl.net.send(ids.Coordinator, ids.ShardSite(k), coordRestartMsg{})
	}
}

// coordAbortDone closes a victim unwind. If a commit request crossed the
// victim notice in flight, the core kills its round here; the stored
// record dies with it.
func (cs *coordSite) coordAbortDone(m abortDoneMsg) {
	cs.apply2PC(cs.coord.AbortDone(m.txn))
	delete(cs.pending, m.txn)
}

// apply2PC emits the coordinator core's ordered decisions as messages —
// the single delivery site for prepares, decisions, outcome replies and
// victim notices, and the audit point for sharded commits.
func (cs *coordSite) apply2PC(acts []protocol.CoordAction) {
	for _, a := range acts {
		switch a.Kind {
		case protocol.CoordPrepare:
			cs.cl.net.send(ids.Coordinator, ids.ShardSite(a.Shard), prepareMsg{txn: a.Txn, epoch: a.Epoch})
		case protocol.CoordDecide:
			var writes []writeUpdate
			if a.Commit {
				if cs.cwal != nil && cs.logged[a.Txn] == nil {
					cs.logCommit(a.Txn)
				}
				writes = cs.writesFor(a.Txn, a.Shard)
			}
			cs.cl.net.send(ids.Coordinator, ids.ShardSite(a.Shard), decisionMsg{
				txn: a.Txn, commit: a.Commit, writes: writes,
			})
		case protocol.CoordReply:
			if a.Commit {
				cs.cl.audit.commit(cs.pending[a.Txn].rec)
			}
			delete(cs.pending, a.Txn)
			cs.cl.net.send(ids.Coordinator, a.Client, outcomeMsg{txn: a.Txn, commit: a.Commit})
		case protocol.CoordVictim:
			cs.cl.net.send(ids.Coordinator, a.Client, abortMsg{txn: a.Txn})
		default:
			panic(fmt.Sprintf("live: coordinator emitting unknown action kind %d", int(a.Kind)))
		}
	}
}
