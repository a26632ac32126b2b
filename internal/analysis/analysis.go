// Package analysis implements repolint, a repo-specific static-analysis
// pass built only on the standard library (go/parser, go/ast, go/types).
//
// The repo's value rests on two fragile properties: the discrete-event
// engines must be bit-for-bit deterministic so the paper's g-2PL vs s-2PL
// curves reproduce exactly, and the live cluster must stay data-race-free
// and deadlock-safe under real goroutine concurrency. Nothing in the
// compiler enforces either, so this package does, mechanically:
//
//   - determinism checks (walltime, globalrand, maprange) forbid wall-clock
//     reads, global math/rand state and order-leaking map iteration inside
//     the deterministic package set;
//   - concurrency-hygiene checks (mutexcopy, lockbalance, gosend) catch
//     mutexes copied by value, Lock calls with no same-function Unlock and
//     select-less blocking channel sends inside goroutines of the live
//     cluster;
//   - the protocol-discipline checks (twophase, emitfunnel) are syntactic
//     tripwires: calls to the engines' lock/data grant functions and the
//     live transport's emission funnels are only sanctioned from explicit
//     per-package call-site allowlists, so a change that grants after
//     release — or adds a second wire-emission site — must consciously
//     extend the list;
//   - the layering firewall (importboundary) pins the module's import DAG:
//     every module-internal import edge must appear in Config.ImportAllow,
//     and per-package forbidden imports (time in the protocol cores) are
//     rejected outright;
//   - protocol-evolution checks (eventexhaust, timerhygiene) require
//     type-switches over the message/action sum types to cover every
//     member or fail loudly in an explicit default, and flag leak-prone
//     timer idioms (time.After in loops, unstopped timers, blind Reset)
//     in the packages that run real goroutines;
//   - API-hygiene checks (exporteddoc, errdiscard) require doc comments on
//     exported identifiers and flag error values discarded with `_`;
//   - suppression hygiene (staleallow) audits the allow comments
//     themselves: one that no longer suppresses any finding is a hole in
//     the gate and is reported until deleted.
//
// Individual findings can be waived in source with a justified suppression
// comment on the flagged line or the line above:
//
//	//repolint:allow maprange -- counts are order-independent
//
// The reason after "--" is mandatory; an allow comment without one is
// itself reported. The cmd/repolint command wires the checks into `make
// check` and CI.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding: a check name, a position and a message.
// Suppressed marks findings waived by a //repolint:allow comment; Run
// drops them, RunAll keeps them for machine-readable reports.
type Diagnostic struct {
	Check      string
	Pos        token.Position
	Message    string
	Suppressed bool
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Check)
}

// Check is a named, individually-toggleable analysis pass that runs over
// one type-checked package at a time.
type Check struct {
	// Name identifies the check in diagnostics, -checks flags and
	// suppression comments.
	Name string
	// Doc is a one-line description printed by `repolint -list`.
	Doc string
	// Run reports the check's findings on ctx.Pkg via ctx.Reportf.
	Run func(ctx *Context)
}

// Checks returns the full check catalog in a stable order.
func Checks() []Check {
	return []Check{
		{Name: "walltime", Doc: "forbid time.Now/Since/Sleep and friends in deterministic packages", Run: checkWalltime},
		{Name: "globalrand", Doc: "forbid global math/rand state in deterministic packages", Run: checkGlobalRand},
		{Name: "maprange", Doc: "forbid unordered map iteration in deterministic packages", Run: checkMapRange},
		{Name: "mutexcopy", Doc: "flag sync.Mutex (and friends) passed, returned or assigned by value", Run: checkMutexCopy},
		{Name: "lockbalance", Doc: "flag Lock() with no same-function Unlock() or defer Unlock()", Run: checkLockBalance},
		{Name: "gosend", Doc: "flag select-less blocking channel sends inside live-cluster goroutines", Run: checkGoSend},
		{Name: "twophase", Doc: "2PL tripwire: grant-function calls only from sanctioned call sites", Run: checkTwoPhase},
		{Name: "emitfunnel", Doc: "emission funnels: calls to funnel functions only from sanctioned callers", Run: checkEmitFunnel},
		{Name: "importboundary", Doc: "layering firewall: module-internal imports must be in the allowed DAG", Run: checkImportBoundary},
		{Name: "eventexhaust", Doc: "switches over message/action sum types must cover every member or fail loudly", Run: checkEventExhaust},
		{Name: "timerhygiene", Doc: "flag leak-prone timer idioms (time.After in loops, unstopped timers, blind Reset)", Run: checkTimerHygiene},
		{Name: "exporteddoc", Doc: "require doc comments on exported identifiers", Run: checkExportedDoc},
		{Name: "errdiscard", Doc: "flag error return values discarded with _", Run: checkErrDiscard},
		// staleallow runs inside the driver, after suppression matching:
		// it needs to know which allow comments absorbed a finding.
		{Name: "staleallow", Doc: "report //repolint:allow comments that no longer suppress any finding", Run: nil},
	}
}

// Config scopes the checks to the repository's package roles. The zero
// value disables every package-scoped check; use DefaultConfig for the
// repo's policy.
type Config struct {
	// DeterministicPkgs are import paths whose code must be bit-for-bit
	// reproducible: the determinism checks apply only to them. Packages
	// that are wall-clock by design (internal/live, cmd/experiments) are
	// simply not listed.
	DeterministicPkgs map[string]bool

	// ConcurrentPkgs are import paths running real goroutines; the gosend
	// check applies only to them.
	ConcurrentPkgs map[string]bool

	// GrantSites is the 2PL tripwire allowlist: for each package path, a
	// map from grant-function name to the named functions sanctioned to
	// call it. Any other call site is a potential two-phase (grant after
	// release) violation and is reported until the list is consciously
	// extended.
	GrantSites map[string]map[string][]string

	// Funnels generalizes GrantSites beyond the 2PL rule: for each
	// package, a map from funnel-function name to its sanctioned callers.
	// The table pins single-emission invariants that are not about lock
	// grants — e.g. that every wire transmission in the live cluster goes
	// through network.transmit and every ARQ retention through
	// network.send — so a refactor cannot quietly introduce a second
	// emission site.
	Funnels map[string]map[string][]string

	// ImportAllow is the layering firewall: for each module package path,
	// the module-internal import paths it is sanctioned to take. An
	// import is "module-internal" when it shares the importer's leading
	// path segment (repro/... importing repro/...). Any internal edge not
	// listed — including every edge of a package with no entry at all —
	// is a finding, and so is a listed edge the package no longer takes,
	// which keeps the table an exact picture of the DAG.
	ImportAllow map[string][]string

	// ImportForbid lists import paths (stdlib included) a package must
	// never take regardless of ImportAllow — e.g. time in the pure
	// protocol cores, whose determinism the golden hashes pin.
	ImportForbid map[string][]string

	// EventSums declares the closed message sums eventexhaust enforces on
	// type switches: a qualified type name ("repro/internal/live.message")
	// to the concrete member type names declared in the same package. A
	// type switch over a listed sum must cover every member or carry a
	// default that fails loudly.
	EventSums map[string][]string

	// EnumSums lists qualified named types ("pkg.LockActionKind") whose
	// value switches must cover every package-level constant of the type
	// in its declaring package, or carry a loud default. Members are
	// discovered from the type-checker, so adding a constant instantly
	// makes every non-exhaustive switch a finding.
	EnumSums map[string]bool

	// Enabled restricts which checks run; nil enables all of them.
	Enabled map[string]bool
}

// DefaultConfig returns the repository policy described in DESIGN.md.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs: map[string]bool{
			"repro/internal/engine":   true,
			"repro/internal/protocol": true,
			"repro/internal/sim":      true,
			"repro/internal/fwdlist":  true,
			"repro/internal/prec":     true,
			"repro/internal/wfg":      true,
			"repro/internal/exp":      true,
			"repro/internal/serial":   true,
			"repro/internal/rng":      true,
			"repro/internal/workload": true,
			// lock and history are driven by both the engines and the live
			// cluster; their results must not depend on map order either.
			"repro/internal/lock":     true,
			"repro/internal/history":  true,
			"repro/internal/ids":      true,
			"repro/internal/stats":    true,
			"repro/internal/core":     true,
			"repro/internal/netmodel": true,
		},
		ConcurrentPkgs: map[string]bool{
			"repro/internal/live": true,
		},
		GrantSites: map[string]map[string][]string{
			// The protocol cores are where grant decisions are made; the
			// engine and live adapters below are where they turn into
			// messages. Both layers are pinned.
			"repro/internal/protocol": {
				// s-2PL: every lock grant emission funnels through
				// grantActions — queue promotions from the two release paths
				// and from a deadlock victim's cancelled request. (Request's
				// immediate-acquire grant is built inline and is the
				// growing-phase case the two-phase rule permits by
				// definition.)
				"grantActions": {"abortVictim", "CommitRelease", "AbortRelease", "CancelBlocked"},
				// 2PC: the participant wrapper re-emits the wrapped core's
				// grants/aborts only through relay, from its four event entry
				// points.
				"relay": {"Request", "Prepare", "Decide", "ClientAbort"},
				// c-2PL: cache-lock grants leave the core in grant, for a
				// fresh compatible request or a queue promotion; promotions
				// happen when a holder leaves via removeHolder (reachable
				// only from the two release entry points) or when an
				// avoidance policy's judge pass aborts a queued head — an
				// abort-path promotion, which the two-phase rule permits the
				// same way it permits abortVictim's grants in the s-2PL core.
				"grant":        {"Request", "promote"},
				"promote":      {"removeHolder", "judgeRequest", "judgeDefer"},
				"removeHolder": {"Release", "Finish"},
			},
			"repro/internal/engine": {
				// s-2PL: the core's ordered grant/abort decisions become
				// sends only in applyLockActions, called from the three
				// server entry points.
				"sendGrant":        {"applyLockActions"},
				"applyLockActions": {"serverRequest", "serverRelease", "serverAbortRelease"},
				// g-2PL: data reaches a client only via deliverSegment (new
				// segments) or the sanctioned re-delivery paths.
				"deliverSegment": {"dispatchWindow", "advanceWriter"},
				"clientData":     {"deliverSegment", "tryExpand", "writerRelease"},
				// c-2PL: the cache core's decisions become sends only in
				// applyCacheActions, called from the four server entry
				// points; clientGrant is the delivery handler on the other
				// end of the two grant emitters.
				"applyCacheActions": {"serverRequest", "serverDefer", "serverRelease", "serverFinish"},
				"clientGrant":       {"sendGrant", "applyCacheActions"},
				// Sharded s-2PL (2PC): participant and coordinator decisions
				// become sends only in applyPart/applyCoord; grants reach a
				// client only through the sendPartGrant/clientPartGrant pair.
				"applyPart":       {"shardRequest", "shardPrepare", "shardDecide", "shardAbortRelease"},
				"applyCoord":      {"applyPart", "shardedCommit", "unwindAbort", "clientVictim"},
				"sendPartGrant":   {"applyPart"},
				"clientPartGrant": {"sendPartGrant"},
			},
			"repro/internal/live": {
				"applyLock":  {"s2plRequest", "s2plRelease"},
				"sendData":   {"dispatch"},
				"applyCache": {"c2plRequest", "c2plDefer", "c2plRelease", "c2plFinish"},
				// The sharded topology's two action emitters: every
				// message a shard site or the coordinator site sends is
				// the image of a protocol-core action, emitted through
				// exactly one function per site kind.
				// loop is sanctioned for the coordinator-restart resync:
				// re-filed block reports are grant-free by construction
				// (Resync only re-emits PartBlocked).
				"applyShard": {"shardRequest", "shardRelease", "shardPrepare", "shardDecide", "loop"},
				"apply2PC":   {"coordBlocked", "coordVote", "coordCommitReq", "coordAbortDone", "coordInquire", "crashRestart"},
			},
		},
		Funnels: map[string]map[string][]string{
			// The 2PC coordinator's decision topology (DESIGN.md §13):
			// every commit/abort decision — and the client reply carrying
			// it — is emitted through Coordinator.decide, from the four
			// events that can close a transaction's fate. A second decision
			// site is exactly how a transaction ends up committed at one
			// shard and aborted at another.
			"repro/internal/protocol": {
				// Inquire (termination protocol) and Recover (restart
				// replay) re-emit already-made decisions through the same
				// funnel (DESIGN.md §16).
				"decide": {"CommitRequest", "Vote", "AbortDone", "Timeout", "Inquire", "Recover"},
				// The deadlock-policy seam (DESIGN.md §14): every avoidance
				// decision routes through JudgeBlock, consulted at exactly
				// one block point per core — a second judge site is how two
				// cores disagree about who is older. Victim aborts funnel
				// through one abort emitter per victim kind.
				"JudgeBlock":   {"judgeBlocked", "judgeRequest", "judgeDefer"},
				"judgeBlocked": {"Request"},
				"judgeRequest": {"Request"},
				"judgeDefer":   {"Defer"},
				"abortVictim":  {"Request", "judgeBlocked"},
				"woundHolder":  {"judgeRequest", "judgeDefer"},
				"abortWaiter":  {"Request", "Defer", "judgeRequest", "judgeDefer"},
			},
			// The live transport's emission topology (DESIGN.md §10–11):
			// every wire transmission funnels through network.transmit
			// (fresh sends, ARQ retransmissions, standalone acks — nothing
			// else may put a message on a link), sequencing + retransmit
			// retention happen exactly once in network.send, and the ARQ
			// receive-side state advances only from the mailbox pump.
			"repro/internal/live": {
				"transmit":       {"send", "fireAck", "fireRetransmit"},
				"stampAndRetain": {"send"},
				"onAck":          {"deliverable"},
				"noteReceived":   {"deliverable"},
				// g-2PL judges policy in the driver (its wait edges come
				// from window chaining, not the lock table), so the live
				// server's judge/wound/abort topology is pinned here the
				// same way the cores' is above.
				"g2plJudge": {"g2plRequest"},
				"g2plWound": {"g2plJudge"},
				"g2plAbort": {"g2plRequest", "g2plJudge"},
			},
		},
		ImportAllow: map[string][]string{
			"repro/cmd/experiments":     {"repro/internal/exp"},
			"repro/cmd/g2plsim":         {"repro/internal/core", "repro/internal/netmodel", "repro/internal/sim"},
			"repro/cmd/liveserver":      {"repro/internal/live", "repro/internal/protocol", "repro/internal/serial", "repro/internal/workload"},
			"repro/cmd/repolint":        {"repro/internal/analysis"},
			"repro/examples/hotspot":    {"repro/internal/core"},
			"repro/examples/liveserver": {"repro/internal/live", "repro/internal/serial", "repro/internal/workload"},
			"repro/examples/quickstart": {"repro/internal/core"},
			"repro/examples/wanscaling": {"repro/internal/core", "repro/internal/netmodel"},
			"repro/internal/analysis":   {},
			"repro/internal/core":       {"repro/internal/engine", "repro/internal/netmodel", "repro/internal/sim", "repro/internal/stats", "repro/internal/workload"},
			"repro/internal/engine":     {"repro/internal/history", "repro/internal/ids", "repro/internal/lock", "repro/internal/netmodel", "repro/internal/protocol", "repro/internal/rng", "repro/internal/sim", "repro/internal/stats", "repro/internal/workload"},
			"repro/internal/exp":        {"repro/internal/core", "repro/internal/engine", "repro/internal/netmodel", "repro/internal/sim", "repro/internal/stats", "repro/internal/workload"},
			"repro/internal/fwdlist":    {"repro/internal/ids"},
			"repro/internal/history":    {"repro/internal/ids"},
			"repro/internal/ids":        {},
			"repro/internal/live":       {"repro/internal/history", "repro/internal/ids", "repro/internal/lock", "repro/internal/protocol", "repro/internal/rng", "repro/internal/stats", "repro/internal/workload"},
			"repro/internal/lock":       {"repro/internal/ids"},
			"repro/internal/netmodel":   {"repro/internal/sim"},
			"repro/internal/prec":       {"repro/internal/ids"},
			"repro/internal/protocol":   {"repro/internal/fwdlist", "repro/internal/ids", "repro/internal/lock", "repro/internal/prec", "repro/internal/stats", "repro/internal/wfg"},
			"repro/internal/rng":        {},
			"repro/internal/serial":     {"repro/internal/history", "repro/internal/ids"},
			"repro/internal/sim":        {},
			"repro/internal/stats":      {},
			"repro/internal/wfg":        {"repro/internal/ids"},
			"repro/internal/workload":   {"repro/internal/ids", "repro/internal/rng", "repro/internal/sim"},
		},
		ImportForbid: map[string][]string{
			// The protocol cores and the deterministic substrate run on
			// virtual time only; even importing time (beyond what the
			// walltime check would catch call-by-call) is a layering bug.
			"repro/internal/protocol": {"time", "repro/internal/sim", "repro/internal/live", "repro/internal/netmodel"},
			"repro/internal/sim":      {"time"},
			"repro/internal/engine":   {"time"},
			"repro/internal/netmodel": {"time"},
			"repro/internal/lock":     {"time"},
			"repro/internal/wfg":      {"time"},
			"repro/internal/prec":     {"time"},
			"repro/internal/fwdlist":  {"time"},
		},
		EventSums: map[string][]string{
			// The live cluster's post-resequencer message vocabulary: what
			// a site goroutine can pull out of its mailbox. Adding a 2PC
			// PrepareMsg here makes every site switch that ignores it a
			// lint error instead of a runtime stall. The wire frame
			// (envelope, standalone acks included) is consumed below the
			// sum and is deliberately not a member.
			"repro/internal/live.message": {
				"reqMsg", "dataMsg", "abortMsg", "releaseMsg", "fwdMsg",
				"doneMsg", "grantMsg", "recallMsg", "deferMsg", "crelMsg",
				"finishMsg", "quiesceMsg",
				// The sharded 2PC vocabulary (DESIGN.md §13): shard→coord
				// block/clear/vote reports, client→coord commit requests and
				// abort completions, coord→shard prepares and decisions,
				// coord→client outcomes.
				"blockedMsg", "clearedMsg", "commitReqMsg", "prepareMsg",
				"voteMsg", "decisionMsg", "outcomeMsg", "abortDoneMsg",
				// Crash-restart (DESIGN.md §15): a recovered shard site tells
				// every client its volatile state is gone.
				"restartMsg",
				// Coordinator crash-recovery and the termination protocol
				// (DESIGN.md §16): in-doubt shards inquire, shards
				// acknowledge commit decisions so the coordinator log can
				// truncate, and a restarted coordinator announces itself to
				// clients (retry commit requests) and shards (resync block
				// reports).
				"inquireMsg", "decideAckMsg", "coordRestartMsg",
			},
		},
		EnumSums: map[string]bool{
			"repro/internal/protocol.LockActionKind":  true,
			"repro/internal/protocol.CacheActionKind": true,
			"repro/internal/protocol.RecallDecision":  true,
			"repro/internal/protocol.CoordActionKind": true,
			"repro/internal/protocol.PartActionKind":  true,
			// The policy enums: adding a fifth deadlock policy (or a third
			// victim rule) instantly flags every switch that does not
			// handle it — JudgeBlock and the String/parse pairs.
			"repro/internal/protocol.DeadlockPolicy": true,
			"repro/internal/protocol.VictimPolicy":   true,
			"repro/internal/live.Protocol":           true,
			"repro/internal/engine.Protocol":         true,
		},
	}
}

// enabled reports whether a check participates in this run.
func (c *Config) enabled(name string) bool {
	return c.Enabled == nil || c.Enabled[name]
}

// Context carries one package through one check.
type Context struct {
	Cfg   *Config
	Pkg   *Package
	check string
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (ctx *Context) Reportf(pos token.Pos, format string, args ...any) {
	*ctx.diags = append(*ctx.diags, Diagnostic{
		Check:   ctx.check,
		Pos:     ctx.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Run applies every enabled check to every package and returns the
// surviving findings sorted by position. Suppressed findings are dropped;
// malformed suppression comments are themselves findings.
func Run(cfg *Config, pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, d := range RunAll(cfg, pkgs) {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// RunAll is Run without the suppression filter: waived findings stay in
// the result with Suppressed set, which is what the -format=json report
// and the staleness audit need. Checks run per package in parallel —
// every pass reads only its own package's syntax plus immutable
// type-checker output — and the merged findings are sorted by position,
// so the output order is deterministic regardless of scheduling.
func RunAll(cfg *Config, pkgs []*Package) []Diagnostic {
	perPkg := make([][]Diagnostic, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		i, pkg := i, pkg
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var diags []Diagnostic
			for _, ch := range Checks() {
				if ch.Run == nil || !cfg.enabled(ch.Name) {
					continue
				}
				ch.Run(&Context{Cfg: cfg, Pkg: pkg, check: ch.Name, diags: &diags})
			}
			perPkg[i] = diags
		}()
	}
	wg.Wait()

	var diags []Diagnostic
	sites := map[string]map[int]*allowSite{} // file -> line -> comment
	for i, pkg := range pkgs {
		diags = append(diags, perPkg[i]...)
		bad := collectAllows(pkg, sites)
		diags = append(diags, bad...)
	}

	// Match findings against allow comments (same line or the line
	// above), marking which comment absorbed which check so staleness is
	// decidable afterwards.
	match := func(d *Diagnostic) {
		lines := sites[d.Pos.Filename]
		if lines == nil {
			return
		}
		for _, s := range []*allowSite{lines[d.Pos.Line], lines[d.Pos.Line-1]} {
			if s != nil && s.checks[d.Check] {
				s.used[d.Check] = true
				d.Suppressed = true
				return
			}
		}
	}
	for i := range diags {
		match(&diags[i])
	}

	if cfg.enabled("staleallow") {
		stale := staleAllows(cfg, sites)
		for i := range stale {
			match(&stale[i])
		}
		diags = append(diags, stale...)
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Check < diags[j].Check
	})
	return diags
}

const allowPrefix = "//repolint:allow"

// allowSite is one well-formed //repolint:allow comment: the checks it
// names and, after matching, which of them actually suppressed a finding.
type allowSite struct {
	pos    token.Position
	checks map[string]bool
	used   map[string]bool
}

// collectAllows scans a package's comments for //repolint:allow markers,
// filling sites keyed by file and line. An allow comment missing its
// mandatory "-- reason" is returned as a diagnostic instead.
func collectAllows(pkg *Package, sites map[string]map[int]*allowSite) []Diagnostic {
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				names, _, justified := strings.Cut(rest, "--")
				if !justified || strings.TrimSpace(names) == "" {
					bad = append(bad, Diagnostic{
						Check:   "suppression",
						Pos:     pos,
						Message: "repolint:allow needs checks and a reason: //repolint:allow <checks> -- <why>",
					})
					continue
				}
				lines := sites[pos.Filename]
				if lines == nil {
					lines = map[int]*allowSite{}
					sites[pos.Filename] = lines
				}
				s := lines[pos.Line]
				if s == nil {
					s = &allowSite{pos: pos, checks: map[string]bool{}, used: map[string]bool{}}
					lines[pos.Line] = s
				}
				for _, n := range strings.Split(names, ",") {
					s.checks[strings.TrimSpace(n)] = true
				}
			}
		}
	}
	return bad
}

// staleAllows audits the allow comments after matching: a comment naming
// a check that ran but suppressed nothing is a hole in the gate (the code
// it waived has moved or been fixed), and a comment naming a check that
// does not exist is a typo that silently never worked. Checks disabled in
// this run are not judged — a partial run cannot tell used from stale.
func staleAllows(cfg *Config, sites map[string]map[int]*allowSite) []Diagnostic {
	known := map[string]bool{"suppression": true}
	for _, c := range Checks() {
		known[c.Name] = true
	}
	var all []*allowSite
	for _, lines := range sites {
		for _, s := range lines {
			all = append(all, s)
		}
	}
	var out []Diagnostic
	for _, s := range all {
		var names []string
		for n := range s.checks {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			switch {
			case !known[n]:
				out = append(out, Diagnostic{
					Check:   "staleallow",
					Pos:     s.pos,
					Message: fmt.Sprintf("repolint:allow names unknown check %q (typo? see repolint -list)", n),
				})
			case n == "staleallow", !cfg.enabled(n):
				// An allow of staleallow itself is a deliberate keep; a
				// disabled check leaves its allows unjudgable.
			case !s.used[n]:
				out = append(out, Diagnostic{
					Check:   "staleallow",
					Pos:     s.pos,
					Message: fmt.Sprintf("stale suppression: no %s finding is waived here any more — delete the allow comment", n),
				})
			}
		}
	}
	return out
}

// enclosingFunc returns the name of the innermost FuncDecl containing pos
// in any of the package's files, or "" when pos sits outside function
// bodies. Function literals report their enclosing named function, which
// is what the call-site checks want: closures scheduled by a function act
// on its behalf.
func enclosingFunc(pkg *Package, pos token.Pos) string {
	for _, f := range pkg.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pos >= fd.Pos() && pos <= fd.End() {
				return fd.Name.Name
			}
		}
	}
	return ""
}
