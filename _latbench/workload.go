package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/history"
	"repro/internal/live"
	"repro/internal/serial"
	"repro/internal/workload"
)

// proto names one protocol in both drivers.
type proto struct {
	name string
	des  engine.Protocol
	live live.Protocol
}

var (
	s2pl      = proto{"s2pl", engine.S2PL, live.S2PL}
	g2pl      = proto{"g2pl", engine.G2PL, live.G2PL}
	c2pl      = proto{"c2pl", engine.C2PL, live.C2PL}
	allProtos = []proto{s2pl, g2pl, c2pl}
)

// Call sizes. Each live protocol call commits at least 2000 transactions
// so its p99 has 20 samples beyond it; warm-up calls are small.
const (
	desTarget     = 3000 // measured commits per engine.Run, after 10 % warm-up
	desWarmTarget = 300
	bankTxns      = 250 // per client: 16 × 250 = 4000 commits per call
	wanTxns       = 250 // per client: 8 × 250 = 2000 commits per call
	warmTxns      = 10
	stallTimeout  = 30 * time.Second
)

// spec is one benchmark workload: the protocols it runs in turn and the
// configuration of one call into the program. Exactly one of des and
// live is set. The seed is the only source of the generated inputs.
type spec struct {
	name   string
	protos []proto
	des    func(p proto, seed uint64) engine.Config
	live   func(p proto, seed uint64) live.Config
	// clock is the time commits_per_s divides by: the resource the
	// workload saturates. The saturated workloads count process CPU
	// time, which stolen CPU on a shared host does not inflate; live-wan's
	// clients mostly wait on their links, so it counts wall time, which
	// moves with message rounds and not with the cost of waking threads.
	clock func(callResult) time.Duration
}

var specs = []spec{
	{name: "des-paper", protos: allProtos, des: desPaper, clock: cpuOf},
	{name: "live-2pc", protos: []proto{s2pl}, live: live2PC, clock: cpuOf},
	{name: "live-wan", protos: allProtos, live: liveWAN, clock: wallOf},
}

func lookup(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// desPaper is the paper's Table 1/2 point: 50 clients, 25 hot items,
// 1–5 items per transaction, p_r 0.5, think 1–3, idle 2–10, s-WAN
// latency 500 ticks.
func desPaper(p proto, seed uint64) engine.Config {
	return engine.Config{
		Protocol:      p.des,
		Clients:       50,
		Workload:      workload.Default(),
		Latency:       500,
		Seed:          seed,
		TargetCommits: desTarget,
		WarmupCommits: desTarget / 10,
	}
}

// hotSet is Table 1's item profile with no think or idle time, so the
// clients keep the cluster saturated.
func hotSet() workload.Config {
	wl := workload.Default()
	wl.ThinkMin, wl.ThinkMax, wl.IdleMin, wl.IdleMax = 0, 0, 0, 0
	return wl
}

// live2PC is the sharded write path: bank transfers over 256 items on 4
// shards, half of them cross-shard, with both WALs checkpointing.
func live2PC(p proto, seed uint64) live.Config {
	wl := hotSet()
	wl.Items, wl.MinTxnItems, wl.MaxTxnItems, wl.ReadProb = 256, 2, 2, 0
	return live.Config{
		Protocol:           p.live,
		Clients:            16,
		Workload:           wl,
		TxnsPerClient:      bankTxns,
		Seed:               seed,
		StallTimeout:       stallTimeout,
		Shards:             4,
		CrossRatio:         0.5,
		Bank:               true,
		InitialBalance:     1000,
		WAL:                true,
		WALCheckpointEvery: 64,
	}
}

// wanLatency is live-wan's configured one-way link latency.
const wanLatency = 200 * time.Microsecond

// liveWAN is the paper's regime on the live cluster: 200 µs links that
// drop 0.5 % of transmissions, masked by ARQ at its defaults.
func liveWAN(p proto, seed uint64) live.Config {
	return live.Config{
		Protocol:      p.live,
		Clients:       8,
		Latency:       wanLatency,
		Workload:      hotSet(),
		TxnsPerClient: wanTxns,
		Seed:          seed,
		StallTimeout:  stallTimeout,
		Chaos:         live.ChaosConfig{Drop: 0.005},
	}
}

// callResult is one call into the program and what its checks found.
type callResult struct {
	proto   string
	sim     bool // a DES call: latencies are in simulated ticks
	wall    time.Duration
	cpu     time.Duration // process CPU time, all threads
	target  int64         // commits the call was asked for
	commits int64         // commits it made
	mem     delta         // counter movement across the call
	des     engine.Result
	live    live.Stats
	labels  *labelTracer // traced DES calls
	rssMB   float64      // peak resident set sampled during the call
	peakG   int          // traced live calls: most goroutines seen
	checkNs int64        // traced calls: serial.Check time
	failed  []string     // failed output checks
}

// p50us and p99us are the call's commit-latency percentiles in µs; a DES
// call's are in simulated ticks, read as µs.
func (c callResult) p50us() float64 { return c.pct(0.50, c.live.P50) }
func (c callResult) p99us() float64 { return c.pct(0.99, c.live.P99) }

func (c callResult) pct(q float64, measured time.Duration) float64 {
	if c.sim {
		return c.des.RespSample.Percentile(q)
	}
	return float64(measured) / float64(time.Microsecond)
}

// bench runs one workload's calls and their output checks.
type bench struct {
	spec spec
	seed uint64
	rec  *recorder // nil unless this is a traced run
	root int
	// resp holds each protocol's first DES mean response time: every
	// later call with the same seed must reproduce it bit for bit.
	resp map[string]uint64
	// calls is every call made, warm-up included: the operations
	// attempted and failed are counted over it.
	calls []callResult
	// stealPct is the share of the host's CPU time the hypervisor stole
	// while the rounds ran.
	stealPct float64
	// between, if set, runs after each round with the time measured so
	// far.
	between func(elapsed time.Duration)
}

func newBench(sp spec, seed uint64, traced bool) *bench {
	b := &bench{spec: sp, seed: seed, resp: map[string]uint64{}}
	if traced {
		b.rec = newRecorder()
		b.root = b.rec.begin(0, "workload", "")
		b.rec.spans[0].Label = sp.name
	}
	return b
}

// warmUp makes one small untimed call per protocol so lazy set-up and
// caches are done before timing starts.
func (b *bench) warmUp() {
	for _, p := range b.spec.protos {
		b.calls = append(b.calls, b.call(p, false, true))
	}
}

// round makes one timed call per protocol, in order.
func (b *bench) round(traced bool) []callResult {
	out := make([]callResult, 0, len(b.spec.protos))
	for _, p := range b.spec.protos {
		c := b.call(p, traced, false)
		out = append(out, c)
		b.calls = append(b.calls, c)
	}
	return out
}

// measure makes rounds until the next one would overrun the budget. A
// traced run alternates untraced and traced rounds, so drift on the host
// hits both alike; it makes at least one of each.
func (b *bench) measure(budget time.Duration) (untraced, traced [][]callResult) {
	start := time.Now()
	steal0, total0 := cpuTicks()
	defer func() {
		steal1, total1 := cpuTicks()
		b.stealPct = 100 * ratio(float64(steal1-steal0), float64(total1-total0))
	}()
	var prev, last time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		if b.rec != nil && i%2 == 1 {
			traced = append(traced, b.round(true))
		} else {
			untraced = append(untraced, b.round(false))
		}
		prev, last = last, time.Since(t0)
		if b.between != nil {
			b.between(time.Since(start))
		}
		enough := len(untraced) > 0 && (b.rec == nil || len(traced) > 0)
		if enough && time.Since(start)+max(prev, last) > budget {
			return untraced, traced
		}
	}
}

// call makes one call into the program. Like testing.B, it collects the
// heap first, so no call pays for garbage an earlier one left.
func (b *bench) call(p proto, traced, warm bool) callResult {
	runtime.GC()
	if b.spec.des != nil {
		return b.desCall(p, traced, warm)
	}
	return b.liveCall(p, traced, warm)
}

// boundary reads the counters a call's span carries.
func boundary(traced bool) snapshot {
	if traced {
		return fullSnapshot()
	}
	return memSnapshot()
}

func (b *bench) desCall(p proto, traced, warm bool) callResult {
	cfg := b.spec.des(p, b.seed)
	if warm {
		cfg.TargetCommits, cfg.WarmupCommits = desWarmTarget, desWarmTarget/10
	}
	c := callResult{proto: p.name, sim: true, target: int64(cfg.TargetCommits + cfg.WarmupCommits)}
	id := 0
	if traced {
		cfg.RecordHistory = true
		c.labels = newLabelTracer(b.rec.now)
		cfg.Tracer = c.labels
		id = b.rec.begin(b.root, "engine.Run", p.name)
	}
	// The DES is single-threaded: its goroutine count is not sampled.
	smp := startSampler(false)
	before := boundary(traced)
	t0, cpu0 := time.Now(), cpuTime()
	if c.labels != nil {
		c.labels.start()
	}
	res, err := engine.Run(cfg)
	if c.labels != nil {
		c.labels.finish()
	}
	c.wall, c.cpu = time.Since(t0), cpuTime()-cpu0
	c.mem = before.to(boundary(traced))
	_, c.rssMB = smp.stop()
	c.des = res
	if err != nil {
		c.failed = append(c.failed, fmt.Sprintf("engine.Run: %v", err))
	} else {
		c.commits = res.Commits + int64(cfg.WarmupCommits)
		c.failed = append(c.failed, checkDES(cfg, res)...)
		if !warm {
			c.failed = append(c.failed, b.checkDeterministic(p.name, res)...)
		}
	}
	if traced {
		b.rec.end(id, &c.mem, map[string]float64{
			"commits": float64(c.commits), "events": float64(res.Events),
			"messages": float64(res.Messages), "scheduled": float64(c.labels.scheduled),
			"cancelled": float64(c.labels.cancelled),
		})
		b.rec.events(id, p.name, c.labels)
		if err == nil {
			b.serialCheck(&c, p.name, res.History)
		}
	}
	return c
}

// checkDES checks one DES run's outputs: it reached its commit target.
func checkDES(cfg engine.Config, res engine.Result) []string {
	if res.Commits != int64(cfg.TargetCommits) {
		return []string{fmt.Sprintf("%v: %d commits, want %d", cfg.Protocol, res.Commits, cfg.TargetCommits)}
	}
	return nil
}

// checkDeterministic pins resp_ticks: timed and traced calls with the
// same seed must produce the same mean response time, bit for bit.
func (b *bench) checkDeterministic(name string, res engine.Result) []string {
	bits := math.Float64bits(res.Response.Mean())
	first, seen := b.resp[name]
	if !seen {
		b.resp[name] = bits
		return nil
	}
	if bits != first {
		return []string{fmt.Sprintf("resp_ticks.%s changed between calls: %v then %v",
			name, math.Float64frombits(first), res.Response.Mean())}
	}
	return nil
}

func (b *bench) liveCall(p proto, traced, warm bool) callResult {
	cfg := b.spec.live(p, b.seed)
	if warm {
		// Warm-up runs the code paths, not the link latency: waiting on
		// it would make set-up time measure the host's timers.
		cfg.TxnsPerClient, cfg.Latency = warmTxns, 0
	}
	c := callResult{proto: p.name, target: int64(cfg.Clients * cfg.TxnsPerClient)}
	base := runtime.NumGoroutine()
	id := 0
	if traced {
		id = b.rec.begin(b.root, "live.Run", p.name)
	}
	smp := startSampler(traced)
	before := boundary(traced)
	t0, cpu0 := time.Now(), cpuTime()
	res, err := live.Run(cfg)
	c.wall, c.cpu = time.Since(t0), cpuTime()-cpu0
	c.mem = before.to(boundary(traced))
	c.peakG, c.rssMB = smp.stop()
	c.failed = checkLive(cfg, res, err)
	if err == nil {
		c.live = res.Stats
		c.commits = res.Stats.Commits
	}
	if traced {
		b.rec.end(id, &c.mem, liveCounters(c.live))
	}
	if n := settle(base); n > base {
		c.failed = append(c.failed, fmt.Sprintf("%d goroutines after live.Run, %d before", n, base))
	}
	if err == nil {
		if traced {
			b.serialCheck(&c, p.name, res.History)
		} else if err := serial.Check(res.History); err != nil {
			c.failed = append(c.failed, fmt.Sprintf("serial.Check: %v", err))
		}
	}
	return c
}

// checkLive checks one live run's outputs other than serializability:
// no error, every client at its target, and on a bank run the balance
// sum conserved.
func checkLive(cfg live.Config, res *live.Result, err error) []string {
	if err != nil {
		return []string{fmt.Sprintf("live.Run: %v", err)}
	}
	var failed []string
	if want := int64(cfg.Clients * cfg.TxnsPerClient); res.Stats.Commits != want {
		failed = append(failed, fmt.Sprintf("%d commits, want %d", res.Stats.Commits, want))
	}
	if cfg.Bank {
		var sum int64
		for _, v := range res.Values {
			sum += v
		}
		if want := int64(cfg.Workload.Items) * cfg.InitialBalance; sum != want {
			failed = append(failed, fmt.Sprintf("balance sum %d, want %d", sum, want))
		}
	}
	return failed
}

// serialCheck runs the serializability oracle, outside the timed
// region, in its own span.
func (b *bench) serialCheck(c *callResult, proto string, log *history.Log) {
	id := b.rec.begin(b.root, "serial.Check", proto)
	before := fullSnapshot()
	t0 := time.Now()
	err := serial.Check(log)
	c.checkNs = int64(time.Since(t0))
	d := before.to(fullSnapshot())
	b.rec.end(id, &d, map[string]float64{"commits": float64(len(log.Committed()))})
	if err != nil {
		c.failed = append(c.failed, fmt.Sprintf("serial.Check: %v", err))
	}
}

// liveCounters is the subset of live.Stats a live.Run span carries.
func liveCounters(st live.Stats) map[string]float64 {
	return map[string]float64{
		"commits": float64(st.Commits), "aborts": float64(st.Aborts),
		"messages": float64(st.Messages), "deadlock_aborts": float64(st.Causes.Deadlock),
		"retransmits": float64(st.Retransmits), "acks_sent": float64(st.AcksSent),
		"acks_piggybacked": float64(st.AcksPiggybacked), "dropped": float64(st.Dropped),
		"wal_appends": float64(st.WALAppends), "wal_checkpoints": float64(st.WALCheckpoints),
		"wal_truncated": float64(st.WALTruncated), "prepares": float64(st.TwoPC.Prepares),
		"one_phase": float64(st.TwoPC.OnePhase), "votes_no": float64(st.TwoPC.VotesNo),
	}
}

// settle waits up to a second for the goroutine count to fall back to
// base — live.Run joins its sites before returning, so it should already
// have — and returns the last count seen.
func settle(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > base; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// sampler polls the process while a call runs: its resident set every
// 5 ms and, in traced calls, its goroutine count every 200 µs.
type sampler struct {
	goroutines bool
	peakG      atomic.Int64
	peakRSS    atomic.Int64 // bytes
	done       chan struct{}
	wg         sync.WaitGroup
}

const memPeriod = 5 * time.Millisecond

func startSampler(goroutines bool) *sampler {
	s := &sampler{goroutines: goroutines, done: make(chan struct{})}
	period := memPeriod
	if goroutines {
		period = 200 * time.Microsecond
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		var lastMem time.Time
		for {
			if s.goroutines {
				s.peakG.Store(max(s.peakG.Load(), int64(runtime.NumGoroutine())))
			}
			if now := time.Now(); now.Sub(lastMem) >= memPeriod {
				s.sampleMemory()
				lastMem = now
			}
			select {
			case <-s.done:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) sampleMemory() { s.peakRSS.Store(max(s.peakRSS.Load(), residentBytes())) }

// stop ends sampling, takes a last memory sample, waits for the sampler
// to exit and returns the peaks; the goroutine peak, 0 when not sampled,
// does not count the sampler itself.
func (s *sampler) stop() (goroutines int, rssMB float64) {
	close(s.done)
	s.wg.Wait()
	s.sampleMemory()
	if s.goroutines {
		goroutines = int(s.peakG.Load()) - 1
	}
	return goroutines, float64(s.peakRSS.Load()) / (1 << 20)
}
