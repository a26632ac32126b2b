package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/live"
	"repro/internal/sim"
	"repro/internal/stats"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestRelSpread(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (7.75 - 3.25) / 5.5},
		{[]float64{4, 4, 4}, 0},
		{[]float64{0, 0, 0}, 0},
		{nil, 0},
	} {
		if got := relSpread(tc.xs); !near(got, tc.want) {
			t.Errorf("relSpread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestHistogramDeltaAndQuantile(t *testing.T) {
	buckets := []float64{math.Inf(-1), 0, 1e-6, 1e-5, 1e-4, math.Inf(1)}
	before := histogram{Counts: []uint64{0, 5, 5, 0, 1}, Buckets: buckets}
	after := histogram{Counts: []uint64{0, 15, 95, 0, 2}, Buckets: buckets}
	d := histDelta(before, after)
	want := []uint64{0, 10, 90, 0, 1}
	for i := range want {
		if d.Counts[i] != want[i] {
			t.Fatalf("delta counts = %v, want %v", d.Counts, want)
		}
	}
	// 101 samples: the median (rank 50.5) falls in [1µs, 10µs), 40.5
	// samples into its 90.
	if got, w := d.quantile(0.5), 1e-6+9e-6*40.5/90; !near(got, w) {
		t.Errorf("p50 = %v, want %v", got, w)
	}
	// The top sample sits in [1e-4, +Inf), which collapses to its edge.
	if got := d.quantile(0.999); !near(got, 1e-4) {
		t.Errorf("p99.9 = %v, want 1e-4", got)
	}
	if got := histDelta(histogram{}, before); got.Counts[1] != 5 {
		t.Errorf("delta from empty = %v, want before itself", got.Counts)
	}
	if got := (histogram{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	var sum delta
	sum.add(delta{Sched: d})
	sum.add(delta{Sched: d})
	if sum.Sched.Counts[2] != 180 || d.Counts[2] != 90 {
		t.Errorf("add: summed %v, operand %v", sum.Sched.Counts, d.Counts)
	}
}

// A synthetic tracer stream: each fire's interval goes to the previous
// event's label, the prelude to engine.setup, the tail to the last one.
func TestLabelSelfTimeAttribution(t *testing.T) {
	var now int64
	lt := newLabelTracer(func() int64 { return now })
	lt.start()
	step := func(dt int64, a sim.TraceAction, label string) {
		now += dt
		lt.Trace(a, 0, 0, 0, label)
	}
	step(10, sim.TraceSchedule, "a")
	step(0, sim.TraceFire, "a") // prelude: 10
	step(3, sim.TraceSchedule, "b")
	step(2, sim.TraceFire, "b")   // a: 5
	step(4, sim.TraceCancel, "x") // cancels do not end an interval
	step(11, sim.TraceFire, "a")  // b: 15
	now += 2
	lt.finish() // a: +2
	want := map[string]int64{preludeLabel: 10, "a": 7, "b": 15}
	for l, ns := range want {
		if lt.selfNs[l] != ns {
			t.Errorf("self[%s] = %d, want %d (all %v)", l, lt.selfNs[l], ns, lt.selfNs)
		}
	}
	if lt.fires["a"] != 2 || lt.fires["b"] != 1 || lt.scheduled != 2 || lt.cancelled != 1 {
		t.Errorf("fires %v scheduled %d cancelled %d", lt.fires, lt.scheduled, lt.cancelled)
	}
	rec := &recorder{t0: time.Now()}
	id := rec.begin(0, "engine.Run", "s2pl")
	rec.end(id, nil, nil)
	rec.events(id, "s2pl", lt)
	if n := len(rec.spans); n != 4 || rec.spans[1].Label != "a" || rec.spans[1].SelfNs != 7 || rec.spans[1].Count != 2 || rec.spans[1].Parent != id {
		t.Errorf("event spans = %+v", rec.spans)
	}
}

// A planted wrong bank sum fails the check, and tally then counts the
// whole call as failed.
func TestPlantedBankSumFailsRun(t *testing.T) {
	cfg := live2PC(s2pl, 3)
	cfg.TxnsPerClient = 2
	res, err := live.Run(cfg)
	if f := checkLive(cfg, res, err); len(f) != 0 {
		t.Fatalf("clean run failed its checks: %v", f)
	}
	for item := range res.Values {
		res.Values[item]++
		break
	}
	f := checkLive(cfg, res, nil)
	if len(f) != 1 || !strings.Contains(f[0], "balance sum") {
		t.Fatalf("planted bank sum: failures %v, want one balance-sum failure", f)
	}
	calls := []callResult{{target: 32}, {target: 32, failed: f}}
	if failed, attempted := tally(calls); failed != 32 || attempted != 64 {
		t.Errorf("tally = %d failed of %d, want 32 of 64", failed, attempted)
	}
	if got := checkLive(cfg, nil, os.ErrDeadlineExceeded); len(got) != 1 {
		t.Errorf("run error: failures %v, want one", got)
	}
}

func TestDESDeterminismCheck(t *testing.T) {
	b := newBench(specs[0], 1, false)
	var r engine.Result
	r.Response.Add(10)
	if f := b.checkDeterministic("s2pl", r); f != nil {
		t.Fatalf("first call: %v", f)
	}
	if f := b.checkDeterministic("s2pl", r); f != nil {
		t.Fatalf("same response: %v", f)
	}
	r.Response.Add(11)
	if f := b.checkDeterministic("s2pl", r); len(f) != 1 {
		t.Fatalf("changed response: failures %v, want one", f)
	}
}

func TestEndToEndDerivation(t *testing.T) {
	call := func(p string, commits int64, cpu time.Duration, p50, p99 time.Duration, allocs float64) callResult {
		return callResult{proto: p, commits: commits, wall: 2 * cpu, cpu: cpu, rssMB: float64(cpu / time.Second),
			live: live.Stats{P50: p50, P99: p99}, mem: delta{Allocs: allocs, Bytes: 10 * allocs}}
	}
	rounds := [][]callResult{
		{call("s2pl", 1000, time.Second, 100*time.Microsecond, time.Millisecond, 1e5), call("g2pl", 1000, time.Second, 300*time.Microsecond, 3*time.Millisecond, 3e5)},
		{call("s2pl", 1000, 2*time.Second, 100*time.Microsecond, time.Millisecond, 1e5), call("g2pl", 1000, 2*time.Second, 300*time.Microsecond, 3*time.Millisecond, 3e5)},
		{call("s2pl", 1000, 4*time.Second, 100*time.Microsecond, time.Millisecond, 1e5), call("g2pl", 1000, 4*time.Second, 300*time.Microsecond, 3*time.Millisecond, 3e5)},
	}
	if got := endToEnd(rounds, wallOf, 0.5)["commits_per_s"]; !near(got, 250) {
		t.Errorf("commits_per_s by wall time = %v, want 250", got)
	}
	v := endToEnd(rounds, cpuOf, 0.5)
	want := map[string]float64{
		"commits_per_s":     500, // round rates by CPU time 1000, 500, 250
		"commit_p50_us":     200, // protocols weigh equally
		"allocs_per_commit": 200,
		"bytes_per_commit":  2000,
		"setup_s":           0.5,
	}
	for k, w := range want {
		if !near(v[k], w) {
			t.Errorf("%s = %v, want %v", k, v[k], w)
		}
	}
	if len(v) != len(endToEndUnits) {
		t.Errorf("endToEnd gives %d metrics, catalog has %d", len(v), len(endToEndUnits))
	}
}

func TestLiveLayerRatios(t *testing.T) {
	st := live.Stats{Commits: 100, Aborts: 25, Messages: 800, MeanBlocked: 50 * time.Microsecond,
		Causes: stats.AbortCauses{Deadlock: 20}, WALAppends: 300, WALCheckpoints: 2, WALTruncated: 128,
		Retransmits: 5, AcksSent: 30, AcksPiggybacked: 90, Dropped: 4, MaxRTO: 20 * time.Millisecond,
		TwoPC: stats.TwoPC{Prepares: 120, VotesYes: 110, VotesNo: 10, Commits: 100, OnePhase: 40}}
	c := callResult{proto: "s2pl", commits: 100, wall: time.Second, cpu: time.Second / 2, rssMB: 12, live: st, mem: delta{Allocs: 9000}}
	v := perLayer([][]callResult{{c}}, [][]callResult{{c}}, 900, 3)
	want := map[string]float64{
		"live.s2pl.commits_per_s":                   100,
		"live.s2pl.allocs_per_commit":               90,
		"transport.s2pl.msgs_per_commit":            8,
		"protocol.s2pl.commit_ratio":                0.8,
		"protocol.s2pl.blocked_us":                  50,
		"protocol.s2pl.deadlock_aborts_per_kcommit": 200,
		"twopc.prepares_per_commit":                 1.2,
		"twopc.one_phase_ratio":                     0.4,
		"twopc.vote_no_ratio":                       10.0 / 120,
		"wal.appends_per_commit":                    3,
		"wal.checkpoints_per_kcommit":               20,
		"wal.truncated_per_commit":                  1.28,
		"arq.retransmits_per_commit":                0.05,
		"arq.acks_per_commit":                       0.3,
		"arq.piggyback_ratio":                       0.75,
		"arq.max_rto_ms":                            20,
		"chaos.dropped_per_commit":                  0.04,
		"host.sleep_overshoot_us":                   900,
		"peak_rss_mb":                               12,
		"host.steal_pct":                            3,
		"commits_per_wall_s":                        100,
		"commits_per_cpu_s":                         200,
		"live.g2pl.commits_per_s":                   0, // not run
		"trace.overhead_pct":                        0,
	}
	for k, w := range want {
		if !near(v[k], w) {
			t.Errorf("%s = %v, want %v", k, v[k], w)
		}
	}
	if len(v) != len(perLayerUnits()) {
		t.Errorf("perLayer gives %d metrics, catalog has %d", len(v), len(perLayerUnits()))
	}
}

func TestVerdict(t *testing.T) {
	lower := bound{Name: "commit_p50_us", Better: "lower", Bound: 0.1}
	higher := bound{Name: "commits_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		base, next []float64
		b          bound
		want       string
	}{
		{steady, []float64{100, 102, 98, 101, 99}, lower, "unchanged"},
		{steady, []float64{120, 121, 119, 120, 120}, lower, "worse"},
		{steady, []float64{120, 121, 119, 120, 120}, higher, "better"},
		{steady, []float64{80, 81, 79, 80, 80}, lower, "better"},
		{steady, []float64{60, 140, 100, 70, 130}, lower, "unresolved"},
		{[]float64{100, 200, 150, 120, 180}, []float64{90, 95, 92, 91, 93}, lower, "better"},
		{steady, nil, lower, "unresolved"},
	} {
		if got, _ := verdict(tc.base, tc.next, tc.b); got != tc.want {
			t.Errorf("verdict(%v → %v, %s better) = %s, want %s", tc.base, tc.next, tc.b.Better, got, tc.want)
		}
	}
}

// BENCHMARK.json must name exactly the metrics and workloads the
// benchmark prints and runs, with the same units.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []bound                 `json:"end_to_end"`
		PerLayer  []bound                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, listed []bound, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, benchmark unit %q (known %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEndUnits)
	same("per_layer", bf.PerLayer, perLayerUnits())
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the benchmark", i, w.Name, specs[i].name)
		}
	}
}
