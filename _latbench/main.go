// Command latbench is the repository's benchmark. It runs one named
// workload on the DES engines or the live cluster for a fixed time,
// checks every output, and prints the end-to-end metrics — or, traced,
// the per-layer metrics — as the last line of its output. The compare
// subcommand sets two sets of results against the bounds in
// BENCHMARK.json. README.md describes the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash _latbench/run.sh --workload live-2pc --seed 1 --seconds 40 --trace 0
//	bash _latbench/run.sh compare old.jsonl new.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// setupProbes is how many fresh processes time the set-up; setup_s is
// their median.
const setupProbes = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("latbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: des-paper, live-2pc or live-wan")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	probe := fs.Bool("setup-probe", false, "set up, report readiness and exit (used to time set-up)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := lookup(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "latbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if *probe {
		b := newBench(sp, *seed, false)
		b.warmUp()
		if n, _ := tally(b.calls); n > 0 {
			fmt.Fprintf(stderr, "latbench: warm-up failed: %v\n", firstFailure(b.calls))
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}

	b := newBench(sp, *seed, *trace == 1)
	b.warmUp()
	// The set-up probes are spread over the measuring time, so setup_s
	// samples the host's slow and fast stretches as the rounds do.
	setup := newSetupTimer(sp.name, *seed)
	budget := time.Duration(*seconds * float64(time.Second))
	b.between = func(elapsed time.Duration) { setup.upTo(int(setupProbes * elapsed / budget)) }
	untraced, traced := b.measure(budget)
	setupS, err := setup.median()
	if err != nil {
		fmt.Fprintf(stderr, "latbench: %v\n", err)
		return 1
	}
	host := stampHost()

	var values map[string]float64
	units := endToEndUnits
	if *trace == 1 {
		values, units = perLayer(untraced, traced, host.SleepOvershootUs, b.stealPct), perLayerUnits()
	} else {
		values = endToEnd(untraced, sp.clock, setupS)
	}
	failed, attempted := tally(b.calls)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: withUnits(values, units)}
	if f := firstFailure(b.calls); f != "" {
		fmt.Fprintf(stderr, "latbench: check failed: %s\n", f)
	}
	if b.rec != nil {
		b.rec.end(b.root, nil, map[string]float64{"attempted": float64(attempted), "failed": float64(failed)})
		if err := writeSpans(b.rec, sp.name, *seed); err != nil {
			fmt.Fprintf(stderr, "latbench: writing spans: %v\n", err)
		}
	}
	st := stamp{Workload: sp.name, Seed: *seed, Trace: *trace, Seconds: *seconds,
		Rounds: len(untraced) + len(traced), Samples: samples(untraced, traced), Host: host}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]stamp{"stamp": st}); err != nil {
		fmt.Fprintf(stderr, "latbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "latbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp is the line before the result: what ran, where, and the sample
// size behind each protocol's latency percentiles (commits per call).
type stamp struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Trace    int              `json:"trace"`
	Seconds  float64          `json:"seconds"`
	Rounds   int              `json:"rounds"`
	Samples  map[string]int64 `json:"samples"`
	Host     hostStamp        `json:"host"`
}

func samples(rounds ...[][]callResult) map[string]int64 {
	m := map[string]int64{}
	for _, rs := range rounds {
		for _, r := range rs {
			for _, c := range r {
				m[c.proto] = c.commits
				if c.sim {
					m[c.proto] = c.des.RespSample.N()
				}
			}
		}
	}
	return m
}

// tally counts the operations attempted over every call, and those of
// calls that errored or failed a check as failed.
func tally(calls []callResult) (failed, attempted int64) {
	for _, c := range calls {
		attempted += c.target
		if len(c.failed) > 0 {
			failed += c.target
		}
	}
	return failed, attempted
}

func firstFailure(calls []callResult) string {
	for _, c := range calls {
		if len(c.failed) > 0 {
			return c.proto + ": " + c.failed[0]
		}
	}
	return ""
}

// setupTimer times the set-up in fresh processes of this binary: the CPU
// time each spends before reporting that the first timed call could
// begin, which covers process start, package initialisation,
// configuration and the warm-up calls. CPU time, not wall time, because
// on a shared host a process this short gains or loses much of its wall
// time to stolen CPU, and live-wan's warm-up waits on its links' latency
// and retransmission timers.
type setupTimer struct {
	self  string
	args  []string
	times []float64 // seconds, one per probe
	err   error     // the first failure; no probe runs after it
}

func newSetupTimer(workload string, seed uint64) *setupTimer {
	self, err := os.Executable()
	return &setupTimer{self: self, err: err,
		args: []string{"-setup-probe", "-workload", workload, "-seed", strconv.FormatUint(seed, 10)}}
}

// upTo runs probes one after another until n have run.
func (t *setupTimer) upTo(n int) {
	for t.err == nil && len(t.times) < n {
		cmd := exec.Command(t.self, t.args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil || string(out) != "ready\n" {
			t.err = fmt.Errorf("set-up probe failed: %v", err)
			return
		}
		t.times = append(t.times, (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds())
	}
}

// median runs the probes still missing of setupProbes and returns the
// median of their CPU times, in seconds.
func (t *setupTimer) median() (float64, error) {
	t.upTo(setupProbes)
	if t.err != nil {
		return 0, fmt.Errorf("timing set-up: %w", t.err)
	}
	return median(t.times), nil
}

// writeSpans stores a traced run's spans beside the build output.
func writeSpans(rec *recorder, workload string, seed uint64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return rec.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)))
}
