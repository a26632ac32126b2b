package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"text/tabwriter"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // worsening allowed, as a share of the baseline median
}

// specFile holds the bounds; compare runs from the repository root.
const specFile = "BENCHMARK.json"

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []bound `json:"end_to_end"`
}

// resultSet is the untraced results of one results file: the values of
// each metric per workload, and every host they were measured on.
type resultSet struct {
	values map[string]map[string][]float64 // workload → metric → one value per run
	hosts  []hostStamp
	failed int // runs whose checks failed; their values are left out
}

// loadResults reads a file of concatenated run outputs: each result line
// follows the stamp line naming its workload.
func loadResults(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return resultSet{}, err
	}
	defer f.Close()
	rs := resultSet{values: map[string]map[string][]float64{}}
	var cur *stamp
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Stamp   *stamp            `json:"stamp"`
			Correct *bool             `json:"correct"`
			Metrics map[string]metric `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // build or diagnostic output
		}
		switch {
		case line.Stamp != nil:
			cur = line.Stamp
			rs.hosts = append(rs.hosts, cur.Host)
		case line.Correct != nil && cur != nil && cur.Trace == 0:
			if !*line.Correct {
				rs.failed++
				continue
			}
			m := rs.values[cur.Workload]
			if m == nil {
				m = map[string][]float64{}
				rs.values[cur.Workload] = m
			}
			for name, v := range line.Metrics {
				m[name] = append(m[name], v.Value)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return resultSet{}, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// hostDiffs lists the host fields that differ between two result sets;
// a commit or sleep overshoot may differ, the machine and toolchain not.
func hostDiffs(a, b []hostStamp) []string {
	key := func(h hostStamp) string {
		return fmt.Sprintf("cpu %q, nproc %d, GOMAXPROCS %d, %s", h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion)
	}
	seen := map[string]bool{}
	for _, h := range append(slices.Clone(a), b...) {
		seen[key(h)] = true
	}
	if len(seen) < 2 {
		return nil
	}
	return slices.Sorted(maps.Keys(seen))
}

// verdict classifies a metric's change from base to next runs against
// its bound. A worsening beyond the bound is "worse" and an improvement
// beyond it "better"; a smaller change is "unchanged". When either side
// spreads wider than the bound the change is "unresolved", unless every
// next run reads better than every base run. change is the relative
// change of the medians, positive when the metric got better.
func verdict(base, next []float64, b bound) (v string, change float64) {
	mb, mn := median(base), median(next)
	change = ratio(mn-mb, mb)
	if b.Better == "lower" {
		change = -change
	}
	if len(base) == 0 || len(next) == 0 {
		return "unresolved", change
	}
	better := func(x, y float64) bool { return (b.Better == "lower") == (x < y) && x != y }
	allBetter := true
	for _, x := range next {
		for _, y := range base {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case max(relSpread(base), relSpread(next)) > b.Bound:
		if allBetter {
			return "better", change
		}
		return "unresolved", change
	case change < -b.Bound:
		return "worse", change
	case change > b.Bound:
		return "better", change
	}
	return "unchanged", change
}

// compareMain prints one row per workload × end-to-end metric and exits
// 1 if any metric got worse beyond its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: latbench compare base.jsonl next.jsonl")
		return 2
	}
	data, err := os.ReadFile(specFile)
	if err != nil {
		fmt.Fprintf(stderr, "latbench: %v\n", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintf(stderr, "latbench: %s: %v\n", specFile, err)
		return 2
	}
	base, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "latbench: %v\n", err)
		return 2
	}
	next, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "latbench: %v\n", err)
		return 2
	}
	if d := hostDiffs(base.hosts, next.hosts); d != nil {
		fmt.Fprintln(stdout, "WARNING: results come from different hosts:")
		for _, h := range d {
			fmt.Fprintln(stdout, "  "+h)
		}
	}
	if base.failed+next.failed > 0 {
		fmt.Fprintf(stdout, "WARNING: %d base and %d next runs failed their checks and are left out\n", base.failed, next.failed)
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tnext median\tchange\tbound\tverdict")
	worse := false
	workloads := slices.Sorted(maps.Keys(base.values))
	for w := range next.values {
		if base.values[w] == nil {
			workloads = append(workloads, w)
		}
	}
	for _, w := range workloads {
		for _, b := range bf.EndToEnd {
			bv, nv := base.values[w][b.Name], next.values[w][b.Name]
			v, change := verdict(bv, nv, b)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.0f%%\t%s\n",
				w, b.Name, median(bv), b.Unit, median(nv), b.Unit, 100*change, 100*b.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "latbench: %v\n", err)
		return 2
	}
	if worse {
		return 1
	}
	return 0
}
