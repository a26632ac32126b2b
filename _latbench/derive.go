package main

import (
	"fmt"
	"time"
)

// metric is one named value as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits names every end-to-end metric and its unit. Every
// workload prints all of them (README.md gives their definitions).
var endToEndUnits = map[string]string{
	"commits_per_s":     "1/s",
	"commit_p50_us":     "us",
	"allocs_per_commit": "count",
	"bytes_per_commit":  "B",
	"setup_s":           "s",
}

// desLabels are the DES event labels that take at least 1 % of a traced
// des-paper run; the rest of each protocol's event time, and the
// engine's own set-up before the first event, is reported as
// des.<proto>.other.
var desLabels = []string{
	"s2pl.begin", "s2pl.req", "s2pl.grant", "s2pl.think", "s2pl.commit", "s2pl.release", "s2pl.abort", "s2pl.abortrel",
	"g2pl.begin", "g2pl.req", "g2pl.data", "g2pl.think", "g2pl.commit", "g2pl.release", "g2pl.return", "g2pl.abort",
	"c2pl.begin", "c2pl.req", "c2pl.grant", "c2pl.think", "c2pl.commit", "c2pl.finish", "c2pl.recall", "c2pl.defer", "c2pl.abort",
}

// perLayerUnits names every per-layer metric and its unit. A traced run
// prints all of them; a layer the workload does not run reads 0.
func perLayerUnits() map[string]string {
	m := map[string]string{
		"commits_per_wall_s":               "1/s",
		"commits_per_cpu_s":                "1/cpu-s",
		"commit_p99_us":                    "us",
		"peak_rss_mb":                      "MB",
		"host.steal_pct":                   "%",
		"sim.events_per_commit":            "count",
		"sim.ns_per_event":                 "ns",
		"sim.cancel_ratio":                 "ratio",
		"des.g2pl.window_len":              "count",
		"runtime.mutex_wait_us_per_commit": "us",
		"runtime.sched_wait_p50_us":        "us",
		"runtime.sched_wait_p99_us":        "us",
		"runtime.goroutines_peak":          "count",
		"runtime.gc_cpu_fraction":          "ratio",
		"runtime.gc_cycles_per_kcommit":    "count",
		"serial.check_ns_per_commit":       "ns",
		"twopc.prepares_per_commit":        "count",
		"twopc.one_phase_ratio":            "ratio",
		"twopc.vote_no_ratio":              "ratio",
		"wal.appends_per_commit":           "count",
		"wal.checkpoints_per_kcommit":      "count",
		"wal.truncated_per_commit":         "count",
		"arq.retransmits_per_commit":       "count",
		"arq.acks_per_commit":              "count",
		"arq.piggyback_ratio":              "ratio",
		"arq.max_rto_ms":                   "ms",
		"chaos.dropped_per_commit":         "count",
		"host.sleep_overshoot_us":          "us",
		"trace.overhead_pct":               "%",
	}
	for _, p := range allProtos {
		n := p.name
		m["resp_ticks."+n] = "ticks"
		m["des."+n+".resp_p99_ticks"] = "ticks"
		m["des."+n+".commits_per_s"] = "1/s"
		m["des."+n+".abort_ratio"] = "ratio"
		m["des."+n+".other.self_ns_per_commit"] = "ns"
		m["netmodel."+n+".msgs_per_commit"] = "count"
		m["netmodel."+n+".bytes_per_commit"] = "units"
		m["live."+n+".commits_per_s"] = "1/s"
		m["live."+n+".p50_us"] = "us"
		m["live."+n+".p99_us"] = "us"
		m["live."+n+".allocs_per_commit"] = "count"
		m["transport."+n+".msgs_per_commit"] = "count"
		m["protocol."+n+".commit_ratio"] = "ratio"
		m["protocol."+n+".blocked_us"] = "us"
		m["protocol."+n+".deadlock_aborts_per_kcommit"] = "count"
	}
	for _, l := range desLabels {
		m["des."+l+".self_ns_per_commit"] = "ns"
	}
	return m
}

// withUnits pairs each value with its unit from units, which must name
// every value.
func withUnits(values map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(values))
	for name, v := range values {
		u, ok := units[name]
		if !ok {
			panic(fmt.Sprintf("metric %q has no unit", name))
		}
		out[name] = metric{Value: v, Unit: u}
	}
	return out
}

func wallOf(c callResult) time.Duration { return c.wall }
func cpuOf(c callResult) time.Duration  { return c.cpu }

// roundRate is a round's commits over the summed time its calls took on
// the given clock: wall time, or the process's CPU time.
func roundRate(r []callResult, clock func(callResult) time.Duration) float64 {
	var commits float64
	var took time.Duration
	for _, c := range r {
		commits += float64(c.commits)
		took += clock(c)
	}
	return ratio(commits, took.Seconds())
}

// medianRate is the median of the rounds' commit rates.
func medianRate(rounds [][]callResult, clock func(callResult) time.Duration) float64 {
	rates := make([]float64, len(rounds))
	for i, r := range rounds {
		rates[i] = roundRate(r, clock)
	}
	return median(rates)
}

// medianLatency is the median over rounds of a latency percentile
// averaged over each round's protocols, which weigh equally.
func medianLatency(rounds [][]callResult, pct func(callResult) float64) float64 {
	lat := make([]float64, len(rounds))
	for i, r := range rounds {
		for _, c := range r {
			lat[i] += pct(c) / float64(len(r))
		}
	}
	return median(lat)
}

// medianRSS is the median over calls of each call's resident-set peak:
// the process-wide high-water mark is set by the one call whose collector
// fell furthest behind.
func medianRSS(rounds [][]callResult) float64 {
	var xs []float64
	for _, r := range rounds {
		for _, c := range r {
			xs = append(xs, c.rssMB)
		}
	}
	return median(xs)
}

// endToEnd derives the end-to-end metrics from untraced rounds. The
// throughput divides by the workload's clock (see spec.clock); the
// per-layer metrics give it by both clocks. Allocation counts are totals
// over totals.
func endToEnd(rounds [][]callResult, clock func(callResult) time.Duration, setupS float64) map[string]float64 {
	var allocs, bytes, commits float64
	for _, r := range rounds {
		for _, c := range r {
			allocs += c.mem.Allocs
			bytes += c.mem.Bytes
			commits += float64(c.commits)
		}
	}
	return map[string]float64{
		"commits_per_s":     medianRate(rounds, clock),
		"commit_p50_us":     medianLatency(rounds, callResult.p50us),
		"allocs_per_commit": ratio(allocs, commits),
		"bytes_per_commit":  ratio(bytes, commits),
		"setup_s":           setupS,
	}
}

// perLayer derives the per-layer metrics of a traced run. Counters and
// per-protocol figures come from the traced calls; the throughput by
// either clock, the p99, the DES kernel's speed and the tracing overhead
// use the run's untraced rounds, since a per-event tracer slows the
// kernel it times.
func perLayer(untraced, traced [][]callResult, overshootUs, stealPct float64) map[string]float64 {
	v := map[string]float64{}
	for name := range perLayerUnits() {
		v[name] = 0
	}
	v["commits_per_wall_s"] = medianRate(untraced, wallOf)
	v["commits_per_cpu_s"] = medianRate(untraced, cpuOf)
	v["commit_p99_us"] = medianLatency(untraced, callResult.p99us)
	v["peak_rss_mb"] = medianRSS(untraced)
	v["host.sleep_overshoot_us"] = overshootUs
	v["host.steal_pct"] = stealPct
	v["trace.overhead_pct"] = 100 * (ratio(medianRate(untraced, cpuOf), medianRate(traced, cpuOf)) - 1)

	var all delta
	var commits, checkNs float64
	peak := 0
	for _, r := range traced {
		for _, c := range r {
			all.add(c.mem)
			commits += float64(c.commits)
			checkNs += float64(c.checkNs)
			peak = max(peak, c.peakG)
		}
	}
	v["runtime.mutex_wait_us_per_commit"] = ratio(all.MutexWait*1e6, commits)
	v["runtime.sched_wait_p50_us"] = all.Sched.quantile(0.50) * 1e6
	v["runtime.sched_wait_p99_us"] = all.Sched.quantile(0.99) * 1e6
	v["runtime.goroutines_peak"] = float64(peak)
	v["runtime.gc_cpu_fraction"] = ratio(all.GCCPU, all.TotalCPU)
	v["runtime.gc_cycles_per_kcommit"] = ratio(1000*all.GCCycles, commits)
	v["serial.check_ns_per_commit"] = ratio(checkNs, commits)

	if len(traced) > 0 && len(traced[0]) > 0 && traced[0][0].sim {
		desLayers(v, untraced, traced)
	} else {
		liveLayers(v, traced)
	}
	return v
}

// byProto groups the calls of some rounds by protocol.
func byProto(rounds [][]callResult) map[string][]callResult {
	m := map[string][]callResult{}
	for _, r := range rounds {
		for _, c := range r {
			m[c.proto] = append(m[c.proto], c)
		}
	}
	return m
}

// callRate is the median over calls of commits per wall second.
func callRate(calls []callResult) float64 {
	rates := make([]float64, len(calls))
	for i, c := range calls {
		rates[i] = ratio(float64(c.commits), c.wall.Seconds())
	}
	return median(rates)
}

func desLayers(v map[string]float64, untraced, traced [][]callResult) {
	var unWall, unEvents, events, commits, sched, cancel float64
	for _, r := range untraced {
		for _, c := range r {
			unWall += float64(c.wall)
			unEvents += float64(c.des.Events)
		}
	}
	v["sim.ns_per_event"] = ratio(unWall, unEvents)
	for name, calls := range byProto(untraced) {
		v["des."+name+".commits_per_s"] = callRate(calls)
	}
	for name, calls := range byProto(traced) {
		var pcommits float64
		self := map[string]float64{}
		for _, c := range calls {
			pcommits += float64(c.commits)
			events += float64(c.des.Events)
			sched += float64(c.labels.scheduled)
			cancel += float64(c.labels.cancelled)
			for l, ns := range c.labels.selfNs {
				key := "des." + l + ".self_ns_per_commit"
				if _, ok := v[key]; !ok {
					key = "des." + name + ".other.self_ns_per_commit"
				}
				self[key] += float64(ns)
			}
		}
		commits += pcommits
		for key, ns := range self {
			v[key] = ratio(ns, pcommits)
		}
		// The DES is deterministic for a seed, so any call reads the same.
		res := calls[0].des
		v["resp_ticks."+name] = res.Response.Mean()
		v["des."+name+".resp_p99_ticks"] = res.RespSample.Percentile(0.99)
		v["des."+name+".abort_ratio"] = ratio(float64(res.Aborts), float64(res.Commits+res.Aborts))
		total := float64(calls[0].commits)
		v["netmodel."+name+".msgs_per_commit"] = ratio(float64(res.Messages), total)
		v["netmodel."+name+".bytes_per_commit"] = ratio(float64(res.Bytes), total)
		if name == g2pl.name {
			v["des.g2pl.window_len"] = res.WindowLen.Mean()
		}
	}
	v["sim.events_per_commit"] = ratio(events, commits)
	v["sim.cancel_ratio"] = ratio(cancel, sched)
}

func liveLayers(v map[string]float64, traced [][]callResult) {
	var commits, prepares, onePhase, decided, votesNo, votes float64
	var appends, checkpoints, truncated, retrans, acks, piggy, dropped float64
	var maxRTO time.Duration
	for name, calls := range byProto(traced) {
		var pc, aborts, allocs, msgs, deadlock, blocked float64
		var p50, p99 []float64
		for _, c := range calls {
			st := c.live
			pc += float64(c.commits)
			aborts += float64(st.Aborts)
			allocs += c.mem.Allocs
			msgs += float64(st.Messages)
			deadlock += float64(st.Causes.Deadlock)
			blocked += float64(st.MeanBlocked) / float64(time.Microsecond)
			p50 = append(p50, c.p50us())
			p99 = append(p99, c.p99us())
			prepares += float64(st.TwoPC.Prepares)
			onePhase += float64(st.TwoPC.OnePhase)
			decided += float64(st.TwoPC.Commits)
			votesNo += float64(st.TwoPC.VotesNo)
			votes += float64(st.TwoPC.VotesYes + st.TwoPC.VotesNo)
			appends += float64(st.WALAppends)
			checkpoints += float64(st.WALCheckpoints)
			truncated += float64(st.WALTruncated)
			retrans += float64(st.Retransmits)
			acks += float64(st.AcksSent)
			piggy += float64(st.AcksPiggybacked)
			dropped += float64(st.Dropped)
			maxRTO = max(maxRTO, st.MaxRTO)
		}
		commits += pc
		v["live."+name+".commits_per_s"] = callRate(calls)
		v["live."+name+".p50_us"] = median(p50)
		v["live."+name+".p99_us"] = median(p99)
		v["live."+name+".allocs_per_commit"] = ratio(allocs, pc)
		v["transport."+name+".msgs_per_commit"] = ratio(msgs, pc)
		v["protocol."+name+".commit_ratio"] = ratio(pc, pc+aborts)
		v["protocol."+name+".blocked_us"] = blocked / float64(len(calls))
		v["protocol."+name+".deadlock_aborts_per_kcommit"] = ratio(1000*deadlock, pc)
	}
	v["twopc.prepares_per_commit"] = ratio(prepares, commits)
	v["twopc.one_phase_ratio"] = ratio(onePhase, decided)
	v["twopc.vote_no_ratio"] = ratio(votesNo, votes)
	v["wal.appends_per_commit"] = ratio(appends, commits)
	v["wal.checkpoints_per_kcommit"] = ratio(1000*checkpoints, commits)
	v["wal.truncated_per_commit"] = ratio(truncated, commits)
	v["arq.retransmits_per_commit"] = ratio(retrans, commits)
	v["arq.acks_per_commit"] = ratio(acks, commits)
	v["arq.piggyback_ratio"] = ratio(piggy, piggy+acks)
	v["arq.max_rto_ms"] = float64(maxRTO) / float64(time.Millisecond)
	v["chaos.dropped_per_commit"] = ratio(dropped, commits)
}
