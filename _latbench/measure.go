package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// Runtime metrics read at span boundaries. The names are stable
// runtime/metrics keys; a key the running Go version lacks reads as
// KindBad and its counters stay zero rather than failing the run.
const (
	rtMutexWait = "/sync/mutex/wait/total:seconds"
	rtSchedLat  = "/sched/latencies:seconds"
	rtGCCycles  = "/gc/cycles/total:gc-cycles"
	rtGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU  = "/cpu/classes/total:cpu-seconds"
)

// snapshot is the process-wide counter state at one span boundary.
type snapshot struct {
	mallocs, totalAlloc uint64
	mutexWait           float64
	gcCycles            uint64
	gcCPU, totalCPU     float64
	sched               histogram
}

// histogram is a copy of a runtime/metrics Float64Histogram: Buckets
// holds len(Counts)+1 boundaries, possibly infinite at either end.
type histogram struct {
	Counts  []uint64
	Buckets []float64
}

// memSnapshot reads only the allocator counters; it is what untraced
// calls pay at their boundaries.
func memSnapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc}
}

// fullSnapshot adds the runtime/metrics counters traced spans carry.
func fullSnapshot() snapshot {
	s := memSnapshot()
	samples := []metrics.Sample{{Name: rtMutexWait}, {Name: rtSchedLat}, {Name: rtGCCycles}, {Name: rtGCCPU}, {Name: rtTotalCPU}}
	metrics.Read(samples)
	for _, m := range samples {
		switch m.Value.Kind() {
		case metrics.KindFloat64:
			v := m.Value.Float64()
			switch m.Name {
			case rtMutexWait:
				s.mutexWait = v
			case rtGCCPU:
				s.gcCPU = v
			case rtTotalCPU:
				s.totalCPU = v
			}
		case metrics.KindUint64:
			if m.Name == rtGCCycles {
				s.gcCycles = m.Value.Uint64()
			}
		case metrics.KindFloat64Histogram:
			h := m.Value.Float64Histogram()
			s.sched = histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
		}
	}
	return s
}

// delta is the counter movement across one span.
type delta struct {
	Allocs    float64   `json:"allocs"`
	Bytes     float64   `json:"bytes"`
	MutexWait float64   `json:"mutex_wait_s,omitempty"`
	GCCycles  float64   `json:"gc_cycles,omitempty"`
	GCCPU     float64   `json:"gc_cpu_s,omitempty"`
	TotalCPU  float64   `json:"total_cpu_s,omitempty"`
	Sched     histogram `json:"-"`
}

func (a snapshot) to(b snapshot) delta {
	return delta{
		Allocs:    float64(b.mallocs - a.mallocs),
		Bytes:     float64(b.totalAlloc - a.totalAlloc),
		MutexWait: b.mutexWait - a.mutexWait,
		GCCycles:  float64(b.gcCycles - a.gcCycles),
		GCCPU:     b.gcCPU - a.gcCPU,
		TotalCPU:  b.totalCPU - a.totalCPU,
		Sched:     histDelta(a.sched, b.sched),
	}
}

// add accumulates another delta, histograms bucket-wise.
func (d *delta) add(o delta) {
	d.Allocs += o.Allocs
	d.Bytes += o.Bytes
	d.MutexWait += o.MutexWait
	d.GCCycles += o.GCCycles
	d.GCCPU += o.GCCPU
	d.TotalCPU += o.TotalCPU
	if d.Sched.Buckets == nil {
		d.Sched = histogram{Counts: append([]uint64(nil), o.Sched.Counts...), Buckets: o.Sched.Buckets}
		return
	}
	for i := range o.Sched.Counts {
		if i < len(d.Sched.Counts) {
			d.Sched.Counts[i] += o.Sched.Counts[i]
		}
	}
}

// histDelta subtracts two cumulative snapshots of one histogram. The
// runtime keeps the buckets fixed for a metric, so the counts subtract
// bucket-wise; an empty before-snapshot counts as all zeros.
func histDelta(before, after histogram) histogram {
	out := histogram{Counts: make([]uint64, len(after.Counts)), Buckets: after.Buckets}
	for i, c := range after.Counts {
		if i < len(before.Counts) {
			c -= before.Counts[i]
		}
		out.Counts[i] = c
	}
	return out
}

// quantile returns the q-quantile (0 < q < 1) of a histogram by linear
// interpolation inside the bucket that holds it; an infinite bucket edge
// collapses to its finite one. An empty histogram yields 0.
func (h histogram) quantile(q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return h.Buckets[len(h.Buckets)-1]
}

// median is the 0.5 percentile of xs (0 when empty).
func median(xs []float64) float64 { return stats.Percentile(xs, 0.5) }

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := stats.Percentile(xs, 0.25), stats.Percentile(xs, 0.75)
	return math.Abs(q3-q1) / math.Abs(m)
}

// ratio divides, reading an empty denominator as 0: a layer that did no
// work on a workload reports zero work per commit.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// residentBytes is the process's resident set from /proc/self/statm; 0
// where the file is unavailable.
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// cpuTime is the process's user plus system CPU time, over all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the host's stolen and total CPU ticks from the
// aggregate line of /proc/stat; zeros where it is unavailable.
func cpuTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user … steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
