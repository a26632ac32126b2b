package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"time"

	"repro/internal/sim"
)

// span is one traced interval recorded around a call into the program.
// Aggregated DES event spans (name "sim.event") carry a fire count and
// self time instead of one span per event.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // 0 for the workload root
	Name     string             `json:"name"`
	Proto    string             `json:"proto,omitempty"`
	Label    string             `json:"label,omitempty"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Count    int64              `json:"count,omitempty"`
	SelfNs   int64              `json:"self_ns,omitempty"`
	Delta    *delta             `json:"delta,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// recorder keeps the traced run's spans in memory until the benchmark
// writes them out at exit. Its clock is relative to the root's start.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its id.
func (r *recorder) begin(parent int, name, proto string) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Proto: proto, StartNs: r.now()})
	return len(r.spans)
}

// end closes span id with the counter movement measured across it.
func (r *recorder) end(id int, d *delta, counters map[string]float64) {
	s := &r.spans[id-1]
	s.EndNs = r.now()
	s.Delta = d
	s.Counters = counters
}

// events records one call's per-label DES event spans under its span.
func (r *recorder) events(parent int, proto string, lt *labelTracer) {
	p := r.spans[parent-1]
	for _, l := range slices.Sorted(maps.Keys(lt.selfNs)) {
		r.spans = append(r.spans, span{
			ID: len(r.spans) + 1, Parent: parent, Name: "sim.event", Proto: proto, Label: l,
			StartNs: p.StartNs, EndNs: p.EndNs, Count: lt.fires[l], SelfNs: lt.selfNs[l],
		})
	}
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// preludeLabel names the time from the engine.Run call to the first
// event firing: configuration, workload generation and kernel set-up.
const preludeLabel = "engine.setup"

// labelTracer is the benchmark's sim.Tracer. It attributes the wall
// interval between two consecutive fires to the earlier event's label
// (that event's handler ran in it), and counts schedules and cancels.
type labelTracer struct {
	clock     func() int64
	last      string
	lastAt    int64
	selfNs    map[string]int64
	fires     map[string]int64
	scheduled int64
	cancelled int64
}

func newLabelTracer(clock func() int64) *labelTracer {
	return &labelTracer{clock: clock, selfNs: map[string]int64{}, fires: map[string]int64{}}
}

// start marks the call into the engine; the prelude runs until the
// first fire.
func (t *labelTracer) start() {
	t.last = preludeLabel
	t.lastAt = t.clock()
}

// Trace implements sim.Tracer.
func (t *labelTracer) Trace(action sim.TraceAction, _ uint64, _, _ sim.Time, label string) {
	switch action {
	case sim.TraceSchedule:
		t.scheduled++
	case sim.TraceCancel:
		t.cancelled++
	case sim.TraceFire:
		t.attribute()
		t.last = label
		t.fires[label]++
	}
}

// finish closes the last interval when the engine returns.
func (t *labelTracer) finish() { t.attribute() }

func (t *labelTracer) attribute() {
	now := t.clock()
	t.selfNs[t.last] += now - t.lastAt
	t.lastAt = now
}
