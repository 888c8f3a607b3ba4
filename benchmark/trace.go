package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark's own staged drivers (the program files carry no tracing).
// Name is "<layer>.<stage>"; Parent indexes tracer.spans (-1 for a
// root); Op groups the spans of one operation (one verify, one delta).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer was created
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory; write flushes them when the run ends. A
// nil *tracer records nothing, so drivers call it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices; the staged drivers are single-goroutine
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp starts a new operation; spans opened afterwards carry its id.
func (t *tracer) newOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span under the innermost open span and returns its
// index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i (which must be the innermost open one) and returns
// its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	if n := len(t.open); n == 0 || t.open[n-1] != i {
		panic("benchmark: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// layerOf is the module a span belongs to: the name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// benchLayer marks the benchmark's own root spans: their self time is
// driver glue between layer calls, i.e. the unattributed remainder.
const benchLayer = "bench"

// selfTimes returns each span's duration minus the part covered by its
// children.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// durations lists the durations of every span with the given name, in
// recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start).Seconds())
		}
	}
	return out
}

// coverage is the share of the pipeline roots' wall time attributed to
// a layer: Σ self time of layer spans below a pipeline root ÷ Σ root
// durations. The rest — the roots' own self time — is returned as
// unattributed. Probe roots (replica measurements outside the pipeline)
// are left out of both sums.
func (t *tracer) coverage(pipelineRoot string) (share float64, unattributed, wall time.Duration) {
	self := t.selfTimes()
	inPipeline := make([]bool, len(t.spans))
	var attributed time.Duration
	for i, s := range t.spans { // parents precede children
		switch {
		case s.Parent < 0:
			inPipeline[i] = s.Name == pipelineRoot
			if inPipeline[i] {
				wall += time.Duration(s.End - s.Start)
			}
		default:
			inPipeline[i] = inPipeline[s.Parent]
		}
		if !inPipeline[i] {
			continue
		}
		if layerOf(s.Name) == benchLayer {
			unattributed += self[i]
		} else {
			attributed += self[i]
		}
	}
	if wall > 0 {
		share = float64(attributed) / float64(wall)
	}
	return share, unattributed, wall
}

// layerSelf sums self time per layer over all spans, for the trace file
// and the human-readable summary.
func (t *tracer) layerSelf() map[string]float64 {
	out := make(map[string]float64)
	for i, d := range t.selfTimes() {
		out[layerOf(t.spans[i].Name)] += d.Seconds()
	}
	return out
}

// traceFile is what write stores: the raw spans plus the per-layer self
// time summary derived from them.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Spans      []span             `json:"spans"`
	LayerSelfS map[string]float64 `json:"layer_self_s"`
}

// write stores the trace under dir as trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(traceFile{Workload: workload, Seed: seed, Spans: t.spans, LayerSelfS: t.layerSelf()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
