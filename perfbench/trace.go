package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/traceio"
)

// span is one timed layer call of a traced op. Spans of one op share its
// trace ID; Parent indexes the enclosing span in the run's span list (-1
// for an op root).
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the traced pass began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Alloc is the heap bytes allocated during the span (runtime/metrics
	// delta); -1 where the span is built from a hook that fires after the
	// fact and no delta could be taken.
	Alloc int64 `json:"alloc_bytes"`

	allocStart uint64
}

// tracer records spans in memory for one traced pass and accumulates the
// per-layer counters. A nil *tracer is the untraced mode: every method is
// a no-op, so op code calls it unconditionally.
type tracer struct {
	base  time.Time
	spans []span
	stack []int
	op    int

	// scored limits counters to the first scored ops, so count metrics
	// cover the same ops in every run of a seed.
	scored   int
	counters map[string]float64

	// GC cycles and pause time that fell inside traced ops.
	gcCycles  uint32
	gcPauseNs uint64
	mem       runtime.MemStats
}

func newTracer(scored int) *tracer {
	return &tracer{base: time.Now(), scored: scored, counters: make(map[string]float64), op: -1}
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs reads the cumulative heap allocation counter.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// beginOp opens op i's root span; spans recorded outside an op (set-up,
// checks) are dropped.
func (t *tracer) beginOp(i int) {
	if t == nil {
		return
	}
	runtime.ReadMemStats(&t.mem)
	t.gcCycles -= t.mem.NumGC
	t.gcPauseNs -= t.mem.PauseTotalNs
	t.op = i
	t.stack = t.stack[:0]
	t.begin("op")
}

// endOp closes every span still open (a failed op can leave stage spans
// open) and leaves op mode.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	for len(t.stack) > 0 {
		t.end(t.stack[len(t.stack)-1])
	}
	t.op = -1
	runtime.ReadMemStats(&t.mem)
	t.gcCycles += t.mem.NumGC
	t.gcPauseNs += t.mem.PauseTotalNs
}

// begin opens a span as a child of the innermost open span and returns its
// index, or -1 outside an op.
func (t *tracer) begin(name string) int {
	if t == nil || t.op < 0 {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Trace: t.op, ID: id, Parent: parent, Name: name, Start: t.now(), allocStart: heapAllocs()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id and any span opened inside it that is still open.
func (t *tracer) end(id int) {
	t.endAt(id, -1)
}

// endAt closes span id at start+d when d ≥ 0 (a duration a hook reported),
// at the current time otherwise.
func (t *tracer) endAt(id int, d time.Duration) {
	if t == nil || id < 0 {
		return
	}
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		s := &t.spans[top]
		s.End = t.now()
		if top == id && d >= 0 {
			s.End = s.Start + int64(d)
		}
		s.Alloc = int64(heapAllocs() - s.allocStart)
		if top == id {
			return
		}
	}
}

// leaf records a closed span of duration d ending now, as a child of the
// innermost open span — the shape of a hook that reports a duration after
// the work is done.
func (t *tracer) leaf(name string, d time.Duration) {
	if t == nil || t.op < 0 {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	end := t.now()
	t.spans = append(t.spans, span{Trace: t.op, ID: len(t.spans), Parent: parent, Name: name, Start: end - int64(d), End: end, Alloc: -1})
}

// enclose inserts a closed span [end−d, end) as a child of span parent and
// moves parent's children named child inside it. It reconstructs the stage-2
// portfolio span from Result.Stage2Time around the primary pack the
// observer reported.
func (t *tracer) enclose(parent int, name string, d time.Duration, child string) {
	if t == nil || parent < 0 {
		return
	}
	end := t.spans[parent].End
	id := len(t.spans)
	for i := parent + 1; i < id; i++ {
		if t.spans[i].Parent == parent && t.spans[i].Name == child {
			t.spans[i].Parent = id
		}
	}
	t.spans = append(t.spans, span{Trace: t.spans[parent].Trace, ID: id, Parent: parent, Name: name, Start: end - int64(d), End: end, Alloc: -1})
}

// count adds v to a per-layer counter while a scored op runs.
func (t *tracer) count(name string, v float64) {
	if t == nil || t.op < 0 || t.op >= t.scored {
		return
	}
	t.counters[name] += v
}

// countAfter adds v to a counter for op i from outside the op (a check
// that reads the op's reports).
func (t *tracer) countAfter(i int, name string, v float64) {
	if t == nil || i < 0 || i >= t.scored {
		return
	}
	t.counters[name] += v
}

// layerTotals sums, per span name, the inclusive time, the self time
// (duration minus the part covered by child spans) and the allocations.
type layerTotal struct {
	ms, selfMS, allocMB float64
}

func (t *tracer) layerTotals() map[string]*layerTotal {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerTotal)
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.ms += float64(d) / 1e6
		lt.selfMS += float64(d-child[i]) / 1e6
		if s.Alloc > 0 {
			lt.allocMB += float64(s.Alloc) / 1e6
		}
	}
	return out
}

// writeJSON dumps the spans in the order they were recorded.
func (t *tracer) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageObserver turns the solver's FinishStage callbacks into spans: the
// stage-1 selection and the primary stage-2 pack (the portfolio's
// single-type restrictions run with the observer stripped, so they show
// up only in the enclosing core.stage2 span).
type stageObserver struct {
	tr   *tracer
	open map[string]int
}

func stageSpanName(stage string) string {
	switch stage {
	case core.StageSelect:
		return "core.stage1"
	case core.StagePack:
		return "core.stage2.primary"
	}
	return "" // the benchmark times the lower bound around its own call
}

func (o *stageObserver) OnStageStart(stage string, _ int64) {
	if name := stageSpanName(stage); name != "" {
		o.open[stage] = o.tr.begin(name)
	}
}

func (o *stageObserver) OnStageStats(st core.StageStats) {
	if id, ok := o.open[st.Stage]; ok {
		o.tr.endAt(id, st.Elapsed)
		delete(o.open, st.Stage)
	}
}

func (o *stageObserver) OnProgress(string, int64, int64)   {}
func (o *stageObserver) OnStageDone(string, time.Duration) {}
func (o *stageObserver) OnEpoch(int, int)                  {}

// observer returns the solver observer for the mode: nil untraced, which
// is the solver's zero-overhead default.
func (t *tracer) observer() core.Observer {
	if t == nil {
		return nil
	}
	return &stageObserver{tr: t, open: make(map[string]int)}
}

// journalCodec is the plan codec the journal runs with: traceio's own, and
// in the traced mode the same codec with every plan encoding timed.
func (t *tracer) journalCodec() deploy.JournalCodec {
	codec := traceio.PlanJournalCodec()
	if t == nil {
		return codec
	}
	encode := codec.EncodePlan
	codec.EncodePlan = func(p *deploy.Plan) ([]byte, error) {
		id := t.begin("traceio.plan_encode")
		b, err := encode(p)
		t.end(id)
		t.count("traceio.plan_encode.bytes", float64(len(b)))
		return b, err
	}
	return codec
}

// journalHooks counts journal records, bytes and fsyncs in the traced
// mode.
func (t *tracer) journalHooks() deploy.JournalHooks {
	if t == nil {
		return deploy.JournalHooks{}
	}
	return deploy.JournalHooks{
		Appended: func(n int) { t.count("deploy.journal.bytes", float64(n)) },
		Fsync: func(sec float64) {
			t.leaf("deploy.journal.fsync", time.Duration(sec*float64(time.Second)))
			t.count("deploy.journal.fsyncs", 1)
		},
	}
}
