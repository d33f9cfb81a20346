package main

// metricKind says where a per-layer metric comes from.
type metricKind int

const (
	kindMS      metricKind = iota // inclusive span time per op
	kindSelf                      // span time minus child spans, per op
	kindAlloc                     // heap MB allocated inside the span, per op
	kindCount                     // counter per scored op
	kindDerived                   // computed from other figures
)

type layerMetric struct {
	name, unit string
	span       string
	kind       metricKind
}

// perLayer lists the traced run's metrics in BENCHMARK.json order. Layers
// without children report only .ms, which is also their self time.
var perLayer = []layerMetric{
	{"traceio.decode.ms", "ms", "traceio.decode", kindMS},
	{"traceio.decode.alloc_mb", "MB", "traceio.decode", kindAlloc},
	{"traceio.decode.bytes", "bytes", "", kindCount},
	{"traceio.plan_encode.ms", "ms", "traceio.plan_encode", kindMS},
	{"traceio.plan_encode.alloc_mb", "MB", "traceio.plan_encode", kindAlloc},
	{"traceio.plan_encode.bytes", "bytes", "", kindCount},

	{"core.solve.ms", "ms", "core.solve", kindMS},
	{"core.solve.self_ms", "ms", "core.solve", kindSelf},
	{"core.solve.alloc_mb", "MB", "core.solve", kindAlloc},
	{"core.stage1.ms", "ms", "core.stage1", kindMS},
	{"core.stage1.alloc_mb", "MB", "core.stage1", kindAlloc},
	{"core.stage1.select_ratio", "ratio", "", kindCount},
	{"core.stage2.ms", "ms", "core.stage2", kindMS},
	{"core.stage2.self_ms", "ms", "core.stage2", kindSelf},
	{"core.stage2.primary_ms", "ms", "core.stage2.primary", kindMS},
	{"core.stage2.primary_alloc_mb", "MB", "core.stage2.primary", kindAlloc},
	{"core.stage2.vms", "count", "", kindCount},
	{"core.lowerbound.ms", "ms", "core.lowerbound", kindMS},
	{"core.lowerbound.alloc_mb", "MB", "core.lowerbound", kindAlloc},
	{"core.verify.ms", "ms", "core.verify", kindMS},
	{"core.verify.alloc_mb", "MB", "core.verify", kindAlloc},

	{"dynamic.preview.ms", "ms", "dynamic.preview", kindMS},
	{"dynamic.preview.self_ms", "ms", "dynamic.preview", kindSelf},
	{"dynamic.preview.alloc_mb", "MB", "dynamic.preview", kindAlloc},
	{"dynamic.delta_ops", "count", "", kindCount},
	{"dynamic.inserted", "pairs", "", kindCount},
	{"dynamic.evicted", "pairs", "", kindCount},
	{"dynamic.improved", "pairs", "", kindCount},
	{"dynamic.released_vms", "count", "", kindCount},
	{"dynamic.regret", "ratio", "", kindDerived},
	{"dynamic.fallbacks", "count", "", kindCount},
	{"dynamic.kept_ratio", "ratio", "", kindDerived},

	{"deploy.plan.ms", "ms", "deploy.plan", kindMS},
	{"deploy.plan.alloc_mb", "MB", "deploy.plan", kindAlloc},
	{"deploy.plan.steps", "count", "", kindCount},
	{"deploy.apply.ms", "ms", "deploy.apply", kindMS},
	{"deploy.apply.self_ms", "ms", "deploy.apply", kindSelf},
	{"deploy.apply.alloc_mb", "MB", "deploy.apply", kindAlloc},
	{"deploy.journal.fsyncs", "count", "", kindCount},
	{"deploy.journal.fsync_ms", "ms", "deploy.journal.fsync", kindMS},
	{"deploy.journal.bytes", "bytes", "", kindCount},
	{"deploy.journal.compact_ms", "ms", "deploy.journal.compact", kindMS},
	{"deploy.journal.compact_self_ms", "ms", "deploy.journal.compact", kindSelf},
	{"deploy.journal.compact_alloc_mb", "MB", "deploy.journal.compact", kindAlloc},

	{"elastic.step.ms", "ms", "elastic.step", kindMS},
	{"elastic.step.self_ms", "ms", "elastic.step", kindSelf},
	{"elastic.step.alloc_mb", "MB", "elastic.step", kindAlloc},
	{"elastic.adopt_ratio", "ratio", "", kindDerived},
	{"elastic.forced", "count", "", kindCount},
	{"elastic.acquired_vms", "count", "", kindCount},
	{"elastic.released_vms", "count", "", kindCount},
	{"elastic.added_pairs", "pairs", "", kindCount},

	{"runtime.gc.cycles", "count", "", kindDerived},
	{"runtime.gc.pause_ms", "ms", "", kindDerived},

	{"trace.op_p50_ms", "ms", "", kindDerived},
	{"trace.unattributed_ms", "ms", "", kindDerived},
	{"trace.overhead_ms", "ms", "", kindDerived},
}
