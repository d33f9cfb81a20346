// Command perfbench is the repository's benchmark of deployed allocator
// operations. Each workload is a closed loop with one operation in flight:
// an op is one complete change, solved or planned, applied through the
// durable journal, and checked. One run measures one workload for a fixed
// time and prints, as the last line of standard output, a JSON object with
// the end-to-end metrics (-trace 0) or the per-layer metrics of a traced
// run (-trace 1). See README.md for the workloads and every metric.
//
//	go build -o perfbench . && ./perfbench -workload steady-churn -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/pubsub-systems/mcss/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// buildDir, under the working directory, holds each run's journals and
// the span dumps; run.sh builds the binary there too.
const buildDir = ".bench_build"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cold-solve, steady-churn or diurnal-replay")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "how long the ops are measured")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (cold-solve, steady-churn, diurnal-replay), -seconds > 0 and -trace 0 or 1\n")
		return 2
	}
	workDir := filepath.Join(buildDir, fmt.Sprintf("run-%s-%d", spec.name, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	rc := runConfig{seed: *seed, size: benchSizes, seconds: *seconds, dir: workDir}
	var res *result
	var err error
	if *trace == 1 {
		rc.spanFile = filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.json", spec.name, *seed))
		res, err = measureTraced(context.Background(), spec, rc)
	} else {
		res, err = measure(context.Background(), spec, rc)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res.err != nil {
		fmt.Fprintln(stderr, "perfbench: op failed:", res.err)
	}
	details, _ := json.Marshal(res.details)
	fmt.Fprintln(stdout, string(details))
	line, _ := json.Marshal(res.report())
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runConfig is one run's settings.
type runConfig struct {
	seed     int64
	size     sizes
	seconds  float64
	dir      string
	spanFile string
	// maxOps, when positive, runs exactly that many ops instead of
	// measuring for seconds (the determinism test).
	maxOps int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	err               error // first failed op
	metrics           map[string]metric
	details           map[string]any
}

func (r *result) report() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics}
}

// setupReps is how many times an untraced run sets its workload up;
// setup_s is their median.
const setupReps = 5

// minOps is the fewest ops a run measures, so that at least ten samples
// lie beyond op_p80_ms.
const minOps = 50

// setUp builds a workload instance and reports how long it took. The
// previous instance's memory is collected first, so every set-up starts
// from the same heap.
func setUp(ctx context.Context, spec workloadSpec, e *env) (instance, float64, error) {
	runtime.GC()
	start := time.Now()
	inst, err := spec.setup(ctx, e)
	sec := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", spec.name, err)
	}
	return inst, sec, nil
}

// keepGoing reports whether op i should run: exactly maxOps ops when
// maxOps is positive, otherwise until dur has passed since start and at
// least atLeast ops are done.
func keepGoing(i, atLeast, maxOps int, start time.Time, dur time.Duration) bool {
	if maxOps > 0 {
		return i < maxOps
	}
	return i < atLeast || time.Since(start) < dur
}

// timeOp runs op i, then its untimed checks, and returns the op's duration
// in milliseconds.
func timeOp(ctx context.Context, inst instance, tr *tracer, i int) (float64, error) {
	tr.beginOp(i)
	t0 := time.Now()
	err := inst.op(ctx, i)
	d := time.Since(t0)
	tr.endOp()
	if err == nil {
		err = inst.after(ctx, i)
	}
	if err != nil {
		return 0, fmt.Errorf("op %d: %w", i, err)
	}
	return float64(d) / 1e6, nil
}

// measure is the untraced run: it sets the workload up setupReps times,
// measures ops on the last instance, checks the journal and reports the
// end-to-end metrics.
func measure(ctx context.Context, spec workloadSpec, rc runConfig) (*result, error) {
	e := &env{seed: rc.seed, size: rc.size, scored: spec.scored(rc.size), dir: rc.dir}
	var setups []float64
	var inst instance
	for k := 0; k < setupReps; k++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		var sec float64
		var err error
		if inst, sec, err = setUp(ctx, spec, e); err != nil {
			return nil, err
		}
		setups = append(setups, sec)
	}
	defer inst.close()

	runtime.GC()
	var times, peaks []float64
	var opErr error
	start := time.Now()
	for i := 0; opErr == nil && keepGoing(i, max(e.scored, minOps), rc.maxOps, start, seconds(rc.seconds)); i++ {
		resetPeakRSS()
		var d float64
		if d, opErr = timeOp(ctx, inst, nil, i); opErr == nil {
			times = append(times, d)
			peaks = append(peaks, peakRSSMB())
		}
	}
	if opErr == nil {
		opErr = inst.finish()
	}
	res := &result{attempted: len(times), err: opErr}
	if opErr != nil {
		res.attempted++
		res.failed = 1
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("%s: no op completed: %w", spec.name, opErr)
	}
	var total float64
	for _, t := range times {
		total += t
	}
	sc := inst.scores()
	res.metrics = map[string]metric{
		"setup_s":     {pct(setups, 50), "s"},
		"op_p50_ms":   {pct(times, 50), "ms"},
		"op_p80_ms":   {pct(times, 80), "ms"},
		"ops_per_s":   {float64(len(times)) / (total / 1e3), "1/s"},
		"cost_gap":    {sc.costGap, "ratio"},
		"bill_usd":    {sc.billUSD, "USD"},
		"pairs_moved": {sc.pairsMoved, "pairs/op"},
		"peak_rss_mb": {pct(peaks, 50), "MB"},
	}
	res.details = runDetails(spec, rc, e.scored, len(times))
	res.details["setup_s_all"] = setups
	res.details["op_ms"] = times
	return res, nil
}

// measureTraced is the traced run. It sets the workload up twice, once
// untraced and once with spans recorded around every layer call, and runs
// the two instances' ops alternately, op i of each in turn, so both see the
// same inputs and the same machine. The per-layer metrics come from the
// traced instance; the tracing overhead is the difference of the two
// instances' median op times.
func measureTraced(ctx context.Context, spec workloadSpec, rc runConfig) (*result, error) {
	scored := spec.scored(rc.size)
	tr := newTracer(scored)
	var insts [2]instance
	for k, e := range []*env{
		{seed: rc.seed, size: rc.size, scored: scored, dir: filepath.Join(rc.dir, "untraced")},
		{seed: rc.seed, size: rc.size, scored: scored, dir: filepath.Join(rc.dir, "traced"), tr: tr},
	} {
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, err
		}
		inst, _, err := setUp(ctx, spec, e)
		if err != nil {
			return nil, err
		}
		defer inst.close()
		insts[k] = inst
	}

	runtime.GC()
	var times [2][]float64 // untraced, traced
	tracers := [2]*tracer{nil, tr}
	start := time.Now()
	tr.base = start
	for i := 0; keepGoing(i, scored, rc.maxOps, start, seconds(rc.seconds)); i++ {
		// The instances take turns going first, so neither always runs
		// on the garbage the other just left.
		for j := 0; j < 2; j++ {
			k := (i + j) % 2
			d, err := timeOp(ctx, insts[k], tracers[k], i)
			if err != nil {
				return failedResult(2*i+j, err), nil
			}
			times[k] = append(times[k], d)
		}
	}
	plain, traced := times[0], times[1]
	for _, inst := range insts {
		if err := inst.finish(); err != nil {
			return failedResult(2*len(traced)-1, err), nil
		}
	}
	if rc.spanFile != "" {
		if err := tr.writeJSON(rc.spanFile); err != nil {
			return nil, err
		}
	}
	n := float64(len(traced))
	layers := tr.layerTotals()
	vals := map[string]float64{
		"runtime.gc.cycles":   float64(tr.gcCycles) / n,
		"runtime.gc.pause_ms": float64(tr.gcPauseNs) / 1e6 / n,
		"trace.overhead_ms":   pct(traced, 50) - pct(plain, 50),
		"trace.op_p50_ms":     pct(traced, 50),
	}
	if op := layers["op"]; op != nil {
		vals["trace.unattributed_ms"] = op.selfMS / n
	}
	c := tr.counters
	for _, m := range perLayer {
		lt := layers[m.span]
		switch {
		case m.kind == kindCount:
			vals[m.name] = c[m.name] / float64(scored)
		case lt == nil:
		case m.kind == kindMS:
			vals[m.name] = lt.ms / n
		case m.kind == kindSelf:
			vals[m.name] = lt.selfMS / n
		case m.kind == kindAlloc:
			vals[m.name] = lt.allocMB / n
		}
	}
	if a := c["dynamic.attempts"]; a > 0 {
		vals["dynamic.regret"] = c["dynamic.regret"] / a
		vals["dynamic.kept_ratio"] = (a - c["dynamic.fallbacks"]) / a
	}
	if s := c["elastic.steps"]; s > 0 {
		vals["elastic.adopt_ratio"] = c["elastic.adopted"] / s
	}
	res := &result{attempted: len(plain) + len(traced), metrics: make(map[string]metric, len(perLayer))}
	for _, m := range perLayer {
		res.metrics[m.name] = metric{vals[m.name], m.unit}
	}
	res.details = runDetails(spec, rc, scored, len(traced))
	res.details["spans"] = len(tr.spans)
	return res, nil
}

func failedResult(attempted int, err error) *result {
	res := &result{attempted: attempted + 1, failed: 1, err: err, metrics: map[string]metric{}, details: map[string]any{}}
	for _, m := range perLayer {
		res.metrics[m.name] = metric{0, m.unit}
	}
	return res
}

// runDetails is the line printed before the result: what was run, with
// what seed, on what machine.
func runDetails(spec workloadSpec, rc runConfig, scored, ops int) map[string]any {
	return map[string]any{
		"workload":   spec.name,
		"seed":       rc.seed,
		"seconds":    rc.seconds,
		"ops":        ops,
		"scored_ops": scored,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go":         runtime.Version(),
		"journal_fs": fsName(rc.dir),
	}
}

// fsName names the filesystem holding dir by its statfs magic number.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("statfs type %#x", st.Type)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// pct is the nearest-rank p-th percentile of a non-empty sample.
func pct(xs []float64, p float64) float64 {
	v, _ := stats.Percentile(xs, p) // fails only on an empty sample or p outside [0, 100]
	return v
}

// resetPeakRSS resets the kernel's peak-RSS mark of the process to its
// current RSS, so the next reading covers one op. Where the kernel refuses,
// readings keep covering the whole process lifetime.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak RSS since the last reset (VmHWM).
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
