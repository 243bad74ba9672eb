package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// plan says how much one workload run measures.
type plan struct {
	// reps is the number of timed reps. With seconds set the timed reps
	// instead go on until that much wall time has passed since the first
	// one started (never fewer than minTimedReps).
	reps    int
	seconds time.Duration
	// traced adds the traced rep and the layer probes after the timed reps.
	traced bool
	// outDir receives trace-<workload>.json.
	outDir string
	// baseRPS is records_per_s of the same input at workers = 1, the base
	// of crew.speedup_vs_w1. When 0, a multi-worker workload measures it
	// itself.
	baseRPS float64
}

const minTimedReps = 3

// metricValue is one reported metric: the value (a median unless the
// metric's definition says otherwise), its unit and, where the value
// summarizes per-rep samples, their quartiles.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// workloadResult is everything one workload run reports.
type workloadResult struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Seed      uint64                 `json:"seed"`
	Reps      int                    `json:"reps"` // timed reps
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	WallS     float64                `json:"wall_s"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`
	// SpeedupUnresolved marks crew.speedup_vs_w1 as not measurable: the
	// host has one core, so two workers cannot run side by side.
	SpeedupUnresolved bool `json:"speedup_unresolved,omitempty"`
}

// tally counts attempted and failed reps.
type tally struct {
	attempted, failed int
	errors            []string
}

func (t *tally) note(r repResult) bool {
	t.attempted++
	if r.Err == nil {
		return true
	}
	t.failed++
	if len(t.errors) < 8 {
		t.errors = append(t.errors, r.Err.Error())
	}
	return false
}

// timedReps runs untraced reps per the plan and returns the ones that
// passed.
func (r *runner) timedReps(ctx context.Context, p plan, t *tally) []repResult {
	var ok []repResult
	start := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		if p.seconds > 0 {
			if i >= minTimedReps && time.Since(start) >= p.seconds {
				break
			}
		} else if i >= p.reps {
			break
		}
		if res := r.rep(ctx, nil); t.note(res) {
			ok = append(ok, res)
		}
	}
	return ok
}

// collect maps f over the reps.
func collect(reps []repResult, f func(repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// summarized is the end-to-end metric name over its per-rep samples.
func summarized(name string, vs []float64) metricValue {
	q := summarize(vs)
	mv := metricValue{Value: q.Median, Q1: q.Q1, Q3: q.Q3, N: len(vs)}
	for _, def := range endToEnd {
		if def.Name == name {
			mv.Unit = def.Unit
		}
	}
	return mv
}

func responseSeconds(r repResult) float64 { return r.response().Seconds() }

func runWorkload(ctx context.Context, w workload, seed uint64, tmpRoot string, p plan) (workloadResult, error) {
	return (&runner{w: w, seed: seed, tmpRoot: tmpRoot}).run(ctx, p)
}

// run runs the workload: a discarded warm-up rep (the first rep of a
// process pays for cold page cache and heap growth), the timed reps with
// every wrapper and tracer off, then — when the plan asks — the traced rep
// and the layer probes. End-to-end metrics come from the timed reps alone.
func (r *runner) run(ctx context.Context, p plan) (workloadResult, error) {
	wallStart := time.Now()
	w := r.w
	out := workloadResult{Name: w.Name, Why: w.Why, Seed: r.seed}
	var t tally

	if p.traced {
		// A traced run spends about half its time on the untraced
		// baseline the overhead ratio and the crew speed-up need.
		p.seconds /= 2
		if w.Workers > 1 && p.baseRPS == 0 {
			p.seconds /= 2
		}
	}
	warm := r.rep(ctx, nil)
	t.note(warm)
	timed := r.timedReps(ctx, p, &t)
	if err := ctx.Err(); err != nil {
		return out, err
	}
	out.Reps = len(timed)
	n := float64(w.Records)

	e2e := map[string]metricValue{}
	for name, f := range map[string]func(repResult) float64{
		"records_per_s":           func(r repResult) float64 { return n / responseSeconds(r) },
		"io_pages_per_input_page": repResult.ioRatio,
		"alloc_bytes_per_record":  func(r repResult) float64 { return float64(r.AllocBytes) / n },
		"setup_s":                 func(r repResult) float64 { return r.Setup.Seconds() },
	} {
		e2e[name] = summarized(name, collect(timed, f))
	}
	if w.Fluct {
		// The mean over every shrink-under-pressure episode of every
		// timed rep; the quartiles are those of the per-rep means.
		var all, perRep []float64
		for _, r := range timed {
			var sum float64
			for _, pg := range r.ReactionPages {
				all = append(all, float64(pg))
				sum += float64(pg)
			}
			if len(r.ReactionPages) > 0 {
				perRep = append(perRep, sum/float64(len(r.ReactionPages)))
			}
		}
		mv := summarized("shrink_reaction_pages", perRep)
		mv.Value, mv.N = mean(all), len(all)
		e2e["shrink_reaction_pages"] = mv
	}
	out.EndToEnd = e2e

	if p.traced && len(timed) > 0 {
		layers := map[string]float64{}
		untraced := summarize(collect(timed, responseSeconds))
		layers["harness.warmup_s"] = responseSeconds(warm)
		layers["harness.verify_s"] = summarize(collect(timed, func(r repResult) float64 { return r.Verify.Seconds() })).Median
		layers["harness.response_iqr_pct"] = 100 * untraced.spread()
		if mv, ok := e2e["shrink_reaction_pages"]; ok {
			layers["shrink_reaction_pages"] = mv.Value
		}

		if w.Workers > 1 {
			base := p.baseRPS
			if base == 0 {
				r.w.Workers = 1
				w1 := r.timedReps(ctx, p, &t)
				r.w.Workers = w.Workers
				base = n / summarize(collect(w1, responseSeconds)).Median
			}
			if runtime.NumCPU() < 2 {
				out.SpeedupUnresolved = true
			} else if base > 0 {
				layers["crew.speedup_vs_w1"] = e2e["records_per_s"].Value / base
			}
		}

		rec := newRecorder(r.reps+1, w.Workers)
		tr := r.rep(ctx, rec)
		if t.note(tr) {
			layerMetrics(w, tr, rec, untraced.Median, layers)
			pages := probePagesOf(r.in.recs)
			if err := probeCodec(pages, layers); err != nil {
				return out, err
			}
			if err := r.probeStore(pages, layers); err != nil {
				return out, err
			}
			out.TraceFile = filepath.Join(p.outDir, "trace-"+w.Name+".json")
			if err := rec.writeTrace(out.TraceFile, w.Name); err != nil {
				return out, fmt.Errorf("write trace: %w", err)
			}
		}
		out.PerLayer = map[string]metricValue{}
		for _, def := range perLayer {
			out.PerLayer[def.Name] = metricValue{Value: layers[def.Name], Unit: def.Unit}
		}
		if err := ctx.Err(); err != nil {
			return out, err
		}
	}

	out.Attempted, out.Failed, out.Errors = t.attempted, t.failed, t.errors
	e2e["error_rate"] = metricValue{Value: float64(t.failed) / float64(t.attempted), Unit: "ratio", N: t.attempted}
	out.WallS = time.Since(wallStart).Seconds()
	return out, nil
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// layerMetrics fills the per-layer metrics the traced rep yields: Stats and
// Counters of the operator, the counts of the counting store, and the
// spans of the timing store.
func layerMetrics(w workload, tr repResult, rec *recorder, untracedResponse float64, m map[string]float64) {
	st := tr.Stats
	n := float64(w.Records)
	op := rec.find(spanSort)
	split, merge := rec.find(spanSortSplit), rec.find(spanSortMerge)

	m["rungen.split_s"] = st.SplitDuration.Seconds()
	m["rungen.self_s"] = rec.self(split).Seconds()
	if st.SplitDuration > 0 {
		m["rungen.records_per_s"] = n / st.SplitDuration.Seconds()
	}
	m["rungen.runs"] = float64(st.Runs)
	if st.Runs > 0 {
		m["rungen.run_pages_over_budget"] = float64(st.RunPagesWritten) / float64(st.Runs) / float64(w.Budget)
	}

	m["merge.merge_s"] = st.MergeDuration.Seconds()
	m["merge.self_s"] = rec.self(merge).Seconds()
	m["merge.steps"] = float64(st.MergeSteps)
	m["merge.splits"] = float64(st.Splits)
	m["merge.combines"] = float64(st.Combines)
	m["merge.suspensions"] = float64(st.Suspensions)
	m["merge.extra_reads"] = float64(st.ExtraMergeReads)

	m["core.compares_per_record"] = float64(tr.Counters.Compares) / n
	m["core.tuple_moves_per_record"] = float64(tr.Counters.TupleMoves) / n
	m["core.cpu_s_per_mrecord"] = tr.CPU.Seconds() / n * 1e6

	// Store spans and counts are those of the operator; the drain's reads
	// show up under output.
	var calls int
	var d time.Duration
	d, calls = rec.total(spanStoreAppend, op)
	m["store.append_calls"], m["store.append_s"] = float64(calls), d.Seconds()
	d, _ = rec.total(spanStoreWriteWait, op)
	m["store.write_wait_s"] = d.Seconds()
	d, calls = rec.total(spanStoreReadIssue, op)
	m["store.read_calls"], m["store.read_issue_s"] = float64(calls), d.Seconds()
	d, _ = rec.total(spanStoreReadWait, op)
	m["store.read_wait_s"] = d.Seconds()
	m["store.pages_written"] = float64(tr.PagesWritten)
	m["store.pages_read"] = float64(tr.PagesRead)
	m["store.bytes_written"] = float64(st.BytesWritten)
	m["store.bytes_read"] = float64(st.BytesRead)
	m["store.retries"] = float64(st.StoreRetries)

	m["budget.changes"] = float64(len(tr.Targets))
	m["budget.shrinks_under_pressure"] = float64(len(tr.ReactionPages))
	if len(tr.ReactionMs) > 0 {
		q := summarize(tr.ReactionMs)
		m["budget.reaction_ms_p50"] = q.Median
		m["budget.reaction_ms_max"] = slices.Max(tr.ReactionMs)
	}
	for _, pg := range tr.ReactionPages {
		m["budget.reaction_pages_max"] = max(m["budget.reaction_pages_max"], float64(pg))
	}
	m["budget.max_granted_pages"] = float64(st.MaxGranted)
	m["budget.peak_live_heap_mb"] = float64(tr.PeakLiveHeap) / 1e6
	m["budget.live_heap_over_budget"] = float64(tr.PeakLiveHeap) / float64(w.Budget*pageRecords*recordBytes)

	m["crew.workers"] = float64(st.Workers)
	m["crew.segments"] = float64(tr.Segments)

	m["output.drain_s"] = tr.Drain.Seconds()
	m["output.drain_records_per_s"] = n / tr.Drain.Seconds()

	m["runtime.gc_cycles"] = float64(tr.GCCycles)
	m["runtime.gc_pause_ms"] = float64(tr.GCPause) / 1e6

	m["trace.overhead_ratio"] = tr.response().Seconds() / untracedResponse
	m["trace.events"] = float64(tr.TraceEvents)
	m["trace.event_panics"] = float64(st.EventPanics)
}
