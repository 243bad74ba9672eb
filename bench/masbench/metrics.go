package main

import (
	"math"
	"slices"
)

// metricDef names one metric of the benchmark: the contract other issues
// are judged by. Bound is the share of the parent's median by which an
// end-to-end metric may get worse before it counts as a regression;
// per-layer metrics explain, they never gate, so they carry no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// The six end-to-end metrics. error_rate and shrink_reaction_pages cannot
// be listed under end_to_end in BENCHMARK.json (that contract wants every
// metric non-zero on every workload): error_rate reaches the driver as
// failed/attempted, shrink_reaction_pages rides in its per-layer list.
// Result files, -compare and -selfcheck gate on all six.
//
// The bound of records_per_s is what the reference host allows, not what
// one would wish: run-to-run medians of the same binary sat 4-12 % apart
// within ten minutes and up to 19 % apart within an hour (see README).
var endToEnd = []metricDef{
	{"records_per_s", "records/s", "higher", 0.25},
	{"io_pages_per_input_page", "ratio", "lower", 0.03},
	{"alloc_bytes_per_record", "bytes", "lower", 0.05},
	{"shrink_reaction_pages", "pages", "lower", 0.10},
	{"error_rate", "ratio", "lower", 0},
	{"setup_s", "s", "lower", 0.25},
}

// driverEndToEnd are the end-to-end metrics printed for `-trace 0`.
var driverEndToEnd = []string{"records_per_s", "io_pages_per_input_page", "alloc_bytes_per_record", "setup_s"}

// perLayer lists every per-layer metric, grouped by the repo module it
// measures. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "rungen.split_s", Unit: "s", Better: "lower"},
	{Name: "rungen.self_s", Unit: "s", Better: "lower"},
	{Name: "rungen.records_per_s", Unit: "records/s", Better: "higher"},
	{Name: "rungen.runs", Unit: "count", Better: "lower"},
	{Name: "rungen.run_pages_over_budget", Unit: "ratio", Better: "higher"},

	{Name: "merge.merge_s", Unit: "s", Better: "lower"},
	{Name: "merge.self_s", Unit: "s", Better: "lower"},
	{Name: "merge.steps", Unit: "count", Better: "lower"},
	{Name: "merge.splits", Unit: "count", Better: "lower"},
	{Name: "merge.combines", Unit: "count", Better: "lower"},
	{Name: "merge.suspensions", Unit: "count", Better: "lower"},
	{Name: "merge.extra_reads", Unit: "pages", Better: "lower"},

	{Name: "core.compares_per_record", Unit: "count", Better: "lower"},
	{Name: "core.tuple_moves_per_record", Unit: "count", Better: "lower"},
	{Name: "core.cpu_s_per_mrecord", Unit: "s", Better: "lower"},

	{Name: "pagecodec.encode_ns_per_page", Unit: "ns", Better: "lower"},
	{Name: "pagecodec.decode_ns_per_page", Unit: "ns", Better: "lower"},
	{Name: "pagecodec.encoded_bytes_per_record", Unit: "bytes", Better: "lower"},

	{Name: "store.append_calls", Unit: "count", Better: "lower"},
	{Name: "store.append_s", Unit: "s", Better: "lower"},
	{Name: "store.write_wait_s", Unit: "s", Better: "lower"},
	{Name: "store.read_calls", Unit: "count", Better: "lower"},
	{Name: "store.read_issue_s", Unit: "s", Better: "lower"},
	{Name: "store.read_wait_s", Unit: "s", Better: "lower"},
	{Name: "store.pages_written", Unit: "pages", Better: "lower"},
	{Name: "store.pages_read", Unit: "pages", Better: "lower"},
	{Name: "store.bytes_written", Unit: "bytes", Better: "lower"},
	{Name: "store.bytes_read", Unit: "bytes", Better: "lower"},
	{Name: "store.retries", Unit: "count", Better: "lower"},
	{Name: "store.raw_write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "store.raw_read_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "budget.changes", Unit: "count", Better: "lower"},
	{Name: "budget.shrinks_under_pressure", Unit: "count", Better: "lower"},
	{Name: "shrink_reaction_pages", Unit: "pages", Better: "lower"},
	{Name: "budget.reaction_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "budget.reaction_ms_max", Unit: "ms", Better: "lower"},
	{Name: "budget.reaction_pages_max", Unit: "pages", Better: "lower"},
	{Name: "budget.max_granted_pages", Unit: "pages", Better: "lower"},
	{Name: "budget.peak_live_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "budget.live_heap_over_budget", Unit: "ratio", Better: "lower"},

	{Name: "crew.workers", Unit: "count", Better: "higher"},
	{Name: "crew.segments", Unit: "count", Better: "lower"},
	{Name: "crew.speedup_vs_w1", Unit: "ratio", Better: "higher"},

	{Name: "output.drain_s", Unit: "s", Better: "lower"},
	{Name: "output.drain_records_per_s", Unit: "records/s", Better: "higher"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.events", Unit: "count", Better: "lower"},
	{Name: "trace.event_panics", Unit: "count", Better: "lower"},

	{Name: "harness.warmup_s", Unit: "s", Better: "lower"},
	{Name: "harness.verify_s", Unit: "s", Better: "lower"},
	{Name: "harness.response_iqr_pct", Unit: "%", Better: "lower"},
}

// quartiles holds the summary the benchmark prints for a sample set: the
// median is the value, the quartiles are its spread.
type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// summarize returns the median and quartiles of vs with the exclusive
// method Python's statistics.quantiles(n=4) uses, so a spread printed here
// is the spread the driver computes from the same values.
func summarize(vs []float64) quartiles {
	if len(vs) == 0 {
		return quartiles{}
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)+1)
		j := int(math.Floor(pos))
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return quartiles{Q1: at(0.25), Median: at(0.5), Q3: at(0.75)}
}

// spread is the inter-quartile distance as a share of the median.
func (q quartiles) spread() float64 {
	if q.Median == 0 {
		return 0
	}
	return math.Abs(q.Q3-q.Q1) / math.Abs(q.Median)
}
