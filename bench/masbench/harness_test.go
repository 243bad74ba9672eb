package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/memadapt/masort"
)

// small shrinks a workload to test size, keeping its shape: the input is
// still many times the budget, a merge still has more runs than fan-in.
func small(t *testing.T, name string) workload {
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.Records, w.Budget = 24_000, 8
	if w.Runs > 0 {
		w.Runs = 12
	}
	if w.Fluct {
		w.FluctFloor = 4
	}
	return w
}

func smallRunner(t *testing.T, name string) *runner {
	return &runner{w: small(t, name), seed: 42, tmpRoot: t.TempDir()}
}

func TestSameSeedSameInput(t *testing.T) {
	for _, name := range []string{"sort_file", "merge_file"} {
		w := small(t, name)
		var a, b, c input
		a.generate(w, 5)
		b.generate(w, 5)
		c.generate(w, 6)
		if !bytes.Equal(a.pool, b.pool) || a.want != b.want {
			t.Fatalf("%s: the same seed gave different inputs", name)
		}
		for i := range a.recs {
			if a.recs[i].Key != b.recs[i].Key || !bytes.Equal(a.recs[i].Payload, b.recs[i].Payload) {
				t.Fatalf("%s: record %d differs between two generations from one seed", name, i)
			}
		}
		if a.want == c.want {
			t.Fatalf("%s: different seeds gave the same input", name)
		}
		for i := 0; i < w.Runs; i++ {
			if run := a.run(w, i); !slices.IsSortedFunc(run, func(x, y masort.Record) int {
				if masort.Less(x, y) {
					return -1
				}
				return 1
			}) {
				t.Fatalf("%s: input run %d is not sorted", name, i)
			}
		}
	}
}

// At workers = 1 nothing in a rep depends on timing, so the counts the
// benchmark reports must repeat exactly: the resize sequence, where each
// shrink's pressure cleared, and the I/O volume.
func TestSameSeedSameCounts(t *testing.T) {
	r := smallRunner(t, "sort_file_fluct")
	a, b := r.rep(context.Background(), nil), r.rep(context.Background(), nil)
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	if len(a.Targets) == 0 || len(a.ReactionPages) == 0 {
		t.Fatalf("the schedule never bit: %d resizes, %d shrinks under pressure", len(a.Targets), len(a.ReactionPages))
	}
	if !slices.Equal(a.Targets, b.Targets) || !slices.Equal(a.ReactionPages, b.ReactionPages) {
		t.Fatalf("resize sequence or reactions differ between two reps of one seed:\n%v %v\n%v %v", a.Targets, a.ReactionPages, b.Targets, b.ReactionPages)
	}
	if a.ioRatio() != b.ioRatio() || a.ioRatio() == 0 {
		t.Fatalf("io_pages_per_input_page %v then %v", a.ioRatio(), b.ioRatio())
	}
	for _, p := range a.Targets {
		if p < r.w.FluctFloor || p > r.w.Budget {
			t.Fatalf("scheduled target %d outside [%d, %d]", p, r.w.FluctFloor, r.w.Budget)
		}
	}
	if a.Stats.MaxGranted > r.w.Budget {
		t.Fatalf("MaxGranted %d above the schedule's ceiling %d", a.Stats.MaxGranted, r.w.Budget)
	}
}

// tamperStore corrupts page 1 of the operator's output as the harness reads
// it back. The output is the one run left once the sort has freed its
// intermediate runs; the sort itself never reads with a single run live.
type tamperStore struct {
	masort.RunStore
	how  string
	live atomic.Int64
}

func (s *tamperStore) Create() (masort.RunID, error) {
	s.live.Add(1)
	return s.RunStore.Create()
}

func (s *tamperStore) Free(id masort.RunID) error {
	s.live.Add(-1)
	return s.RunStore.Free(id)
}

func (s *tamperStore) ReadAsync(id masort.RunID, page int) masort.PageToken {
	tok := s.RunStore.ReadAsync(id, page)
	if s.live.Load() != 1 || page != 1 {
		return tok
	}
	return tamperedPage{tok, s.how}
}

type tamperedPage struct {
	masort.PageToken
	how string
}

func (t tamperedPage) Wait() (masort.Page, error) {
	pg, err := t.PageToken.Wait()
	if err != nil {
		return pg, err
	}
	pg = slices.Clone(pg)
	last := len(pg) - 1
	switch t.how {
	case "dropped":
		pg = pg[:last]
	case "duplicated":
		pg = append(pg, pg[last])
	case "reordered":
		pg[0], pg[last] = pg[last], pg[0]
	case "key-flipped":
		pg[last/2].Key ^= 1
	}
	return pg, nil
}

func TestVerifierRejectsTamperedOutput(t *testing.T) {
	for _, how := range []string{"dropped", "duplicated", "reordered", "key-flipped"} {
		t.Run(how, func(t *testing.T) {
			r := smallRunner(t, "sort_file")
			r.wrap = func(s masort.RunStore, _ string) masort.RunStore {
				return &tamperStore{RunStore: s, how: how}
			}
			res, err := r.run(context.Background(), plan{reps: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != res.Attempted || res.EndToEnd["error_rate"].Value != 1 {
				t.Fatalf("a %s record went unnoticed: %d of %d reps failed, error_rate %v",
					how, res.Failed, res.Attempted, res.EndToEnd["error_rate"].Value)
			}
			if !strings.Contains(res.Errors[0], "verify") {
				t.Fatalf("failed for another reason: %s", res.Errors[0])
			}
		})
	}
}

// leakyStore pretends to free the first run it is asked to free.
type leakyStore struct {
	masort.RunStore
	leaked atomic.Bool
}

func (s *leakyStore) Free(id masort.RunID) error {
	if !s.leaked.Swap(true) {
		return nil
	}
	return s.RunStore.Free(id)
}

func TestLeakFailsRep(t *testing.T) {
	wraps := map[string]func(masort.RunStore, string) masort.RunStore{
		"runs live": func(s masort.RunStore, _ string) masort.RunStore { return &leakyStore{RunStore: s} },
		"files left": func(s masort.RunStore, dir string) masort.RunStore {
			if err := os.WriteFile(filepath.Join(dir, "stray"), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for want, wrap := range wraps {
		r := smallRunner(t, "sort_file")
		r.wrap = wrap
		res := r.rep(context.Background(), nil)
		if res.Err == nil || !strings.Contains(res.Err.Error(), want) {
			t.Fatalf("want a rep failed by %q, got %v", want, res.Err)
		}
		if ents, _ := os.ReadDir(r.tmpRoot); len(ents) != 0 {
			t.Fatalf("the failed rep left %d entries in the temp root", len(ents))
		}
	}
}

// Every workload, small, end to end: no rep fails, every per-layer metric
// is reported, the trace file is written, and each workload exercises what
// it exists to exercise.
func TestWorkloadsSmall(t *testing.T) {
	out := t.TempDir()
	layer := map[string]map[string]float64{}
	for _, def := range workloads {
		r := smallRunner(t, def.Name)
		res, err := r.run(context.Background(), plan{reps: 2, traced: true, outDir: out})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Reps != 2 {
			t.Fatalf("%s: %d timed reps, failures: %v", def.Name, res.Reps, res.Errors)
		}
		for _, name := range driverEndToEnd {
			if res.EndToEnd[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", def.Name, name, res.EndToEnd[name].Value)
			}
		}
		layer[def.Name] = map[string]float64{}
		for _, m := range perLayer {
			mv, ok := res.PerLayer[m.Name]
			if !ok {
				t.Errorf("%s: per-layer metric %s missing", def.Name, m.Name)
			}
			layer[def.Name][m.Name] = mv.Value
		}
		var tr struct {
			Spans []spanJSON `json:"spans"`
		}
		data, err := os.ReadFile(res.TraceFile)
		if err == nil {
			err = json.Unmarshal(data, &tr)
		}
		if err != nil || len(tr.Spans) == 0 || tr.Spans[0].Name != "rep" {
			t.Fatalf("%s: bad trace file: %v (%d spans)", def.Name, err, len(tr.Spans))
		}
		if ents, _ := os.ReadDir(r.tmpRoot); len(ents) != 0 {
			t.Fatalf("%s left %d entries in the temp root", def.Name, len(ents))
		}
	}
	static, fluct := layer["sort_file"], layer["sort_file_fluct"]
	if static["budget.changes"] != 0 || static["merge.extra_reads"] != 0 {
		t.Errorf("sort_file: budget.changes %v, merge.extra_reads %v, want 0", static["budget.changes"], static["merge.extra_reads"])
	}
	if fluct["budget.changes"] == 0 || fluct["merge.splits"] <= static["merge.splits"] {
		t.Errorf("sort_file_fluct: budget.changes %v, merge.splits %v (static %v)", fluct["budget.changes"], fluct["merge.splits"], static["merge.splits"])
	}
	if layer["merge_file"]["rungen.self_s"] != 0 || layer["merge_file"]["rungen.runs"] != 0 {
		t.Errorf("merge_file generated runs: %v", layer["merge_file"])
	}
	for name, m := range layer {
		if want := float64(small(t, name).Workers); m["crew.workers"] != want {
			t.Errorf("%s: crew.workers %v, want %v", name, m["crew.workers"], want)
		}
		if m["trace.event_panics"] != 0 {
			t.Errorf("%s: trace.event_panics %v", name, m["trace.event_panics"])
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != (quartiles{2.75, 5.5, 8.25}) {
		t.Fatalf("got %+v", q)
	}
	if s := q.spread(); s != 1 {
		t.Fatalf("spread %v, want 1", s)
	}
}

func fileWith(rps, q1, q3, errRate float64) resultFile {
	return resultFile{Workloads: []workloadResult{{
		Name: "sort_file",
		EndToEnd: map[string]metricValue{
			"records_per_s": {Value: rps, Q1: q1, Q3: q3},
			"error_rate":    {Value: errRate},
		},
	}}}
}

func TestCompare(t *testing.T) {
	base := fileWith(1000, 990, 1010, 0)
	cases := []struct {
		name        string
		base, cur   resultFile
		regressions int
		verdict     string
	}{
		{"inside the bound", base, fileWith(950, 940, 960, 0), 0, "unchanged"},
		{"slower than the bound", base, fileWith(700, 690, 710, 0), 1, "REGRESSION"},
		{"noisy parent", fileWith(1000, 800, 1200, 0), fileWith(950, 940, 960, 0), 0, "unresolved"},
		{"more failures", base, fileWith(1000, 990, 1010, 0.1), 1, "REGRESSION"},
		{"workload gone", base, resultFile{}, 1, "missing"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if n := compare(&out, c.base, c.cur); n != c.regressions || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: %d regressions, want %d and %q in:\n%s", c.name, n, c.regressions, c.verdict, out.String())
		}
	}
}

// BENCHMARK.json at the repository root is the benchmark's contract with
// the driver; it must name exactly what this program prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].Name)
		}
	}
	defs := map[string]metricDef{}
	for _, d := range endToEnd {
		defs[d.Name] = d
	}
	if len(spec.EndToEnd) != len(driverEndToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d printed", len(spec.EndToEnd), len(driverEndToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := defs[m.Name]
		if m.Name != driverEndToEnd[i] || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d printed", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the program has %+v", i, m, d)
		}
	}
}
