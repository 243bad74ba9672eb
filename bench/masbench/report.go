package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// hostInfo is recorded next to every result: a number without the machine
// and toolchain that produced it cannot be compared with another.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"git_commit"`
}

func thisHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// resultFile is what a suite run writes. Claim stays null: the benchmark
// reports what it reads and claims no gain.
type resultFile struct {
	Host      hostInfo         `json:"host"`
	Time      string           `json:"time"`
	Seed      uint64           `json:"seed"`
	Reps      int              `json:"reps"`
	WallS     float64          `json:"wall_s"`
	Workloads []workloadResult `json:"workloads"`
	Claim     *string          `json:"claim"`
}

func (f resultFile) workload(name string) *workloadResult {
	for i := range f.Workloads {
		if f.Workloads[i].Name == name {
			return &f.Workloads[i]
		}
	}
	return nil
}

func writeResult(path string, f resultFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func newResultFile(seed uint64, reps int) resultFile {
	return resultFile{Host: thisHost(), Time: time.Now().UTC().Format(time.RFC3339), Seed: seed, Reps: reps}
}

// printWorkload prints every metric of one workload by name, with its unit.
func printWorkload(w io.Writer, r workloadResult) {
	fmt.Fprintf(w, "\n== %s  (seed %d, %d timed reps, %d/%d reps failed, %.1f s)\n   %s\n",
		r.Name, r.Seed, r.Reps, r.Failed, r.Attempted, r.WallS, r.Why)
	for _, def := range endToEnd {
		mv, ok := r.EndToEnd[def.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-10s", def.Name, mv.Value, mv.Unit)
		if mv.Q1 != 0 || mv.Q3 != 0 {
			fmt.Fprintf(w, " quartiles [%.6g, %.6g]", mv.Q1, mv.Q3)
		}
		fmt.Fprintf(w, "  %s better, bound %g%%\n", def.Better, 100*def.Bound)
	}
	for _, def := range perLayer {
		mv, ok := r.PerLayer[def.Name]
		if !ok {
			continue
		}
		if def.Name == "crew.speedup_vs_w1" && r.SpeedupUnresolved {
			fmt.Fprintf(w, "  %-34s %16s %s\n", def.Name, "unresolved", "(one core)")
			continue
		}
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", def.Name, mv.Value, mv.Unit)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED REP: %s\n", e)
	}
}

// worseBy is how much worse cur reads than base, as a share of base, in
// the metric's own direction (negative when cur is better).
func worseBy(def metricDef, base, cur float64) float64 {
	if base == 0 {
		switch {
		case cur == 0:
			return 0
		case def.Better == "lower":
			return 1
		}
		return -1
	}
	d := (cur - base) / base
	if def.Better == "higher" {
		d = -d
	}
	return d
}

// compare prints one row per workload and end-to-end metric of two result
// files and returns how many rows regressed. A row is a regression when
// cur's median is worse than base's by more than the metric's bound (any
// rise, for error_rate); it is unresolved rather than unchanged when
// base's own inter-quartile spread is wider than the bound, because then a
// difference inside the bound could not have been seen.
func compare(w io.Writer, base, cur resultFile) int {
	fmt.Fprintf(w, "%-16s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "base median", "new median", "new/base", "bound", "verdict")
	regressions := 0
	for _, b := range base.Workloads {
		c := cur.workload(b.Name)
		if c == nil {
			fmt.Fprintf(w, "%-16s missing from the new result\n", b.Name)
			regressions++
			continue
		}
		for _, def := range endToEnd {
			bv, ok1 := b.EndToEnd[def.Name]
			cv, ok2 := c.EndToEnd[def.Name]
			if !ok1 || !ok2 {
				continue
			}
			worse := worseBy(def, bv.Value, cv.Value)
			spread := quartiles{Q1: bv.Q1, Median: bv.Value, Q3: bv.Q3}.spread()
			verdict := "unchanged"
			switch {
			case worse > def.Bound:
				verdict = "REGRESSION"
				regressions++
			case spread > def.Bound:
				verdict = "unresolved"
			}
			ratio := "-"
			if bv.Value != 0 {
				ratio = fmt.Sprintf("%.4f", cv.Value/bv.Value)
			}
			fmt.Fprintf(w, "%-16s %-26s %14.6g %14.6g %9s %6.3g%%  %s", b.Name, def.Name, bv.Value, cv.Value, ratio, 100*def.Bound, verdict)
			if bv.Q1 != 0 || bv.Q3 != 0 {
				fmt.Fprintf(w, "  base q[%.6g, %.6g] new q[%.6g, %.6g]", bv.Q1, bv.Q3, cv.Q1, cv.Q3)
			}
			fmt.Fprintln(w)
		}
	}
	return regressions
}

// driverLine is the one JSON object the benchmark driver reads from the
// last line of standard output.
func driverLine(r workloadResult, metrics map[string]metricValue) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for name, mv := range metrics {
		line.Metrics[name] = value{mv.Value, mv.Unit}
	}
	data, err := json.Marshal(line)
	return string(data), err
}
