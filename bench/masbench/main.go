// Command masbench is the repository's benchmark: five named workloads run
// through masort's public API, each verified, each reporting the same six
// end-to-end metrics, plus one traced rep per workload that attributes the
// time to the repo's layers from outside (see ../README.md).
//
//	masbench                                   the whole suite, result in out/result.json
//	masbench -workload sort_file -seconds 15   one workload, time-bounded
//	masbench -compare old.json new.json        regressions between two results
//	masbench -selfcheck                        the suite twice, A against A
//
// With -workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics for
// -trace 0, the per-layer metrics for -trace 1, both when -trace is left
// out.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("workload", "", "run one workload (default: all five)")
		seed      = flag.Uint64("seed", 1, "seed every input and budget schedule is generated from")
		secs      = flag.Int("seconds", 0, "measure each workload for this long instead of -reps timed reps")
		reps      = flag.Int("reps", 15, "timed reps per workload")
		traceMode = flag.Int("trace", -1, "0: timed reps only; 1: a traced run (per-layer metrics); default both")
		outDir    = flag.String("out", "out", "directory for result and trace files")
		tmpDir    = flag.String("tmp", "", "directory for the stores' run files (default <out>/tmp)")
		result    = flag.String("o", "", "result file of a suite run (default <out>/result.json)")
		doCompare = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice and compare the two runs")
	)
	flag.Parse()

	if *doCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "masbench: -compare needs two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "masbench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *reps < 1 || *secs < 0 {
		fmt.Fprintln(os.Stderr, "masbench: -reps must be at least 1 and -seconds not negative")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *tmpDir == "" {
		*tmpDir = filepath.Join(*outDir, "tmp")
	}
	for _, dir := range []string{*outDir, *tmpDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "masbench:", err)
			return 1
		}
	}
	// Everything the stores write lives under one directory of this
	// process, removed on every way out of run, an interrupt included.
	tmpRoot, err := os.MkdirTemp(*tmpDir, "masbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "masbench:", err)
		return 1
	}
	defer os.RemoveAll(tmpRoot)

	p := plan{reps: *reps, seconds: time.Duration(*secs) * time.Second, traced: *traceMode != 0, outDir: *outDir}
	var code int
	switch {
	case *selfcheck:
		code, err = runSelfcheck(ctx, *seed, tmpRoot, p)
	case *name != "":
		code, err = runOne(ctx, *name, *seed, tmpRoot, p, *traceMode)
	default:
		if *result == "" {
			*result = filepath.Join(*outDir, "result.json")
		}
		var f resultFile
		f, err = runSuite(ctx, *seed, tmpRoot, p)
		if err == nil {
			err = writeResult(*result, f)
		}
		if err == nil {
			fmt.Printf("\nresult written to %s\n\"claim\": null\n", *result)
			code = failedReps(f)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "masbench:", err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	return code
}

// failedReps is the exit code of a run: 1 when any rep failed.
func failedReps(f resultFile) int {
	for _, w := range f.Workloads {
		if w.Failed > 0 {
			return 1
		}
	}
	return 0
}

// runOne runs a single workload and ends standard output with the driver's
// JSON line.
func runOne(ctx context.Context, name string, seed uint64, tmpRoot string, p plan, traceMode int) (int, error) {
	w, ok := findWorkload(name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", name)
	}
	res, err := runWorkload(ctx, w, seed, tmpRoot, p)
	if err != nil {
		return 1, err
	}
	printWorkload(os.Stdout, res)
	metrics := map[string]metricValue{}
	if traceMode != 1 {
		for _, n := range driverEndToEnd {
			metrics[n] = res.EndToEnd[n]
		}
	}
	if traceMode != 0 {
		if res.PerLayer == nil {
			return 1, fmt.Errorf("%s: no rep passed, so nothing was traced: %v", name, res.Errors)
		}
		maps.Copy(metrics, res.PerLayer)
	}
	line, err := driverLine(res, metrics)
	if err != nil {
		return 1, err
	}
	fmt.Println(line)
	if res.Failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// runSuite runs every workload in order. sort_file's throughput is handed
// to the multi-worker workload as the base of its speed-up.
func runSuite(ctx context.Context, seed uint64, tmpRoot string, p plan) (resultFile, error) {
	f := newResultFile(seed, p.reps)
	start := time.Now()
	for _, w := range workloads {
		wp := p
		if base := f.workload("sort_file"); base != nil && w.Workers > 1 {
			wp.baseRPS = base.EndToEnd["records_per_s"].Value
		}
		res, err := runWorkload(ctx, w, seed, tmpRoot, wp)
		if err != nil {
			return f, err
		}
		printWorkload(os.Stdout, res)
		f.Workloads = append(f.Workloads, res)
	}
	f.WallS = time.Since(start).Seconds()
	return f, nil
}

func compareFiles(oldPath, newPath string) int {
	base, err := readResult(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "masbench:", err)
		return 2
	}
	cur, err := readResult(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "masbench:", err)
		return 2
	}
	if n := compare(os.Stdout, base, cur); n > 0 {
		fmt.Printf("%d regression(s)\n", n)
		return 1
	}
	return 0
}

// runSelfcheck runs the suite twice on this binary and compares the second
// run against the first: with no change between them, every difference is
// the benchmark's own noise and must sit inside the metric's bound.
func runSelfcheck(ctx context.Context, seed uint64, tmpRoot string, p plan) (int, error) {
	a, err := runSuite(ctx, seed, tmpRoot, p)
	if err != nil {
		return 1, err
	}
	b, err := runSuite(ctx, seed, tmpRoot, p)
	if err != nil {
		return 1, err
	}
	for i, f := range []resultFile{a, b} {
		if err := writeResult(filepath.Join(p.outDir, fmt.Sprintf("selfcheck-%c.json", 'a'+i)), f); err != nil {
			return 1, err
		}
	}
	fmt.Printf("\nA/A: second run against the first, same binary, same seed\n")
	if n := compare(os.Stdout, a, b); n > 0 {
		fmt.Printf("%d metric(s) moved by more than their bound with no change: raise -reps (now %d)\n", n, p.reps)
		return 1, nil
	}
	fmt.Println("every end-to-end metric repeats within its bound")
	return failedReps(a) | failedReps(b), nil
}
