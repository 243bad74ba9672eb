// Command masort externally sorts a text file of records under a fluctuating
// memory budget, demonstrating the memory-adaptive sorting library on real
// data.
//
// Each input line becomes one record; the sort key is either a leading
// integer field (-key=number) or a hash of the line (-key=hash, default
// -key=prefix uses the first 8 bytes). Example:
//
//	masort -in data.txt -out sorted.txt -budget 64 -adapt split \
//	       -script "25%:-40,50%:+20,75%:-30"
//
// The -script flag schedules budget changes at input-progress milestones, so
// adaptation behavior is reproducible; -stats prints what the sort did.
//
// Observability: -stats prints the Result's counts after the sort, -events
// prints the adaptation events as they happen, and -trace FILE writes a
// Chrome trace_event JSON timeline loadable in chrome://tracing.
package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"

	"github.com/memadapt/masort"
	"github.com/memadapt/masort/trace"
)

type scriptedChange struct {
	atRecord int
	delta    int // signed page delta; 0 means absolute resize via pages
	pages    int
}

func parseScript(s string, totalHint int, budgetPages int) ([]scriptedChange, error) {
	if s == "" {
		return nil, nil
	}
	var out []scriptedChange
	for _, part := range strings.Split(s, ",") {
		at, change, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad script entry %q (want when:±pages)", part)
		}
		var rec int
		if strings.HasSuffix(at, "%") {
			pct, err := strconv.Atoi(strings.TrimSuffix(at, "%"))
			if err != nil {
				return nil, fmt.Errorf("bad script position %q", at)
			}
			rec = totalHint * pct / 100
		} else {
			v, err := strconv.Atoi(at)
			if err != nil {
				return nil, fmt.Errorf("bad script position %q", at)
			}
			rec = v
		}
		d, err := strconv.Atoi(change)
		if err != nil {
			return nil, fmt.Errorf("bad script delta %q", change)
		}
		out = append(out, scriptedChange{atRecord: rec, delta: d, pages: budgetPages})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].atRecord < out[j].atRecord })
	return out, nil
}

func keyOf(mode string, line []byte) uint64 {
	switch mode {
	case "number":
		f := line
		if i := strings.IndexAny(string(line), " \t,"); i >= 0 {
			f = line[:i]
		}
		v, err := strconv.ParseInt(strings.TrimSpace(string(f)), 10, 64)
		if err == nil {
			// Order-preserving shift of signed ints into uint64 space.
			return uint64(v) ^ (1 << 63)
		}
		return ^uint64(0) // unparsable keys sort last
	case "hash":
		h := fnv.New64a()
		_, _ = h.Write(line)
		return h.Sum64()
	default: // prefix
		var b [8]byte
		copy(b[:], line)
		return binary.BigEndian.Uint64(b[:])
	}
}

func main() {
	var (
		in        = flag.String("in", "", "input file (default stdin)")
		outPath   = flag.String("out", "", "output file (default stdout)")
		keyMode   = flag.String("key", "prefix", "sort key: prefix | number | hash")
		budget    = flag.Int("budget", 64, "memory budget in pages")
		prec      = flag.Int("page-records", 256, "records per page")
		method    = flag.String("method", "repl", "split method: repl | quick")
		block     = flag.Int("block", 6, "replacement-selection block pages")
		adapt     = flag.String("adapt", "split", "merge adaptation: split | page | susp")
		merge     = flag.String("merge", "opt", "merge strategy: opt | naive")
		script    = flag.String("script", "", "budget changes, e.g. \"25%:-40,50%:+20\" (percent of input records)")
		tmpDir    = flag.String("tmp", "", "run-file directory, or comma-separated directories to stripe a file store over (default: in-memory store)")
		storeKind = flag.String("store", "", "run store backend: file | mmap (default: file when -tmp is set, else in-memory)")
		stats     = flag.Bool("stats", false, "print sort statistics to stderr")
		events    = flag.Bool("events", false, "print adaptation events to stderr")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON file (load in chrome://tracing)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "masort: %v\n", err)
		os.Exit(1)
	}

	// Read input lines.
	var src *os.File = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		src = f
	}
	var lines [][]byte
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := make([]byte, len(sc.Bytes()))
		copy(line, sc.Bytes())
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		fail(err)
	}

	changes, err := parseScript(*script, len(lines), *budget)
	if err != nil {
		fail(err)
	}

	pages := masort.NewBudget(*budget)
	opts := []masort.Option{
		masort.WithBlockPages(*block),
		masort.WithPageRecords(*prec),
		masort.WithBudget(pages),
	}
	switch *method {
	case "repl":
		opts = append(opts, masort.WithMethod(masort.ReplacementSelection))
	case "quick":
		opts = append(opts, masort.WithMethod(masort.Quicksort))
	default:
		fail(fmt.Errorf("unknown -method %q", *method))
	}
	switch *adapt {
	case "split":
		opts = append(opts, masort.WithAdaptation(masort.DynamicSplitting))
	case "page":
		opts = append(opts, masort.WithAdaptation(masort.MRUPaging))
	case "susp":
		opts = append(opts, masort.WithAdaptation(masort.Suspension))
	default:
		fail(fmt.Errorf("unknown -adapt %q", *adapt))
	}
	switch *merge {
	case "opt":
		opts = append(opts, masort.WithMergeStrategy(masort.Optimized))
	case "naive":
		opts = append(opts, masort.WithMergeStrategy(masort.Naive))
	default:
		fail(fmt.Errorf("unknown -merge %q", *merge))
	}
	// Pick the run store: -store selects the backend, -tmp supplies its
	// directories (comma-separated: a file store striped over them). With
	// neither flag runs stay in memory; -tmp alone keeps the historical
	// file-store behavior.
	if *storeKind != "" || *tmpDir != "" {
		var dirs []string
		if *tmpDir != "" {
			dirs = strings.Split(*tmpDir, ",")
		}
		cfg := masort.NewStoreConfig()
		switch *storeKind {
		case "", "file":
			fs, err := cfg.File(dirs...)
			if err != nil {
				fail(err)
			}
			defer fs.Close()
			opts = append(opts, masort.WithStore(fs))
		case "mmap":
			if len(dirs) > 1 {
				fail(fmt.Errorf("-store mmap takes one -tmp directory, not %d", len(dirs)))
			}
			ms, err := cfg.Mmap(*tmpDir)
			if err != nil {
				fail(err)
			}
			defer ms.Close()
			opts = append(opts, masort.WithStore(ms))
		default:
			fail(fmt.Errorf("unknown -store %q (want file or mmap)", *storeKind))
		}
	}
	if *events {
		opts = append(opts, masort.WithEvents(func(ev masort.Event) {
			fmt.Fprintf(os.Stderr, "event %-13s t=%-14v target=%-4d granted=%-4d detail=%d %s\n",
				ev.Kind, ev.At, ev.Target, ev.Granted, ev.Detail, ev.Phase)
		}))
	}

	// -trace captures the whole event stream as a Chrome trace file.
	finishTrace := func() {}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		bw := bufio.NewWriter(f)
		chrome := trace.NewChrome(bw)
		opts = append(opts, masort.WithTracer(chrome))
		finishTrace = func() {
			if err := chrome.Close(); err != nil {
				fail(err)
			}
			if err := bw.Flush(); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
		}
	}
	// Ctrl-C cancels the sort at its next adaptation point; all run
	// storage is released before exiting.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	// The input iterator fires scripted budget changes at record milestones.
	idx := 0
	seen := 0
	pending := changes
	it := masort.FuncIterator(func() (masort.Record, bool, error) {
		for len(pending) > 0 && seen >= pending[0].atRecord {
			ch := pending[0]
			pending = pending[1:]
			if ch.delta >= 0 {
				pages.Grow(ch.delta)
			} else {
				pages.Shrink(-ch.delta)
			}
			if *stats {
				fmt.Fprintf(os.Stderr, "budget %+d pages at record %d (target now %d)\n",
					ch.delta, seen, pages.Target())
			}
		}
		if idx >= len(lines) {
			return masort.Record{}, false, nil
		}
		line := lines[idx]
		idx++
		seen++
		// The payload keeps the full line so ties and output are exact.
		return masort.Record{Key: keyOf(*keyMode, line), Payload: line}, true, nil
	})

	res, err := masort.Sort(ctx, it, opts...)
	if err != nil {
		fail(err)
	}
	defer res.Close()
	// The last merge step runs as the output is written, and a failure or
	// Ctrl-C there leaves its input runs to Close: fail exits past defers.
	failRes := func(err error) {
		res.Close()
		fail(err)
	}

	dst := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		dst = f
	}
	w := bufio.NewWriter(dst)
	for rec, err := range res.All() {
		if err != nil {
			failRes(err)
		}
		if _, err := w.Write(rec.Payload); err != nil {
			failRes(err)
		}
		if err := w.WriteByte('\n'); err != nil {
			failRes(err)
		}
	}
	if err := w.Flush(); err != nil {
		fail(err)
	}

	if *stats {
		s := res.Stats
		fmt.Fprintf(os.Stderr,
			"sorted %d records: %d runs, %d merge steps, %d splits, %d combines, %d suspensions, %d extra reads, %v total\n",
			res.Tuples, s.Runs, s.MergeSteps, s.Splits, s.Combines, s.Suspensions, s.ExtraMergeReads, s.Response)
		// Whether the store takes merge-read pages back for reuse: on the
		// disk-backed stores, those of every step that writes its output —
		// the last step, which the drain above ran, gives its input pages
		// back record arrays only — and none on mem.
		fmt.Fprintf(os.Stderr, "merge pages released to the store / read: %d / %d\n", s.MergePagesReleased, s.MergePagesRead)
		if *traceOut != "" { // the store I/O is measured only on a traced sort
			fmt.Fprintf(os.Stderr,
				"store I/O: %d reads (%d bytes, %v), %d writes (%d bytes, %v)\n",
				s.StoreReads, s.BytesRead, s.ReadLatency, s.StoreWrites, s.BytesWritten, s.WriteLatency)
		}
	}
	finishTrace()
}
