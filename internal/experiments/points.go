package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/memadapt/masort/internal/core"
	"github.com/memadapt/masort/internal/memload"
	"github.com/memadapt/masort/internal/simenv"
)

// Options controls experiment execution.
type Options struct {
	// Seed is the master seed; every data point derives its streams from it.
	Seed uint64
	// Sorts per data point (response times are means over this many sorts).
	Sorts int
	// Scale shrinks the workload for quick runs: relation size and memory
	// both scale, keeping the M/‖R‖ ratio (1.0 = the paper's 20 MB / full M).
	Scale float64
	// Workers bounds parallel simulations (0 = NumCPU).
	Workers int
	// Progress, if set, receives one line per completed data point.
	Progress func(string)
}

// Defaults fills unset fields.
func (o Options) defaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Sorts <= 0 {
		o.Sorts = 8
	}
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// point is one simulation to run: an algorithm at a memory size under a
// fluctuation workload.
type point struct {
	algo  string
	mb    float64 // memory in MB (paper units)
	fluct memload.Config
	join  bool
}

func (p point) key() string { return fmt.Sprintf("%s@%.3f", p.algo, p.mb) }

// runPoints executes all points in parallel and returns results keyed by
// point key.
func runPoints(o Options, pts []point) (map[string]*simenv.Result, error) {
	o = o.defaults()
	type outcome struct {
		key string
		res *simenv.Result
		err error
	}
	work := make(chan point)
	out := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		// Worker-pool parallelism across points, deterministic despite the
		// goroutines: each point's simulation is internally deterministic and
		// results are keyed, so completion order cannot affect output.
		go func() {
			defer wg.Done()
			for p := range work {
				res, err := runPoint(o, p)
				out <- outcome{p.key(), res, err}
			}
		}()
	}
	// The feeder goroutine only moves keyed work items; simulation state is
	// untouched.
	go func() {
		for _, p := range pts {
			work <- p
		}
		close(work)
		wg.Wait()
		close(out)
	}()
	results := make(map[string]*simenv.Result, len(pts))
	var firstErr error
	for oc := range out {
		if oc.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", oc.key, oc.err)
		}
		results[oc.key] = oc.res
		if o.Progress != nil {
			o.Progress(oc.key)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// runPoint executes one simulation. The algo string may carry a ";modifier"
// suffix: "fast"/"slow" only differentiate keys (the fluctuation config is
// carried in the point), while "noshortest"/"nocombine"/"blockio" switch on
// the corresponding ablation flag.
func runPoint(o Options, p point) (*simenv.Result, error) {
	base, mod, _ := strings.Cut(p.algo, ";")
	algo, err := core.ParseNotation(base)
	if err != nil {
		return nil, err
	}
	switch mod {
	case "", "fast", "slow":
	case "noshortest":
		algo.NoShortestFirst = true
	case "nocombine":
		algo.NoCombine = true
	case "blockio":
		algo.AdaptiveBlockIO = true
	default:
		return nil, fmt.Errorf("experiments: unknown modifier %q", mod)
	}
	cfg := simenv.Default()
	cfg.Seed = o.Seed
	cfg.Algo = algo
	cfg.NumSorts = o.Sorts
	cfg.Fluct = p.fluct
	cfg.RelPages = scaleInt(2560, o.Scale, 32)
	cfg.MemoryPages = scaleInt(simenv.MemoryMB(p.mb), o.Scale, cfg.FloorPages+2)
	if p.join {
		cfg.Join = true
		cfg.JoinRightPages = cfg.RelPages / 2
	}
	return simenv.Run(cfg)
}

func scaleInt(v int, scale float64, floor int) int {
	s := int(float64(v)*scale + 0.5)
	if s < floor {
		s = floor
	}
	return s
}

func secs(res *simenv.Result) string {
	return fmt.Sprintf("%.1f", res.MeanResponse.Seconds())
}

// secsCI renders the mean response with a 95% confidence half-width.
func secsCI(res *simenv.Result) string {
	var ds []time.Duration
	for _, s := range res.Sorts {
		ds = append(ds, s.Response)
	}
	for _, j := range res.Joins {
		ds = append(ds, j.Response)
	}
	return SummarizeDurations(ds).String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
