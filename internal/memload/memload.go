// Package memload generates the paper's competing memory workload
// (Section 4): two Poisson streams of memory requests — small ones taking up
// to MemThres of total memory and large ones taking up to all of it — each
// holding its grant for an exponentially distributed duration.
package memload

import (
	"github.com/memadapt/masort/internal/bufmgr"
	"github.com/memadapt/masort/internal/randx"
	"github.com/memadapt/masort/internal/sim"
)

// StreamConfig describes one request stream.
type StreamConfig struct {
	Rate    float64 // mean arrivals per second (Poisson); 0 disables the stream
	MaxFrac float64 // request size uniform in (0, MaxFrac·M]
	Hold    float64 // mean holding time in seconds (exponential)
}

// Config holds both streams. The zero value produces no fluctuations.
type Config struct {
	Small StreamConfig
	Large StreamConfig
}

// Baseline returns the paper's Table 2 defaults: small requests at 1/s,
// ≤20% of memory, held 0.8 s on average; large requests at 0.1/s, ≤100%,
// held 5 s.
func Baseline() Config {
	return Config{
		Small: StreamConfig{Rate: 1, MaxFrac: 0.20, Hold: 0.8},
		Large: StreamConfig{Rate: 0.1, MaxFrac: 1.0, Hold: 5},
	}
}

// Magnitude returns Section 5.4's configuration: the rates and durations of
// the small and large streams are interchanged, so most contention comes
// from large requests.
func Magnitude() Config {
	return Config{
		Small: StreamConfig{Rate: 0.1, MaxFrac: 0.20, Hold: 5},
		Large: StreamConfig{Rate: 1, MaxFrac: 1.0, Hold: 0.8},
	}
}

// Scaled multiplies both arrival rates by f and divides holding times by f,
// keeping mean stolen memory constant — Section 5.5's rate experiment
// (slow: f = 0.2, fast: f = 5).
func (c Config) Scaled(f float64) Config {
	s := c
	s.Small.Rate *= f
	s.Small.Hold /= f
	s.Large.Rate *= f
	s.Large.Hold /= f
	return s
}

// Stats counts generated workload, for sanity checks.
type Stats struct {
	Arrivals  int
	PagesHeld int64 // page·grants (sum of granted sizes)
}

// Start spawns the generator processes into s. rng streams are derived from
// seed and named prefix-<stream>-{arrive,size,hold}, so the workload is
// identical across algorithm variants and independent between experiments
// that use different prefixes.
func Start(s *sim.Sim, pool *bufmgr.SharedPool, cfg Config, seed uint64, prefix string) *Stats {
	st := &Stats{}
	start := func(name string, sc StreamConfig) {
		if sc.Rate <= 0 || sc.MaxFrac <= 0 {
			return
		}
		name = prefix + "-" + name
		arr := randx.New(seed, name+"-arrive")
		size := randx.New(seed, name+"-size")
		hold := randx.New(seed, name+"-hold")
		s.Spawn(name, func(p *sim.Proc) {
			for {
				p.Sleep(sim.Time(arr.Exp(1/sc.Rate) * 1e9))
				want := int(size.Uniform(0, sc.MaxFrac) * float64(pool.Total()))
				if want < 1 {
					continue
				}
				h := sim.Time(hold.Exp(sc.Hold) * 1e9)
				st.Arrivals++
				s.Spawn(name+"-req", func(rp *sim.Proc) {
					got := pool.Request(rp, want)
					if got == 0 {
						return
					}
					st.PagesHeld += int64(got)
					rp.Sleep(h)
					pool.ReleaseRequest(got)
				})
			}
		})
	}
	start("small", cfg.Small)
	start("large", cfg.Large)
	return st
}
