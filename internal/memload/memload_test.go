package memload

import (
	"math"
	"testing"
	"time"

	"github.com/memadapt/masort/internal/bufmgr"
	"github.com/memadapt/masort/internal/sim"
)

// runWorkload simulates an operator that instantly yields under pressure and
// greedily reacquires, sampling how much memory the requests hold.
func runWorkload(t *testing.T, cfg Config, seconds int) (meanStolenFrac float64, st *Stats) {
	t.Helper()
	s := sim.New()
	pool := bufmgr.NewShared(s, 100, 4)
	op, err := pool.Register()
	if err != nil {
		t.Fatal(err)
	}
	op.Acquire(100)
	st = Start(s, pool, cfg, 42, "memload")
	var samples, stolen float64
	s.Spawn("op", func(p *sim.Proc) {
		end := sim.Time(seconds) * time.Second
		for p.Now() < end {
			p.Sleep(10 * time.Millisecond)
			if pr := op.Pressure(); pr > 0 {
				op.Yield(pr)
			} else {
				op.Acquire(op.Target() - op.Granted())
			}
			samples++
			stolen += float64(pool.ReqGranted())
		}
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return stolen / samples / 100, st
}

func TestBaselineStealsModestFraction(t *testing.T) {
	// Baseline: small 1/s × 0.8s × E[U(0,20%)]=10% → ~8%;
	// large 0.1/s × 5s × 50% → ~25%. Total ~1/3 of memory.
	frac, st := runWorkload(t, Baseline(), 400)
	if frac < 0.15 || frac > 0.50 {
		t.Fatalf("baseline stolen fraction = %.2f, want ~0.33", frac)
	}
	if st.Arrivals < 300 {
		t.Fatalf("arrivals = %d, want ~440", st.Arrivals)
	}
}

func TestMagnitudeStealsMore(t *testing.T) {
	fb, _ := runWorkload(t, Baseline(), 300)
	fm, _ := runWorkload(t, Magnitude(), 300)
	if fm <= fb {
		t.Fatalf("magnitude config must steal more memory: baseline %.2f, magnitude %.2f", fb, fm)
	}
}

func TestScaledKeepsMeanSteal(t *testing.T) {
	f1, _ := runWorkload(t, Baseline(), 600)
	f5, _ := runWorkload(t, Baseline().Scaled(5), 600)
	if math.Abs(f1-f5) > 0.12 {
		t.Fatalf("scaling changed mean steal too much: %.2f vs %.2f", f1, f5)
	}
}

func TestScaledChangesRate(t *testing.T) {
	_, s1 := runWorkload(t, Baseline(), 200)
	_, s5 := runWorkload(t, Baseline().Scaled(5), 200)
	if s5.Arrivals < 3*s1.Arrivals {
		t.Fatalf("fast config should arrive ~5x as often: %d vs %d", s1.Arrivals, s5.Arrivals)
	}
}

func TestZeroConfigIsQuiet(t *testing.T) {
	frac, st := runWorkload(t, Config{}, 50)
	if frac != 0 || st.Arrivals != 0 {
		t.Fatalf("zero config produced arrivals=%d stolen=%.2f", st.Arrivals, frac)
	}
}
