package bufmgr

import (
	"testing"
	"time"

	"github.com/memadapt/masort/internal/sim"
)

// one returns a pool with exactly one registered operator — the paper's
// system model — and that operator's handle.
func one(t *testing.T, s *sim.Sim, total, floor int) (*SharedPool, *OpHandle) {
	t.Helper()
	sp := NewShared(s, total, floor)
	b, err := sp.Register()
	if err != nil {
		t.Fatal(err)
	}
	return sp, b
}

func TestOperatorAcquireUpToTarget(t *testing.T) {
	s := sim.New()
	sp, b := one(t, s, 100, 4)
	if got := b.Acquire(120); got != 100 {
		t.Fatalf("acquire = %d, want full pool 100", got)
	}
	if sp.free != 0 || b.Granted() != 100 {
		t.Fatalf("free=%d op=%d", sp.free, b.Granted())
	}
	b.Yield(30)
	if sp.free != 30 || b.Granted() != 70 {
		t.Fatalf("after yield: free=%d op=%d", sp.free, b.Granted())
	}
}

func TestRequestDropsTargetAndCreatesPressure(t *testing.T) {
	s := sim.New()
	sp, b := one(t, s, 100, 4)
	b.Acquire(100)
	var grantedAt sim.Time
	s.Spawn("req", func(p *sim.Proc) {
		got := sp.Request(p, 40)
		grantedAt = p.Now()
		if got != 40 {
			t.Errorf("request granted %d, want 40", got)
		}
	})
	s.Spawn("op", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // request arrives first
		if b.Target() != 60 {
			t.Errorf("target = %d, want 60", b.Target())
		}
		if b.Pressure() != 40 {
			t.Errorf("pressure = %d, want 40", b.Pressure())
		}
		p.Sleep(9 * time.Millisecond) // simulate writing tuples out
		b.Yield(40)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if grantedAt != 10*time.Millisecond {
		t.Fatalf("granted at %v, want 10ms", grantedAt)
	}
	if len(sp.Delays) != 1 || sp.Delays[0].Delay != 10*time.Millisecond {
		t.Fatalf("delays = %+v", sp.Delays)
	}
}

func TestFloorCapsRequests(t *testing.T) {
	s := sim.New()
	sp, b := one(t, s, 50, 10)
	b.Acquire(50)
	s.Spawn("req", func(p *sim.Proc) {
		got := sp.Request(p, 50) // capped to 40 by floor
		if got != 40 {
			t.Errorf("granted %d, want 40", got)
		}
	})
	s.Spawn("op", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		b.Yield(b.Pressure())
		if b.Granted() != 10 {
			t.Errorf("operator at %d, want floor 10", b.Granted())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRequestRejectedWhenNoHeadroom(t *testing.T) {
	s := sim.New()
	sp, b := one(t, s, 20, 10)
	b.Acquire(20)
	s.Spawn("r1", func(p *sim.Proc) {
		if got := sp.Request(p, 10); got != 10 {
			t.Errorf("r1 = %d", got)
		}
	})
	s.Spawn("r2", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		if got := sp.Request(p, 5); got != 0 {
			t.Errorf("r2 should be rejected, got %d", got)
		}
	})
	s.Spawn("op", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		b.Yield(b.Pressure())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sp.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", sp.Rejected)
	}
}

func TestFIFOGrantOrder(t *testing.T) {
	s := sim.New()
	sp, b := one(t, s, 100, 4)
	b.Acquire(100)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn("req", func(p *sim.Proc) {
			p.Sleep(sim.Time(i) * time.Microsecond)
			sp.Request(p, 20)
			order = append(order, i)
		})
	}
	s.Spawn("op", func(p *sim.Proc) {
		// Yield slowly, 20 pages every ms: grants must come FIFO.
		for j := 0; j < 3; j++ {
			p.Sleep(time.Millisecond)
			b.Yield(20)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("grant order %v, want FIFO", order)
		}
	}
}

func TestTargetRisesOnRelease(t *testing.T) {
	s := sim.New()
	sp, b := one(t, s, 100, 4)
	b.Acquire(100)
	s.Spawn("req", func(p *sim.Proc) {
		got := sp.Request(p, 30)
		p.Sleep(5 * time.Millisecond)
		sp.ReleaseRequest(got)
	})
	var targetAfter int
	s.Spawn("op", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		b.Bind(p)
		b.Yield(b.Pressure())
		b.WaitTarget(100)
		targetAfter = b.Target()
		if got := b.Acquire(100 - b.Granted()); got != 30 {
			t.Errorf("reacquired %d, want 30", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if targetAfter != 100 {
		t.Fatalf("target after release = %d, want 100", targetAfter)
	}
}

func TestWaitChangeWakesOnArrival(t *testing.T) {
	s := sim.New()
	sp, b := one(t, s, 100, 4)
	b.Acquire(100)
	woke := false
	s.Spawn("op", func(p *sim.Proc) {
		b.Bind(p)
		b.WaitChange()
		woke = true
		b.Yield(b.Pressure())
	})
	s.Spawn("req", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		sp.Request(p, 10)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Fatal("operator not woken by request arrival")
	}
}

// TestPhaseAttribution: a request's delay is filed under the operator's
// phase at arrival when exactly one operator is registered (the paper's
// model; Figure 9 / Table 8 break delays down by phase), and under "shared"
// when none or several are — there is no one phase to name.
func TestPhaseAttribution(t *testing.T) {
	for ops, want := range []string{"shared", "split", "shared"} {
		s := sim.New()
		sp := NewShared(s, 100, 4)
		phase := "split"
		hs := make([]*OpHandle, ops)
		for i := range hs {
			hs[i], _ = sp.Register()
			hs[i].PhaseFn = func() string { return phase }
			hs[i].Acquire(100)
		}
		s.Spawn("req", func(p *sim.Proc) {
			sp.Request(p, 10)
		})
		s.Spawn("op", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			phase = "merge" // phase at *arrival* must be recorded
			for _, h := range hs {
				h.Yield(h.Pressure())
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if len(sp.Delays) != 1 || sp.Delays[0].Phase != want {
			t.Fatalf("%d operators: delays = %+v, want phase %q", ops, sp.Delays, want)
		}
	}
}

// An operator that never set PhaseFn is attributed like no operator at all.
func TestPhaseAttributionUnset(t *testing.T) {
	s := sim.New()
	sp, _ := one(t, s, 100, 4)
	s.Spawn("req", func(p *sim.Proc) { sp.Request(p, 10) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sp.Delays) != 1 || sp.Delays[0].Phase != "shared" {
		t.Fatalf("delays = %+v, want phase shared", sp.Delays)
	}
}

func TestConservationUnderChurn(t *testing.T) {
	s := sim.New()
	sp, b := one(t, s, 64, 4)
	b.Acquire(64)
	for i := 0; i < 40; i++ {
		i := i
		s.Spawn("req", func(p *sim.Proc) {
			p.Sleep(sim.Time(i) * 500 * time.Microsecond)
			got := sp.Request(p, 5+(i%13))
			if got == 0 {
				return
			}
			p.Sleep(time.Duration(1+i%7) * time.Millisecond)
			sp.ReleaseRequest(got)
		})
	}
	s.Spawn("op", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			p.Sleep(300 * time.Microsecond)
			if pr := b.Pressure(); pr > 0 {
				b.Yield(pr)
			} else {
				b.Acquire(b.Target() - b.Granted())
			}
			// check() panics inside the pool if conservation breaks.
			if b.Granted() < 0 || b.Granted() > 64 {
				t.Errorf("op granted out of range: %d", b.Granted())
			}
		}
		// Drain: yield everything so pending requests can finish.
		b.Yield(b.Granted())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestYieldTooMuchPanics(t *testing.T) {
	s := sim.New()
	_, b := one(t, s, 10, 2)
	b.Acquire(5)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	b.Yield(6)
}
