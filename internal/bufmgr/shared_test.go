package bufmgr

import (
	"testing"
	"time"

	"github.com/memadapt/masort/internal/sim"
)

func TestSharedEqualShares(t *testing.T) {
	s := sim.New()
	sp := NewShared(s, 90, 3)
	h1, err := sp.Register()
	if err != nil {
		t.Fatal(err)
	}
	if h1.Target() != 90 {
		t.Fatalf("single op target = %d, want 90", h1.Target())
	}
	h2, _ := sp.Register()
	h3, _ := sp.Register()
	for _, h := range []*OpHandle{h1, h2, h3} {
		if h.Target() != 30 {
			t.Fatalf("3-op target = %d, want 30", h.Target())
		}
	}
	if got := h1.Acquire(50); got != 30 {
		t.Fatalf("acquire clamped to share: %d", got)
	}
	h1.Yield(30)
	sp.Unregister(h3)
	if h1.Target() != 45 {
		t.Fatalf("after unregister target = %d, want 45", h1.Target())
	}
	sp.Unregister(h2)
	sp.Unregister(h1)
	if sp.Ops() != 0 {
		t.Fatal("ops remain")
	}
}

func TestSharedRegisterFloorGuard(t *testing.T) {
	s := sim.New()
	sp := NewShared(s, 9, 3)
	for i := 0; i < 3; i++ {
		if _, err := sp.Register(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sp.Register(); err == nil {
		t.Fatal("4th operator on 9 pages with floor 3 must be rejected")
	}
}

func TestSharedRequestDropsSharesAndGrants(t *testing.T) {
	s := sim.New()
	sp := NewShared(s, 60, 3)
	h1, _ := sp.Register()
	h2, _ := sp.Register()
	h1.Acquire(30)
	h2.Acquire(30)
	var grantedAt sim.Time
	s.Spawn("req", func(p *sim.Proc) {
		h1.Bind(p) // unused binding safety
		got := sp.Request(p, 20)
		grantedAt = p.Now()
		if got != 20 {
			t.Errorf("granted %d", got)
		}
		p.Sleep(time.Millisecond)
		sp.ReleaseRequest(got)
	})
	s.Spawn("ops", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		// Shares dropped to (60-20)/2 = 20 each.
		if h1.Target() != 20 || h2.Target() != 20 {
			t.Errorf("targets = %d/%d, want 20/20", h1.Target(), h2.Target())
		}
		h1.Yield(h1.Pressure())
		p.Sleep(time.Microsecond)
		h2.Yield(h2.Pressure())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if grantedAt == 0 {
		t.Fatal("request never granted")
	}
	if len(sp.Delays) != 1 {
		t.Fatalf("delays = %d", len(sp.Delays))
	}
}

func TestSharedReclaimerInvoked(t *testing.T) {
	s := sim.New()
	sp := NewShared(s, 40, 3)
	h, _ := sp.Register()
	h.Acquire(40)
	reclaimed := 0
	h.SetReclaimer(func(need int) int {
		n := min(need, h.Granted())
		h.Yield(n)
		reclaimed += n
		return n
	})
	s.Spawn("req", func(p *sim.Proc) {
		if got := sp.Request(p, 10); got != 10 {
			t.Errorf("granted %d", got)
		}
		if p.Now() != 0 {
			t.Errorf("reclaimer should grant instantly, took %v", p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if reclaimed != 10 {
		t.Fatalf("reclaimed = %d", reclaimed)
	}
}

func TestSharedYieldWakesSiblings(t *testing.T) {
	s := sim.New()
	sp := NewShared(s, 20, 3)
	h1, _ := sp.Register()
	h1.Acquire(20) // entitled to everything while alone
	h2, _ := sp.Register()
	woke := false
	s.Spawn("h2", func(p *sim.Proc) {
		h2.Bind(p)
		for h2.Acquire(5) == 0 {
			h2.WaitChange()
		}
		woke = true
	})
	s.Spawn("h1", func(p *sim.Proc) {
		h1.Bind(p)
		p.Sleep(time.Millisecond)
		h1.Yield(15)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Fatal("sibling never acquired after yield")
	}
}

func TestSharedConservationPanicsOnMisuse(t *testing.T) {
	s := sim.New()
	sp := NewShared(s, 10, 2)
	h, _ := sp.Register()
	h.Acquire(5)
	defer func() {
		if recover() == nil {
			t.Fatal("unregistering a holding operator must panic")
		}
	}()
	sp.Unregister(h)
}
