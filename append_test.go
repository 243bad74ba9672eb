package masort

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memadapt/masort/internal/faultinject"
	"github.com/memadapt/masort/internal/pagecodec"
)

// pagedStore.Append writes where it is called (see pagedStore). These tests
// pin what that buys and what it must not lose, on all three disk-backed
// stores: the index never runs ahead of the files, a failed batch leaves
// nothing readable behind and breaks the run for everybody, Free and Close
// wait for an Append in progress and for nothing longer, and runs do not
// serialize one another.

// writeGate is a BeforeWrite hook that, while shut, holds every write that
// reaches it and says so on entered.
type writeGate struct {
	shut    atomic.Bool
	entered chan struct{} // one send per held write
	open    chan struct{}
}

func newWriteGate() *writeGate {
	g := &writeGate{entered: make(chan struct{}, 16), open: make(chan struct{})}
	g.shut.Store(true)
	return g
}

func (g *writeGate) BeforeWrite(int64, []byte) (int, error) {
	if g.shut.Load() {
		g.entered <- struct{}{}
		<-g.open
	}
	return -1, nil
}

func (g *writeGate) AfterRead(int64, []byte) error { return nil }

func (g *writeGate) release() {
	g.shut.Store(false)
	close(g.open)
}

// awaitHeld waits until n writes sit in the gate.
func (g *writeGate) awaitHeld(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d writes reached the hook", i, n)
		}
	}
}

// stillRunning fails the test if done has something within the grace period:
// the call behind it was to wait for a write that is still held.
func stillRunning[T any](t *testing.T, what string, done <-chan T) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s returned while the write was held in its hook", what)
	case <-time.After(30 * time.Millisecond):
	}
}

type appendResult struct {
	tok Token
	err error
}

func goAppend(s RunStore, id RunID, pages []Page) <-chan appendResult {
	done := make(chan appendResult, 1)
	go func() {
		tok, err := s.Append(id, pages)
		done <- appendResult{tok, err}
	}()
	return done
}

// mustAppend appends and checks the completed token.
func mustAppend(t *testing.T, s RunStore, id RunID, pages []Page) {
	t.Helper()
	tok, err := s.Append(id, pages)
	if err != nil {
		t.Fatal(err)
	}
	if err := tok.Wait(); err != nil {
		t.Fatal(err)
	}
}

func runFileSize(t *testing.T, s tokenStore, dev int, id RunID) int64 {
	t.Helper()
	fi, err := os.Stat(runFile(s.ps, id, dev))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestFileStoreReadWaitsForBackgroundWrite (the name is the parent's, when a
// read had a background write to wait for): a page is readable the moment
// Append returns, whether or not anybody ever waits for the token.
func TestFileStoreReadWaitsForBackgroundWrite(t *testing.T) {
	forPagedBackends(t, NewStoreConfig, func(t *testing.T, s tokenStore) {
		id, _ := s.Create()
		var pages []Page
		for i := 0; i < 50; i++ {
			pages = append(pages, Page{{Key: uint64(i), Payload: []byte{byte(i)}}})
		}
		for at := 0; at < len(pages); at += 10 {
			if _, err := s.Append(id, pages[at:at+10]); err != nil {
				t.Fatal(err)
			}
			if got := s.Pages(id); got != at+10 {
				t.Fatalf("Pages = %d after appending %d", got, at+10)
			}
			for i := at; i < at+10; i++ {
				pg, err := s.ReadAsync(id, i).Wait()
				if err != nil {
					t.Fatalf("page %d: %v", i, err)
				}
				if len(pg) != 1 || pg[0].Key != uint64(i) || pg[0].Payload[0] != byte(i) {
					t.Fatalf("page %d corrupted: %+v", i, pg)
				}
			}
		}
	})
}

// TestWriterErrorPropagatesToInFlightWaits: a read token issued for a written
// page before a later batch fails terminally fails at Wait — a broken run is
// never half-consumed — and the failed batch is nowhere: Pages unchanged, the
// failing file cut back to where the batch began (the torn bytes gone), and
// what healthy stripes took of the batch before the failure past the index,
// where no read can reach it.
func TestWriterErrorPropagatesToInFlightWaits(t *testing.T) {
	var sick atomic.Int32 // the device whose writes die, once armed
	mkcfg := func() *StoreConfig {
		sick.Store(-1)
		return NewStoreConfig().withDeviceFaults(func(dev int) FaultHooks {
			return hookFuncs{beforeWrite: func(off int64, b []byte) (int, error) {
				if int(sick.Load()) == dev {
					return 9, faultinject.Permanent("second batch dies")
				}
				return -1, nil
			}}
		})
	}
	forPagedBackends(t, mkcfg, func(t *testing.T, s tokenStore) {
		n := len(s.ps.disks)
		id, _ := s.Create()
		first := eightPages()[:2*n]
		mustAppend(t, s, id, first)
		early := make([]PageToken, len(first))
		for p := range first {
			early[p] = s.ReadAsync(id, p)
		}

		sick.Store(int32(n - 1)) // the batch's last write: every other stripe has its share
		second := eightPages()[:n]
		tok, err := s.Append(id, second)
		if err != nil {
			t.Fatal(err) // the failure surfaces through the token, not Append
		}
		if werr := tok.Wait(); !errors.Is(werr, ErrStoreFailed) {
			t.Fatalf("append token = %v, want ErrStoreFailed chain", werr)
		}
		for p, pt := range early {
			if _, err := pt.Wait(); !errors.Is(err, ErrStoreFailed) {
				t.Fatalf("read %d, issued before the failure = %v, want ErrStoreFailed chain", p, err)
			}
		}
		if got := s.Pages(id); got != len(first) {
			t.Fatalf("Pages = %d after the failed batch, want %d", got, len(first))
		}
		for p := 0; p < len(first)+len(second); p++ {
			if _, err := s.ReadAsync(id, p).Wait(); err == nil {
				t.Fatalf("page %d of a broken run was served", p)
			}
		}
		for dev := 0; dev < n; dev++ {
			var indexed, stranded int64
			for p := dev; p < len(first); p += n {
				indexed += int64(pagecodec.EncodedSizeSum(first[p]))
			}
			if dev < n-1 {
				stranded = int64(pagecodec.EncodedSizeSum(second[dev]))
			}
			if got := runFileSize(t, s, dev, id); got != indexed+stranded {
				t.Fatalf("device %d holds %d bytes: want %d indexed + %d unindexed (the sick device cut back to the batch's start)",
					dev, got, indexed, stranded)
			}
		}
		if err := s.Free(id); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFreeAndCloseWaitForAppendInProgress: Free and Close called while an
// Append sits in a write return only after it, and the run takes no Append
// after them.
func TestFreeAndCloseWaitForAppendInProgress(t *testing.T) {
	for _, how := range []string{"free", "close"} {
		t.Run(how, func(t *testing.T) {
			var gate *writeGate
			mkcfg := func() *StoreConfig {
				gate = newWriteGate()
				return NewStoreConfig().WithFaults(gate)
			}
			forPagedBackends(t, mkcfg, func(t *testing.T, s tokenStore) {
				id, _ := s.Create()
				appended := goAppend(s, id, eightPages())
				gate.awaitHeld(t, 1)
				torn := make(chan error, 1)
				go func() {
					if how == "free" {
						torn <- s.Free(id)
					} else {
						torn <- s.close()
					}
				}()
				stillRunning(t, how, torn)
				stillRunning(t, "Append", appended)
				gate.release()
				if res := <-appended; res.err != nil || res.tok.Wait() != nil {
					t.Fatalf("the Append in progress: %v", res.err)
				}
				if err := <-torn; err != nil {
					t.Fatalf("%s: %v", how, err)
				}
				if _, err := s.Append(id, eightPages()); err == nil {
					t.Fatalf("Append after %s was accepted", how)
				}
				if s.ps.Live() != 0 {
					t.Fatalf("%d runs live after %s", s.ps.Live(), how)
				}
			})
		})
	}
}

// TestCloseDuringWriteBackoffReturnsPromptly: a Close that arrives while an
// Append works through a retry schedule hours long waits out the sleep in
// progress at most; the Append gives up with the ErrStoreFailed chain.
func TestCloseDuringWriteBackoffReturnsPromptly(t *testing.T) {
	var attempts atomic.Int32
	mkcfg := func() *StoreConfig {
		attempts.Store(0)
		return NewStoreConfig().
			WithRetry(RetryPolicy{MaxAttempts: 20, Backoff: 10 * time.Millisecond}).
			WithFaults(hookFuncs{beforeWrite: func(int64, []byte) (int, error) {
				attempts.Add(1)
				return -1, faultinject.Transient("not now")
			}})
	}
	forPagedBackends(t, mkcfg, func(t *testing.T, s tokenStore) {
		id, _ := s.Create()
		appended := goAppend(s, id, eightPages())
		for start := time.Now(); attempts.Load() < 2; { // the second failure: a backoff follows
			if time.Since(start) > 5*time.Second {
				t.Fatalf("%d write attempts in 5 s", attempts.Load())
			}
			time.Sleep(time.Millisecond)
		}
		returnsPromptly(t, "Close during a write's backoff", s.close)
		res := <-appended
		if res.err != nil {
			t.Fatal(res.err)
		}
		if werr := res.tok.Wait(); !errors.Is(werr, ErrStoreFailed) {
			t.Fatalf("token of the abandoned Append = %v, want ErrStoreFailed chain", werr)
		}
		if got := tokenRetries(res.tok); got < 1 || got != int(attempts.Load())-1 {
			t.Fatalf("token counts %d retries after %d attempts", got, attempts.Load())
		}
	})
}

// TestAppendsToDifferentRunsOverlap: two goroutines appending to different
// runs are each inside their own write at once — the store's lock is not
// held across a write, and a run's is its own.
func TestAppendsToDifferentRunsOverlap(t *testing.T) {
	var gate *writeGate
	mkcfg := func() *StoreConfig {
		gate = newWriteGate()
		return NewStoreConfig().WithFaults(gate)
	}
	forPagedBackends(t, mkcfg, func(t *testing.T, s tokenStore) {
		a, _ := s.Create()
		b, _ := s.Create()
		doneA, doneB := goAppend(s, a, eightPages()), goAppend(s, b, eightPages())
		gate.awaitHeld(t, 2) // both are in their hooks now, neither has returned
		for _, id := range []RunID{a, b} {
			if got := s.Pages(id); got != 0 {
				t.Fatalf("run %d counts %d pages while its first write is held", id, got)
			}
		}
		gate.release()
		for _, done := range []<-chan appendResult{doneA, doneB} {
			if res := <-done; res.err != nil || res.tok.Wait() != nil {
				t.Fatalf("append: %v", res.err)
			}
		}
		for _, id := range []RunID{a, b} {
			if got := s.Pages(id); got != 8 {
				t.Fatalf("run %d counts %d pages, want 8", id, got)
			}
		}
	})
}

// TestFileStoreSortStartsNoGoroutine: a sort and the drain of its result on a
// disk-backed store, a device the page cache hides, run on the caller's
// goroutine from the first page to the last — the store starts none for a
// write, ever, and none for a read on such a device — at every worker
// count: WithWorkers starts no goroutine either. (The stores' clock is
// pinned, as in
// TestFastDeviceDispatchesNothing: a descheduled reader must not look like
// a slow disk.)
func TestFileStoreSortStartsNoGoroutine(t *testing.T) {
	in := randomRecords(20000, 23, 16)
	for _, be := range tokenBackends[:2] { // file, striped
		t.Run(be.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
					s := be.open(t, NewStoreConfig())
					epoch := time.Now()
					s.ps.now = func() time.Time { return epoch }
					base := settledGoroutines()
					samples := 0
					phase := ""
					sample := func(when string) {
						samples++
						if n := runtime.NumGoroutine(); n != base {
							t.Errorf("%d goroutines %s, %d before the sort", n, when, base)
						}
					}
					res, err := Sort(context.Background(), NewSliceIterator(in),
						WithPageRecords(32), WithBudget(NewBudget(8)), WithStore(s), WithWorkers(workers),
						WithEvents(func(ev Event) {
							switch ev.Kind {
							case EvPhase:
								phase = ev.Phase
							case EvRunDone, EvStepDone:
								sample(fmt.Sprintf("at %v in %s", ev.Kind, phase))
							}
						}))
					if err != nil {
						t.Fatal(err)
					}
					if res.Stats.Workers != workers {
						t.Fatalf("Stats.Workers = %d, want %d", res.Stats.Workers, workers)
					}
					// The last merge step runs under the drain: sample it too.
					var out []Record
					for rec, err := range res.All() {
						if err != nil {
							t.Fatal(err)
						}
						if out = append(out, rec); len(out)%4096 == 0 {
							sample("during the drain")
						}
					}
					if len(out) != len(in) {
						t.Fatalf("drained %d of %d records", len(out), len(in))
					}
					sample("after the drain")
					if res.Stats.Runs < 20 || res.Stats.MergeSteps < 2 || samples < res.Stats.Runs+res.Stats.MergeSteps {
						t.Fatalf("%d runs, %d merge steps, %d samples: the shape this test is about has many live runs",
							res.Stats.Runs, res.Stats.MergeSteps, samples)
					}
					if err := res.Close(); err != nil {
						t.Fatal(err)
					}
					if err := s.close(); err != nil {
						t.Fatal(err)
					}
					sample("after Close")
					if inline, dispatched := s.readsRun(); dispatched != 0 || inline == 0 {
						t.Fatalf("%d reads run inline, %d dispatched", inline, dispatched)
					}
				})
			}
		})
	}
}

// settledGoroutines returns the goroutine count once it has stopped
// moving: earlier tests' goroutines may still be on their way out.
func settledGoroutines() int {
	base := runtime.NumGoroutine()
	for still := 0; still < 5; still++ {
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n != base {
			base, still = n, 0
		}
	}
	return base
}
