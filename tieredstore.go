package masort

import (
	"fmt"
	"sync"
	"time"

	"github.com/memadapt/masort/trace"
)

// TieredStore is a spill-chain RunStore: runs live in a bounded in-memory
// tier and are demoted — whole runs at a time, least-recently-used first —
// to a backing store when the tier exceeds its page budget. Reads of a
// demoted run promote the pages they touch back into the tier (when it has
// headroom), so a hot merge input pays the backing store's latency once.
//
// The memory tier behaves like MemStore (Append copies the record slices;
// pages read from it are shared and read-only); the backing store supplies
// its own durability, checksums, retries and fault handling — a
// FileStore, StripedStore or MmapStore all slot in unchanged. Demotion is
// synchronous: the demoting Append returns once the victim's pages are
// durable in the backing store.
//
// Failure semantics: a backing-store failure during demotion breaks the
// VICTIM run (its pages have left the tier and cannot be trusted), not the
// run whose Append triggered the demotion; appends and reads on a broken
// run report the backing store's ErrStoreFailed chain. A failure while
// appending directly to an already-demoted run breaks that run exactly
// like the backing store would.
//
// With a tracer configured (StoreConfig.WithTracer), demotions emit
// KindStoreDemote (Pages = pages spilled) and promotions KindStorePromote
// (Pages = tier-resident pages after the promotion).
//
// The caller keeps ownership of the backing store: Close frees the tiered
// runs (and their backing runs) but does not close the backing store.
type TieredStore struct {
	backing RunStore
	limit   int
	tr      trace.Tracer

	mu       sync.Mutex
	runs     map[RunID]*tieredRun
	next     RunID
	resident int   // pages held in memory: run pages + promoted cache pages
	clock    int64 // LRU tick, bumped on every run touch
}

// tieredRun is one run's tier state: resident pages before demotion, the
// backing run and promoted-page cache after.
type tieredRun struct {
	pages   []Page // resident tier copy; nil once demoted
	n       int    // total pages appended
	demoted bool
	bid     RunID        // backing run id, valid once demoted
	cache   map[int]Page // promoted pages of a demoted run
	lastUse int64
	werr    error // sticky: demotion or backing append failure
}

// NewTieredStore creates a tiered run store with the default configuration
// (no tracer): a memory tier bounded to memPages pages spilling to
// backing. Use StoreConfig.Tiered to attach a tracer. memPages <= 0 means
// every run is demoted on its first append — a pure write-through mode.
func NewTieredStore(memPages int, backing RunStore) (*TieredStore, error) {
	return NewStoreConfig().Tiered(memPages, backing)
}

// Backing returns the store demoted runs spill to.
func (s *TieredStore) Backing() RunStore { return s.backing }

// MemLimit returns the memory tier's page budget.
func (s *TieredStore) MemLimit() int { return s.limit }

// Resident returns the number of pages currently held in the memory tier
// (run pages plus promoted cache pages).
func (s *TieredStore) Resident() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resident
}

// noteTier emits one demotion/promotion event; pages is the page count the
// event is about.
func (s *TieredStore) noteTier(kind trace.Kind, pages int) {
	if s.tr == nil {
		return
	}
	emitSafe(s.tr, trace.Event{Kind: kind, Time: time.Now(), Pages: pages}, nil)
}

// Create opens a new empty run in the memory tier.
func (s *TieredStore) Create() (RunID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.next
	s.next++
	s.clock++
	s.runs[id] = &tieredRun{lastUse: s.clock}
	return id, nil
}

// Append adds pages to a run. Appends to a tier-resident run copy the
// record slices (so the caller may reuse its page buffers immediately) and
// may synchronously demote least-recently-used runs to the backing store
// to stay inside the tier's budget; appends to an already-demoted run pass
// straight through to the backing store and return its durability token.
func (s *TieredStore) Append(id RunID, pages []Page) (Token, error) {
	s.mu.Lock()
	r := s.runs[id]
	if r == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("masort: append to unknown run %d", id)
	}
	if r.werr != nil {
		err := r.werr
		s.mu.Unlock()
		return nil, fmt.Errorf("masort: append to broken run %d: %w", id, err)
	}
	s.clock++
	r.lastUse = s.clock
	if len(pages) == 0 {
		s.mu.Unlock()
		return readyToken{}, nil
	}
	if r.demoted {
		bid := r.bid
		s.mu.Unlock()
		tok, err := s.backing.Append(bid, pages)
		if err != nil {
			s.breakRun(id, err)
			return nil, fmt.Errorf("masort: append to demoted run %d: %w", id, err)
		}
		s.mu.Lock()
		r.n += len(pages)
		s.mu.Unlock()
		return &tieredToken{s: s, id: id, tok: tok}, nil
	}
	for _, p := range pages {
		cp := make(Page, len(p))
		copy(cp, p)
		r.pages = append(r.pages, cp)
	}
	r.n += len(pages)
	s.resident += len(pages)
	err := s.evictLocked()
	s.mu.Unlock()
	if err != nil {
		// A demotion failed; the victim is broken but THIS append is in the
		// tier (or was itself the victim — then its own werr reports it on
		// the next touch). Surface nothing here unless this run broke.
		s.mu.Lock()
		werr := r.werr
		s.mu.Unlock()
		if werr != nil {
			return readyToken{err: werr}, nil
		}
	}
	return readyToken{}, nil
}

// evictLocked demotes least-recently-used resident runs (and drops
// promoted cache pages) until the tier is inside its budget. Called with
// s.mu held; the backing writes happen under the lock — demotion is the
// spill path, and a spill stalls the store the way a full buffer pool
// stalls a real engine. Returns the first demotion error (the victim is
// already marked broken).
func (s *TieredStore) evictLocked() error {
	var first error
	for s.resident > s.limit {
		victim := s.coldestLocked()
		if victim == nil {
			break
		}
		if err := s.demoteLocked(victim); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// coldestLocked picks the least-recently-used run still holding tier
// memory (resident pages or promoted cache), or nil when nothing can be
// evicted.
func (s *TieredStore) coldestLocked() *tieredRun {
	var victim *tieredRun
	for _, r := range s.runs {
		if len(r.pages) == 0 && len(r.cache) == 0 {
			continue
		}
		if victim == nil || r.lastUse < victim.lastUse {
			victim = r
		}
	}
	return victim
}

// demoteLocked spills one run out of the tier. A demoted run just drops
// its promoted cache; a resident run is appended to a fresh backing run
// and waits for durability. On failure the victim is broken and its pages
// are dropped — they left the tier and the backing store could not land
// them.
func (s *TieredStore) demoteLocked(r *tieredRun) error {
	if r.demoted {
		s.resident -= len(r.cache)
		r.cache = nil
		return nil
	}
	pages := r.pages
	bid, err := s.backing.Create()
	if err == nil {
		var tok Token
		if tok, err = s.backing.Append(bid, pages); err == nil {
			err = tok.Wait()
		}
		if err != nil {
			// The backing run exists but its content cannot be trusted;
			// release it so a broken demotion does not leak backing storage.
			_ = s.backing.Free(bid)
		}
	}
	s.resident -= len(pages)
	r.pages = nil
	if err != nil {
		r.werr = err
		return err
	}
	r.bid = bid
	r.demoted = true
	s.noteTier(trace.KindStoreDemote, len(pages))
	return nil
}

// breakRun records a terminal backing failure on the run.
func (s *TieredStore) breakRun(id RunID, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.runs[id]; r != nil && r.werr == nil {
		r.werr = err
	}
}

// tieredToken wraps a backing durability token for an append to a demoted
// run, breaking the run when the backing write fails terminally.
type tieredToken struct {
	s   *TieredStore
	id  RunID
	tok Token
}

func (t *tieredToken) Wait() error {
	err := t.tok.Wait()
	if err != nil {
		t.s.breakRun(t.id, err)
	}
	return err
}

// Retries reports the backing token's retried attempts.
func (t *tieredToken) Retries() int { return tokenRetries(t.tok) }

// ReadAsync reads one page: tier-resident and promoted pages complete
// immediately from memory; a miss on a demoted run goes to the backing
// store and, when the tier has headroom, promotes the page on completion.
func (s *TieredStore) ReadAsync(id RunID, page int) PageToken {
	s.mu.Lock()
	r := s.runs[id]
	if r == nil {
		s.mu.Unlock()
		return readyPage{err: fmt.Errorf("masort: read of unknown run %d", id)}
	}
	if r.werr != nil {
		err := r.werr
		s.mu.Unlock()
		return readyPage{err: fmt.Errorf("masort: read of run %d page %d after write failure: %w", id, page, err)}
	}
	if page < 0 || page >= r.n {
		s.mu.Unlock()
		return readyPage{err: fmt.Errorf("masort: run %d has no page %d", id, page)}
	}
	s.clock++
	r.lastUse = s.clock
	if !r.demoted {
		pg := r.pages[page]
		s.mu.Unlock()
		return readyPage{pg: pg}
	}
	if pg, ok := r.cache[page]; ok {
		s.mu.Unlock()
		return readyPage{pg: pg}
	}
	bid := r.bid
	s.mu.Unlock()
	return &tieredPageToken{s: s, id: id, page: page, tok: s.backing.ReadAsync(bid, page)}
}

// tieredPageToken completes a backing read and promotes the page into the
// tier when there is headroom.
type tieredPageToken struct {
	s    *TieredStore
	id   RunID
	page int
	tok  PageToken
}

func (t *tieredPageToken) Wait() (Page, error) {
	pg, err := t.tok.Wait()
	if err != nil {
		return pg, err
	}
	s := t.s
	s.mu.Lock()
	r := s.runs[t.id]
	promoted := 0
	if r != nil && r.demoted && r.werr == nil && s.resident < s.limit {
		if _, dup := r.cache[t.page]; !dup {
			if r.cache == nil {
				r.cache = map[int]Page{}
			}
			// The backing page is read-only and outlives the cache entry
			// (backing runs are freed only by our Free), so caching the
			// reference itself is safe — no copy.
			r.cache[t.page] = pg
			s.resident++
			promoted = s.resident
		}
	}
	s.mu.Unlock()
	if promoted > 0 {
		s.noteTier(trace.KindStorePromote, promoted)
	}
	return pg, nil
}

// Retries reports the backing token's retried attempts.
func (t *tieredPageToken) Retries() int { return tokenRetries(t.tok) }

// Pages returns the number of pages appended so far.
func (s *TieredStore) Pages(id RunID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.runs[id]
	if r == nil {
		return 0
	}
	return r.n
}

// Free releases the run: its tier memory immediately, and its backing run
// when it was demoted.
func (s *TieredStore) Free(id RunID) error {
	s.mu.Lock()
	r, ok := s.runs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("masort: free of unknown run %d", id)
	}
	delete(s.runs, id)
	s.resident -= len(r.pages) + len(r.cache)
	demoted, bid := r.demoted, r.bid
	s.mu.Unlock()
	if demoted {
		return s.backing.Free(bid)
	}
	return nil
}

// Live returns the number of unfreed runs.
func (s *TieredStore) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// Close frees every remaining run (releasing their backing runs). It does
// NOT close the backing store — the caller owns it.
func (s *TieredStore) Close() error {
	s.mu.Lock()
	ids := make([]RunID, 0, len(s.runs))
	for id := range s.runs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	var first error
	for _, id := range ids {
		if err := s.Free(id); err != nil && first == nil {
			first = err
		}
	}
	return first
}
