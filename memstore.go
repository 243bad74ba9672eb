package masort

import (
	"fmt"
	"sync"
)

// MemStore is an in-memory RunStore. It is the default store and is also
// handy in tests.
//
// Buffer ownership: Append copies the record slice of every page before
// returning, so callers may reuse page buffers immediately (payload bytes
// are shared, not copied — they are immutable by the RunStore contract).
// ReadAsync returns the stored page itself, not a copy: callers must treat
// it as read-only, and it remains valid until the run is freed. Because the
// stored pages keep aliasing the caller's payload bytes, its read tokens
// must never offer Release (see RunStore): the merge's input frames would be
// recycled under the runs written from them.
type MemStore struct {
	mu   sync.Mutex
	runs map[RunID][]Page
	next RunID // ids are handed out in order: one below next and not in runs was freed
}

// NewMemStore creates an empty in-memory run store.
func NewMemStore() *MemStore {
	return &MemStore{runs: map[RunID][]Page{}}
}

// freed tells, of an id that is not in s.runs, whether it was ever handed
// out — and so has been freed since — or never was; the store holds nothing
// for a freed run. Callers hold s.mu.
func (s *MemStore) freed(id RunID) bool { return id >= 0 && id < s.next }

type readyToken struct{ err error }

func (t readyToken) Wait() error { return t.err }

type readyPage struct {
	pg  Page
	err error
}

func (t readyPage) Wait() (Page, error) { return t.pg, t.err }

// Create opens a new empty run.
func (s *MemStore) Create() (RunID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.next
	s.next++
	s.runs[id] = nil
	return id, nil
}

// Append adds pages to a run. The returned token is already complete.
func (s *MemStore) Append(id RunID, pages []Page) (Token, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	run, ok := s.runs[id]
	if !ok {
		if s.freed(id) {
			return nil, fmt.Errorf("masort: append to freed run %d", id)
		}
		return nil, fmt.Errorf("masort: append to unknown run %d", id)
	}
	for _, p := range pages {
		cp := make(Page, len(p))
		copy(cp, p)
		run = append(run, cp)
	}
	s.runs[id] = run
	return readyToken{}, nil
}

// ReadAsync reads one page of a run.
func (s *MemStore) ReadAsync(id RunID, page int) PageToken {
	s.mu.Lock()
	defer s.mu.Unlock()
	pages, ok := s.runs[id]
	if !ok && s.freed(id) {
		return readyPage{err: fmt.Errorf("masort: read of freed run %d", id)}
	}
	if !ok || page < 0 || page >= len(pages) {
		return readyPage{err: fmt.Errorf("masort: run %d has no page %d", id, page)}
	}
	return readyPage{pg: pages[page]}
}

// Pages returns the number of pages in a run.
func (s *MemStore) Pages(id RunID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs[id])
}

// Free releases a run.
func (s *MemStore) Free(id RunID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.runs[id]; !ok {
		if s.freed(id) {
			return fmt.Errorf("masort: double free of run %d", id)
		}
		return fmt.Errorf("masort: free of unknown run %d", id)
	}
	delete(s.runs, id)
	return nil
}

// Live returns the number of unfreed runs (for leak checks in tests).
func (s *MemStore) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}
