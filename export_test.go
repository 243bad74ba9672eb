package masort

import "fmt"

// NewMemStoreWith builds a MemStore with retries or fault hooks,
// for the tests that inject faults into its device; the public constructor
// is NewMemStore, with the default configuration.
var NewMemStoreWith = newMemStore

// WaitGoroutines waits for the goroutine count to come back to a baseline,
// for the external tests' leak checks.
var WaitGoroutines = waitGoroutines

// Leftovers describes what a budget still holds — pages granted to
// operators, operators registered, pages reserved or promised to a
// reservation — or is "" when it holds nothing, for the leak checks run
// after Close.
func Leftovers(b *Budget) string {
	s := b.arb.Snapshot()
	granted := s.Total - s.Free - s.Reserved
	if granted == 0 && len(s.Targets) == 0 && s.Reserved == 0 && s.Pending == 0 {
		return ""
	}
	return fmt.Sprintf("%d pages granted, %d operators, %d pages reserved, %d promised", granted, len(s.Targets), s.Reserved, s.Pending)
}
