package masort

// NewMemStoreWith builds a MemStore with retries, fault hooks or a tracer,
// for the tests that inject faults into its device; the public constructor
// is NewMemStore, with the default configuration.
var NewMemStoreWith = newMemStore

// WaitGoroutines waits for the goroutine count to come back to a baseline,
// for the external tests' leak checks.
var WaitGoroutines = waitGoroutines
