package masort

// NewMemStoreWith builds a MemStore with retries or fault hooks,
// for the tests that inject faults into its device; the public constructor
// is NewMemStore, with the default configuration.
var NewMemStoreWith = newMemStore

// WaitGoroutines waits for the goroutine count to come back to a baseline,
// for the external tests' leak checks.
var WaitGoroutines = waitGoroutines
