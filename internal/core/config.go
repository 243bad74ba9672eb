package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Method selects the split-phase in-memory sorting method (paper §2.1).
type Method int

const (
	// Quick fills all available memory, Quicksorts a (key,pointer) list and
	// writes the result as one run. Runs are as long as memory; memory can
	// only be released at run boundaries (paper footnote 1).
	Quick Method = iota
	// Repl is replacement selection: an in-memory heap emits runs that
	// average twice the memory size; pages are written BlockPages at a time
	// (BlockPages=1 is the paper's repl1, 6 its repl6).
	Repl
)

// MergeStrategy selects how many runs the first preliminary merge combines
// (paper §2.2, Figure 1).
type MergeStrategy int

const (
	// NaiveMerge merges m-1 runs in every step.
	NaiveMerge MergeStrategy = iota
	// OptMerge merges ((n-2) mod (m-2)) + 2 runs first, so that all later
	// steps merge exactly m-1; preliminary steps stay as cheap as possible.
	OptMerge
)

// Adapt selects the merge-phase adaptation strategy (paper §3.2).
type Adapt int

const (
	// Suspend stops the sort while memory is short and refetches all input
	// buffers in one batch on resume.
	Suspend Adapt = iota
	// Paging keeps merging with fewer buffers using MRU page replacement.
	Paging
	// DynSplit is dynamic splitting: split the executing merge step into
	// sub-steps that fit, and combine steps again when memory grows.
	DynSplit
)

// SortConfig parameterizes one external sort.
type SortConfig struct {
	Method     Method
	BlockPages int // replacement-selection write block (pages); ≥1
	Merge      MergeStrategy
	Adapt      Adapt

	// PageRecords is the page capacity in records (paper: 8 KB / 256 B = 32).
	PageRecords int

	// MinPages is the fewest pages the sort can run with (2 inputs + 1
	// output). The broker's floor should be at least this.
	MinPages int

	// AdaptiveBlockIO enables the paper's future-work extension on the read
	// side: surplus pages beyond a merge step's requirement are spent on
	// multi-page read-ahead. (Output blocks do not depend on it, see
	// MergeBlockPages.)
	AdaptiveBlockIO bool

	// MergeBlockPages is how many full output pages a merge step gathers
	// before it appends them to its output run as one block; a step's last
	// pages, and whatever is pending when it adapts, go out as they are. 0
	// and 1 both mean a page an append: the paper's merge with its one output
	// buffer, which is what the simulator runs — it never sets this. The
	// block is outside the budget: at most this many page buffers pending
	// and as many in flight, whatever the budget, fan-in or input size.
	MergeBlockPages int

	// NoShortestFirst disables shortest-runs-first input selection
	// (ablation; the paper argues shortest-first is always right).
	NoShortestFirst bool

	// NoCombine disables dynamic splitting's step-combining on memory
	// growth (ablation).
	NoCombine bool

	// Workers is how many workers each phase runs on (see runCrew); 0 and 1
	// both mean one — the phase then runs inline on the caller's goroutine.
	// More than one additionally requires a broker that can divide itself
	// among a crew (crewBroker: the real engine's does, the simulator's does
	// not), else one is used. The simulator never sets this either —
	// simulated sorts are always single-threaded, so its tables are
	// unaffected.
	Workers int
}

// DefaultConfig returns the paper's recommended algorithm, repl6,opt,split.
func DefaultConfig() SortConfig {
	return SortConfig{
		Method:      Repl,
		BlockPages:  6,
		Merge:       OptMerge,
		Adapt:       DynSplit,
		PageRecords: 32,
		MinPages:    3,
	}
}

// Validate normalizes and checks the configuration.
func (c *SortConfig) Validate() error {
	if c.PageRecords <= 0 {
		return fmt.Errorf("core: PageRecords must be positive, got %d", c.PageRecords)
	}
	if c.BlockPages < 1 {
		c.BlockPages = 1
	}
	if c.MinPages < 3 {
		c.MinPages = 3
	}
	if c.Method != Quick && c.Method != Repl {
		return fmt.Errorf("core: unknown method %d", c.Method)
	}
	if c.Merge != NaiveMerge && c.Merge != OptMerge {
		return fmt.Errorf("core: unknown merge strategy %d", c.Merge)
	}
	if c.Adapt != Suspend && c.Adapt != Paging && c.Adapt != DynSplit {
		return fmt.Errorf("core: unknown adaptation strategy %d", c.Adapt)
	}
	return nil
}

// Notation renders the paper's X1,X2,X3 notation (Table 1), e.g.
// "repl6,opt,split" or "quick,naive,susp".
func (c SortConfig) Notation() string {
	var b strings.Builder
	switch c.Method {
	case Quick:
		b.WriteString("quick")
	case Repl:
		b.WriteString("repl")
		b.WriteString(strconv.Itoa(max(1, c.BlockPages)))
	}
	b.WriteByte(',')
	if c.Merge == NaiveMerge {
		b.WriteString("naive")
	} else {
		b.WriteString("opt")
	}
	b.WriteByte(',')
	switch c.Adapt {
	case Suspend:
		b.WriteString("susp")
	case Paging:
		b.WriteString("page")
	case DynSplit:
		b.WriteString("split")
	}
	return b.String()
}

// ParseNotation parses the paper's notation back into a config, e.g.
// "repl6,opt,split". PageRecords and MinPages get defaults.
func ParseNotation(s string) (SortConfig, error) {
	c := SortConfig{PageRecords: 32, MinPages: 3, BlockPages: 1}
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return c, fmt.Errorf("core: notation %q must have 3 comma-separated parts", s)
	}
	switch m := strings.TrimSpace(parts[0]); {
	case m == "quick":
		c.Method = Quick
	case strings.HasPrefix(m, "repl"):
		c.Method = Repl
		n, err := strconv.Atoi(m[len("repl"):])
		if err != nil || n < 1 {
			return c, fmt.Errorf("core: bad replacement-selection block in %q", s)
		}
		c.BlockPages = n
	default:
		return c, fmt.Errorf("core: unknown method %q", m)
	}
	switch strings.TrimSpace(parts[1]) {
	case "naive":
		c.Merge = NaiveMerge
	case "opt":
		c.Merge = OptMerge
	default:
		return c, fmt.Errorf("core: unknown merge strategy %q", parts[1])
	}
	switch strings.TrimSpace(parts[2]) {
	case "susp":
		c.Adapt = Suspend
	case "page":
		c.Adapt = Paging
	case "split":
		c.Adapt = DynSplit
	default:
		return c, fmt.Errorf("core: unknown adaptation %q", parts[2])
	}
	return c, nil
}
