package core

import (
	"math"
	"math/bits"
	"slices"
)

// deadTag marks a leaf with nothing to offer: it loses to every live head.
const deadTag = math.MaxInt32

// ltHead is a leaf's current item as the loser tree orders it: tag first,
// then key. Replacement selection tags a head with its run number; the merge
// and the join tag every live head 0.
type ltHead struct {
	key Key
	tag int32
}

// loserTree is the real engine's one selection tree: run generation
// (batchSelector, over mini-run heads), the merge and the join (headTree,
// over the runs' workspace records) all select through it. The clients own
// what the leaves stand for; the tree owns the tournament over their heads.
//
// An idle leaf carries the head {leaf, deadTag}: idle leaves have distinct
// keys, so no match between two of them — or between one and a live head —
// ever reaches the tie-break.
type loserTree struct {
	// node[0] is the winning leaf, node[j] the loser of the match at internal
	// node j; leaf l sits at node len(node)+l. The leaf count is a power of
	// two.
	node  []int32
	heads []ltHead
	idle  []int32 // leaves without an item
	win   []int32 // build's subtree winners, kept so a rebuild allocates nothing

	// tie reports whether leaf a's item sorts before leaf b's when their
	// heads are equal — the clients' payload comparison. It is reached on
	// full (tag, key) ties only.
	tie func(a, b int32) bool
	// cmp receives the comparison charges: one per match played by build and
	// enter, ⌈log₂ leaves⌉ per replay.
	cmp *int64
}

// min returns the winning leaf. Its head is dead when no leaf is live.
func (t *loserTree) min() int32 { return t.node[0] }

// take hands out an idle leaf, doubling the leaf count (every item keeps its
// leaf) when all of them carry one: a client holding a side array by leaf
// sizes it with leafSlots afterwards. The caller sets the leaf's head and
// enters it.
func (t *loserTree) take() int32 {
	if len(t.idle) == 0 {
		t.extend(max(2*len(t.node), 4))
	}
	n := len(t.idle) - 1
	leaf := t.idle[n]
	t.idle = t.idle[:n]
	return leaf
}

// leafSlots sizes a client's per-leaf side array to t's leaf count, which
// only take and reset raise.
func leafSlots[T any](side []T, t *loserTree) []T {
	if k := len(t.heads); k > len(side) {
		side = slices.Grow(side, k-len(side))[:k]
	}
	return side
}

// kill turns the leaf idle. The tree does not reflect it until the caller
// replays (the winner) or enters (any leaf) it.
func (t *loserTree) kill(leaf int32) {
	t.heads[leaf] = ltHead{key: Key(leaf), tag: deadTag}
	t.idle = append(t.idle, leaf)
}

// replay restores the tree after the winning leaf's head changed: every
// loser stored on its path is the winner of the sibling subtree, so one
// comparison per level does it. Which side wins a match is a coin flip, so
// the comparison and the swap are arithmetic, not branches: (tag, key)
// compares as one 128-bit subtraction, and the borrow selects winner and
// loser through a mask.
func (t *loserTree) replay(leaf int32) {
	k := len(t.node)
	w, hw := leaf, t.heads[leaf]
	for j := (k + int(leaf)) >> 1; j > 0; j >>= 1 {
		o := t.node[j]
		ho := t.heads[o]
		_, lt := bits.Sub64(ho.key, hw.key, 0)
		_, lt = bits.Sub64(uint64(uint32(ho.tag)), uint64(uint32(hw.tag)), lt)
		if ho == hw && t.tie(o, w) {
			lt = 1
		}
		mask := -lt // all ones when o beats w
		d := (w ^ o) & int32(mask)
		t.node[j], w = o^d, w^d
		hw.key ^= (hw.key ^ ho.key) & mask
		hw.tag ^= (hw.tag ^ ho.tag) & int32(mask)
	}
	t.node[0] = w
	*t.cmp += int64(bits.Len(uint(k)) - 1)
}

// leafLess orders two leaves by their heads: tag, key, then the tie-break.
func (t *loserTree) leafLess(a, b int32) bool {
	*t.cmp++
	ha, hb := t.heads[a], t.heads[b]
	if ha.tag != hb.tag {
		return ha.tag < hb.tag
	}
	if ha.key != hb.key {
		return ha.key < hb.key
	}
	return t.tie(a, b)
}

// enter restores the tree after the head of any leaf changed — an idle leaf
// that was given an item: O(log leaves) comparisons.
func (t *loserTree) enter(leaf int32) {
	// The leaf is not the winner, so the losers on its path are not all
	// sibling-subtree winners. Recover those top-down without comparing a
	// key: at each node the match was between the winner that went up and
	// the stored loser, and whichever of the two lies under the off-path
	// child is that subtree's winner.
	k := len(t.node)
	pos := k + int(leaf)
	depth := bits.Len(uint(k)) - 1
	var opp [32]int32
	w := t.node[0]
	for lvl := depth; lvl >= 1; lvl-- {
		l := t.node[pos>>lvl]
		if (k+int(l))>>(lvl-1) == pos>>(lvl-1) {
			opp[lvl], w = w, l
		} else {
			opp[lvl] = l
		}
	}
	w = leaf
	for lvl := 1; lvl <= depth; lvl++ {
		o := opp[lvl]
		if t.leafLess(o, w) {
			o, w = w, o
		}
		t.node[pos>>lvl] = o
	}
	t.node[0] = w
}

// reset empties the tree and sizes it for n items: every leaf idle, arrays
// reused from the last tournament.
func (t *loserTree) reset(n int) {
	k := 1 << bits.Len(uint(max(n, 1)-1))
	t.node, t.heads, t.idle = t.node[:0], t.heads[:0], t.idle[:0]
	t.extend(k)
}

// extend raises the leaf count to k, the new leaves idle, and replays the
// whole tournament.
func (t *loserTree) extend(k int) {
	old := len(t.node)
	t.node = slices.Grow(t.node[:0], k)[:k]
	t.heads = slices.Grow(t.heads, k-old)[:k]
	for l := k - 1; l >= old; l-- {
		t.kill(int32(l))
	}
	t.build()
}

// build plays every match bottom-up from the leaves' heads.
func (t *loserTree) build() {
	k := len(t.node)
	win := slices.Grow(t.win[:0], 2*k)[:2*k]
	t.win = win
	for l := 0; l < k; l++ {
		win[k+l] = int32(l)
	}
	for j := k - 1; j >= 1; j-- {
		a, b := win[2*j], win[2*j+1]
		if t.leafLess(b, a) {
			a, b = b, a
		}
		win[j], t.node[j] = a, b
	}
	t.node[0] = win[1]
}
