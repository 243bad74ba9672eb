// Package randx provides seeded, named random-variate streams for the
// simulator. Every stochastic component (disk rotational position, memory
// request arrivals, relation contents, ...) draws from its own stream so
// that changing one component's consumption pattern does not perturb the
// others — the classic common-random-numbers discipline for fair
// comparisons between algorithm variants.
package randx

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// Stream is a deterministic random-variate generator.
type Stream struct {
	r *rand.Rand
}

// New creates a stream from a master seed and a component name. The same
// (seed, name) pair always produces the same sequence.
func New(seed uint64, name string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return &Stream{r: rand.New(rand.NewPCG(seed, h.Sum64()))}
}

// Uint64 returns a uniform 64-bit value.
func (s *Stream) Uint64() uint64 { return s.r.Uint64() }

// IntN returns a uniform integer in [0, n).
func (s *Stream) IntN(n int) int { return s.r.IntN(n) }

// Uniform returns a uniform variate in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Exp returns an exponential variate with the given mean. A non-positive
// mean yields 0, which lets callers switch a stream off.
func (s *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	return -mean * math.Log(u)
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }
