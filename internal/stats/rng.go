// Package stats provides the statistical substrate for the tomography
// estimators and the workload generators: a seedable RNG with the
// distributions the system needs, streaming moments, histograms, and the
// error metrics used by the evaluation harness.
package stats

import (
	"math"
	"math/rand"
)

// RNG is a seedable random source exposing the distributions the system
// uses. It is a thin wrapper over math/rand so every simulation and
// estimator run is reproducible from a single seed.
//
// Seeding a math/rand source is the expensive part (a ~5 KB state and a
// 607-word seed loop), so it is deferred to the first draw: a stream that
// is never drawn costs nothing, and Reseed restarts a used one in place.
// The zero value is an RNG seeded with 0.
type RNG struct {
	r      *rand.Rand
	seed   int64
	seeded bool // false until a draw seeds r with seed
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// Reseed restarts g as if it were NewRNG(seed), reusing its source
// without allocating.
func (g *RNG) Reseed(seed int64) {
	g.seed, g.seeded = seed, false
}

// src returns the source, seeding it first if a draw has not yet
// followed construction or Reseed.
func (g *RNG) src() *rand.Rand {
	if !g.seeded {
		g.seedSource()
	}
	return g.r
}

// seedSource is src's slow path, kept out of line so src inlines.
func (g *RNG) seedSource() {
	if g.r == nil {
		g.r = rand.New(rand.NewSource(g.seed))
	} else {
		g.r.Seed(g.seed)
	}
	g.seeded = true
}

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.src().Float64() }

// Intn returns a uniform sample in [0,n).
func (g *RNG) Intn(n int) int { return g.src().Intn(n) }

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.src().Float64() < p }

// Normal returns a sample from N(mu, sigma²).
func (g *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*g.src().NormFloat64()
}

// Exponential returns a sample from Exp(rate); mean is 1/rate.
func (g *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential rate must be positive")
	}
	return g.src().ExpFloat64() / rate
}

// Poisson returns a sample from Poisson(lambda) via inversion for small
// lambda and normal approximation for large lambda.
func (g *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation with continuity correction.
		n := int(math.Round(g.Normal(lambda, math.Sqrt(lambda))))
		if n < 0 {
			n = 0
		}
		return n
	}
	r := g.src()
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Geometric returns the number of failures before the first success for
// success probability p (support {0,1,2,...}).
func (g *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("stats: Geometric p must be in (0,1]")
	}
	if p == 1 {
		return 0
	}
	u := g.src().Float64()
	return int(math.Floor(math.Log1p(-u) / math.Log1p(-p)))
}

// Categorical returns an index sampled with the given (nonnegative,
// not necessarily normalized) weights. It panics on an all-zero weight
// vector.
func (g *RNG) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("stats: negative categorical weight")
		}
		total += w
	}
	if total == 0 {
		panic("stats: all-zero categorical weights")
	}
	u := g.src().Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.src().Perm(n) }

// Shuffle shuffles n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.src().Shuffle(n, swap) }

// Fork returns a new RNG deterministically derived from this one, for
// giving independent streams to subcomponents.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.src().Int63())
}
