package stats

import "math/rand"

// math/rand's register shape and seeding constants.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime

	lehmerA = 48271
)

// source is a rand.Source64 whose stream is bit-identical to
// rand.NewSource(seed)'s, with the register built lazily.
//
// math/rand seeds its additive lagged-Fibonacci register by stepping a
// Lehmer generator x ← 48271·x mod (2³¹−1) from the normalised seed x₀:
// after 20 discarded steps, word i takes the next three,
//
//	vec[i] = x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ rngCooked[i],
//
// where xₖ = 48271ᵏ·x₀ mod (2³¹−1). With the powers 48271ᵏ precomputed
// (lehmerPow), a word costs three multiplications modulo a Mersenne
// prime, so Seed builds nothing and a word is built when a draw first
// touches it. The streams of this system draw a handful of values each,
// so most of the register is never built.
//
// Which draws touch an unbuilt word is fixed, so no mask of built words
// is kept. After Seed, feed and tap step down together from rngLen-rngTap
// and 0: draw n (from 1) reads word rngLen-rngTap-n as feed and word
// rngLen-n as tap. So each of the first rngLen-rngTap draws meets an
// unbuilt feed word, and also an unbuilt tap word exactly while tap is
// at or above rngLen-rngTap (feed never reaches those words in that
// span). After those draws every word is built, and a draw is math/rand's
// step plus one counter test.
type source struct {
	tap, feed int
	x0        uint64 // the normalised seed, in [1, 2³¹−1)
	unbuilt   int    // draws left that meet an unbuilt feed word
	vec       [rngLen]int64
}

var _ rand.Source64 = (*source)(nil)

// lehmerPow[j] is 48271^(21+j) mod (2³¹−1): the multipliers of x₀ in the
// three Lehmer steps of each register word. Every value is below 2³¹.
var lehmerPow = func() (p [3 * rngLen]uint32) {
	x := uint64(1)
	for k := 0; k < 20; k++ {
		x = mulmod(x, lehmerA)
	}
	for j := range p {
		x = mulmod(x, lehmerA)
		p[j] = uint32(x)
	}
	return p
}()

// mulmod returns a·b mod (2³¹−1) for a, b < 2³¹, reducing the product by
// folding its high bits onto its low ones.
func mulmod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// Seed normalises seed exactly as math/rand does and forgets the
// register; no word is built until a draw needs it.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.unbuilt = rngLen - rngTap
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit integer: math/rand's step, after
// building any word it touches for the first time.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.unbuilt > 0 {
		s.build()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// build fills the unbuilt words the current draw touches.
func (s *source) build() {
	s.unbuilt--
	s.vec[s.feed] = s.word(s.feed)
	if s.tap >= rngLen-rngTap {
		s.vec[s.tap] = s.word(s.tap)
	}
}

// word returns register word i as seeding would have left it.
func (s *source) word(i int) int64 {
	p := lehmerPow[3*i : 3*i+3 : 3*i+3]
	return int64(mulmod(uint64(p[0]), s.x0))<<40 ^
		int64(mulmod(uint64(p[1]), s.x0))<<20 ^
		int64(mulmod(uint64(p[2]), s.x0)) ^
		rngCooked[i]
}
