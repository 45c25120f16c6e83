package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mixedStream records draws mixed calls on r, the same calls for the same
// draws, with a Seed(reseed) halfway through. Shuffle records the
// permutation it leaves, so the output's length depends on draws alone.
func mixedStream(r *rand.Rand, draws int, reseed int64) []uint64 {
	var out []uint64
	perm := []uint64{0, 1, 2, 3, 4, 5, 6}
	for i := 0; i < draws; i++ {
		if i == draws/2 {
			r.Seed(reseed)
		}
		switch i % 6 {
		case 0:
			out = append(out, math.Float64bits(r.Float64()))
		case 1:
			out = append(out, math.Float64bits(r.NormFloat64()))
		case 2:
			out = append(out, math.Float64bits(r.ExpFloat64()))
		case 3:
			out = append(out, uint64(r.Intn(1+i*7919)))
		case 4:
			r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			out = append(out, perm...)
		case 5:
			out = append(out, r.Uint64())
		}
	}
	return out
}

// checkSourceMatches compares source with rand.NewSource on seed.
func checkSourceMatches(t *testing.T, seed int64, draws int) {
	t.Helper()
	reseed := seed ^ 0x5bd1e995
	lazy := rand.New(new(source))
	lazy.Seed(seed)
	got := mixedStream(lazy, draws, reseed)
	want := mixedStream(rand.New(rand.NewSource(seed)), draws, reseed)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d: value %d of %d differs from math/rand: got %#x, want %#x", seed, i, len(want), got[i], want[i])
		}
	}
}

// TestSourceMatchesMathRand is the differential oracle for source: every
// seed-normalisation edge case and ~2 000 seeds strided across int64 must
// give math/rand's exact stream through every rand.Rand method the system
// uses, across a reseed and well past the point where every register
// word is built.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max,
		math.MinInt64, math.MaxInt64, 89482311,
	}
	const stride = -0x61c8864680b583eb // 2⁶⁴/φ, as an int64
	for k := int64(0); k < 2000; k++ {
		seeds = append(seeds, k*stride)
	}
	for _, seed := range seeds {
		checkSourceMatches(t, seed, 1500)
	}
}

// FuzzSourceMatchesMathRand extends the oracle to any seed and stream
// length.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(8))
	f.Add(int64(math.MinInt64), uint16(700))
	f.Add(int64(int32max), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkSourceMatches(t, seed, int(draws%4096))
	})
}

var drawSink int64

// BenchmarkRNGSeedDraw measures a reseed plus a run of draws on a reused
// source, as the fleet reseeds each mote's streams: the lazy source
// against math/rand's.
func BenchmarkRNGSeedDraw(b *testing.B) {
	for _, draws := range []int{8, 64, 1000} {
		for _, src := range []struct {
			name string
			s    rand.Source
		}{{"lazy", new(source)}, {"mathrand", rand.NewSource(0)}} {
			b.Run(fmt.Sprintf("%s/draws=%d", src.name, draws), func(b *testing.B) {
				r := rand.New(src.s)
				for i := 0; i < b.N; i++ {
					r.Seed(int64(i))
					for j := 0; j < draws; j++ {
						drawSink += r.Int63()
					}
				}
			})
		}
	}
}
