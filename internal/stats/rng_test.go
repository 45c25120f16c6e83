package stats

import (
	"reflect"
	"testing"
)

// rngMethods draw a short, fixed sequence through each RNG method, so a
// stream can be compared method by method.
var rngMethods = map[string]func(g *RNG) []float64{
	"Float64":     func(g *RNG) []float64 { return []float64{g.Float64(), g.Float64()} },
	"Intn":        func(g *RNG) []float64 { return []float64{float64(g.Intn(1 << 16)), float64(g.Intn(7))} },
	"Bernoulli":   func(g *RNG) []float64 { return []float64{b2f(g.Bernoulli(0.3)), b2f(g.Bernoulli(0.9))} },
	"Normal":      func(g *RNG) []float64 { return []float64{g.Normal(0, 1), g.Normal(300, 120)} },
	"Exponential": func(g *RNG) []float64 { return []float64{g.Exponential(2), g.Exponential(0.1)} },
	"Geometric":   func(g *RNG) []float64 { return []float64{float64(g.Geometric(0.2)), float64(g.Geometric(0.9))} },
	"Shuffle": func(g *RNG) []float64 {
		xs := []float64{0, 1, 2, 3, 4, 5, 6, 7}
		g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	},
	"Fork": func(g *RNG) []float64 { f := g.Fork(); return []float64{f.Float64(), g.Float64()} },
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// TestReseedMatchesNewRNG pins Reseed(s) to NewRNG(s) for every method,
// whether the reseeded RNG was never drawn, partly consumed, or drained
// through another method first.
func TestReseedMatchesNewRNG(t *testing.T) {
	const seed = 20261017
	for name, draw := range rngMethods {
		want := draw(NewRNG(seed))
		for _, used := range []int{0, 1, 5} {
			g := NewRNG(3)
			for i := 0; i < used; i++ {
				for _, other := range rngMethods {
					other(g)
				}
			}
			g.Reseed(seed)
			if got := draw(g); !reflect.DeepEqual(got, want) {
				t.Errorf("%s after %d rounds of draws, then Reseed: got %v, want %v", name, used, got, want)
			}
			// Reseeding twice in a row is the same as once.
			g.Reseed(seed + 1)
			g.Reseed(seed)
			if got := draw(g); !reflect.DeepEqual(got, want) {
				t.Errorf("%s after a double Reseed: got %v, want %v", name, got, want)
			}
		}
		var zero RNG
		if got, want0 := draw(&zero), draw(NewRNG(0)); !reflect.DeepEqual(got, want0) {
			t.Errorf("%s: zero RNG drew %v, NewRNG(0) drew %v", name, got, want0)
		}
	}
}

// TestUndrawnRNGAllocatesNoSource pins the lazy seeding: constructing or
// reseeding an RNG that is never drawn allocates no math/rand source, and
// reseeding a drawn one reuses its source.
func TestUndrawnRNGAllocatesNoSource(t *testing.T) {
	var sink *RNG
	if n := testing.AllocsPerRun(100, func() { sink = NewRNG(7) }); n > 1 {
		t.Fatalf("NewRNG allocates %v times, want only the RNG itself", n)
	}
	_ = sink
	g := NewRNG(7)
	if n := testing.AllocsPerRun(100, func() { g.Reseed(8) }); n != 0 {
		t.Fatalf("Reseed of an undrawn RNG allocates %v times, want 0", n)
	}
	g.Float64()
	if n := testing.AllocsPerRun(100, func() { g.Reseed(9); g.Float64() }); n != 0 {
		t.Fatalf("Reseed and a draw on a drawn RNG allocate %v times, want 0", n)
	}
}
