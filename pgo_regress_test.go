package codetomo

import (
	"testing"

	"codetomo/internal/apps"
)

// TestPGONeverRegressesPastPlacement is the end-to-end timing regression
// gate for the profile-guided passes: over the whole benchmark corpus,
// the full PGO stack (inline + page packing)
// under a flash-page penalty must never end up slower than placement
// alone on the identical workload. Output equality is already enforced
// inside the pipeline, so each Run is also a semantics check.
func TestPGONeverRegressesPastPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus pipeline comparison; skipped in -short")
	}
	// The placement corpus plus the call-heavy inlining kernel.
	for _, app := range append(apps.All(), apps.CallChain) {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			src, err := app.Source(600)
			if err != nil {
				t.Fatal(err)
			}
			base := Config{Workload: app.Workload, Seed: 11, PageCrossPenalty: 5}
			placed, err := Run(src, base)
			if err != nil {
				t.Fatalf("placement-only run: %v", err)
			}
			pgoCfg := base
			pgoCfg.PGOInline = true
			pgoCfg.PGOPagePack = true
			pgod, err := Run(src, pgoCfg)
			if err != nil {
				t.Fatalf("pgo run: %v", err)
			}
			if placed.Before.Cycles != pgod.Before.Cycles {
				t.Fatalf("baselines diverged: %d vs %d cycles", placed.Before.Cycles, pgod.Before.Cycles)
			}
			if pgod.After.Cycles > placed.After.Cycles {
				t.Errorf("pgo build is slower than placement-only: %d > %d cycles (baseline %d)",
					pgod.After.Cycles, placed.After.Cycles, placed.Before.Cycles)
			}
		})
	}
}

// TestPGOFallbackIsNoOp pins the trust gate on the PGO side: when every
// procedure's estimate falls back (here: branchless helpers plus a main
// with too few samples to profile), the PGO passes must leave the build
// exactly where placement-only left it — placeholder uniform weights on
// branchless procedures are not profile data and must not reorder or pad
// anything.
func TestPGOFallbackIsNoOp(t *testing.T) {
	src := `
var ema int = 0;

func update(sample int) int {
	ema = ema + ((sample - ema) / 8);
	return ema;
}

func main() {
	var i int;
	for (i = 0; i < 40; i = i + 1) {
		debug(update(sense()));
	}
}`
	base := Config{Seed: 7, PageCrossPenalty: 5}
	placed, err := Run(src, base)
	if err != nil {
		t.Fatal(err)
	}
	pgoCfg := base
	pgoCfg.PGOInline = true
	pgoCfg.PGOPagePack = true
	pgod, err := Run(src, pgoCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range pgod.Estimates {
		if !pe.Fallback {
			t.Fatalf("estimate for %q did not fall back; the fixture no longer tests the gate", pe.Proc)
		}
	}
	if pgod.After.Cycles != placed.After.Cycles {
		t.Errorf("PGO changed an all-fallback build: %d vs %d cycles",
			pgod.After.Cycles, placed.After.Cycles)
	}
}
