package lik

import (
	"math"
	"testing"

	"repro/internal/bsm"
)

func TestClassPosteriorsSumToOne(t *testing.T) {
	f := smallFixture(t, bsm.H1, h1Params())
	e := f.engine(t, Config{})
	post := e.ClassPosteriors()
	if len(post) != e.NumPatterns() {
		t.Fatalf("%d rows for %d patterns", len(post), e.NumPatterns())
	}
	for p, row := range post {
		sum := 0.0
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("pattern %d: posterior %g outside [0,1]", p, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("pattern %d: posteriors sum to %g", p, sum)
		}
	}
}

// With vanishing class-2 prior mass the positive-selection posterior
// must vanish too.
func TestClassPosteriorsRespectPrior(t *testing.T) {
	p := h1Params()
	p.P0, p.P1 = 0.699, 0.3 // class 2 prior mass = 0.001
	f := smallFixture(t, bsm.H1, p)
	e := f.engine(t, Config{})
	prob := ClassMassProbability(e.ClassPosteriors(), bsm.Class2a, bsm.Class2b)
	for i, v := range prob {
		// Prior of 0.001 can only be amplified so far on weak data.
		if v > 0.5 {
			t.Fatalf("pattern %d: posterior %g with near-zero prior", i, v)
		}
	}
}

// The posterior of classes 2a+2b must be monotone in the prior mass
// (all else equal).
func TestPositiveSelectionProbabilityMonotoneInPrior(t *testing.T) {
	small := h1Params()
	small.P0, small.P1 = 0.65, 0.33 // class-2 mass 0.02
	large := h1Params()
	large.P0, large.P1 = 0.40, 0.20 // class-2 mass 0.40

	fSmall := smallFixture(t, bsm.H1, small)
	fLarge := smallFixture(t, bsm.H1, large)
	pSmall := ClassMassProbability(fSmall.engine(t, Config{}).ClassPosteriors(), bsm.Class2a, bsm.Class2b)
	pLarge := ClassMassProbability(fLarge.engine(t, Config{}).ClassPosteriors(), bsm.Class2a, bsm.Class2b)
	for i := range pSmall {
		if pLarge[i] < pSmall[i]-1e-9 {
			t.Fatalf("pattern %d: posterior decreased (%g → %g) when prior grew",
				i, pSmall[i], pLarge[i])
		}
	}
}

// Posteriors must be identical across execution strategies.
func TestClassPosteriorsStrategyInvariant(t *testing.T) {
	f := smallFixture(t, bsm.H1, h1Params())
	ref := f.engine(t, Config{Apply: ApplyPerSiteGEMV}).ClassPosteriors()
	for _, cfg := range []Config{
		{Apply: ApplyPerSiteSYMV},
		{Apply: ApplyBundled},
	} {
		got := f.engine(t, cfg).ClassPosteriors()
		for p := range ref {
			for c := range ref[p] {
				if math.Abs(got[p][c]-ref[p][c]) > 1e-9 {
					t.Fatalf("cfg %+v: posterior (%d,%d) %g vs %g", cfg, p, c, got[p][c], ref[p][c])
				}
			}
		}
	}
}
