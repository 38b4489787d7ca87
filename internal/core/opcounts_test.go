package core

import (
	"testing"

	"repro/internal/lik"
)

// One small fixed H0+H1 fit must perform exactly these operations.
// The counts are deterministic and independent of the worker count, so
// a lost message share, an extra eigendecomposition or an extra
// evaluation fails here on counts, not in a timing benchmark.
func TestRunOpCounts(t *testing.T) {
	a, tr := smallDataset(t, 1, 40)
	want := lik.Stats{
		Eigendecompositions: 165,
		TransitionBuilds:    1561,
		FullEvaluations:     70,
		BranchEvaluations:   120,
		MessageApplies:      2126,
	}
	for _, workers := range []int{0, 2} {
		an, err := NewAnalysis(a, tr, Options{Engine: EngineSlim, MaxIterations: 2, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := an.Run(); err != nil {
			t.Fatal(err)
		}
		got := an.eng.Stats()
		an.Close()
		if got != want {
			t.Errorf("workers=%d: engine stats %+v, want %+v", workers, got, want)
		}
	}
}
