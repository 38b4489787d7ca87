package lik

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/sitemodel"
)

// unsharedModel wraps a Model so that nothing can be shared: every
// (class, branch type) pair gets its own rate slot holding its own
// copy of the wrapped rate matrix (a distinct pointer with the same
// contents). The engine then derives no representative but the class
// itself, computes every message separately and decomposes every slot,
// which makes it the reference for message sharing.
type unsharedModel struct {
	Model
	rates []*codon.Rate
}

func unshared(m Model) *unsharedModel {
	u := &unsharedModel{Model: m}
	for c := 0; c < m.NumSiteClasses(); c++ {
		for _, fg := range []bool{false, true} {
			r := *m.RateAt(m.RateSlotFor(c, fg))
			u.rates = append(u.rates, &r)
		}
	}
	return u
}

func (u *unsharedModel) NumRateSlots() int           { return len(u.rates) }
func (u *unsharedModel) RateAt(slot int) *codon.Rate { return u.rates[slot] }
func (u *unsharedModel) RateSlotFor(c int, fg bool) int {
	if fg {
		return 2*c + 1
	}
	return 2 * c
}

// evalAll returns every quantity sharing could disturb: the full
// log-likelihood, one single-branch evaluation per branch, and the
// class posteriors.
func evalAll(t *testing.T, e *Engine) (float64, []float64, [][]float64) {
	t.Helper()
	lnL := e.LogLikelihood()
	lens := e.BranchLengths()
	var branch []float64
	for _, v := range e.BranchIDs() {
		branch = append(branch, e.BranchLogLikelihood(v, lens[v]*1.3+0.01))
	}
	return lnL, branch, e.ClassPosteriors()
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Message sharing must be invisible in every result: for each model
// family, the shared engine under every execution strategy and block
// size reproduces the unshared serial reference bit for bit.
func TestSharingBitIdenticalToUnshared(t *testing.T) {
	names := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	seqs := randomAlignment(t, names, 50, 7)
	trees := map[string]string{
		"internal-fg": "(((A:0.2,B:0.15)#1:0.1,(C:0.3,D:0.25):0.05):0.1,((E:0.2,F:0.1):0.15,(G:0.05,H:0.3):0.2):0.1);",
		"leaf-fg":     "(((A:0.2,B:0.15):0.1,(C:0.3#1,D:0.25):0.05):0.1,((E:0.2,F:0.1):0.15,(G:0.05,H:0.3):0.2):0.1);",
	}
	for treeName, nwk := range trees {
		f := makeFixture(t, nwk, names, seqs, bsm.H1, h1Params())
		models := modelsFor(t, f)
		delete(models, "M0")
		h0, err := bsm.New(codon.Universal, bsm.H0, h0Params(), f.model.Pi)
		if err != nil {
			t.Fatal(err)
		}
		models["bsm-H0"] = h0
		m2aAliased, err := sitemodel.NewM2a(codon.Universal, 2.1, 0.2, 1, 0.55, 0.3, f.model.Pi)
		if err != nil {
			t.Fatal(err)
		}
		models["M2a-omega2=1"] = m2aAliased

		for name, m := range models {
			ref := f.engineWith(t, Config{}, unshared(m))
			wantL, wantB, wantP := evalAll(t, ref)
			wantApplies := ref.Stats().MessageApplies

			type run struct {
				label string
				cfg   Config
			}
			runs := []run{{"serial", Config{}}}
			for _, workers := range []int{1, 2, 3} {
				for _, bs := range []int{1, 7, 64, f.pats.NumPatterns()} {
					runs = append(runs, run{fmt.Sprintf("workers=%d block=%d", workers, bs), Config{Workers: workers, BlockSize: bs}})
				}
			}
			for _, r := range runs {
				e := f.engineWith(t, r.cfg, m)
				gotL, gotB, gotP := evalAll(t, e)
				applies := e.Stats().MessageApplies
				e.Close()
				where := fmt.Sprintf("%s %s %s", treeName, name, r.label)
				if !sameBits(gotL, wantL) {
					t.Fatalf("%s: lnL %0.17g != unshared %0.17g", where, gotL, wantL)
				}
				for i := range wantB {
					if !sameBits(gotB[i], wantB[i]) {
						t.Fatalf("%s: branch %d lnL %0.17g != unshared %0.17g", where, i, gotB[i], wantB[i])
					}
				}
				for p := range wantP {
					for c := range wantP[p] {
						if !sameBits(gotP[p][c], wantP[p][c]) {
							t.Fatalf("%s: posterior (%d,%d) %g != unshared %g", where, p, c, gotP[p][c], wantP[p][c])
						}
					}
				}
				// Sharing must actually happen where the model allows it
				// and never where it does not (M1a and M2a with ω2 > 1
				// have a distinct rate matrix per class).
				shares := name != "M1a" && name != "M2a"
				if shares != (applies < wantApplies) || applies > wantApplies {
					t.Fatalf("%s: %d message applies, unshared %d", where, applies, wantApplies)
				}
			}
		}
	}
}
