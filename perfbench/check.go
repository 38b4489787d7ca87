package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/bsm"
	"repro/internal/core"
	"repro/internal/stat"
)

// maxRelDiff is the accuracy bound on a fitted log-likelihood: the
// paper's relative difference D = |lnL − lnL̂| / |lnL| between the
// engine's value and a naive serial re-evaluation at the same point.
const maxRelDiff = 1e-9

// lrtSlack is how far the H1 optimum may fall below the H0 optimum it
// was warm-started from before the fit counts as wrong (H1's surface
// contains H0's optimum).
const lrtSlack = 1e-6

// fitPoint is one hypothesis' optimum as the checker sees it.
type fitPoint struct {
	LnL    float64
	Params bsm.Params
	Lens   []float64
}

// fitOutcome is one repetition's H0 and H1 optima, plus the lnL a
// fresh naive serial engine computes at each.
type fitOutcome struct {
	H0, H1         fitPoint
	ReLnL0, ReLnL1 float64
}

// checkFit verifies one fit repetition: each reported lnL agrees with
// its naive re-evaluation to D ≤ maxRelDiff, H1 does not fall below
// H0, and — against the first repetition ref, when given — every lnL,
// parameter and branch length is bit-identical.
func checkFit(got fitOutcome, ref *fitOutcome) error {
	for _, c := range []struct {
		name    string
		lnl, re float64
	}{{"H0", got.H0.LnL, got.ReLnL0}, {"H1", got.H1.LnL, got.ReLnL1}} {
		if math.IsNaN(c.lnl) || math.IsInf(c.lnl, 0) {
			return fmt.Errorf("%s lnL is %v", c.name, c.lnl)
		}
		if d := stat.RelativeDifference(c.re, c.lnl); !(d <= maxRelDiff) {
			return fmt.Errorf("%s lnL %v differs from the naive re-evaluation %v (D = %.3g > %g)", c.name, c.lnl, c.re, d, maxRelDiff)
		}
	}
	if got.H1.LnL < got.H0.LnL-lrtSlack {
		return fmt.Errorf("H1 lnL %v below H0 lnL %v", got.H1.LnL, got.H0.LnL)
	}
	if ref != nil {
		for _, p := range []struct {
			name     string
			got, ref fitPoint
		}{{"H0", got.H0, ref.H0}, {"H1", got.H1, ref.H1}} {
			if math.Float64bits(p.got.LnL) != math.Float64bits(p.ref.LnL) || p.got.Params != p.ref.Params ||
				!slices.Equal(p.got.Lens, p.ref.Lens) {
				return fmt.Errorf("%s optimum differs from the first repetition (lnL %v vs %v)", p.name, p.got.LnL, p.ref.LnL)
			}
		}
	}
	return nil
}

// checkScanRows verifies a scan's merged JSONL output against the
// manifest names: every row appears exactly once and in manifest order,
// no row is an error row, and each row's LRT statistic and p-values are
// exactly what stat.NewLRT computes from its two log-likelihoods. It
// returns the decoded records and the number of manifest rows that
// failed (missing, misplaced, erroneous or inconsistent), with the
// first problem found.
func checkScanRows(names []string, merged []byte) ([]core.GeneRecord, int, error) {
	lines := bytes.Split(bytes.TrimSuffix(merged, []byte("\n")), []byte("\n"))
	if len(merged) == 0 {
		lines = nil
	}
	recs := make([]core.GeneRecord, 0, len(lines))
	failed := 0
	var first error
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	for i, name := range names {
		if i >= len(lines) {
			fail(fmt.Errorf("row %d (%s) missing from the merged output", i, name))
			continue
		}
		var rec core.GeneRecord
		if err := json.Unmarshal(lines[i], &rec); err != nil {
			fail(fmt.Errorf("row %d: %v", i, err))
			continue
		}
		recs = append(recs, rec)
		switch {
		case rec.Name != name:
			fail(fmt.Errorf("row %d is %q, want %q", i, rec.Name, name))
		case rec.Error != "":
			fail(fmt.Errorf("row %d (%s) is an error row: %s", i, name, rec.Error))
		default:
			if l := stat.NewLRT(rec.LnL0, rec.LnL1); l.Statistic != rec.LRT || l.PValueChi2 != rec.PChi2 || l.PValueMixture != rec.PMixture {
				fail(fmt.Errorf("row %d (%s): LRT %v p %v/%v disagrees with stat (%v p %v/%v)", i, name,
					rec.LRT, rec.PChi2, rec.PMixture, l.Statistic, l.PValueChi2, l.PValueMixture))
			}
		}
	}
	if extra := len(lines) - len(names); extra > 0 {
		failed += extra
		if first == nil {
			first = fmt.Errorf("%d rows beyond the %d manifest rows", extra, len(names))
		}
	}
	return recs, failed, first
}

// checkColdStart is the cold-start guard of a scan repetition: a cold
// pass replays nothing from the persistent result store and fits every
// gene. Anything else means a warm cache served some of the work, and
// the repetition's timing would fake a gain.
func checkColdStart(genes, resultHits, fitted int) error {
	if resultHits > 0 {
		return fmt.Errorf("cold pass replayed %d results from the persistent store", resultHits)
	}
	if fitted < genes {
		return fmt.Errorf("cold pass fitted %d of %d genes", fitted, genes)
	}
	return nil
}

// deterministicRow renders a gene result as the daemons checkpoint it:
// the JSONL record with its wall time zeroed.
func deterministicRow(r core.GeneResult) ([]byte, error) {
	rec := core.NewGeneRecord(r)
	rec.RuntimeSec = 0
	return json.Marshal(rec)
}

// checkRefit compares an in-process refit's deterministic row with the
// row the scan merged for the same gene, byte for byte.
func checkRefit(merged, refit []byte) error {
	if !bytes.Equal(merged, refit) {
		return fmt.Errorf("in-process refit differs from the merged row\nmerged: %s\nrefit:  %s", merged, refit)
	}
	return nil
}
