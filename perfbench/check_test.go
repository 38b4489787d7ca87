package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/codon"
	"repro/internal/core"
	"repro/internal/manifest"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stat"
)

// smallGene simulates a gene small enough to fit in well under a second.
func smallGene(t *testing.T, seed int64) *sim.Dataset {
	t.Helper()
	tree, err := sim.RandomTree(sim.TreeConfig{Species: 5, MeanBranchLength: 0.2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	aln, err := sim.Simulate(tree, codon.Universal, sim.SeqConfig{Sites: 30, Params: sim.TrueParams(), Seed: seed + 100})
	if err != nil {
		t.Fatal(err)
	}
	return &sim.Dataset{Tree: tree, Alignment: aln}
}

// fittedOutcome fits a small gene and re-evaluates it exactly as a
// benchmark repetition does.
func fittedOutcome(t *testing.T) fitOutcome {
	t.Helper()
	ds := smallGene(t, 7)
	r := fitOnce(nil, 0, ds)
	if r.err != nil {
		t.Fatal(r.err)
	}
	got, err := verifyFit(ds, r)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestCheckFitAcceptsRealFit(t *testing.T) {
	got := fittedOutcome(t)
	if err := checkFit(got, nil); err != nil {
		t.Fatalf("a genuine fit was rejected: %v", err)
	}
	ref := got
	if err := checkFit(got, &ref); err != nil {
		t.Fatalf("an identical repetition was rejected: %v", err)
	}
}

func TestCheckFitRejectsCorruptedLnL(t *testing.T) {
	good := fittedOutcome(t)
	for name, corrupt := range map[string]func(*fitOutcome){
		"H0 off by 1e-6 relative": func(o *fitOutcome) { o.H0.LnL *= 1 + 1e-6 },
		"H1 off by 1e-6 relative": func(o *fitOutcome) { o.H1.LnL *= 1 + 1e-6 },
		"H1 NaN":                  func(o *fitOutcome) { o.H1.LnL = math.NaN() },
		"H1 below H0": func(o *fitOutcome) {
			o.H1.LnL, o.ReLnL1 = o.H0.LnL-1, o.H0.LnL-1
		},
	} {
		bad := good
		corrupt(&bad)
		if err := checkFit(bad, nil); err == nil {
			t.Errorf("%s: corrupted outcome accepted", name)
		}
	}
}

func TestCheckFitRejectsDriftAcrossRepetitions(t *testing.T) {
	ref := fittedOutcome(t)
	drift := ref
	drift.H1.LnL = math.Nextafter(ref.H1.LnL, 0)
	drift.ReLnL1 = drift.H1.LnL
	if err := checkFit(drift, &ref); err == nil {
		t.Fatal("a one-ulp lnL drift between repetitions was accepted")
	}
	lens := append([]float64(nil), ref.H0.Lens...)
	lens[0] = math.Nextafter(lens[0], 1)
	moved := ref
	moved.H0.Lens = lens
	if err := checkFit(moved, &ref); err == nil {
		t.Fatal("a changed branch length between repetitions was accepted")
	}
}

// scanRows renders consistent rows for the names, as a daemon would.
func scanRows(t *testing.T, names []string) [][]byte {
	t.Helper()
	var rows [][]byte
	for i, n := range names {
		l := stat.NewLRT(-1000-float64(i), -998.5-float64(i))
		b, err := json.Marshal(core.GeneRecord{Name: n, LnL0: l.LnL0, LnL1: l.LnL1,
			LRT: l.Statistic, PChi2: l.PValueChi2, PMixture: l.PValueMixture, Iterations: 4})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, b)
	}
	return rows
}

func joinRows(rows ...[]byte) []byte {
	var b bytes.Buffer
	for _, r := range rows {
		b.Write(r)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestCheckScanRows(t *testing.T) {
	names := []string{"g000", "g001", "g002", "g003"}
	rows := scanRows(t, names)
	recs, failed, err := checkScanRows(names, joinRows(rows...))
	if err != nil || failed != 0 || len(recs) != 4 {
		t.Fatalf("consistent rows: %d failed, %d records, %v", failed, len(recs), err)
	}
	errRow, _ := json.Marshal(core.GeneRecord{Name: "g002", Error: "gene g002: bad alignment"})
	wrongLRT := bytes.Replace(rows[1], []byte(`"lrt":3`), []byte(`"lrt":4`), 1)
	if bytes.Equal(wrongLRT, rows[1]) {
		t.Fatalf("row has no lrt field to corrupt: %s", rows[1])
	}
	for name, merged := range map[string][]byte{
		"dropped row":    joinRows(rows[0], rows[1], rows[3]),
		"reordered rows": joinRows(rows[0], rows[2], rows[1], rows[3]),
		"duplicated row": joinRows(rows[0], rows[1], rows[1], rows[2], rows[3]),
		"error row":      joinRows(rows[0], rows[1], errRow, rows[3]),
		"wrong LRT":      joinRows(rows[0], wrongLRT, rows[2], rows[3]),
		"empty output":   nil,
	} {
		if _, failed, err := checkScanRows(names, merged); failed == 0 || err == nil {
			t.Errorf("%s: accepted (%d failed, %v)", name, failed, err)
		}
	}
}

func TestCheckRefitIsByteExact(t *testing.T) {
	row := scanRows(t, []string{"g000"})[0]
	if err := checkRefit(row, append([]byte(nil), row...)); err != nil {
		t.Fatal(err)
	}
	if err := checkRefit(row, bytes.Replace(row, []byte(`"iterations":4`), []byte(`"iterations":5`), 1)); err == nil {
		t.Fatal("a differing refit row was accepted")
	}
}

// A second pass over the same cache directory replays the stored rows:
// the cold-start guard must reject it, reading the same daemon counters
// a scan repetition reads.
func TestColdStartGuardRejectsWarmReplay(t *testing.T) {
	dir := t.TempDir()
	var entries []manifest.Entry
	for i := 0; i < 2; i++ {
		ds := smallGene(t, int64(20+i))
		name := fmt.Sprintf("g%d", i)
		e := manifest.Entry{Name: name, AlignPath: filepath.Join(dir, name+".fasta"), TreePath: filepath.Join(dir, name+".nwk")}
		var fa bytes.Buffer
		if err := align.WriteFasta(&fa, ds.Alignment); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(e.AlignPath, fa.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(e.TreePath, []byte(ds.Tree.String()+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	var text strings.Builder
	if err := manifest.Write(&text, entries); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{DataDir: filepath.Join(dir, "data"), CacheDir: filepath.Join(dir, "cache"), PoolWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{srv: srv, ts: httptest.NewServer(srv.Handler())}
	d.client = serve.NewClient(d.ts.URL)
	defer d.stop()
	ctx := context.Background()
	pass := func() *fleetView {
		st, err := d.client.Submit(ctx, serve.JobSpec{Manifest: text.String(), MaxIter: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for st.State == serve.StateQueued || st.State == serve.StateRunning {
			time.Sleep(5 * time.Millisecond)
			if st, err = d.client.JobStatus(ctx, st.ID); err != nil {
				t.Fatal(err)
			}
		}
		if st.State != serve.StateDone {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		v, err := readFleet(ctx, []*daemon{d})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cold := pass()
	if err := checkColdStart(len(entries), cold.resultHits, cold.fitCount); err != nil {
		t.Fatalf("cold pass rejected: %v", err)
	}
	warm := pass()
	// The daemon's counters are cumulative, as a reused fleet's would be.
	if warm.resultHits == 0 {
		t.Fatal("the second pass did not replay from the store; the test does not exercise the guard")
	}
	if err := checkColdStart(len(entries), warm.resultHits, warm.fitCount-cold.fitCount); err == nil {
		t.Fatal("a warm replay passed the cold-start guard")
	}
}

// The metric lists the benchmark prints must be exactly those
// BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		json []metric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", c.name, len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", c.name, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
