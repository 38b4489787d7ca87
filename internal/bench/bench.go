// Package bench is the experiment harness that regenerates the
// paper's evaluation section: the Table II dataset shapes, the
// §IV-1 accuracy comparison, Table III (runtimes and iterations),
// Table IV (speedup flavors) and Figure 3 (speedup vs species count).
// It is shared by the cmd/tables binary and the repository-level
// testing.B benchmarks.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bsm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stat"
)

// Config scales the experiments. The paper's full runs take CPU hours
// (Table III reports 52 822 s for dataset iv on CodeML); Quick uses
// capped optimizer iterations so every table regenerates in minutes
// while preserving the comparison structure. Per-iteration speedups
// are unaffected by the cap; overall speedups regain the paper's
// iteration-count component only in Full mode.
type Config struct {
	// MaxIterations caps BFGS iterations per hypothesis (0 = the
	// engine default, i.e. effectively uncapped "full" behaviour).
	MaxIterations int
	// Seed drives dataset generation and starting points.
	Seed int64
}

// Quick returns the fast configuration used by default.
func Quick() Config { return Config{MaxIterations: 5, Seed: 1} }

// Full returns the faithful configuration (hours of CPU).
func Full() Config { return Config{MaxIterations: 500, Seed: 1} }

// EngineResult is one engine's H0+H1 run on one dataset.
type EngineResult struct {
	Engine     core.EngineKind
	Dataset    string
	H0, H1     *core.FitResult
	RuntimeH0  time.Duration
	RuntimeH1  time.Duration
	Iterations int // H0+H1, Table III's column
}

// Runtime returns the combined H0+H1 wall time.
func (r *EngineResult) Runtime() time.Duration { return r.RuntimeH0 + r.RuntimeH1 }

// RunEngine executes the full positive-selection test (H0+H1) with
// one engine on a generated dataset.
func RunEngine(ds *sim.Dataset, kind core.EngineKind, cfg Config) (*EngineResult, error) {
	an, err := core.NewAnalysis(ds.Alignment, ds.Tree, core.Options{
		Engine:        kind,
		MaxIterations: cfg.MaxIterations,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	h0, err := an.Fit(bsm.H0)
	if err != nil {
		return nil, err
	}
	h1, err := an.FitFrom(bsm.H1, h0.Params, h0.BranchLengths)
	if err != nil {
		return nil, err
	}
	return &EngineResult{
		Engine:     kind,
		Dataset:    ds.Preset.ID,
		H0:         h0,
		H1:         h1,
		RuntimeH0:  h0.Runtime,
		RuntimeH1:  h1.Runtime,
		Iterations: h0.Iterations + h1.Iterations,
	}, nil
}

// Pair holds the Baseline (CodeML) and Slim results on one dataset —
// one row of Tables III and IV.
type Pair struct {
	Dataset        sim.Preset
	Baseline, Slim *EngineResult
}

// RunPair benchmarks both engines on a freshly generated instance of
// the preset.
func RunPair(p sim.Preset, cfg Config) (*Pair, error) {
	return RunPairWithSpecies(p, p.Species, cfg)
}

// RunPairWithSpecies benchmarks both engines on a preset variant with
// the given species count (the Figure 3 sweep).
func RunPairWithSpecies(p sim.Preset, species int, cfg Config) (*Pair, error) {
	ds, err := p.GenerateWithSpecies(cfg.Seed, species)
	if err != nil {
		return nil, err
	}
	baseline, err := RunEngine(ds, core.EngineBaseline, cfg)
	if err != nil {
		return nil, err
	}
	slim, err := RunEngine(ds, core.EngineSlim, cfg)
	if err != nil {
		return nil, err
	}
	return &Pair{Dataset: p, Baseline: baseline, Slim: slim}, nil
}

// Speedups are the paper's three speedup flavors (§IV-2).
type Speedups struct {
	OverallH0   float64 // S_o for H0: baseline runtime / slim runtime
	OverallH1   float64
	Combined    float64 // S_c: H0+H1 runtimes combined
	PerIterH0   float64 // S_i: runtime normalized by iterations
	PerIterH1   float64
	PerIterBoth float64
}

// ComputeSpeedups derives Table IV's rows from a benchmark pair.
func ComputeSpeedups(p *Pair) Speedups {
	perIter := func(rt time.Duration, iters int) float64 {
		if iters == 0 {
			return 0
		}
		return rt.Seconds() / float64(iters)
	}
	s := Speedups{
		OverallH0: ratio(p.Baseline.RuntimeH0.Seconds(), p.Slim.RuntimeH0.Seconds()),
		OverallH1: ratio(p.Baseline.RuntimeH1.Seconds(), p.Slim.RuntimeH1.Seconds()),
		Combined:  ratio(p.Baseline.Runtime().Seconds(), p.Slim.Runtime().Seconds()),
		PerIterH0: ratio(perIter(p.Baseline.RuntimeH0, p.Baseline.H0.Iterations),
			perIter(p.Slim.RuntimeH0, p.Slim.H0.Iterations)),
		PerIterH1: ratio(perIter(p.Baseline.RuntimeH1, p.Baseline.H1.Iterations),
			perIter(p.Slim.RuntimeH1, p.Slim.H1.Iterations)),
		PerIterBoth: ratio(perIter(p.Baseline.Runtime(), p.Baseline.Iterations),
			perIter(p.Slim.Runtime(), p.Slim.Iterations)),
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Accuracy is the paper's §IV-1 relative difference
// D = |lnL − lnL̂|/|lnL| between the two engines' optima.
type Accuracy struct {
	Dataset string
	DH0     float64
	DH1     float64
}

// ComputeAccuracy derives the accuracy row from a benchmark pair.
func ComputeAccuracy(p *Pair) Accuracy {
	return Accuracy{
		Dataset: p.Baseline.Dataset,
		DH0:     stat.RelativeDifference(p.Baseline.H0.LnL, p.Slim.H0.LnL),
		DH1:     stat.RelativeDifference(p.Baseline.H1.LnL, p.Slim.H1.LnL),
	}
}

// PrintTable2 writes the dataset inventory (the reproduction's
// counterpart to the paper's Table II).
func PrintTable2(w io.Writer) {
	fmt.Fprintln(w, "Table II — evaluation datasets (simulated stand-ins)")
	fmt.Fprintf(w, "%-4s %-55s %8s %8s\n", "No.", "Characterization", "Species", "Codons")
	for _, p := range sim.TableII {
		fmt.Fprintf(w, "%-4s %-55s %8d %8d\n", p.ID, p.Description, p.Species, p.Codons)
	}
}

// PrintTable3Row writes one dataset's Table III row.
func PrintTable3Row(w io.Writer, p *Pair) {
	fmt.Fprintf(w, "%-4s %14.2f %10d %14.2f %10d\n",
		p.Dataset.ID,
		p.Baseline.Runtime().Seconds(), p.Baseline.Iterations,
		p.Slim.Runtime().Seconds(), p.Slim.Iterations)
}

// PrintTable3Header writes Table III's header.
func PrintTable3Header(w io.Writer) {
	fmt.Fprintln(w, "Table III — runtimes and iterations, H0+H1 combined")
	fmt.Fprintf(w, "%-4s %14s %10s %14s %10s\n",
		"No.", "CodeML[s]", "Iters", "SlimCodeML[s]", "Iters")
}

// PrintTable4 writes Table IV from the accumulated pairs.
func PrintTable4(w io.Writer, pairs []*Pair) {
	fmt.Fprintln(w, "Table IV — speedups of SlimCodeML over CodeML")
	fmt.Fprintf(w, "%-28s", "Dataset")
	for _, p := range pairs {
		fmt.Fprintf(w, "%8s", p.Dataset.ID)
	}
	fmt.Fprintln(w)
	rows := []struct {
		name string
		get  func(Speedups) float64
	}{
		{"Overall speedup H0", func(s Speedups) float64 { return s.OverallH0 }},
		{"Overall speedup H1", func(s Speedups) float64 { return s.OverallH1 }},
		{"Combined speedup H0+H1", func(s Speedups) float64 { return s.Combined }},
		{"Per-iteration speedup H0", func(s Speedups) float64 { return s.PerIterH0 }},
		{"Per-iteration speedup H1", func(s Speedups) float64 { return s.PerIterH1 }},
		{"Per-iteration speedup H0+H1", func(s Speedups) float64 { return s.PerIterBoth }},
	}
	sp := make([]Speedups, len(pairs))
	for i, p := range pairs {
		sp[i] = ComputeSpeedups(p)
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%-28s", row.name)
		for _, s := range sp {
			fmt.Fprintf(w, "%8.1f", row.get(s))
		}
		fmt.Fprintln(w)
	}
}

// Fig3Point is one x-position of Figure 3.
type Fig3Point struct {
	Species   int
	OverallH0 float64
	OverallH1 float64
	Combined  float64
}

// RunFig3 sweeps dataset iv over the species counts and returns the
// speedup series of Figure 3.
func RunFig3(speciesCounts []int, cfg Config) ([]Fig3Point, error) {
	preset, err := sim.PresetByID("iv")
	if err != nil {
		return nil, err
	}
	var out []Fig3Point
	for _, s := range speciesCounts {
		pair, err := RunPairWithSpecies(preset, s, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: fig3 at %d species: %w", s, err)
		}
		sp := ComputeSpeedups(pair)
		out = append(out, Fig3Point{
			Species:   s,
			OverallH0: sp.OverallH0,
			OverallH1: sp.OverallH1,
			Combined:  sp.Combined,
		})
	}
	return out, nil
}

// PrintFig3 writes the Figure 3 series as a table.
func PrintFig3(w io.Writer, pts []Fig3Point) {
	fmt.Fprintln(w, "Figure 3 — speedups on dataset iv for varying species counts")
	fmt.Fprintf(w, "%8s %12s %12s %16s\n", "Species", "Overall H0", "Overall H1", "Combined H0+H1")
	for _, p := range pts {
		fmt.Fprintf(w, "%8d %12.2f %12.2f %16.2f\n", p.Species, p.OverallH0, p.OverallH1, p.Combined)
	}
}

// PrintAccuracy writes the §IV-1 accuracy table.
func PrintAccuracy(w io.Writer, rows []Accuracy) {
	fmt.Fprintln(w, "Accuracy — relative lnL difference D = |lnL−lnL̂|/|lnL| (paper §IV-1)")
	fmt.Fprintf(w, "%-4s %14s %14s\n", "No.", "D (H0)", "D (H1)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-4s %14.3g %14.3g\n", r.Dataset, r.DH0, r.DH1)
	}
}
