package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/align"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/core"
	"repro/internal/lik"
	"repro/internal/newick"
	"repro/internal/sim"
)

// Fit workload settings. One BFGS iteration per hypothesis keeps a
// dataset-iv repetition near ten seconds on two cores, so a run holds
// several repetitions; the per-iteration metric divides it back out.
// At least three repetitions run, so each figure is a median rather
// than the mean of two when a busy host slows every repetition.
const (
	fitIterCap = 1
	fitWorkers = 2
	fitMinReps = 3
	optSeed    = 1 // the optimizer's start jitter (core.Options.Seed)
	treeSeed   = 1 // every workload's species tree
	minSetups  = 9 // set-up repetitions per run, for a steady setup_s
)

func fitOptions() core.Options {
	return core.Options{Engine: core.EngineSlim, MaxIterations: fitIterCap, Seed: optSeed, Workers: fitWorkers}
}

// runFit fits one simulated gene with the shape of a Table II dataset
// (H0 + H1 through core.NewAnalysis and Run) repeatedly for the timed
// budget, verifying each repetition outside the timed region. A traced
// run alternates traced and untraced repetitions, then measures the
// layers at the fitted H1 point.
func runFit(ctx context.Context, p params, dataset string) (*outcome, error) {
	preset, err := sim.PresetByID(dataset)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}, config: map[string]any{
		"dataset": dataset, "species": preset.Species, "codons": preset.Codons, "genes": 1,
		"engine": "slim", "workers": fitWorkers, "max_iterations_per_hypothesis": fitIterCap, "optimizer_seed": optSeed,
		"tree_seed": treeSeed,
	}}
	var (
		setupS, fitS, msPerIter, genesPerS, firstS, reps []float64
		newMS, h0S, h1S, restS, cpu, alloc, gcs, peaks   []float64
		tracedS, untracedS                               []float64
		timed                                            time.Duration
		ref                                              *fitOutcome
		last                                             *fitRep
	)
	for rep := 0; repLoop(p, fitMinReps, timed, reps); rep++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rt := p.tr
		if rep%2 == 1 {
			rt = nil // traced runs alternate, so tracing overhead can be measured
		}
		rs := rt.begin(0, "fit.repetition")
		settle()
		t0 := time.Now()
		ds, err := generate(rt, rs, preset, p.seed)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())

		settle()
		r := fitOnce(rt, rs, ds)
		timed += r.total
		reps = append(reps, r.total.Seconds())
		peaks = append(peaks, r.peakMB)
		out.attempted++
		if r.err != nil {
			rt.end(rs)
			out.fail(r.err)
			continue
		}
		fit := r.fit.Seconds()
		fmt.Fprintf(os.Stderr, "perfbench: %s repetition %d: fit %.3f s, %d patterns, %d iterations, %d evaluations\n",
			dataset, rep, fit, r.patterns, r.res.TotalIterations, r.res.H0.FuncEvals+r.res.H1.FuncEvals)
		fitS = append(fitS, fit)
		msPerIter = append(msPerIter, 1000*fit/float64(r.res.TotalIterations))
		genesPerS = append(genesPerS, 1/fit)
		firstS = append(firstS, r.total.Seconds())
		newMS = append(newMS, 1000*r.newAn.Seconds())
		h0S = append(h0S, r.res.H0.Runtime.Seconds())
		h1S = append(h1S, r.res.H1.Runtime.Seconds())
		restS = append(restS, (r.res.TotalRuntime - r.res.H0.Runtime - r.res.H1.Runtime).Seconds())
		cpu, alloc, gcs = append(cpu, r.proc.cpuUtil), append(alloc, r.proc.allocMB), append(gcs, r.proc.gcs)
		if rt != nil {
			tracedS = append(tracedS, fit)
		} else {
			untracedS = append(untracedS, fit)
		}

		vs := rt.begin(rs, "verify")
		got, err := verifyFit(ds, r)
		if err == nil {
			err = checkFit(got, ref)
		}
		rt.end(vs)
		if err != nil {
			out.fail(fmt.Errorf("%s repetition %d: %w", dataset, rep, err))
		} else if ref == nil {
			ref = &got
		}
		rt.end(rs)
		last = r
	}
	for len(setupS) < minSetups {
		settle()
		t0 := time.Now()
		if _, err := generate(nil, 0, preset, p.seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	m := out.metrics
	m["setup_s"] = median(setupS)
	m["fit_s"] = median(fitS)
	m["ms_per_iter"] = median(msPerIter)
	m["genes_per_s"] = median(genesPerS)
	m["first_result_s"] = median(firstS)
	m["success_rate"] = float64(out.attempted-out.failed) / float64(out.attempted)
	m["peak_rss_mb"] = median(peaks)
	if p.tr == nil || last == nil {
		return out, nil
	}

	// Per-layer metrics of the traced run.
	m["core.new_analysis_ms"] = median(newMS)
	m["core.fit_h0_s"] = median(h0S)
	m["core.fit_h1_s"] = median(h1S)
	m["core.run_rest_s"] = median(restS)
	m["optimize.iterations"] = float64(last.res.TotalIterations)
	m["optimize.func_evals"] = float64(last.res.H0.FuncEvals + last.res.H1.FuncEvals)
	m["proc.cpu_util"] = median(cpu)
	m["proc.alloc_mb"] = median(alloc)
	m["proc.gc_cycles"] = median(gcs)
	m["trace.overhead_frac"] = overhead(tracedS, untracedS)
	ds, err := generate(nil, 0, preset, p.seed)
	if err != nil {
		return nil, err
	}
	// Decomposition counts come from a benchmark-owned cache passed to
	// core.RunBatchStream; the streamed fit must reproduce the direct
	// one bit for bit.
	out.attempted++
	hits, misses, err := streamFitCounts(ctx, p.tr, ds, last.res)
	if err != nil {
		out.fail(err)
	}
	m["lik.decomp_hits"], m["lik.decomp_misses"] = float64(hits), float64(misses)
	m["lik.decomp_hit_ratio"] = ratio(hits, hits+misses)
	pats, names, err := encode(ds.Alignment)
	if err != nil {
		return nil, err
	}
	layers, err := probeLayers(p.tr, 0, ds.Tree, pats, names, last.pi, last.res.H1)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		m[k] = v
	}
	m["est.eigen_share"] = float64(misses) * m["expm.decompose_us"] / 1e6 / m["fit_s"]
	noScanLayers(m)
	return out, nil
}

// fitRep is one timed repetition.
type fitRep struct {
	res        *core.TestResult
	pi         []float64
	patterns   int
	newAn, fit time.Duration // NewAnalysis; Run
	total      time.Duration // NewAnalysis + Run: the gene's result latency
	proc       procDelta
	peakMB     float64
	err        error
}

// generate simulates the workload's gene: the dataset's species tree
// is fixed (drawn once from treeSeed), and the alignment is drawn from
// the workload seed. A fixed tree keeps the amount of work — the number
// of distinct site patterns — nearly the same from seed to seed, as for
// genes of one species set; a random tree per seed would change it by a
// third on dataset ii.
func generate(rt *tracer, parent int, preset sim.Preset, seed int64) (*sim.Dataset, error) {
	sp := rt.begin(parent, "sim.Generate")
	defer rt.end(sp, "dataset", preset.ID)
	tree, err := sim.RandomTree(sim.TreeConfig{Species: preset.Species, MeanBranchLength: preset.MeanBranchLength, Seed: treeSeed})
	if err != nil {
		return nil, err
	}
	aln, err := sim.Simulate(tree, codon.Universal, sim.SeqConfig{Sites: preset.Codons, Params: sim.TrueParams(), Seed: seed})
	if err != nil {
		return nil, err
	}
	return &sim.Dataset{Preset: preset, Tree: tree, Alignment: aln}, nil
}

// fitOnce times core.NewAnalysis and Analysis.Run on the dataset.
func fitOnce(rt *tracer, parent int, ds *sim.Dataset) *fitRep {
	r := &fitRep{}
	rss := startRSS()
	ps := takeProc()
	t0 := time.Now()
	sp := rt.begin(parent, "core.NewAnalysis")
	an, err := core.NewAnalysis(ds.Alignment, ds.Tree, fitOptions())
	rt.end(sp)
	t1 := time.Now()
	if err == nil {
		defer an.Close()
		sp = rt.begin(parent, "core.Analysis.Run")
		r.res, err = an.Run()
		if err == nil {
			rt.end(sp, "iterations", r.res.TotalIterations, "lnl_h0", r.res.H0.LnL, "lnl_h1", r.res.H1.LnL)
		} else {
			rt.end(sp, "error", err.Error())
		}
		r.pi, r.patterns = an.Pi(), an.NumPatterns()
	}
	t2 := time.Now()
	r.proc = since(ps)
	r.peakMB = rss.stopMB()
	r.newAn, r.fit, r.total, r.err = t1.Sub(t0), t2.Sub(t1), t2.Sub(t0), err
	return r
}

// encode is the codon encoding and pattern compression NewAnalysis
// performs, repeated for the checker and the layer probes.
func encode(a *align.Alignment) (*align.Patterns, []string, error) {
	ca, err := align.EncodeCodons(a, codon.Universal)
	if err != nil {
		return nil, nil, err
	}
	return align.Compress(ca), ca.Names, nil
}

// verifyFit re-evaluates both optima with a fresh serial engine in the
// naive baseline arithmetic.
func verifyFit(ds *sim.Dataset, r *fitRep) (fitOutcome, error) {
	pats, names, err := encode(ds.Alignment)
	if err != nil {
		return fitOutcome{}, err
	}
	o := fitOutcome{
		H0: fitPoint{r.res.H0.LnL, r.res.H0.Params, r.res.H0.BranchLengths},
		H1: fitPoint{r.res.H1.LnL, r.res.H1.Params, r.res.H1.BranchLengths},
	}
	if o.ReLnL0, err = naiveLnL(ds.Tree, pats, names, r.pi, r.res.H0); err != nil {
		return o, err
	}
	o.ReLnL1, err = naiveLnL(ds.Tree, pats, names, r.pi, r.res.H1)
	return o, err
}

func naiveLnL(t *newick.Tree, pats *align.Patterns, names []string, pi []float64, f *core.FitResult) (float64, error) {
	eng, err := lik.New(t, pats, names, core.EngineBaseline.LikConfig())
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	m, err := bsm.New(codon.Universal, f.Hypothesis, f.Params, pi)
	if err != nil {
		return 0, err
	}
	if err := eng.SetModel(m); err != nil {
		return 0, err
	}
	if err := eng.SetBranchLengths(f.BranchLengths); err != nil {
		return 0, err
	}
	return eng.LogLikelihood(), nil
}

// streamFitCounts fits the gene once more through core.RunBatchStream
// with a benchmark-owned decomposition cache and returns its hit and
// miss counts. The result must match the direct fit bit for bit.
func streamFitCounts(ctx context.Context, tr *tracer, ds *sim.Dataset, want *core.TestResult) (hits, misses int, err error) {
	cache := lik.NewDecompCache(0)
	opts := core.StreamOptions{
		BatchOptions: core.BatchOptions{Options: fitOptions(), Concurrency: 1, PoolWorkers: fitWorkers},
		Decomps:      cache,
	}
	var col core.CollectSink
	sp := tr.begin(0, "core.RunBatchStream")
	_, err = core.RunBatchStream(ctx, core.NewSliceSource([]core.Gene{{Name: "gene", Alignment: ds.Alignment, Tree: ds.Tree}}), &col, opts)
	hits, misses = cache.Stats()
	tr.end(sp, "decomp_hits", hits, "decomp_misses", misses)
	if err != nil {
		return hits, misses, err
	}
	rs := col.Results()
	if len(rs) != 1 || rs[0].Err != nil || rs[0].Result == nil {
		return hits, misses, fmt.Errorf("streamed fit failed: %+v", rs)
	}
	got := rs[0].Result
	if math.Float64bits(got.H0.LnL) != math.Float64bits(want.H0.LnL) || math.Float64bits(got.H1.LnL) != math.Float64bits(want.H1.LnL) ||
		got.H1.Params != want.H1.Params {
		return hits, misses, fmt.Errorf("streamed fit (lnL %v/%v) differs from the direct fit (%v/%v)",
			got.H0.LnL, got.H1.LnL, want.H0.LnL, want.H1.LnL)
	}
	return hits, misses, nil
}

// overhead is the traced repetitions' median over the untraced ones',
// minus one.
func overhead(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return median(traced)/median(untraced) - 1
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// noScanLayers reports the layers only the scan exercises (manifest,
// shared frequencies, daemon, fan-out, persistent cache) as 0: the fit
// workloads bypass them.
func noScanLayers(m map[string]float64) {
	for _, k := range []string{
		"manifest.parse_ms", "core.shared_freq_ms", "core.load_ms_per_gene",
		"serve.submit_ms", "serve.queue_wait_s", "serve.job_busy_s", "serve.fit_busy_s", "serve.job_overhead_s",
		"fanout.shards", "fanout.resubmits", "fanout.idle_frac", "fanout.merge_tail_s",
		"persistcache.writes", "persistcache.result_hits", "persistcache.replay_ms_per_gene",
	} {
		m[k] = 0
	}
}
