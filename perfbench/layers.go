package main

import (
	"time"

	"repro/internal/align"
	"repro/internal/blas"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/core"
	"repro/internal/expm"
	"repro/internal/lik"
	"repro/internal/mat"
	"repro/internal/newick"
	"repro/internal/optimize"
)

// probeBudget is the wall time each layer probe spends measuring.
const probeBudget = 300 * time.Millisecond

// probeLayers measures the likelihood stack's layers on one gene at its
// fitted H1 point: the BLAS mat-vec and the P(t) build at the model's
// dimension, the eigendecomposition, and the engine's full, path and
// single-branch evaluations and model installs. Each probe is one span.
func probeLayers(tr *tracer, parent int, t *newick.Tree, pats *align.Patterns, names []string, pi []float64, h1 *core.FitResult) (map[string]float64, error) {
	m := map[string]float64{}
	parent = tr.begin(parent, "layers")
	defer tr.end(parent)
	probe := func(name string, f func()) time.Duration {
		sp := tr.begin(parent, name)
		d := timeOp(probeBudget, f)
		tr.end(sp, "per_call_ns", d.Nanoseconds())
		return d
	}
	model, err := bsm.New(codon.Universal, bsm.H1, h1.Params, pi)
	if err != nil {
		return nil, err
	}
	rate := model.RateAt(0)
	n := rate.S.Rows

	// lik: a serial engine, a two-worker engine and a cached engine.
	lens := h1.BranchLengths
	serial, err := engineAt(t, pats, names, lik.Config{}, model, lens)
	if err != nil {
		return nil, err
	}
	defer serial.Close()
	pooled, err := engineAt(t, pats, names, lik.Config{Workers: 2}, model, lens)
	if err != nil {
		return nil, err
	}
	defer pooled.Close()
	cached, err := engineAt(t, pats, names, lik.Config{Decomps: lik.NewDecompCache(64)}, model, lens)
	if err != nil {
		return nil, err
	}
	defer cached.Close()
	ids := serial.BranchIDs() // post-order, so ids[0] is a leaf

	// expm: eigendecomposition and the SYRK P(t) build, at the mean
	// fitted branch length.
	var d *expm.Decomposition
	dec := probe("expm.Decompose", func() { d, err = expm.Decompose(rate.S, rate.Pi) })
	if err != nil {
		return nil, err
	}
	meanLen := 0.0
	for _, id := range ids {
		meanLen += lens[id]
	}
	tt := model.EffectiveTime(meanLen / float64(len(ids)))
	p := mat.New(n, n)
	ws := d.NewWorkspace()
	pm := probe("expm.PMatrix", func() { d.PMatrix(tt, expm.MethodSYRK, p, ws) })
	nf := float64(n)
	m["expm.decompose_us"] = us(dec)
	m["expm.pmatrix_us"] = us(pm)
	// Computed flops: column scaling n², SYRK n²(n+1), similarity 2n².
	m["expm.pmatrix_gflops"] = (nf*nf*(nf+1) + 3*nf*nf) / float64(pm.Nanoseconds())

	// blas: the per-site GEMV applyBranch runs, y = P·x.
	x, y := append([]float64(nil), pi...), make([]float64, n)
	gv := probe("blas.Dgemv", func() { blas.Dgemv(false, 1, p, x, 0, y) })
	m["blas.dgemv_ns"] = float64(gv.Nanoseconds())
	// Computed: 2n² flops over 8n² bytes of matrix.
	m["blas.dgemv_gflops"] = 2 * nf * nf / float64(gv.Nanoseconds())

	full := probe("lik.LogLikelihood", func() { serial.LogLikelihood() })
	full2 := probe("lik.LogLikelihood.w2", func() { pooled.LogLikelihood() })
	m["lik.loglik_full_ms"] = ms(full)
	m["lik.loglik_full_ms_w2"] = ms(full2)
	m["lik.pool_speedup"] = float64(full) / float64(full2)

	// One leaf branch dirty: a transition rebuild, then a full pass.
	leaf, flip := ids[0], false
	path := append([]float64(nil), lens...)
	m["lik.loglik_path_ms"] = ms(probe("lik.LogLikelihood.path", func() {
		flip = !flip
		path[leaf] = lens[leaf]
		if flip {
			path[leaf] *= 1.01
		}
		if err := serial.SetBranchLengths(path); err != nil {
			panic(err) // lengths are the fitted ones, scaled by 1.01
		}
		serial.LogLikelihood()
	}))
	if err := serial.SetBranchLengths(lens); err != nil {
		return nil, err
	}
	serial.LogLikelihood()
	// The gradient's cheap path, cycled over every branch.
	k := 0
	m["lik.branch_loglik_ms"] = ms(probe("lik.BranchLogLikelihood", func() {
		v := ids[k%len(ids)]
		k++
		serial.BranchLogLikelihood(v, lens[v]*1.01)
	}))
	// Model installs: cold (no cache, every decomposition recomputed)
	// and warm (cache hits, transitions only).
	install := func(e *lik.Engine) func() {
		return func() {
			if err := e.SetModel(model); err != nil {
				panic(err) // the model installed fine when the engine was built
			}
			e.RefreshTransitions()
		}
	}
	m["lik.set_model_ms"] = ms(probe("lik.SetModel.cold", install(serial)))
	m["lik.set_model_warm_ms"] = ms(probe("lik.SetModel.warm", install(cached)))

	m["optimize.bfgs_iter_us"] = bfgsIterUS(tr, parent, 5+len(ids))
	return m, nil
}

// engineAt builds a tuned (slim) engine with the extra configuration
// and installs the model and branch lengths.
func engineAt(t *newick.Tree, pats *align.Patterns, names []string, extra lik.Config, m *bsm.Model, lens []float64) (*lik.Engine, error) {
	cfg := core.EngineSlim.LikConfig()
	cfg.Workers, cfg.Decomps = extra.Workers, extra.Decomps
	e, err := lik.New(t, pats, names, cfg)
	if err != nil {
		return nil, err
	}
	if err := e.SetModel(m); err != nil {
		e.Close()
		return nil, err
	}
	if err := e.SetBranchLengths(lens); err != nil {
		e.Close()
		return nil, err
	}
	e.LogLikelihood()
	return e, nil
}

// bfgsIterUS times optimize.Minimize per iteration on an objective of
// negligible cost (the extended Rosenbrock function) with the fit's
// parameter count, so the figure is the optimizer's own overhead.
func bfgsIterUS(tr *tracer, parent, dim int) float64 {
	f := func(x []float64) float64 {
		s := 0.0
		for i := 0; i+1 < len(x); i += 2 {
			a, b := 1-x[i], x[i+1]-x[i]*x[i]
			s += a*a + 100*b*b
		}
		return s
	}
	g := func(x, g []float64) {
		for i := range g {
			g[i] = 0
		}
		for i := 0; i+1 < len(x); i += 2 {
			b := x[i+1] - x[i]*x[i]
			g[i] = -2*(1-x[i]) - 400*x[i]*b
			g[i+1] = 200 * b
		}
	}
	x0 := make([]float64, dim)
	for i := range x0 {
		x0[i] = -1.2
		if i%2 == 1 {
			x0[i] = 1
		}
	}
	opts := optimize.Options{MaxIterations: 40, GradTol: 1e-300, FTol: 1e-300}
	iters := 0
	sp := tr.begin(parent, "optimize.Minimize")
	d := timeOp(probeBudget, func() {
		iters = optimize.Minimize(optimize.Problem{F: f, Grad: g}, x0, opts).Iterations
	})
	tr.end(sp, "dimension", dim, "iterations", iters)
	return us(d) / float64(max(iters, 1))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
