// Command perfbench is the repository benchmark. It generates its
// inputs from a seed, drives the program through its public packages,
// verifies every output it times, and prints the metrics named in
// BENCHMARK.json at the repository root as the last line of standard
// output.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload fit-long|fit-wide|scan --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, and the spans of the
// traced repetitions are written to .bench_build/trace/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric and its unit; the lists below
// mirror BENCHMARK.json (TestMetricsMatchBenchmarkJSON keeps them in
// step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"fit_s", "s"},
	{"ms_per_iter", "ms"},
	{"genes_per_s", "1/s"},
	{"first_result_s", "s"},
	{"success_rate", "ratio"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"blas.dgemv_ns", "ns"},
	{"blas.dgemv_gflops", "GFLOP/s"},
	{"lik.loglik_full_ms", "ms"},
	{"lik.loglik_full_ms_w2", "ms"},
	{"lik.pool_speedup", "ratio"},
	{"expm.pmatrix_us", "us"},
	{"expm.pmatrix_gflops", "GFLOP/s"},
	{"lik.set_model_warm_ms", "ms"},
	{"lik.loglik_path_ms", "ms"},
	{"lik.branch_loglik_ms", "ms"},
	{"expm.decompose_us", "us"},
	{"lik.set_model_ms", "ms"},
	{"lik.decomp_misses", "count"},
	{"lik.decomp_hits", "count"},
	{"lik.decomp_hit_ratio", "ratio"},
	{"optimize.iterations", "count"},
	{"optimize.func_evals", "count"},
	{"optimize.bfgs_iter_us", "us"},
	{"core.new_analysis_ms", "ms"},
	{"core.fit_h0_s", "s"},
	{"core.fit_h1_s", "s"},
	{"core.run_rest_s", "s"},
	{"est.eigen_share", "ratio"},
	{"manifest.parse_ms", "ms"},
	{"core.shared_freq_ms", "ms"},
	{"core.load_ms_per_gene", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_s", "s"},
	{"serve.job_busy_s", "s"},
	{"serve.fit_busy_s", "s"},
	{"serve.job_overhead_s", "s"},
	{"fanout.shards", "count"},
	{"fanout.resubmits", "count"},
	{"fanout.idle_frac", "ratio"},
	{"fanout.merge_tail_s", "s"},
	{"persistcache.writes", "count"},
	{"persistcache.result_hits", "count"},
	{"persistcache.replay_ms_per_gene", "ms"},
	{"proc.cpu_util", "ratio"},
	{"proc.alloc_mb", "MB"},
	{"proc.gc_cycles", "count"},
	{"trace.overhead_frac", "ratio"},
}

// params is what every workload receives.
type params struct {
	seed   int64
	budget time.Duration // timed time to spend on repetitions
	tr     *tracer       // nil when tracing is off
	work   string        // scratch directory, removed at exit
}

// outcome is a workload's report: operation counts, the metrics it
// measured, and its configuration for the run record.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	config            map[string]any
}

// fail counts a failed operation and reports it on standard error.
func (o *outcome) fail(err error) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
}

type workload func(ctx context.Context, p params) (*outcome, error)

var workloads = map[string]workload{
	"fit-long": func(ctx context.Context, p params) (*outcome, error) { return runFit(ctx, p, "ii") },
	"fit-wide": func(ctx context.Context, p params) (*outcome, error) { return runFit(ctx, p, "iv") },
	"scan":     runScan,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "fit-long, fit-wide or scan")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Int("seconds", 30, "timed seconds to spend on repetitions")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics and writes spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload fit-long|fit-wide|scan, --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	p := params{seed: *seed, budget: time.Duration(*seconds) * time.Second,
		work: filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))}
	if *trace == 1 {
		p.tr = newTracer()
	}
	defer os.RemoveAll(p.work)
	out, err := w(context.Background(), p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	rec := newRecord(*name, *seed, *seconds, *trace == 1, out.config)
	defs := endToEnd
	if p.tr != nil {
		defs = perLayer
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		rec.Config["spans_file"] = path
		rec.Config["spans"] = p.tr.count()
		if err := p.tr.write(path, rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, map[string]metricOut{}}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, d.name)
			return 1
		}
		res.Metrics[d.name] = metricOut{v, d.unit}
	}
	recLine, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", recLine, resLine)
	return 0
}

// repLoop decides whether another repetition starts: at least min
// repetitions run, and a further one starts while it is expected to
// end less than half a repetition past the timed budget.
func repLoop(p params, min int, timed time.Duration, reps []float64) bool {
	if len(reps) < min {
		return true
	}
	return timed+time.Duration(median(reps)/2*float64(time.Second)) <= p.budget
}
