package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/align"
	"repro/internal/codon"
	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/manifest"
	"repro/internal/newick"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Scan workload settings: a manifest of short genes fanned out over two
// in-process daemons with one pool worker each (two cores busy), the
// shared-frequency mode and the coordinator's default shard queue.
const (
	scanGenes    = 16
	scanSpecies  = 6
	scanCodons   = 60
	scanIterCap  = 2
	scanDaemons  = 2
	scanMinReps  = 3
	scanPoll     = 20 * time.Millisecond
	scanFitCount = "slimcodeml_stream_gene_fit_seconds_count"
	scanFitSum   = "slimcodeml_stream_gene_fit_seconds_sum"
)

func scanSpec() serve.JobSpec {
	return serve.JobSpec{Engine: "slim", MaxIter: scanIterCap, Seed: optSeed, ShareFrequencies: true, Concurrency: 1}
}

// runScan repeats a cold genome scan for the timed budget: fresh input
// files, daemons, data and cache directories each repetition, timed
// from fanout.Run's start to its last merged row.
func runScan(ctx context.Context, p params) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, config: map[string]any{
		"genes": scanGenes, "species": scanSpecies, "codons": scanCodons, "tree_seed": treeSeed,
		"engine": "slim", "daemons": scanDaemons, "pool_workers_per_daemon": 1, "job_concurrency": 1,
		"max_iterations_per_hypothesis": scanIterCap, "optimizer_seed": optSeed, "share_frequencies": true,
		"poll_ms": scanPoll.Milliseconds(),
	}}
	var (
		setupS, fitS, msPerIter, genesPerS, firstS, reps []float64
		tracedS, untracedS, peaks                        []float64
		timed                                            time.Duration
		traced                                           *scanRep
	)
	for rep := 0; repLoop(p, scanMinReps, timed, reps); rep++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rt := p.tr
		if rep%2 == 1 {
			rt = nil
		}
		r, err := scanOnce(ctx, rt, p, rep, rt != nil && traced == nil)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: scan repetition %d: %.3f s to the last row, first row at %.3f s\n", rep, r.lastRow.Seconds(), r.firstRow.Seconds())
		setupS = append(setupS, r.setup.Seconds())
		timed += r.makespan
		reps = append(reps, r.makespan.Seconds())
		peaks = append(peaks, r.peakMB)
		out.attempted += scanGenes
		if r.failed > 0 {
			out.failed += r.failed
			fmt.Fprintf(os.Stderr, "perfbench: scan repetition %d: %d genes failed: %v\n", rep, r.failed, r.err)
		}
		if r.err != nil && r.failed == 0 { // a check beyond the rows (the replay) failed
			out.attempted++
			out.fail(r.err)
		}
		if r.fitCount > 0 && r.iterations > 0 {
			fitS = append(fitS, r.fitSum/float64(r.fitCount))
			msPerIter = append(msPerIter, 1000*r.fitSum/float64(r.iterations))
		}
		genesPerS = append(genesPerS, scanGenes/r.lastRow.Seconds())
		firstS = append(firstS, r.firstRow.Seconds())
		if rt != nil {
			tracedS = append(tracedS, r.makespan.Seconds())
			if traced == nil {
				traced = r
			}
		} else {
			untracedS = append(untracedS, r.makespan.Seconds())
		}
	}
	m := out.metrics
	m["setup_s"] = median(setupS)
	m["fit_s"] = median(fitS)
	m["ms_per_iter"] = median(msPerIter)
	m["genes_per_s"] = median(genesPerS)
	m["first_result_s"] = median(firstS)
	m["success_rate"] = float64(out.attempted-out.failed) / float64(out.attempted)
	m["peak_rss_mb"] = median(peaks)
	if traced != nil {
		for k, v := range traced.layers {
			m[k] = v
		}
		m["trace.overhead_frac"] = overhead(tracedS, untracedS)
	}
	return out, nil
}

// scanRep is one repetition's measurements and check results.
type scanRep struct {
	setup, makespan   time.Duration
	firstRow, lastRow time.Duration
	peakMB            float64
	fitSum            float64 // Σ gene fit seconds over the daemons' /metrics
	fitCount          int
	iterations        int // Σ BFGS iterations over the merged rows
	failed            int // genes that failed a check
	err               error
	layers            map[string]float64 // per-layer metrics (the first traced repetition)
}

// daemon is one in-process job service on a loopback listener.
type daemon struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *serve.Client
}

func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // every job has finished; a slow drain only delays the next repetition
	d.ts.Close()
}

// scanOnce runs one cold scan repetition. layers asks for the
// per-layer measurements, which this repetition then also takes.
func scanOnce(ctx context.Context, rt *tracer, p params, rep int, layers bool) (*scanRep, error) {
	r := &scanRep{}
	root := rt.begin(0, "scan.repetition")
	defer rt.end(root)
	dir, err := filepath.Abs(filepath.Join(p.work, fmt.Sprintf("rep%03d", rep)))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: inputs, manifest, and daemons with fresh data and cache
	// directories (one cache directory shared by the fleet).
	settle()
	t0 := time.Now()
	sp := rt.begin(root, "setup")
	manifestPath, err := writeScanInputs(rt, sp, dir, p.seed)
	if err != nil {
		return nil, err
	}
	ml := rt.begin(sp, "manifest.Load")
	entries, err := manifest.Load(manifestPath)
	rt.end(ml)
	if err != nil {
		return nil, err
	}
	var daemons []*daemon
	defer func() {
		for _, d := range daemons {
			d.stop()
		}
	}()
	for i := 0; i < scanDaemons; i++ {
		ds := rt.begin(sp, "serve.New")
		srv, err := serve.New(serve.Config{
			DataDir:     filepath.Join(dir, fmt.Sprintf("daemon%d", i)),
			CacheDir:    filepath.Join(dir, "cache"),
			PoolWorkers: 1,
			MaxActive:   1,
		})
		rt.end(ds)
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		daemons = append(daemons, &daemon{srv: srv, ts: ts, client: serve.NewClient(ts.URL)})
	}
	rt.end(sp)
	r.setup = time.Since(t0)

	// Timed region: the fan-out, from start to the last merged row.
	endpoints := make([]string, len(daemons))
	for i, d := range daemons {
		endpoints[i] = d.ts.URL
	}
	outPath := filepath.Join(dir, "merged.jsonl")
	var first, last time.Time
	settle()
	rss := startRSS()
	ps := takeProc()
	fsp := rt.begin(root, "fanout.Run")
	start := time.Now()
	sum, err := fanout.Run(ctx, fanout.Config{
		Entries:   entries,
		Endpoints: endpoints,
		OutPath:   outPath,
		Spec:      scanSpec(),
		Poll:      scanPoll,
		OnAppended: func(int, int64) {
			last = time.Now()
			if first.IsZero() {
				first = last
			}
		},
	})
	end := time.Now()
	proc := since(ps)
	r.peakMB = rss.stopMB()
	if err != nil {
		rt.end(fsp, "error", err.Error())
		return nil, fmt.Errorf("fanout: %w", err)
	}
	rt.end(fsp, "shards", sum.Shards, "genes", sum.Genes, "resubmits", sum.Resubmits)
	r.makespan, r.firstRow, r.lastRow = end.Sub(start), first.Sub(start), last.Sub(start)

	// What the daemons report: job timestamps, /metrics and /healthz.
	fs := rt.begin(root, "serve.Client.ListJobs+Metrics+Health")
	fleet, err := readFleet(ctx, daemons)
	rt.end(fs)
	if err != nil {
		return nil, err
	}
	r.fitSum, r.fitCount = fleet.fitSum, fleet.fitCount
	for i, st := range fleet.jobs {
		if st.Started == nil || st.Finished == nil {
			continue
		}
		js := rt.add(fsp, "serve.job", st.Submitted, *st.Finished, "id", st.ID, "daemon", fleet.daemonOf[i],
			"genes", st.Total, "cache_hits", st.CacheHits, "cache_misses", st.CacheMisses)
		rt.add(js, "serve.job.queued", st.Submitted, *st.Started)
		rt.add(js, "serve.job.running", *st.Started, *st.Finished)
	}

	// Checks, outside the timed region.
	vs := rt.begin(root, "verify")
	merged, err := os.ReadFile(outPath)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	recs, failed, checkErr := checkScanRows(names, merged)
	for _, rec := range recs {
		r.iterations += rec.Iterations
	}
	if err := checkColdStart(len(entries), fleet.resultHits, fleet.fitCount); err != nil && checkErr == nil {
		failed, checkErr = len(entries), err
	}
	pick := rand.New(rand.NewSource(p.seed)).Intn(len(entries))
	sfs := rt.begin(vs, "core.SharedFrequencies")
	t1 := time.Now()
	pi, err := core.SharedFrequencies(ctx, core.NewManifestSource(entries, align.FormatAuto), core.Options{})
	sharedFreq := time.Since(t1)
	rt.end(sfs)
	if err != nil {
		return nil, err
	}
	refit, err := refitGene(rt, vs, entries[pick], pi)
	if err == nil {
		err = checkRefit(mergedLine(merged, pick), refit.row)
	}
	if err != nil && checkErr == nil {
		failed, checkErr = 1, fmt.Errorf("gene %d: %w", pick, err)
	}
	r.failed, r.err = failed, checkErr
	rt.end(vs, "failed", failed)
	if !layers || refit == nil {
		return r, nil
	}

	// Per-layer measurements of the traced repetition.
	m := map[string]float64{}
	r.layers = m
	ls := rt.begin(root, "scan.layers")
	defer rt.end(ls)
	mp := rt.begin(ls, "manifest.Load")
	t1 = time.Now()
	_, err = manifest.Load(manifestPath)
	m["manifest.parse_ms"] = ms(time.Since(t1))
	rt.end(mp)
	if err != nil {
		return nil, err
	}
	m["core.shared_freq_ms"] = ms(sharedFreq)
	ld := rt.begin(ls, "core.ManifestSource.Next")
	src := core.NewManifestSource(entries, align.FormatAuto)
	t1 = time.Now()
	for {
		g, err := src.Next()
		if err != nil {
			return nil, err
		}
		if g == nil {
			break
		}
	}
	m["core.load_ms_per_gene"] = ms(time.Since(t1)) / float64(len(entries))
	rt.end(ld)

	var wait, busy time.Duration
	hits, misses, lastDone := 0, 0, time.Time{}
	for _, st := range fleet.jobs {
		if st.Started == nil || st.Finished == nil {
			continue
		}
		wait += st.Started.Sub(st.Submitted)
		busy += st.Finished.Sub(*st.Started)
		hits, misses = hits+st.CacheHits, misses+st.CacheMisses
		if st.Finished.After(lastDone) {
			lastDone = *st.Finished
		}
	}
	m["serve.queue_wait_s"] = wait.Seconds()
	m["serve.job_busy_s"] = busy.Seconds()
	m["serve.fit_busy_s"] = fleet.fitSum
	m["serve.job_overhead_s"] = busy.Seconds() - fleet.fitSum
	m["fanout.shards"] = float64(sum.Shards)
	m["fanout.resubmits"] = float64(sum.Resubmits)
	m["fanout.idle_frac"] = 1 - busy.Seconds()/(float64(scanDaemons)*r.makespan.Seconds())
	m["fanout.merge_tail_s"] = end.Sub(lastDone).Seconds()
	m["persistcache.writes"] = float64(fleet.persistWrites)
	m["persistcache.result_hits"] = float64(fleet.resultHits)
	m["lik.decomp_hits"], m["lik.decomp_misses"] = float64(hits), float64(misses)
	m["lik.decomp_hit_ratio"] = ratio(hits, hits+misses)
	m["proc.cpu_util"], m["proc.alloc_mb"], m["proc.gc_cycles"] = proc.cpuUtil, proc.allocMB, proc.gcs

	// The store's read path: the whole manifest re-submitted to one
	// daemon replays every row from the cache the cold pass filled, and
	// must reproduce the merged output byte for byte.
	submitMS, replayMS, err := replay(ctx, rt, ls, daemons[0], manifestPath, pi, merged, len(entries))
	if err != nil {
		r.err = fmt.Errorf("replay: %w", err)
	}
	m["serve.submit_ms"], m["persistcache.replay_ms_per_gene"] = submitMS, replayMS

	// The likelihood layers on the refitted gene at its H1 point.
	lm, err := probeLayers(rt, ls, refit.tree, refit.pats, refit.names, pi, refit.res.H1)
	if err != nil {
		return nil, err
	}
	for k, v := range lm {
		m[k] = v
	}
	m["optimize.iterations"] = float64(refit.res.TotalIterations)
	m["optimize.func_evals"] = float64(refit.res.H0.FuncEvals + refit.res.H1.FuncEvals)
	m["core.new_analysis_ms"] = ms(refit.newAn)
	m["core.fit_h0_s"] = refit.res.H0.Runtime.Seconds()
	m["core.fit_h1_s"] = refit.res.H1.Runtime.Seconds()
	m["core.run_rest_s"] = (refit.res.TotalRuntime - refit.res.H0.Runtime - refit.res.H1.Runtime).Seconds()
	m["est.eigen_share"] = float64(misses) * m["expm.decompose_us"] / 1e6 / fleet.fitSum
	return r, nil
}

// writeScanInputs simulates the scan's genes from the seed and writes
// them as FASTA + Newick files with a manifest; it returns the
// manifest's path.
func writeScanInputs(rt *tracer, parent int, dir string, seed int64) (string, error) {
	sp := rt.begin(parent, "sim+files")
	defer rt.end(sp, "genes", scanGenes)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	// One species tree for every gene, as in a scan of one species set;
	// per-gene random trees made the time to the first merged row (the
	// first shard's two genes) swing by half from seed to seed.
	tree, err := sim.RandomTree(sim.TreeConfig{Species: scanSpecies, MeanBranchLength: 0.1, Seed: treeSeed})
	if err != nil {
		return "", err
	}
	entries := make([]manifest.Entry, scanGenes)
	for i := range entries {
		aln, err := sim.Simulate(tree, codon.Universal, sim.SeqConfig{
			Sites: scanCodons, Params: sim.TrueParams(), Seed: seed*7919 + int64(i),
		})
		if err != nil {
			return "", err
		}
		name := fmt.Sprintf("g%03d", i)
		e := manifest.Entry{Name: name, AlignPath: filepath.Join(dir, name+".fasta"), TreePath: filepath.Join(dir, name+".nwk")}
		var fa bytes.Buffer
		if err := align.WriteFasta(&fa, aln); err != nil {
			return "", err
		}
		if err := os.WriteFile(e.AlignPath, fa.Bytes(), 0o644); err != nil {
			return "", err
		}
		if err := os.WriteFile(e.TreePath, []byte(tree.String()+"\n"), 0o644); err != nil {
			return "", err
		}
		entries[i] = e
	}
	path := filepath.Join(dir, "manifest.tsv")
	return path, manifest.WriteFile(path, entries)
}

// fleetView is what the daemons expose after a pass.
type fleetView struct {
	jobs                      []serve.Status
	daemonOf                  []int
	fitSum                    float64
	fitCount                  int
	resultHits, persistWrites int
}

func readFleet(ctx context.Context, daemons []*daemon) (*fleetView, error) {
	v := &fleetView{}
	for i, d := range daemons {
		jobs, err := d.client.ListJobs(ctx)
		if err != nil {
			return nil, err
		}
		for range jobs {
			v.daemonOf = append(v.daemonOf, i)
		}
		v.jobs = append(v.jobs, jobs...)
		text, err := d.client.Metrics(ctx)
		if err != nil {
			return nil, err
		}
		sum, count, err := fitSeconds(text)
		if err != nil {
			return nil, err
		}
		v.fitSum += sum
		v.fitCount += count
		h, err := d.client.Health(ctx)
		if err != nil {
			return nil, err
		}
		if h.Cache == nil || h.Cache.Persist == nil {
			return nil, fmt.Errorf("daemon %d reports no persistent cache", i)
		}
		v.resultHits += h.Cache.Persist.ResultHits
		v.persistWrites += h.Cache.Persist.DecompWrites + h.Cache.Persist.ResultWrites
	}
	return v, nil
}

// fitSeconds reads the per-gene fit histogram's sum and count from a
// Prometheus text exposition (0, 0 when no gene was fitted).
func fitSeconds(text []byte) (sum float64, count int, err error) {
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case scanFitSum:
			if sum, err = strconv.ParseFloat(val, 64); err != nil {
				return 0, 0, fmt.Errorf("%s: %w", name, err)
			}
		case scanFitCount:
			if count, err = strconv.Atoi(val); err != nil {
				return 0, 0, fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return sum, count, sc.Err()
}

func mergedLine(merged []byte, i int) []byte {
	lines := bytes.Split(merged, []byte("\n"))
	if i >= len(lines) {
		return nil
	}
	return lines[i]
}

// refit is one gene fitted in-process the way a daemon fits it.
type refit struct {
	res   *core.TestResult
	row   []byte
	newAn time.Duration
	tree  *newick.Tree
	pats  *align.Patterns
	names []string
}

// refitGene loads one manifest row and fits it with the pooled π, as a
// shard job pinned to the coordinator's frequencies does.
func refitGene(rt *tracer, parent int, e manifest.Entry, pi []float64) (*refit, error) {
	sp := rt.begin(parent, "refit")
	defer rt.end(sp, "gene", e.Name)
	g, err := core.NewManifestSource([]manifest.Entry{e}, align.FormatAuto).Next()
	if err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("manifest source yielded no gene for %s", e.Name)
	}
	opts := core.Options{Engine: core.EngineSlim, MaxIterations: scanIterCap, Seed: optSeed, Workers: fitWorkers, Frequencies: pi}
	ns := rt.begin(sp, "core.NewAnalysis")
	t0 := time.Now()
	an, err := core.NewAnalysis(g.Alignment, g.Tree, opts)
	newAn := time.Since(t0)
	rt.end(ns)
	if err != nil {
		return nil, err
	}
	defer an.Close()
	rs := rt.begin(sp, "core.Analysis.Run")
	res, err := an.Run()
	rt.end(rs)
	if err != nil {
		return nil, err
	}
	row, err := deterministicRow(core.GeneResult{Name: e.Name, Result: res})
	if err != nil {
		return nil, err
	}
	pats, names, err := encode(g.Alignment)
	if err != nil {
		return nil, err
	}
	return &refit{res: res, row: row, newAn: newAn, tree: g.Tree, pats: pats, names: names}, nil
}

// replay re-submits the whole manifest to one daemon after the cold
// pass and waits for it. It returns the Submit call's latency and the
// job's busy time per gene; the replayed output must equal the merged
// output of the cold pass.
func replay(ctx context.Context, rt *tracer, parent int, d *daemon, manifestPath string, pi []float64, merged []byte, genes int) (submitMS, perGeneMS float64, err error) {
	// The coordinator submits each shard with π pinned and the pooling
	// pre-pass off; the same options key the same store entries.
	spec := scanSpec()
	spec.ManifestPath, spec.Frequencies, spec.ShareFrequencies = manifestPath, pi, false
	sp := rt.begin(parent, "serve.Client.Submit")
	t0 := time.Now()
	st, err := d.client.Submit(ctx, spec)
	submit := time.Since(t0)
	rt.end(sp)
	if err != nil {
		return 0, 0, err
	}
	ws := rt.begin(parent, "serve.Client.JobStatus")
	for st.State == serve.StateQueued || st.State == serve.StateRunning {
		time.Sleep(5 * time.Millisecond)
		if st, err = d.client.JobStatus(ctx, st.ID); err != nil {
			rt.end(ws)
			return 0, 0, err
		}
	}
	rt.end(ws, "state", st.State)
	if st.State != serve.StateDone || st.Started == nil || st.Finished == nil {
		return 0, 0, fmt.Errorf("replay job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	rs := rt.begin(parent, "serve.Client.Results")
	body, err := d.client.Results(ctx, st.ID)
	if err != nil {
		rt.end(rs)
		return 0, 0, err
	}
	data, err := io.ReadAll(body)
	body.Close()
	rt.end(rs)
	if err != nil {
		return 0, 0, err
	}
	if !bytes.Equal(data, merged) {
		return 0, 0, fmt.Errorf("replayed output (%d bytes) differs from the cold pass (%d bytes)", len(data), len(merged))
	}
	busy := st.Finished.Sub(*st.Started)
	return ms(submit), ms(busy) / float64(genes), nil
}
