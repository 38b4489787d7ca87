package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/align"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/lik"
	"repro/internal/sim"
)

// EvalFixture is a ready-to-evaluate likelihood setup on a simulated
// dataset, shared by the parallel-engine benchmarks in this package
// and the repository-level testing.B benchmarks.
type EvalFixture struct {
	Dataset *sim.Dataset
	Pats    *align.Patterns
	Names   []string
	Model   lik.Model
}

// NewEvalFixture simulates the preset (scaled to the given species
// count; 0 keeps the preset's) and prepares the compressed patterns
// and the true-parameter branch-site model.
func NewEvalFixture(presetID string, species int, seed int64) (*EvalFixture, error) {
	preset, err := sim.PresetByID(presetID)
	if err != nil {
		return nil, err
	}
	if species == 0 {
		species = preset.Species
	}
	ds, err := preset.GenerateWithSpecies(seed, species)
	if err != nil {
		return nil, err
	}
	ca, err := align.EncodeCodons(ds.Alignment, codon.Universal)
	if err != nil {
		return nil, err
	}
	pats := align.Compress(ca)
	pi, err := codon.F61(codon.Universal, pats.CountCodonsCompressed())
	if err != nil {
		return nil, err
	}
	model, err := bsm.New(codon.Universal, bsm.H1, sim.TrueParams(), pi)
	if err != nil {
		return nil, err
	}
	return &EvalFixture{Dataset: ds, Pats: pats, Names: ca.Names, Model: model}, nil
}

// NewEngine builds an engine on the fixture with the model installed.
// Callers owning a block pool (cfg.Workers > 0) must Close it.
func (f *EvalFixture) NewEngine(cfg lik.Config) (*lik.Engine, error) {
	eng, err := lik.New(f.Dataset.Tree, f.Pats, f.Names, cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.SetModel(f.Model); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// timeEvals measures the mean wall time of a full likelihood pass,
// dirtying one branch per pass the way an optimizer step would.
func timeEvals(eng *lik.Engine, evals int) (time.Duration, error) {
	lens := eng.BranchLengths()
	branch := eng.BranchIDs()[0]
	eng.LogLikelihood() // warm caches outside the timed region
	start := time.Now()
	for i := 0; i < evals; i++ {
		lens[branch] *= 1.0000001
		if err := eng.SetBranchLengths(lens); err != nil {
			return 0, err
		}
		_ = eng.LogLikelihood()
	}
	return time.Since(start) / time.Duration(evals), nil
}

// ParallelPoint is one worker count's block-pool timing.
type ParallelPoint struct {
	Workers int
	Eval    time.Duration
	// SpeedupVsSerial is serialEval / blockEval: >1 means the block
	// pool beats the serial engine at this worker count.
	SpeedupVsSerial float64
}

// ParallelSweep compares the execution strategies on one fixture:
// serial and the block-pool engine across worker counts.
type ParallelSweep struct {
	Serial time.Duration
	Points []ParallelPoint
}

// RunParallelSweep times the strategies with evals full passes each.
// The same lik.Config kernels are used throughout, so the contrast
// isolates the scheduling strategy; every configuration computes
// bit-identical log-likelihoods.
func RunParallelSweep(f *EvalFixture, base lik.Config, workerCounts []int, evals int) (*ParallelSweep, error) {
	out := &ParallelSweep{}

	serial, err := f.NewEngine(base)
	if err != nil {
		return nil, err
	}
	if out.Serial, err = timeEvals(serial, evals); err != nil {
		return nil, err
	}

	for _, w := range workerCounts {
		cfg := base
		cfg.Workers = w
		eng, err := f.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		d, err := timeEvals(eng, evals)
		eng.Close()
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, ParallelPoint{
			Workers:         w,
			Eval:            d,
			SpeedupVsSerial: ratio(out.Serial.Seconds(), d.Seconds()),
		})
	}
	return out, nil
}

// TransitionPoint is one worker count's pooled transition-phase
// timing.
type TransitionPoint struct {
	Workers int
	Refresh time.Duration
	// SpeedupVsSerial is serialRefresh / pooledRefresh: >1 means the
	// pooled transition phase beats the serial rebuild.
	SpeedupVsSerial float64
}

// TransitionSweep compares the transition-matrix phase — rebuilding
// every branch's P(t) products after a full invalidation, the work a
// full-gradient re-install triggers — serially and on the block pool.
type TransitionSweep struct {
	Branches int
	Tasks    int // (branch, slot) builds per refresh
	Serial   time.Duration
	Points   []TransitionPoint
}

// timeRefresh measures the mean wall time of rebuilding every branch's
// transition matrices from a fully dirty state.
func timeRefresh(eng *lik.Engine, evals int) (time.Duration, error) {
	lens := eng.BranchLengths()
	dirtyAll := func() error {
		for _, v := range eng.BranchIDs() {
			lens[v] *= 1.0000001
		}
		return eng.SetBranchLengths(lens)
	}
	if err := dirtyAll(); err != nil { // warm workspaces outside the timed region
		return 0, err
	}
	eng.RefreshTransitions()
	start := time.Now()
	for i := 0; i < evals; i++ {
		if err := dirtyAll(); err != nil {
			return 0, err
		}
		eng.RefreshTransitions()
	}
	return time.Since(start) / time.Duration(evals), nil
}

// RunTransitionSweep times the transition phase with evals full
// refreshes each, serial first, then pooled at each worker count. The
// rebuilt matrices are bit-identical in every configuration; only the
// scheduling differs.
func RunTransitionSweep(f *EvalFixture, base lik.Config, workerCounts []int, evals int) (*TransitionSweep, error) {
	serial, err := f.NewEngine(base)
	if err != nil {
		return nil, err
	}
	out := &TransitionSweep{Branches: len(serial.BranchIDs())}
	before := serial.Stats().TransitionBuilds
	serial.RefreshTransitions()
	out.Tasks = serial.Stats().TransitionBuilds - before
	if out.Serial, err = timeRefresh(serial, evals); err != nil {
		return nil, err
	}
	for _, w := range workerCounts {
		cfg := base
		cfg.Workers = w
		eng, err := f.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		d, err := timeRefresh(eng, evals)
		eng.Close()
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, TransitionPoint{
			Workers:         w,
			Refresh:         d,
			SpeedupVsSerial: ratio(out.Serial.Seconds(), d.Seconds()),
		})
	}
	return out, nil
}

// PrintTransitionSweep writes the sweep as the table the repository
// README records. The header carries the machine's GOMAXPROCS so a
// recorded table documents how many cores it was measured on — a
// 1-core recording can only show pooled overhead, not scaling.
func PrintTransitionSweep(w io.Writer, s *TransitionSweep) {
	fmt.Fprintf(w, "Transition phase — full rebuild of %d branches (%d builds) per strategy (GOMAXPROCS=%d)\n", s.Branches, s.Tasks, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-24s %14s %10s\n", "strategy", "refresh", "vs serial")
	fmt.Fprintf(w, "%-24s %14s %10s\n", "serial", s.Serial, "1.00")
	for _, p := range s.Points {
		fmt.Fprintf(w, "%-24s %14s %10.2f\n",
			fmt.Sprintf("block-pool %d workers", p.Workers), p.Refresh, p.SpeedupVsSerial)
	}
}

// PrintParallelSweep writes the sweep as the speedup table the
// repository README records, with the machine's GOMAXPROCS in the
// header (see PrintTransitionSweep).
func PrintParallelSweep(w io.Writer, s *ParallelSweep) {
	fmt.Fprintf(w, "Parallel engine — full-evaluation wall time per strategy (GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-24s %14s %10s\n", "strategy", "eval", "vs serial")
	fmt.Fprintf(w, "%-24s %14s %10s\n", "serial", s.Serial, "1.00")
	for _, p := range s.Points {
		fmt.Fprintf(w, "%-24s %14s %10.2f\n",
			fmt.Sprintf("block-pool %d workers", p.Workers), p.Eval, p.SpeedupVsSerial)
	}
}
