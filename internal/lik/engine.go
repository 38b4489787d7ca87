// Package lik implements the phylogenetic likelihood function for the
// branch-site model: Felsenstein's pruning algorithm (paper §II-B)
// over the four-class site mixture, with per-node underflow scaling,
// site-pattern weighting, and the three conditional-vector execution
// strategies the paper discusses:
//
//   - ApplyPerSiteGEMV — one general mat-vec per site per branch
//     (CodeML's strategy, §III-B);
//   - ApplyPerSiteSYMV — the symmetric-kernel formulation of Eq. 12–13
//     (M = Ŷ Ŷᵀ, w' = M·(Π∘w)), halving the memory traffic;
//   - ApplyBundled — all site patterns of a node bundled into one
//     matrix-matrix product (BLAS level 3, the paper's rule of thumb
//     and stated future optimization).
//
// Each distinct conditional vector is computed once. A class's message
// at node v depends only on the rate matrices the class uses on branch
// v and on every branch below it, so two classes that agree there have
// bit-identical messages at v. SetModel derives rep[c][v], the smallest
// such class, and every reader (pruning, the root combine, posteriors
// and the single-branch walk) takes class c's message at v from
// msg[rep[c][v]][v]. Under the branch-site model's Table I, classes 2a
// and 2b therefore reuse the messages of classes 0 and 1 everywhere off
// the foreground branch's path to the root, and under H0 (ω2 = ω1)
// class 2b reuses class 1 everywhere. Classes linked by sharing form a
// component; components are independent of one another.
//
// Orthogonally to the apply mode, two execution strategies are
// available (§V-B, the step toward the fully parallel FastCodeML):
//
//   - serial — one goroutine walks every component over every pattern;
//   - block-pool — a persistent worker Pool executes the engine's
//     independent work units under worker-indexed scratch. Pruning and
//     the single-branch walk run as (component × pattern-block) tiles:
//     the compressed pattern range is split into cache-sized blocks and
//     every kernel operates on sub-ranges, so even a one-block
//     alignment yields one tile per component. The transition-matrix
//     phase runs as per-(branch, slot) tasks writing disjoint P(t)
//     matrices, and SetModel's eigendecompositions (on
//     decomposition-cache miss) run as per-slot tasks — so no serial
//     phase remains between optimizer iterations. Per-task
//     contributions are combined by deterministic serial reductions,
//     so the result is bit-identical to the serial path for any worker
//     count and block size.
//
// Mutable kernel scratch (expm workspaces, apply-mode vectors) is
// owned per worker ID: pool workers and inline-executing submitters
// each hold a stable ID into the pool's scratch arenas, while a
// pool-less engine owns a single-slot arena and executes everything as
// worker 0. No scratch is ever shared between two concurrently running
// tasks.
//
// The engine caches one "message" per branch and representative site
// class — the child's conditional probability vector propagated
// through the branch's transition matrix — so that perturbing a single
// branch length (as the optimizer's numerical gradient does for every
// branch) only recomputes the path from that branch to the root.
//
// Eigendecompositions can additionally be memoized in a DecompCache
// shared across engines and genes. The cache key is the genetic
// code's identity plus the exact (κ, ω) pair and a verified
// fingerprint of π: a hit returns precisely the decomposition that
// would have been recomputed, so caching (like the worker pool) can
// reorder work but never change a likelihood, and one cache safely
// serves mixed-code batches.
//
// An Engine is not safe for concurrent use; concurrency lives inside
// LogLikelihood / BranchLogLikelihood (and across engines sharing a
// Pool).
package lik

import (
	"fmt"
	"math"

	"repro/internal/align"
	"repro/internal/blas"
	"repro/internal/codon"
	"repro/internal/expm"
	"repro/internal/mat"
	"repro/internal/newick"
)

// KernelTier selects the linear-algebra implementation tier.
type KernelTier int

const (
	// TierTuned uses the blocked, register-tiled kernels (the tuned
	// BLAS stand-in — SlimCodeML).
	TierTuned KernelTier = iota
	// TierNaive uses the plain textbook loops (CodeML's hand-rolled C
	// stand-in).
	TierNaive
)

// ApplyMode selects how conditional probability vectors are pushed
// through a branch.
type ApplyMode int

const (
	// ApplyPerSiteGEMV: one general matrix-vector product per pattern.
	ApplyPerSiteGEMV ApplyMode = iota
	// ApplyPerSiteSYMV: the symmetric-kernel update of Eq. 12–13.
	ApplyPerSiteSYMV
	// ApplyBundled: one matrix-matrix product per branch covering all
	// patterns (BLAS-3 bundling).
	ApplyBundled
)

// DefaultBlockSize is the default pattern count per worker tile: 64
// patterns × 61 states × 8 bytes ≈ 30 KiB per conditional matrix,
// sized so a tile's working set stays L1/L2-resident.
const DefaultBlockSize = 64

// Config selects the execution strategy of an Engine.
type Config struct {
	Kernel  KernelTier
	PMethod expm.Method
	Apply   ApplyMode
	// ScaleThreshold triggers per-pattern rescaling of conditional
	// vectors when their maximum drops below it; zero selects the
	// default 1e-100.
	ScaleThreshold float64
	// Workers > 0 selects the block-pool engine with an engine-owned
	// pool of that many persistent workers (call Close to release
	// them). Ignored when Pool is set.
	Workers int
	// Pool, when non-nil, runs the engine's tiles on a shared worker
	// pool instead of an engine-owned one — the multi-gene batch
	// driver points every gene's engine at one pool.
	Pool *Pool
	// BlockSize is the number of patterns per tile in block-pool mode;
	// zero selects DefaultBlockSize. The result does not depend on it.
	BlockSize int
	// Decomps, when non-nil, caches eigendecompositions across
	// SetModel calls and across engines sharing the cache.
	Decomps *DecompCache
}

func (c *Config) fill() {
	if c.ScaleThreshold == 0 {
		c.ScaleThreshold = 1e-100
	}
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
}

// Stats counts the expensive operations an Engine has performed,
// for the ablation benchmarks and tests. Every count is independent of
// the tiling and the worker count.
type Stats struct {
	Eigendecompositions int
	TransitionBuilds    int
	FullEvaluations     int
	BranchEvaluations   int
	// MessageApplies counts the branch messages computed: one per
	// (class, node) pair whose message is not shared with a smaller
	// class, per full or single-branch evaluation.
	MessageApplies int
}

type nodeInfo struct {
	id         int
	parent     int // -1 for the root
	children   []int
	leafRow    int // pattern-row index for leaves, -1 for internal
	foreground bool
	depth      int // edges from root
}

// blockRange is one pattern-block tile: patterns [lo, hi).
type blockRange struct {
	lo, hi int
}

// Engine evaluates the branch-site log-likelihood on a fixed topology
// and alignment. It is stateful: SetModel and SetBranchLengths update
// the model; LogLikelihood runs a full pruning pass;
// BranchLogLikelihood evaluates a single-branch perturbation without
// disturbing the cached state.
type Engine struct {
	cfg  Config
	n    int // codon states (61)
	npat int

	nodes    []nodeInfo // post-order; index == id
	rootID   int
	maxDepth int

	// Block-pool execution: blocks partitions [0, npat); pool is the
	// engine-owned or shared worker-indexed pool (nil → everything
	// runs inline on the calling goroutine as worker 0 of the
	// engine-owned arena).
	blocks   []blockRange
	pool     *Pool
	ownsPool bool

	// leafCodon[leafRow][pattern] — sense index or align.Missing.
	leafCodon [][]int
	weights   []float64

	model      Model
	numClasses int
	numSlots   int
	decomps    []*expm.Decomposition
	// classSlot[c][fg] is the slot class c reads on a background (fg =
	// 0) or foreground (fg = 1) branch, canonicalized to the smallest
	// slot holding the same rate matrix, so aliased slots share one
	// transition matrix per branch.
	classSlot [][2]int
	// rep[c][v] is the smallest class whose message at node v equals
	// class c's bit for bit: same rate matrix on branch v and on every
	// branch below it. Only (c, v) with rep[c][v] == c is computed.
	rep [][]int
	// comps partitions the classes into sharing components, each in
	// ascending order so every representative precedes its sharers.
	comps [][]int
	// applies[v] is the number of messages computed at node v (classes
	// that are their own representative there).
	applies []int
	// arena is the single-slot scratch of a pool-less engine (the
	// calling goroutine is worker 0); engines with a pool use the
	// pool's shared per-worker arena instead.
	arena *expm.Arena
	pi    []float64
	props []float64

	brLen  []float64 // by node id; root entry unused
	pDirty []bool

	// trans[v][w] is the transition matrix (or symmetric kernel in
	// SYMV mode) of branch v for rate slot w; nil when the class
	// mapping never needs it. In bundled-apply mode transPack[v][w]
	// additionally holds the matrix packed for the NT kernel seam, so
	// the many per-tile × per-class products against the same branch
	// matrix skip the per-call packing cost.
	trans     [][]*mat.Matrix
	transPack [][]*blas.PackedB

	// msg[class][v] is P_v·partial(v) per pattern (rows = patterns);
	// scale[class][v][pat] accumulates the log-scaling of the subtree.
	// Both are allocated only where the class is its own representative.
	msg   [][]*mat.Matrix
	scale [][][]float64

	// Scratch for BranchLogLikelihood: walkMsg[c][k&1] and
	// walkScale[c][k&1] hold class c's perturbed message k levels above
	// the perturbed branch (levels alternate between the pair, so a
	// level reads only the other parity), scrPartial the node partial
	// being formed and the root partial at the end of the walk;
	// scrRootScale is the fixed destination of the root scale so its
	// location does not depend on the path's parity.
	scrTrans     []*mat.Matrix
	scrTransPack []*blas.PackedB
	walkMsg      [][2]*mat.Matrix
	walkScale    [][2][]float64
	scrPartial   []*mat.Matrix
	scrRootScale [][]float64
	// vec is the apply scratch of a pool-less engine.
	vec []float64

	// siteLnL[p] is pattern p's weighted log-likelihood contribution,
	// filled per block and reduced serially so the total is identical
	// for every execution strategy.
	siteLnL []float64

	stats Stats
}

// New builds an engine for the tree and compressed alignment. names
// gives the species name of each pattern row; every tree leaf must
// match exactly one row.
func New(t *newick.Tree, pats *align.Patterns, names []string, cfg Config) (*Engine, error) {
	cfg.fill()
	if pats.NumSeqs != len(names) {
		return nil, fmt.Errorf("lik: %d names for %d pattern rows", len(names), pats.NumSeqs)
	}
	if t.NumLeaves() != len(names) {
		return nil, fmt.Errorf("lik: tree has %d leaves, alignment %d sequences", t.NumLeaves(), len(names))
	}
	rowOf := make(map[string]int, len(names))
	for i, nm := range names {
		if _, dup := rowOf[nm]; dup {
			return nil, fmt.Errorf("lik: duplicate sequence name %q", nm)
		}
		rowOf[nm] = i
	}

	n := pats.Code.NumStates()
	e := &Engine{
		cfg:     cfg,
		n:       n,
		npat:    pats.NumPatterns(),
		rootID:  t.Root.ID,
		weights: append([]float64(nil), pats.Weights...),
	}

	// Flatten topology.
	e.nodes = make([]nodeInfo, len(t.Nodes))
	for _, nd := range t.Nodes {
		info := nodeInfo{id: nd.ID, parent: -1, leafRow: -1, foreground: nd.Mark == 1}
		if nd.Parent != nil {
			info.parent = nd.Parent.ID
		}
		for _, c := range nd.Children {
			info.children = append(info.children, c.ID)
		}
		if nd.IsLeaf() {
			row, ok := rowOf[nd.Name]
			if !ok {
				return nil, fmt.Errorf("lik: tree leaf %q not in alignment", nd.Name)
			}
			info.leafRow = row
		}
		e.nodes[nd.ID] = info
	}
	// Depths (root has depth 0); post-order stores parents after
	// children, so walk in reverse.
	for i := len(e.nodes) - 1; i >= 0; i-- {
		nd := &e.nodes[i]
		if nd.parent >= 0 {
			nd.depth = e.nodes[nd.parent].depth + 1
			if nd.depth > e.maxDepth {
				e.maxDepth = nd.depth
			}
		}
	}

	// Transpose pattern columns into per-leaf rows for cache-friendly
	// leaf message construction.
	e.leafCodon = make([][]int, len(names))
	for r := range names {
		e.leafCodon[r] = make([]int, e.npat)
		for p := 0; p < e.npat; p++ {
			e.leafCodon[r][p] = pats.Columns[p][r]
		}
	}

	e.brLen = make([]float64, len(e.nodes))
	e.pDirty = make([]bool, len(e.nodes))
	for _, nd := range t.Nodes {
		if nd.Parent != nil {
			e.brLen[nd.ID] = nd.Length
			e.pDirty[nd.ID] = true
		}
	}

	// Pattern-block tiles and the worker pool.
	for lo := 0; lo < e.npat; lo += cfg.BlockSize {
		hi := lo + cfg.BlockSize
		if hi > e.npat {
			hi = e.npat
		}
		e.blocks = append(e.blocks, blockRange{lo: lo, hi: hi})
	}
	if len(e.blocks) == 0 {
		e.blocks = []blockRange{{0, 0}}
	}
	switch {
	case cfg.Pool != nil:
		e.pool = cfg.Pool
	case cfg.Workers > 0:
		e.pool = NewPool(cfg.Workers)
		e.ownsPool = true
	default:
		e.arena = expm.NewArena(1)
	}
	e.siteLnL = make([]float64, e.npat)
	e.vec = make([]float64, n)
	e.applies = make([]int, len(e.nodes))

	return e, nil
}

// Close releases the engine-owned worker pool, if any. Engines using a
// shared Pool (Config.Pool) leave it running; engines without a pool
// need no Close. Safe to call multiple times. A closed engine remains
// usable: it falls back to serial execution as worker 0 of its own
// arena.
func (e *Engine) Close() {
	if e.ownsPool {
		e.pool.Close()
		e.ownsPool = false
		e.pool = nil
		e.arena = expm.NewArena(1)
	}
}

// ensureBuffers (re)allocates the per-class and per-slot buffers when
// a model with a new shape is installed.
func (e *Engine) ensureBuffers(numClasses, numSlots int) {
	if numSlots != e.numSlots {
		e.numSlots = numSlots
		e.trans = make([][]*mat.Matrix, len(e.nodes))
		e.transPack = make([][]*blas.PackedB, len(e.nodes))
		for v := range e.trans {
			e.trans[v] = make([]*mat.Matrix, numSlots)
			e.transPack[v] = make([]*blas.PackedB, numSlots)
		}
		e.scrTrans = make([]*mat.Matrix, numSlots)
		e.scrTransPack = make([]*blas.PackedB, numSlots)
		for w := range e.scrTrans {
			e.scrTrans[w] = mat.New(e.n, e.n)
			e.scrTransPack[w] = &blas.PackedB{}
		}
	}
	if numClasses == e.numClasses {
		return
	}
	e.numClasses = numClasses
	e.msg = make([][]*mat.Matrix, numClasses)
	e.scale = make([][][]float64, numClasses)
	e.rep = make([][]int, numClasses)
	e.classSlot = make([][2]int, numClasses)
	e.walkMsg = make([][2]*mat.Matrix, numClasses)
	e.walkScale = make([][2][]float64, numClasses)
	e.scrPartial = make([]*mat.Matrix, numClasses)
	e.scrRootScale = make([][]float64, numClasses)
	for c := 0; c < numClasses; c++ {
		e.msg[c] = make([]*mat.Matrix, len(e.nodes))
		e.scale[c] = make([][]float64, len(e.nodes))
		e.rep[c] = make([]int, len(e.nodes))
		for k := range e.walkMsg[c] {
			e.walkMsg[c][k] = mat.New(e.npat, e.n)
			e.walkScale[c][k] = make([]float64, e.npat)
		}
		e.scrPartial[c] = mat.New(e.npat, e.n)
		e.scrRootScale[c] = make([]float64, e.npat)
	}
}

// deriveSharing computes the canonical class slots, the representative
// table rep, the sharing components and the per-node apply counts for
// the installed model, and allocates the message buffers the new
// representatives need. Node IDs are post-order, so each node's
// children are settled before the node itself.
func (e *Engine) deriveSharing() {
	m := e.model
	canon := make([]int, e.numSlots)
	for w := range canon {
		canon[w] = w
		for w2 := 0; w2 < w; w2++ {
			if m.RateAt(w2) == m.RateAt(w) {
				canon[w] = w2
				break
			}
		}
	}
	for c := range e.classSlot {
		e.classSlot[c] = [2]int{canon[m.RateSlotFor(c, false)], canon[m.RateSlotFor(c, true)]}
	}

	// same reports whether classes c and c2 have equal messages at v:
	// the same slot on v's branch (the root has none) and the same
	// representative at every child.
	same := func(v, c, c2 int) bool {
		nd := &e.nodes[v]
		if v != e.rootID && e.slotOf(c, nd) != e.slotOf(c2, nd) {
			return false
		}
		for _, ch := range nd.children {
			if e.rep[c][ch] != e.rep[c2][ch] {
				return false
			}
		}
		return true
	}
	// Union the classes linked by sharing; find(c) is the smallest
	// class of c's component.
	link := make([]int, e.numClasses)
	for c := range link {
		link[c] = c
	}
	find := func(c int) int {
		for link[c] != c {
			c = link[c]
		}
		return c
	}
	for v := range e.nodes {
		e.applies[v] = 0
		for c := 0; c < e.numClasses; c++ {
			r := c
			for c2 := 0; c2 < c; c2++ {
				if same(v, c, c2) {
					r = c2
					break
				}
			}
			e.rep[c][v] = r
			if r != c {
				if a, b := find(r), find(c); a < b {
					link[b] = a
				} else if b < a {
					link[a] = b
				}
				continue
			}
			if v != e.rootID {
				e.applies[v]++
			}
			if e.msg[c][v] == nil {
				e.msg[c][v] = mat.New(e.npat, e.n)
				e.scale[c][v] = make([]float64, e.npat)
			}
		}
	}
	e.comps = e.comps[:0]
	compOf := make([]int, e.numClasses)
	for c := 0; c < e.numClasses; c++ {
		if r := find(c); r != c {
			compOf[c] = compOf[r]
			e.comps[compOf[c]] = append(e.comps[compOf[c]], c)
			continue
		}
		compOf[c] = len(e.comps)
		e.comps = append(e.comps, []int{c})
	}
}

// slotOf returns the canonical slot class c reads on node nd's branch.
func (e *Engine) slotOf(c int, nd *nodeInfo) int {
	if nd.foreground {
		return e.classSlot[c][1]
	}
	return e.classSlot[c][0]
}

// runTiles runs tile(comp, lo, hi, scratch) over every (component ×
// pattern-block) tile: on the attached pool, or inline over the whole
// pattern range as worker 0 when there is none. Tiles of one component
// write disjoint pattern rows and components write disjoint classes,
// so the tiles run concurrently in any order.
func (e *Engine) runTiles(tile func(comp []int, lo, hi int, scratch []float64)) {
	if e.pool == nil {
		for _, comp := range e.comps {
			tile(comp, 0, e.npat, e.vec)
		}
		return
	}
	nb := len(e.blocks)
	e.pool.Run(len(e.comps)*nb, func(worker, i int) {
		blk := e.blocks[i%nb]
		tile(e.comps[i/nb], blk.lo, blk.hi, e.pool.Vec(worker, e.n))
	})
}

// runTasks executes task(worker, i) for every i in [0, n): on the
// attached pool's worker-indexed executor when one is present, else
// inline on the calling goroutine as worker 0 of the engine-owned
// scratch arena.
func (e *Engine) runTasks(n int, task func(worker, i int)) {
	if e.pool != nil {
		e.pool.Run(n, task)
		return
	}
	for i := 0; i < n; i++ {
		task(0, i)
	}
}

// workspace returns the expm scratch of the given worker ID, sized for
// this engine's state space.
func (e *Engine) workspace(worker int) *expm.Workspace {
	if e.pool != nil {
		return e.pool.Workspace(worker, e.n)
	}
	return e.arena.At(worker, e.n)
}

// NumPatterns returns the number of compressed site patterns.
func (e *Engine) NumPatterns() int { return e.npat }

// NumNodes returns the number of tree nodes.
func (e *Engine) NumNodes() int { return len(e.nodes) }

// RootID returns the node ID of the root.
func (e *Engine) RootID() int { return e.rootID }

// BranchIDs lists the node IDs that own a branch (all but the root),
// in post-order.
func (e *Engine) BranchIDs() []int {
	out := make([]int, 0, len(e.nodes)-1)
	for v := range e.nodes {
		if v != e.rootID {
			out = append(out, v)
		}
	}
	return out
}

// Stats returns a copy of the operation counters.
func (e *Engine) Stats() Stats { return e.stats }

// SetModel installs a site-class model, rebuilding the per-slot
// eigendecompositions (deduplicated by rate-matrix pointer, so an H0
// model whose ω2 slot aliases ω1 costs one decomposition less, as in
// CodeML, and looked up in Config.Decomps when a cache is attached)
// and invalidating every cached transition matrix. Decompositions the
// cache does not supply are computed through the same pooled phase as
// the transition builds — one task per distinct rate matrix — so even
// a model install has no serial kernel work when a pool is attached.
func (e *Engine) SetModel(m Model) error {
	if m.GeneticCode().NumStates() != e.n {
		return fmt.Errorf("lik: model has %d states, engine %d", m.GeneticCode().NumStates(), e.n)
	}
	e.model = m
	e.pi = m.Frequencies()
	e.props = m.ClassProportions()
	e.ensureBuffers(m.NumSiteClasses(), m.NumRateSlots())

	// Reset the decomposition slots: a previous model's decomposition
	// must never survive into a model that aliases slots differently.
	// Serial part: dedup by rate pointer and probe the cache.
	e.decomps = make([]*expm.Decomposition, e.numSlots)
	type decompJob struct {
		rate  *codon.Rate
		slots []int
		d     *expm.Decomposition
		err   error
	}
	byRate := make(map[*codon.Rate]*decompJob, e.numSlots)
	var misses []*decompJob
	for slot := 0; slot < e.numSlots; slot++ {
		rate := m.RateAt(slot)
		if j, ok := byRate[rate]; ok {
			j.slots = append(j.slots, slot)
			continue
		}
		j := &decompJob{rate: rate, slots: []int{slot}}
		if e.cfg.Decomps != nil {
			j.d = e.cfg.Decomps.Get(rate)
		}
		if j.d == nil {
			misses = append(misses, j)
		}
		byRate[rate] = j
	}
	// Parallel part: one Decompose task per cache miss. Each task
	// writes only its own job, so any worker interleaving yields the
	// same decompositions.
	if len(misses) > 0 {
		e.stats.Eigendecompositions += len(misses)
		e.runTasks(len(misses), func(_, i int) {
			j := misses[i]
			j.d, j.err = expm.Decompose(j.rate.S, j.rate.Pi)
		})
		for _, j := range misses {
			if j.err != nil {
				return j.err
			}
			if e.cfg.Decomps != nil {
				e.cfg.Decomps.Put(j.rate, j.d)
			}
		}
	}
	for _, j := range byRate {
		for _, slot := range j.slots {
			e.decomps[slot] = j.d
		}
	}
	e.deriveSharing()
	for v := range e.pDirty {
		if v != e.rootID {
			e.pDirty[v] = true
		}
	}
	return nil
}

// SetBranchLengths installs branch lengths indexed by node ID,
// invalidating the transition matrices of changed branches only.
func (e *Engine) SetBranchLengths(lens []float64) error {
	if len(lens) != len(e.nodes) {
		return fmt.Errorf("lik: %d lengths for %d nodes", len(lens), len(e.nodes))
	}
	for v := range e.nodes {
		if v == e.rootID {
			continue
		}
		if lens[v] < 0 {
			return fmt.Errorf("lik: negative branch length %g on node %d", lens[v], v)
		}
		if lens[v] != e.brLen[v] {
			e.brLen[v] = lens[v]
			e.pDirty[v] = true
		}
	}
	return nil
}

// BranchLengths returns a copy of the current branch lengths by node
// ID.
func (e *Engine) BranchLengths() []float64 {
	return append([]float64(nil), e.brLen...)
}

// neededSlots returns which canonical rate slots branch v requires:
// those of the classes whose message at v is computed.
func (e *Engine) neededSlots(v int) []bool {
	need := make([]bool, e.numSlots)
	nd := &e.nodes[v]
	for c := 0; c < e.numClasses; c++ {
		if e.rep[c][v] == c {
			need[e.slotOf(c, nd)] = true
		}
	}
	return need
}

// transTask is one unit of the pooled transition phase: build the
// P(t) (or symmetric-kernel) matrix of one (branch, slot) pair into
// its own dst. Tasks write disjoint matrices and read only immutable
// decompositions, so they run concurrently in any order.
type transTask struct {
	slot int
	t    float64 // effective time, model scaling already applied
	dst  *mat.Matrix
	pack *blas.PackedB // non-nil in bundled mode: re-pack dst after the build
}

// appendTransTasks appends one task per rate slot branch v needs at
// branch length t, allocating missing dst matrices and pack slots
// (serially, so the parallel phase never mutates the slices
// themselves). packs runs parallel to dst; in bundled-apply mode each
// task also packs its freshly built matrix for the NT kernel seam,
// amortizing the packing across every downstream tile × class product.
func (e *Engine) appendTransTasks(tasks []transTask, v int, t float64, dst []*mat.Matrix, packs []*blas.PackedB) []transTask {
	need := e.neededSlots(v)
	tEff := e.model.EffectiveTime(t)
	bundled := e.cfg.Apply == ApplyBundled
	for w := 0; w < e.numSlots; w++ {
		if !need[w] {
			continue
		}
		if dst[w] == nil {
			dst[w] = mat.New(e.n, e.n)
		}
		tk := transTask{slot: w, t: tEff, dst: dst[w]}
		if bundled {
			if packs[w] == nil {
				packs[w] = &blas.PackedB{}
			}
			tk.pack = packs[w]
		}
		tasks = append(tasks, tk)
	}
	return tasks
}

// runTransTasks executes the collected transition builds through the
// worker-indexed executor, each task on its worker's workspace. The
// matrix a task produces depends only on (decomposition, t, method) —
// workspaces are fully overwritten — so results are bit-identical to
// the serial path for any worker count.
func (e *Engine) runTransTasks(tasks []transTask) {
	if len(tasks) == 0 {
		return
	}
	e.stats.TransitionBuilds += len(tasks)
	method := e.cfg.PMethod
	if e.cfg.Kernel == TierNaive && method == expm.MethodGEMM {
		method = expm.MethodNaiveGEMM
	}
	symv := e.cfg.Apply == ApplyPerSiteSYMV
	e.runTasks(len(tasks), func(worker, i int) {
		tk := tasks[i]
		ws := e.workspace(worker)
		if symv {
			e.decomps[tk.slot].SymKernel(tk.t, tk.dst, ws)
		} else {
			e.decomps[tk.slot].PMatrix(tk.t, method, tk.dst, ws)
		}
		if tk.pack != nil {
			// Each task owns its pack exclusively, so concurrent
			// re-packs are race-free like the dst writes.
			blas.PackNT(tk.dst, tk.pack)
		}
	})
}

// buildTransition fills dst[w] (and packs[w] in bundled mode) for the
// omega indices branch v needs at branch length t.
func (e *Engine) buildTransition(v int, t float64, dst []*mat.Matrix, packs []*blas.PackedB) {
	e.runTransTasks(e.appendTransTasks(nil, v, t, dst, packs))
}

// refreshTransitions rebuilds the cached transition matrices of dirty
// branches as one pooled phase: every dirty (branch, slot) pair is an
// independent task, so a full-gradient re-install (which dirties all
// branches) parallelizes over branches × slots instead of serializing
// O(branches × slots) eigvec products behind one workspace.
func (e *Engine) refreshTransitions() {
	var tasks []transTask
	for v := range e.nodes {
		if v == e.rootID || !e.pDirty[v] {
			continue
		}
		tasks = e.appendTransTasks(tasks, v, e.brLen[v], e.trans[v], e.transPack[v])
		e.pDirty[v] = false
	}
	e.runTransTasks(tasks)
}

// RefreshTransitions rebuilds the transition matrices of branches
// whose length or model changed since the last evaluation. It is
// called implicitly by LogLikelihood and BranchLogLikelihood; it is
// exported so benchmarks (and drivers that want to front-load the
// transition phase) can measure or trigger it in isolation.
func (e *Engine) RefreshTransitions() {
	if e.model == nil {
		panic("lik: RefreshTransitions before SetModel")
	}
	e.refreshTransitions()
}

// LogLikelihood runs a full pruning pass and returns the
// log-likelihood of the alignment under the current model and branch
// lengths.
func (e *Engine) LogLikelihood() float64 {
	if e.model == nil {
		panic("lik: LogLikelihood before SetModel")
	}
	e.refreshTransitions()
	e.stats.FullEvaluations++
	for _, a := range e.applies {
		e.stats.MessageApplies += a
	}
	e.runTiles(func(comp []int, lo, hi int, scratch []float64) {
		for _, c := range comp {
			e.pruneClassRange(c, lo, hi, scratch)
		}
	})
	return e.combineRoot(e.rootPartials())
}

// rootPartials returns the stored root partials and scales by class
// (nil for classes that do not represent the root).
func (e *Engine) rootPartials() ([]*mat.Matrix, [][]float64) {
	partials := make([]*mat.Matrix, e.numClasses)
	scales := make([][]float64, e.numClasses)
	for c := range partials {
		partials[c], scales[c] = e.msg[c][e.rootID], e.scale[c][e.rootID]
	}
	return partials, scales
}

// pruneClassRange recomputes the messages class c represents for the
// patterns [lo, hi) bottom-up and leaves the root partial rows in
// msg[c][root] when c represents the root. The classes it shares
// messages with must already be pruned over the same range. Ranges of
// the same class are independent, so any tiling of the pattern range
// may run concurrently.
func (e *Engine) pruneClassRange(c, lo, hi int, scratch []float64) {
	for v := 0; v < len(e.nodes); v++ {
		if e.rep[c][v] != c {
			continue
		}
		nd := &e.nodes[v]
		if v == e.rootID {
			e.computePartial(c, nd, e.msg[c][v], e.scale[c][v], nil, nil, -1, lo, hi)
			continue
		}
		w := e.slotOf(c, nd)
		if nd.leafRow >= 0 {
			e.leafMessage(e.trans[v][w], nd.leafRow, e.msg[c][v], lo, hi)
			zero(e.scale[c][v][lo:hi])
			continue
		}
		// Internal: partial into scratch, then propagate.
		e.computePartial(c, nd, e.scrPartial[c], e.scale[c][v], nil, nil, -1, lo, hi)
		e.applyBranch(e.trans[v][w], e.transPack[v][w], e.scrPartial[c], e.msg[c][v], scratch, lo, hi)
	}
}

// computePartial forms the conditional partial of an internal node for
// patterns [lo, hi) as the element-wise product of its children's
// messages under class c (each read from its representative),
// accumulating and applying scaling. If override is non-nil it
// replaces the message (and scale) of child overrideChild — used by the
// path update. dstScale must not alias overrideScale or any child's
// stored scale.
func (e *Engine) computePartial(c int, nd *nodeInfo, dst *mat.Matrix, dstScale []float64, override *mat.Matrix, overrideScale []float64, overrideChild, lo, hi int) {
	first := true
	zero(dstScale[lo:hi])
	for _, ch := range nd.children {
		r := e.rep[c][ch]
		src := e.msg[r][ch]
		srcScale := e.scale[r][ch]
		if ch == overrideChild {
			src = override
			srcScale = overrideScale
		}
		if first {
			for p := lo; p < hi; p++ {
				copy(dst.Row(p), src.Row(p))
			}
			copy(dstScale[lo:hi], srcScale[lo:hi])
			first = false
			continue
		}
		for p := lo; p < hi; p++ {
			drow := dst.Row(p)
			srow := src.Row(p)
			for i := range drow {
				drow[i] *= srow[i]
			}
			dstScale[p] += srcScale[p]
		}
	}
	// Underflow guard: rescale patterns whose maximum has shrunk below
	// the threshold.
	for p := lo; p < hi; p++ {
		row := dst.Row(p)
		max := mat.VecMax(row)
		if max > 0 && max < e.cfg.ScaleThreshold {
			inv := 1 / max
			for i := range row {
				row[i] *= inv
			}
			dstScale[p] += math.Log(max)
		}
	}
}

// leafMessage writes the message rows [lo, hi) of a leaf branch
// directly from the transition matrix columns: P·e_k is column k of P
// (and for the symmetric kernel, M·(Π∘e_k) = π_k·column k of M).
// Missing data yields the all-ones vector.
func (e *Engine) leafMessage(tm *mat.Matrix, leafRow int, dst *mat.Matrix, lo, hi int) {
	codons := e.leafCodon[leafRow]
	pi := e.pi
	symv := e.cfg.Apply == ApplyPerSiteSYMV
	data, stride := tm.Data, tm.Stride
	for p := lo; p < hi; p++ {
		drow := dst.Row(p)
		k := codons[p]
		if k < 0 {
			for i := range drow {
				drow[i] = 1
			}
			continue
		}
		col := data[k:]
		if symv {
			f := pi[k]
			for i := range drow {
				drow[i] = f * col[i*stride]
			}
		} else {
			for i := range drow {
				drow[i] = col[i*stride]
			}
		}
	}
}

// applyBranch propagates the partial rows [lo, hi) through a branch's
// transition matrix (or symmetric kernel) according to the configured
// apply mode, writing one message row per pattern. Every mode works
// row-by-row with a fixed per-row operation order, so any tiling of
// the pattern range produces bit-identical rows. pb, when non-nil, is
// tm packed for the NT kernel seam (kernels are bit-exact between
// their packed and unpacked paths, so the fast path changes nothing).
func (e *Engine) applyBranch(tm *mat.Matrix, pb *blas.PackedB, partial, dst *mat.Matrix, scratch []float64, lo, hi int) {
	switch e.cfg.Apply {
	case ApplyPerSiteGEMV:
		if e.cfg.Kernel == TierNaive {
			for p := lo; p < hi; p++ {
				blas.NaiveGemv(false, 1, tm, partial.Row(p), 0, dst.Row(p))
			}
		} else {
			blas.DgemvRows(1, tm, partial, 0, dst, lo, hi)
		}
	case ApplyPerSiteSYMV:
		pi := e.pi
		for p := lo; p < hi; p++ {
			src := partial.Row(p)
			for i := range scratch {
				scratch[i] = pi[i] * src[i]
			}
			blas.Dsymv(1, tm, scratch, 0, dst.Row(p))
		}
	case ApplyBundled:
		// dst[p][i] = Σ_j partial[p][j]·P[i][j]: one row-ranged GEMM
		// over the block's patterns (BLAS-3 bundling), against the
		// pre-packed transition matrix when one is available.
		if pb != nil {
			blas.DgemmNTRowsPacked(1, partial, pb, 0, dst, lo, hi)
		} else {
			blas.DgemmNTRows(1, partial, tm, 0, dst, lo, hi)
		}
	default:
		panic(fmt.Sprintf("lik: unknown apply mode %d", e.cfg.Apply))
	}
	// Clamp rounding negatives so mixtures stay non-negative.
	for p := lo; p < hi; p++ {
		row := dst.Row(p)
		for i, v := range row {
			if v < 0 {
				row[i] = 0
			}
		}
	}
}

// combineRoot folds the per-class root partials into the total
// log-likelihood. partials and scales are indexed by class and read
// only at root representatives. Per-pattern contributions are computed
// (in parallel over pattern blocks when a pool is attached) into
// siteLnL, then summed by one serial in-order reduction — the
// deterministic combination that keeps every execution strategy
// bit-identical.
func (e *Engine) combineRoot(partials []*mat.Matrix, scales [][]float64) float64 {
	if e.pool != nil && len(e.blocks) > 1 {
		e.pool.Run(len(e.blocks), func(_, bi int) {
			blk := e.blocks[bi]
			e.combineRootRange(partials, scales, blk.lo, blk.hi)
		})
	} else {
		e.combineRootRange(partials, scales, 0, e.npat)
	}
	total := 0.0
	for _, v := range e.siteLnL {
		total += v
	}
	return total
}

// combineRootRange fills siteLnL for patterns [lo, hi): per pattern,
// weight · log Σ_c prop_c·exp(scale_c)·(πᵀv_c) computed with a
// log-sum-exp over classes.
func (e *Engine) combineRootRange(partials []*mat.Matrix, scales [][]float64, lo, hi int) {
	classLog := make([]float64, e.numClasses)
	dots := make([]float64, e.numClasses)
	for p := lo; p < hi; p++ {
		maxLog := e.rootClassLogs(partials, scales, p, dots, classLog)
		if math.IsInf(maxLog, -1) {
			e.siteLnL[p] = math.Inf(-1)
			continue
		}
		sum := 0.0
		for c := 0; c < e.numClasses; c++ {
			sum += math.Exp(classLog[c] - maxLog)
		}
		e.siteLnL[p] = e.weights[p] * (maxLog + math.Log(sum))
	}
}

// rootClassLogs fills classLog[c] = log(prop_c·πᵀv_c) + scale_c for
// pattern p (−Inf where the class likelihood vanishes) and returns the
// maximum. πᵀv is computed once per root representative; dots is
// scratch of length numClasses.
func (e *Engine) rootClassLogs(partials []*mat.Matrix, scales [][]float64, p int, dots, classLog []float64) float64 {
	maxLog := math.Inf(-1)
	for c := 0; c < e.numClasses; c++ {
		r := e.rep[c][e.rootID]
		if r == c {
			dots[c] = blas.Ddot(e.pi, partials[c].Row(p))
		}
		if dot := dots[r]; dot <= 0 {
			classLog[c] = math.Inf(-1)
		} else {
			classLog[c] = math.Log(e.props[c]) + math.Log(dot) + scales[r][p]
		}
		if classLog[c] > maxLog {
			maxLog = classLog[c]
		}
	}
	return maxLog
}

// BranchLogLikelihood returns the log-likelihood with branch v set to
// length t, leaving all cached state untouched. The caches must be
// current (i.e. LogLikelihood must have been called since the last
// SetModel/SetBranchLengths); this is the cheap path the numerical
// gradient uses for branch-length parameters.
func (e *Engine) BranchLogLikelihood(v int, t float64) float64 {
	if v == e.rootID {
		panic("lik: the root has no branch")
	}
	if t < 0 {
		panic(fmt.Sprintf("lik: negative branch length %g", t))
	}
	e.refreshTransitions()
	e.stats.BranchEvaluations++
	e.buildTransition(v, t, e.scrTrans, e.scrTransPack)
	for u := v; u != e.rootID; u = e.nodes[u].parent {
		e.stats.MessageApplies += e.applies[u]
	}
	e.runTiles(func(comp []int, lo, hi int, scratch []float64) {
		e.branchWalkRange(v, comp, lo, hi, scratch)
	})
	return e.combineRoot(e.scrPartial, e.scrRootScale)
}

// branchWalkRange recomputes branch v's message from the perturbed
// transition matrix for the classes of one component over patterns
// [lo, hi) and walks the path to the root, overriding the path child's
// message at every level. The walk is level-major: at level k every
// class that represents itself at that node reads the level k−1
// message of its representative below from walkMsg[·][(k−1)&1] and
// writes its own to walkMsg[c][k&1], so a class that diverges from its
// representative partway up still finds the shared message. Every tile
// performs the same alternations, so concurrent tiles stay aligned
// without mutating engine state. The root partial rows land in
// scrPartial and the root scale in scrRootScale.
func (e *Engine) branchWalkRange(v int, comp []int, lo, hi int, scratch []float64) {
	nd := &e.nodes[v]
	for _, c := range comp {
		if e.rep[c][v] != c {
			continue
		}
		w := e.slotOf(c, nd)
		msg, msc := e.walkMsg[c][0], e.walkScale[c][0]
		if nd.leafRow >= 0 {
			e.leafMessage(e.scrTrans[w], nd.leafRow, msg, lo, hi)
			zero(msc[lo:hi])
			continue
		}
		// partial(v) from the stored children messages; the message
		// inherits the partial's scale.
		e.computePartial(c, nd, e.scrPartial[c], msc, nil, nil, -1, lo, hi)
		e.applyBranch(e.scrTrans[w], e.scrTransPack[w], e.scrPartial[c], msg, scratch, lo, hi)
	}

	child, k := v, 0
	for u := nd.parent; u >= 0; u = e.nodes[u].parent {
		k++
		und := &e.nodes[u]
		for _, c := range comp {
			if e.rep[c][u] != c {
				continue
			}
			r := e.rep[c][child]
			below, belowScale := e.walkMsg[r][(k-1)&1], e.walkScale[r][(k-1)&1]
			if u == e.rootID {
				e.computePartial(c, und, e.scrPartial[c], e.scrRootScale[c], below, belowScale, child, lo, hi)
				continue
			}
			w := e.slotOf(c, und)
			e.computePartial(c, und, e.scrPartial[c], e.walkScale[c][k&1], below, belowScale, child, lo, hi)
			e.applyBranch(e.trans[u][w], e.transPack[u][w], e.scrPartial[c], e.walkMsg[c][k&1], scratch, lo, hi)
		}
		child = u
	}
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
