package lik

import (
	"container/list"
	"math"
	"runtime"
	"sync"

	"repro/internal/codon"
	"repro/internal/expm"
)

// Pool is a persistent set of worker goroutines that executes the
// engine's independent work units — (component × pattern-block)
// pruning and branch-walk tiles and per-(branch, slot)
// transition-matrix builds — the decomposition of the likelihood cost
// that moves the engine toward the fully parallel FastCodeML the paper
// announces (§V-B).
//
// Execution is worker-indexed: every task receives a stable worker ID
// that indexes per-worker scratch arenas (expm workspaces, apply-mode
// vectors) owned by the pool and shared by every engine attached to
// it. IDs 0..NumWorkers()-1 belong to the pool's goroutines; the IDs
// above them are leased to submitting goroutines for the duration of
// one Run call, so inline fallback execution carries a worker identity
// of its own and never races a pool worker's scratch.
//
// A Pool may be shared by any number of engines, including engines
// evaluating concurrently (the multi-gene batch driver in
// internal/core runs every gene's tasks through one shared pool).
// Tasks write to disjoint buffers and every reduction is performed
// serially by the submitting engine, so results are bit-identical for
// any worker count and any interleaving.
type Pool struct {
	workers int
	tasks   chan func(worker int)
	// subIDs is the free list of submitter worker IDs
	// (workers..2·workers-1): a Run call that overflows the queue
	// leases one for its inline executions and returns it before
	// waiting, bounding the ID space at NumSlots.
	subIDs chan int
	arena  *expm.Arena
	vecs   [][]float64 // per-slot apply scratch, lazily sized
	close  sync.Once
}

// NewPool starts a pool with the given number of worker goroutines;
// workers <= 0 selects GOMAXPROCS. Call Close to release the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		// Buffer one pending task per worker so a submitting engine
		// only falls back to inline execution once the pool is
		// saturated.
		tasks:  make(chan func(worker int), workers),
		subIDs: make(chan int, workers),
		arena:  expm.NewArena(2 * workers),
		vecs:   make([][]float64, 2*workers),
	}
	for i := 0; i < workers; i++ {
		go func(worker int) {
			for f := range p.tasks {
				f(worker)
			}
		}(i)
		p.subIDs <- workers + i
	}
	return p
}

// NumWorkers returns the pool's worker goroutine count.
func (p *Pool) NumWorkers() int { return p.workers }

// NumSlots returns the size of the worker-ID space: pool workers plus
// submitter leases. Every worker argument a task sees is in
// [0, NumSlots).
func (p *Pool) NumSlots() int { return 2 * p.workers }

// Workspace returns worker's expm scratch, sized for n-state models.
// Like all per-worker scratch it may only be used by the goroutine
// currently executing as that worker.
func (p *Pool) Workspace(worker, n int) *expm.Workspace {
	return p.arena.At(worker, n)
}

// Vec returns worker's float scratch of length n, under the same
// ownership rule as Workspace.
func (p *Pool) Vec(worker, n int) []float64 {
	if cap(p.vecs[worker]) < n {
		p.vecs[worker] = make([]float64, n)
	}
	return p.vecs[worker][:n]
}

// Close stops the workers once every already-submitted task has
// finished. Close is idempotent; Run must not be called after Close.
func (p *Pool) Close() {
	p.close.Do(func() { close(p.tasks) })
}

// Run executes task(worker, i) for every i in [0, n) and blocks until
// all calls have completed. When every worker is busy — e.g. several
// engines sharing the pool — the submitting goroutine leases a
// submitter worker ID and executes tasks inline under it instead of
// queueing unboundedly, which bounds memory, recruits the caller's
// CPU, and keeps inline scratch disjoint from every pool worker's.
// If the lease pool is also exhausted (more concurrent submitters than
// workers), the submitter simply blocks until the queue drains.
func (p *Pool) Run(n int, task func(worker, i int)) {
	if n <= 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	sub := -1
	for i := 0; i < n; i++ {
		i := i
		wrapped := func(worker int) {
			defer wg.Done()
			task(worker, i)
		}
		select {
		case p.tasks <- wrapped:
			continue
		default:
		}
		if sub < 0 {
			select {
			case sub = <-p.subIDs:
			default:
			}
		}
		if sub >= 0 {
			wrapped(sub)
		} else {
			p.tasks <- wrapped
		}
	}
	if sub >= 0 {
		p.subIDs <- sub
	}
	wg.Wait()
}

// decompKey identifies a rate matrix by its exact parameters: the
// genetic code it was built under (by identity — exchangeabilities
// follow the code, so identical (κ, ω, π) under two codes are
// different matrices), κ, ω, and a fingerprint of the frequency
// vector π (whose full contents are verified on lookup, so a
// fingerprint collision degrades to a cache miss, never a wrong
// decomposition).
type decompKey struct {
	code         *codon.GeneticCode
	piHash       uint64
	kappa, omega float64
}

type decompEntry struct {
	key decompKey
	pi  []float64
	d   *expm.Decomposition
}

// DecompCache memoizes eigendecompositions across SetModel calls and
// across engines. The optimizer's finite-difference gradient re-installs
// the center parameter vector after every model-parameter probe, so
// without a cache each gradient evaluation repeats the center's
// eigendecompositions; with it they are looked up. The multi-gene
// batch driver shares one cache over all genes (sharing frequencies
// across genes makes it effective there).
//
// Cached *expm.Decomposition values are immutable after construction
// and safe for concurrent use (all mutable scratch lives in the
// per-worker expm.Workspace arena, never in the decomposition), so one
// cache may serve concurrent engines. The key
// carries the genetic code's identity alongside (κ, ω, π) — the
// exchangeability structure follows the code — so one cache is safe
// for mixed-code batches and manifests.
type DecompCache struct {
	mu        sync.Mutex
	max       int
	entries   map[decompKey]*list.Element // values hold *decompEntry
	order     *list.List                  // LRU order, most recent at front
	store     DecompStore
	hits      int
	misses    int
	evictions int
}

// DecompStore is an optional second, persistent tier behind the
// in-memory cache (implemented by persistcache.Store — declared here so
// lik does not depend on the persistence layer). Load returns the
// stored decomposition for the rate's exact parameters or nil on any
// miss; Store persists one, best effort. Implementations must be safe
// for concurrent use and must only return decompositions that are
// bit-identical to what expm.Decompose would produce for the rate —
// the cache layers the determinism contract on that guarantee.
type DecompStore interface {
	Load(r *codon.Rate) *expm.Decomposition
	Store(r *codon.Rate, d *expm.Decomposition)
}

// WithStore attaches a persistent tier: in-memory misses probe the
// store before reporting a miss, and Put writes through to it. Returns
// the cache for chaining. Attach before sharing the cache across
// goroutines.
func (c *DecompCache) WithStore(s DecompStore) *DecompCache {
	c.mu.Lock()
	c.store = s
	c.mu.Unlock()
	return c
}

// NewDecompCache returns a cache holding at most max decompositions
// (max <= 0 selects a default of 64).
func NewDecompCache(max int) *DecompCache {
	if max <= 0 {
		max = 64
	}
	return &DecompCache{
		max:     max,
		entries: make(map[decompKey]*list.Element, max),
		order:   list.New(),
	}
}

func rateKey(r *codon.Rate) decompKey {
	// FNV-1a over the IEEE-754 bits of π.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range r.Pi {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= prime
		}
	}
	return decompKey{code: r.Code, piHash: h, kappa: r.Kappa, omega: r.Omega}
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Get returns the cached decomposition for the rate's exact
// parameters, or nil when absent. A hit refreshes the entry's
// eviction rank (LRU), so the repeatedly re-installed gradient-center
// decompositions outlive one-shot optimizer probes.
func (c *DecompCache) Get(r *codon.Rate) *expm.Decomposition {
	key := rateKey(r)
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*decompEntry)
		if sameVec(e.pi, r.Pi) {
			c.hits++
			c.order.MoveToFront(el)
			c.mu.Unlock()
			return e.d
		}
	}
	store := c.store
	if store == nil {
		c.misses++
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	// Probe the persistent tier outside the lock: file I/O must not
	// serialize concurrent engines sharing this cache.
	d := store.Load(r)
	c.mu.Lock()
	defer c.mu.Unlock()
	if d == nil {
		c.misses++
		return nil
	}
	c.hits++
	c.insert(key, r, d)
	return d
}

// Put stores a decomposition under the rate's parameters, evicting the
// least-recently-used entry when full, and writes through to the
// persistent tier when one is attached.
func (c *DecompCache) Put(r *codon.Rate, d *expm.Decomposition) {
	key := rateKey(r)
	c.mu.Lock()
	_, existed := c.entries[key]
	if !existed {
		c.insert(key, r, d)
	}
	store := c.store
	c.mu.Unlock()
	if !existed && store != nil {
		store.Store(r, d)
	}
}

// insert adds an entry under c.mu; a concurrent insert of the same key
// (two engines both missing memory and both loading from the store)
// leaves the first entry in place.
func (c *DecompCache) insert(key decompKey, r *codon.Rate, d *expm.Decomposition) {
	if _, ok := c.entries[key]; ok {
		return
	}
	if len(c.entries) >= c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*decompEntry).key)
		c.evictions++
	}
	e := &decompEntry{key: key, pi: append([]float64(nil), r.Pi...), d: d}
	c.entries[key] = c.order.PushFront(e)
}

// Stats returns the cumulative hit and miss counts.
func (c *DecompCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions returns how many entries the LRU policy has displaced —
// the capacity-pressure signal the daemon's /metrics exposes (a
// steadily climbing value under a steady workload means the cache is
// sized below the working set).
func (c *DecompCache) Evictions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Len returns the number of cached decompositions.
func (c *DecompCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
