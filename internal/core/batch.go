package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/align"
	"repro/internal/codon"
	"repro/internal/newick"
	"repro/internal/persistcache"
)

// Gene is one unit of a batch run: an alignment paired with a tree
// carrying exactly one #1-marked foreground branch. Genome-scale
// selection scans (paper §I-A, Selectome) are expressed naturally:
// many genes each with their own tree, or — for a per-branch scan —
// one alignment repeated with differently marked trees.
type Gene struct {
	Name      string
	Alignment *align.Alignment
	Tree      *newick.Tree

	// Cached encode+compress product (see Patterns). The batch drivers
	// fill it at most once per gene, so the shared-frequency pre-pass
	// and the fit reuse a single encoding.
	encCode  *codon.GeneticCode
	encPats  *align.Patterns
	encNames []string
	encodes  int // number of EncodeCodons+Compress runs (tests assert 1)

	// loadErr marks a gene whose files could not be loaded
	// (ManifestSource). The streaming driver turns it into an error
	// result for this gene instead of aborting the stream.
	loadErr error

	// Persistent-store state attached by ManifestSource (nil/zero
	// elsewhere): a replayed record that makes the fit a no-op, a
	// warm-start seed, and the identity (manifest row digest + input
	// file metadata) a fresh fit is stored back under.
	replay    *GeneRecord
	seed      *persistcache.WarmSeed
	rowDigest string
	fmeta     persistcache.FileMeta
	haveMeta  bool
}

// Patterns returns the gene's codon-encoded, pattern-compressed
// alignment under the genetic code, encoding at most once: repeated
// calls with the same code return the cached product. Not safe for
// concurrent use on one Gene — the batch drivers touch each gene from
// one goroutine at a time (the serial pre-pass, then exactly one
// worker).
func (g *Gene) Patterns(gc *codon.GeneticCode) (*align.Patterns, []string, error) {
	if g.loadErr != nil {
		return nil, nil, g.loadErr
	}
	if g.encPats != nil && g.encCode == gc {
		return g.encPats, g.encNames, nil
	}
	ca, err := align.EncodeCodons(g.Alignment, gc)
	if err != nil {
		return nil, nil, err
	}
	g.encPats = align.Compress(ca)
	g.encNames = ca.Names
	g.encCode = gc
	g.encodes++
	return g.encPats, g.encNames, nil
}

// BatchOptions configures RunBatch and (embedded in StreamOptions)
// RunBatchStream. The embedded Options apply to every gene.
type BatchOptions struct {
	Options
	// Concurrency is the number of genes fitted concurrently; 0
	// selects min(GOMAXPROCS, #genes).
	Concurrency int
	// PoolWorkers sizes the worker pool shared by every gene's
	// likelihood engine: 0 selects GOMAXPROCS, a negative value
	// disables the shared pool (each gene then follows
	// Options.Workers on its own).
	PoolWorkers int
	// ShareFrequencies estimates one equilibrium frequency vector from
	// the pooled codon counts of all genes instead of per-gene
	// estimates. Besides the usual pipeline rationale (one background
	// composition for the whole genome), a shared π makes the batch's
	// eigendecomposition cache effective across genes.
	ShareFrequencies bool
}

// GeneResult is one gene's outcome; exactly one of Result, Err and Rec
// is set.
type GeneResult struct {
	Name   string
	Result *TestResult
	Err    error
	// Rec, when non-nil, is a record replayed verbatim from the
	// persistent result store: the gene was already analyzed under the
	// same fingerprint and input files, so no fit ran. Sinks serialize
	// it via NewGeneRecord exactly as a fresh result — byte-identically,
	// since Go's JSON encoding round-trips (its runtime_sec is the
	// stored deterministic projection's zero).
	Rec *GeneRecord
}

// BatchResult aggregates a batch run.
type BatchResult struct {
	Genes []GeneResult // in input order
	// Failed counts genes whose analysis returned an error.
	Failed int
	// CacheHits / CacheMisses report the shared eigendecomposition
	// cache's effectiveness.
	CacheHits, CacheMisses int
	Runtime                time.Duration
}

// RunBatch runs the full branch-site test on every gene, fitting up to
// Concurrency genes at once while all likelihood engines execute their
// (component × pattern-block) tiles on one shared persistent worker pool
// and share one eigendecomposition cache. Per-gene results are
// bit-identical to a sequential Analysis.Run with the same Options:
// parallelism only reorders independent work, never the arithmetic.
//
// RunBatch is the in-memory tier of the batch driver — a SliceSource
// plus CollectSink around RunBatchStream. For collections that should
// not be materialized (millions of genes), stream them instead: see
// RunBatchStream and ManifestSource.
func RunBatch(genes []Gene, opts BatchOptions) (*BatchResult, error) {
	if len(genes) == 0 {
		return nil, fmt.Errorf("core: RunBatch needs at least one gene")
	}
	conc := opts.Concurrency
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	if conc > len(genes) {
		conc = len(genes)
	}
	sopts := StreamOptions{BatchOptions: opts}
	sopts.Concurrency = conc
	sopts.CacheSize = 4 * len(genes)
	var col CollectSink
	sum, err := RunBatchStream(context.Background(), NewSliceSource(genes), &col, sopts)
	if err != nil {
		return nil, err
	}
	return &BatchResult{
		Genes:       col.Results(),
		Failed:      sum.Failed,
		CacheHits:   sum.CacheHits,
		CacheMisses: sum.CacheMisses,
		Runtime:     sum.Runtime,
	}, nil
}
