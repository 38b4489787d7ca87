package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeOp measures one call of f: it runs f in batches of at least
// minBatch wall time until budget has passed and at least five batches
// ran, and returns the median per-call duration over the batches.
func timeOp(budget time.Duration, f func()) time.Duration {
	const minBatch = 2 * time.Millisecond
	f() // warm caches and lazily built state
	per := 1
	for {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		if time.Since(t0) >= minBatch || per >= 1<<20 {
			break
		}
		per *= 2
	}
	var samples []float64
	start := time.Now()
	for len(samples) < 5 || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		samples = append(samples, float64(time.Since(t0))/float64(per))
	}
	return time.Duration(median(samples))
}

// settle collects garbage and returns freed memory to the OS, so each
// measured region starts from the same heap and resident-set baseline.
func settle() {
	debug.FreeOSMemory()
}

// rssSampler tracks the peak resident set size while it runs, reading
// /proc/self/statm every few milliseconds.
type rssSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak atomic.Int64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	rss := pages * int64(os.Getpagesize())
	for {
		old := s.peak.Load()
		if rss <= old || s.peak.CompareAndSwap(old, rss) {
			return
		}
	}
}

// stopMB stops the sampler and returns the peak in MB. Without
// /proc the Go runtime's view of memory obtained from the OS stands in.
func (s *rssSampler) stopMB() float64 {
	s.sample()
	close(s.stop)
	s.wg.Wait()
	if p := s.peak.Load(); p > 0 {
		return float64(p) / 1e6
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

// procSnap is the process's CPU time and allocation counters at one
// instant; two snapshots bracket a measured region.
type procSnap struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func takeProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU time on failure; the wall clock still counts
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
	}
}

// procDelta is what happened between two snapshots.
type procDelta struct {
	cpuUtil float64 // CPU seconds ÷ (wall seconds × GOMAXPROCS)
	allocMB float64
	gcs     float64
}

func since(a procSnap) procDelta {
	b := takeProc()
	wall := b.wall.Sub(a.wall).Seconds()
	d := procDelta{
		allocMB: float64(b.alloc-a.alloc) / 1e6,
		gcs:     float64(b.gcs - a.gcs),
	}
	if wall > 0 {
		d.cpuUtil = (b.cpu - a.cpu).Seconds() / (wall * float64(runtime.GOMAXPROCS(0)))
	}
	return d
}

// runRecord describes the machine and configuration of one run; it is
// printed before the result line and stored with the spans.
type runRecord struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Trace        bool           `json:"trace"`
	Nproc        int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	CPUModel     string         `json:"cpu_model"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	SourceSHA256 string         `json:"source_sha256"`
	Config       map[string]any `json:"config"`
}

func newRecord(workload string, seed int64, seconds int, trace bool, cfg map[string]any) runRecord {
	return runRecord{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Nproc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(),
		SourceSHA256: sourceDigest(),
		Config:       cfg,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit resolves HEAD from the .git directory without running git;
// a checkout without one reports "unknown" (sourceDigest still
// identifies the code).
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's sources (go.mod and every file
// under internal/), so a record names the code it measured even where
// no git metadata exists.
func sourceDigest() string {
	h := sha256.New()
	files := []string{"go.mod"}
	_ = filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f) // a read error leaves a digest that differs, which is what it should do
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
