package workloads

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"hcsgc"
	"hcsgc/internal/graphalg"
)

// TestWarmGraphRunAllocatesAQuarter: a second fig7 run of one seed builds
// neither the graph nor its incidence arrays, and, like any warm run, no
// heap, so it allocates at most a quarter of the Go heap the first one did.
// A run of another seed goes first, so that the arena is warm for both
// measured runs and what differs between them is the input. The cache model
// is off: it would only add its tag arrays, which TestReleasedTagsStartCold
// covers, and more than double its time under the race detector.
func TestWarmGraphRunAllocatesAQuarter(t *testing.T) {
	w := mustGet(t, "fig7")
	knobs := hcsgc.Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1.0, LazyRelocate: true}
	mustRun(t, w, RunConfig{Knobs: knobs, Seed: 300, Scale: 0.05, DisableMem: true})
	var alloc [2]uint64
	for i := range alloc {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustRun(t, w, RunConfig{Knobs: knobs, Seed: 301, Scale: 0.05, DisableMem: true})
		runtime.ReadMemStats(&after)
		alloc[i] = after.TotalAlloc - before.TotalAlloc
	}
	if alloc[1] > alloc[0]/4 {
		t.Fatalf("warm run allocated %.2f MB, cold run %.2f MB: want at most a quarter", mib(alloc[1]), mib(alloc[0]))
	}
	t.Logf("cold run %.2f MB, warm run %.2f MB", mib(alloc[0]), mib(alloc[1]))
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// graphDigest is an FNV-64a digest of everything a prepared graph holds.
func graphDigest(in *graphalg.Input) uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, in.Edges)
	binary.Write(h, binary.LittleEndian, in.Start)
	binary.Write(h, binary.LittleEndian, in.Incident)
	return h.Sum64()
}

// cachedGraph returns the input a fig7 run of cfg reads.
func cachedGraph(cfg RunConfig) *graphalg.Input {
	in, e := runGraph(cfg, "uk", false)
	e.cleanup()
	return in
}

// TestGraphRunsShareOneInput: two fig7 runs of one seed build one graph
// between them, read the same one, and leave it as they found it (it is
// shared read-only).
func TestGraphRunsShareOneInput(t *testing.T) {
	w := mustGet(t, "fig7")
	cfg := tinyCfg(hcsgc.Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1.0, LazyRelocate: true}, 311)
	cfg.DisableMem = true
	built := GraphsBuilt()
	in := cachedGraph(cfg)
	before := graphDigest(in)
	var res [2]Result
	for i := range res {
		res[i] = mustRun(t, w, cfg)
		if after := graphDigest(in); after != before {
			t.Fatalf("run %d changed the cached graph: digest %#x, was %#x", i+1, after, before)
		}
	}
	if n := GraphsBuilt() - built; n != 1 {
		t.Fatalf("two runs of one seed built %d graphs, want 1", n)
	}
	if cachedGraph(cfg) != in {
		t.Fatal("a run of the same seed did not read the cached graph")
	}
	if a, b := res[0], res[1]; a.Check != b.Check {
		t.Fatalf("checksums %#x and %#x from one graph", a.Check, b.Check)
	}
	cfg.Seed++
	if cachedGraph(cfg) == in {
		t.Fatal("another seed reused the cached graph")
	}
}

// TestConcurrentGraphRunsShareInput: two fig7 runs of one seed at once read
// one graph side by side (the race detector checks that nothing writes it)
// and compute the same checksum.
func TestConcurrentGraphRunsShareInput(t *testing.T) {
	w := mustGet(t, "fig7")
	cachedGraph(tinyCfg(hcsgc.Knobs{}, 312)) // not the seed under test
	built := GraphsBuilt()
	var wg sync.WaitGroup
	res := make([]Result, 2)
	errs := make([]error, 2)
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := tinyCfg(hcsgc.Knobs{}, 313)
			cfg.DisableMem = true
			res[i], errs[i] = w.Run(cfg)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if res[0].Check != res[1].Check {
		t.Fatalf("concurrent runs: checksums %#x, %#x", res[0].Check, res[1].Check)
	}
	if n := GraphsBuilt() - built; n != 1 {
		t.Fatalf("two concurrent runs of one seed built %d graphs, want 1", n)
	}
}

// quantileCopy is the quantile the SPECjbb workload computed before it
// sorted its samples in place: on a sorted copy.
func quantileCopy(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

// TestQuantileInPlaceMatchesCopy: sorting the samples in place picks the
// element a sorted copy does, at every quantile the workload reads.
func TestQuantileInPlaceMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, rng.Intn(300))
		for i := range xs {
			xs[i] = float64(rng.Intn(50)) * rng.Float64() // ties included
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			want := quantileCopy(xs, q)
			if got := quantile(slices.Clone(xs), q); got != want {
				t.Fatalf("trial %d, %d samples, q %v: in place %v, copy %v", trial, len(xs), q, got, want)
			}
		}
	}
}
