package workloads

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"hcsgc"
	"hcsgc/internal/faultinject"
	"hcsgc/internal/kvstore"
	"hcsgc/internal/loadgen"
)

// tinyCfg returns a fast functional-test configuration.
func tinyCfg(knobs hcsgc.Knobs, seed int64) RunConfig {
	return RunConfig{
		Knobs: knobs,
		Seed:  seed,
		Scale: 0.01,
	}
}

// mustRun fails the test on a workload error (heap exhaustion).
func mustRun(t *testing.T, w Workload, cfg RunConfig) Result {
	t.Helper()
	res, err := w.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return res
}

func TestAllWorkloadsRegistered(t *testing.T) {
	all := All()
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "kv"} {
		w, ok := all[id]
		if !ok {
			t.Errorf("missing workload %s", id)
			continue
		}
		if w.Name == "" || w.Run == nil {
			t.Errorf("workload %s incomplete", id)
		}
	}
	if _, err := Get("fig4"); err != nil {
		t.Error(err)
	}
	if _, err := Get("nonesuch"); err == nil {
		t.Error("unknown id must error")
	}
}

// runBoth runs a workload under baseline and an aggressive HCSGC config
// with the same seed, checking the results are sane and checksums match
// (GC configuration must never change program results).
func runBoth(t *testing.T, id string) (base, hcs Result) {
	t.Helper()
	w, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	base = mustRun(t, w, tinyCfg(hcsgc.Knobs{}, 42))
	hcs = mustRun(t, w, tinyCfg(hcsgc.Knobs{
		Hotness: true, ColdPage: true, ColdConfidence: 1.0, LazyRelocate: true,
	}, 42))
	if base.Check != hcs.Check {
		t.Fatalf("%s: checksum differs across configs: %d vs %d", id, base.Check, hcs.Check)
	}
	if base.ExecSeconds <= 0 || hcs.ExecSeconds <= 0 {
		t.Fatalf("%s: non-positive execution time", id)
	}
	if base.Loads == 0 {
		t.Fatalf("%s: no loads recorded", id)
	}
	return base, hcs
}

func TestSyntheticSinglePhase(t *testing.T) { runBoth(t, "fig4") }
func TestSyntheticMultiPhase(t *testing.T)  { runBoth(t, "fig5") }

func TestSyntheticOverloaded(t *testing.T) {
	base, _ := runBoth(t, "fig6")
	// Fig. 6 runs on the single-core model by default.
	if base.GCCycleCount == 0 {
		t.Log("no GC cycles at tiny scale (acceptable)")
	}
}

func TestJGraphTCCUK(t *testing.T)     { runBoth(t, "fig7") }
func TestJGraphTCCEnwiki(t *testing.T) { runBoth(t, "fig8") }
func TestJGraphTMCUK(t *testing.T)     { runBoth(t, "fig9") }
func TestJGraphTMCEnwiki(t *testing.T) { runBoth(t, "fig10") }
func TestTradebeans(t *testing.T)      { runBoth(t, "fig11") }
func TestH2(t *testing.T)              { runBoth(t, "fig12") }

func TestSPECjbbScores(t *testing.T) {
	w, _ := Get("fig13")
	res := mustRun(t, w, tinyCfg(hcsgc.Knobs{}, 42))
	if res.Scores["max-jOPS"] <= 0 {
		t.Fatalf("max-jOPS = %v", res.Scores["max-jOPS"])
	}
	if res.Scores["critical-jOPS"] < 0 || res.Scores["critical-jOPS"] > res.Scores["max-jOPS"] {
		t.Fatalf("critical-jOPS = %v implausible vs max %v",
			res.Scores["critical-jOPS"], res.Scores["max-jOPS"])
	}
	if len(res.HeapSamples) == 0 {
		t.Fatal("heap samples missing")
	}
}

func TestKVServerChecksumAcrossConfigs(t *testing.T) { runBoth(t, "kv") }

func TestKVServerMetricsAndScores(t *testing.T) {
	w, _ := Get("kv")
	mx := kvstore.NewMetrics()
	cfg := tinyCfg(hcsgc.Knobs{}, 42)
	cfg.KV = mx
	res := mustRun(t, w, cfg)

	for _, key := range []string{"kv-p99-steady", "kv-p999-steady", "kv-p999-burst", "kv-hit-rate"} {
		if _, ok := res.Scores[key]; !ok {
			t.Errorf("Scores missing %q", key)
		}
	}
	if res.Scores["kv-p99-steady"] <= 0 {
		t.Fatalf("kv-p99-steady = %v, want > 0", res.Scores["kv-p99-steady"])
	}
	if hr := res.Scores["kv-hit-rate"]; hr <= 0 || hr > 1 {
		t.Fatalf("kv-hit-rate = %v out of (0,1]", hr)
	}
	if len(res.HeapSamples) == 0 {
		t.Fatal("heap samples missing")
	}

	rep := mx.Report(nil)
	if err := rep.Validate(); err != nil {
		t.Fatalf("accumulated report invalid: %v", err)
	}
	var total uint64
	for _, p := range rep.Phases {
		if p.Dist.Count == 0 {
			t.Errorf("phase %q recorded no requests", p.Phase)
		}
		total += p.Dist.Count
	}
	if got := rep.Ops["get"] + rep.Ops["set"] + rep.Ops["delete"] + rep.Ops["scan"]; got != total {
		t.Fatalf("op counts sum to %d, phase counts to %d", got, total)
	}
	if rep.SessionsRetired == 0 {
		t.Fatal("session churn produced no retirements")
	}
}

// TestKVSingleServerThreadServes: at full scale one server thread owns
// every key, and its bucket array must still fit the KV heap — the width-1
// point every speedup of the scaling sweep is relative to.
func TestKVSingleServerThreadServes(t *testing.T) {
	w, _ := Get("kv")
	res := mustRun(t, w, RunConfig{Seed: 1, Scale: 1, Mutators: 1})
	if f := res.Scores["kv-failures"]; f != 0 {
		t.Errorf("kv-failures = %v of %d requests, want 0", f, res.Ops)
	}
	if hr := res.Scores["kv-hit-rate"]; hr <= 0 {
		t.Errorf("kv-hit-rate = %v, want > 0", hr)
	}
}

// TestKVHostBytesPerRequest pins what one more scheduled request costs the
// host: its 24-byte loadgen.Request and next to nothing else, since the
// server threads account into private, pre-sized accumulators. Two runs
// that differ in scale differ mainly in request count; the difference in
// Go allocation over the difference in requests is the marginal cost. A
// 72-byte Request, or a per-request allocation on the serving path, fails.
func TestKVHostBytesPerRequest(t *testing.T) {
	if size := unsafe.Sizeof(loadgen.Request{}); size > 24 {
		t.Fatalf("loadgen.Request is %d bytes, want <= 24", size)
	}
	w := mustGet(t, "kv")
	run := func(scale float64) (allocBytes, reqs int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := mustRun(t, w, RunConfig{Seed: 1, Scale: scale, Mutators: 2})
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc), int64(res.Ops)
	}
	run(0.2) // fill the page arena, so neither measured run pays for it
	smallB, smallN := run(0.05)
	bigB, bigN := run(0.2)
	if perReq := float64(bigB-smallB) / float64(bigN-smallN); perReq > 40 {
		t.Errorf("%.1f host bytes per request (%d B for %d requests, %d B for %d), want <= 40",
			perReq, smallB, smallN, bigB, bigN)
	} else {
		t.Logf("%.1f host bytes per request", perReq)
	}
}

func TestSyntheticTriggersGC(t *testing.T) {
	// At moderate scale, the garbage allocation must trigger GC cycles.
	w, _ := Get("fig4")
	res := mustRun(t, w, RunConfig{Knobs: hcsgc.Knobs{}, Seed: 1, Scale: 0.03})
	if res.GCCycleCount == 0 {
		t.Fatal("synthetic benchmark must trigger GC cycles")
	}
	if len(res.HeapSamples) == 0 {
		t.Fatal("heap samples missing")
	}
}

func TestJGraphTLoadPhaseTriggersGC(t *testing.T) {
	w, _ := Get("fig7")
	res := mustRun(t, w, RunConfig{Knobs: hcsgc.Knobs{}, Seed: 1, Scale: 0.05})
	if res.GCCycleCount < 2 {
		t.Fatalf("CC load phase should produce >=2 early GC cycles, got %d", res.GCCycleCount)
	}
}

func TestMutatorRelocationHappensUnderLazy(t *testing.T) {
	w, _ := Get("fig4")
	res := mustRun(t, w, RunConfig{
		Knobs: hcsgc.Knobs{RelocateAllSmallPages: true, LazyRelocate: true},
		Seed:  1, Scale: 0.03,
	})
	if res.MutatorReloc == 0 {
		t.Fatal("lazy+all configuration must produce mutator relocations")
	}
}

// TestFig4ChecksumMutatorInvariant: partitioning the shared-array outer
// iterations across mutators reorders execution but must not change
// program results — the per-iteration rng reseed makes the checksum (and
// the operation count) a pure function of the seed.
func TestFig4ChecksumMutatorInvariant(t *testing.T) {
	w, _ := Get("fig4")
	base := mustRun(t, w, RunConfig{Knobs: hcsgc.Knobs{}, Seed: 11, Scale: 0.02})
	for _, n := range []int{2, 4, 8} {
		res := mustRun(t, w, RunConfig{Knobs: hcsgc.Knobs{}, Seed: 11, Scale: 0.02, Mutators: n})
		if res.Check != base.Check {
			t.Errorf("x%d checksum %d != serial %d", n, res.Check, base.Check)
		}
		if res.Ops != base.Ops {
			t.Errorf("x%d ops %d != serial %d", n, res.Ops, base.Ops)
		}
	}
}

// TestWorkerBalanceUnderInjectedDelay: with multiple GC workers, a
// relocating configuration, and the injector delaying relocation
// inserts, the contention plane must still attribute per-worker totals
// and a finite imbalance coefficient. Structural assertions only — the
// injected yields skew the split, they do not make it predictable.
func TestWorkerBalanceUnderInjectedDelay(t *testing.T) {
	ctn := hcsgc.NewContentionPlane()
	fcfg := hcsgc.FaultConfig{Seed: 3}
	fcfg.Delay[faultinject.RelocInsert] = 0.8
	res := mustRun(t, mustGet(t, "fig4"), RunConfig{
		Knobs:         hcsgc.Knobs{RelocateAllSmallPages: true},
		Seed:          1,
		Scale:         0.03,
		Mutators:      4,
		GCWorkers:     2,
		Contention:    ctn,
		FaultInjector: hcsgc.NewFaultInjector(fcfg),
	})
	if res.GCCycleCount == 0 {
		t.Fatal("no GC cycles: the balance plane never sampled")
	}
	snap := ctn.Snapshot()
	if snap.Cycles == 0 {
		t.Fatal("contention plane saw no cycles")
	}
	if len(snap.Workers) != 2 {
		t.Fatalf("worker snapshots = %d, want 2", len(snap.Workers))
	}
	var scanned uint64
	for _, w := range snap.Workers {
		scanned += w.Scanned
	}
	if scanned == 0 {
		t.Error("no objects attributed to any worker")
	}
	if math.IsNaN(snap.Imbalance) || snap.Imbalance < 0 {
		t.Errorf("imbalance = %g, want finite >= 0", snap.Imbalance)
	}
	if len(snap.Sites) == 0 {
		t.Error("no lock sites instrumented")
	}
}

func mustGet(t *testing.T, id string) Workload {
	t.Helper()
	w, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestDeterministicChecksumAcrossSeeds(t *testing.T) {
	w, _ := Get("fig12")
	a := mustRun(t, w, tinyCfg(hcsgc.Knobs{}, 5))
	b := mustRun(t, w, tinyCfg(hcsgc.Knobs{}, 5))
	if a.Check != b.Check {
		t.Fatal("same seed must give same checksum")
	}
	c := mustRun(t, w, tinyCfg(hcsgc.Knobs{}, 6))
	if a.Check == c.Check {
		t.Fatal("different seeds should give different checksums")
	}
}

// TestWorkloadOOMPropagatesAsError drives a workload into genuine heap
// exhaustion — a heap far below the live set, the occupancy trigger
// suppressed by the injector, and a tight stall budget — and checks the
// failure surfaces as an error from Run (ErrOutOfMemory in the chain)
// rather than a panic, and that the abandoned run leaks no goroutine.
func TestWorkloadOOMPropagatesAsError(t *testing.T) {
	before := runtime.NumGoroutine()
	w, _ := Get("fig4")
	inj := hcsgc.NewFaultInjector(hcsgc.FaultConfig{SuppressDriver: true})
	_, err := w.Run(RunConfig{
		Knobs:         hcsgc.Knobs{},
		Seed:          1,
		Scale:         0.05,
		HeapMaxBytes:  4 << 20, // far below the fig4 live set
		DisableMem:    true,
		FaultInjector: inj,
		StallRetries:  2,
	})
	if err == nil {
		t.Fatal("fig4 in a 4MB heap with the occupancy trigger suppressed did not fail")
	}
	if !errors.Is(err, hcsgc.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory in chain", err)
	}
	var oom *hcsgc.OutOfMemoryError
	if !errors.As(err, &oom) {
		t.Fatalf("err %T does not carry *OutOfMemoryError", err)
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after abandoned run", before, runtime.NumGoroutine())
}

// TestNoCollectorGoroutineOutlivesRun: when Run returns, the runtime is
// closed and Result has been read from it, so nothing of the collector may
// still be running — in particular not the relocation drain that a
// non-lazy configuration's last cycle leaves on the GC workers, which used
// to outlive Close about once in twenty runs and race the statistics in
// Result. Twenty runs: baseline ZGC (eager drain) and config 16, ten seeds
// each.
func TestNoCollectorGoroutineOutlivesRun(t *testing.T) {
	w := mustGet(t, "fig4")
	configs := []hcsgc.Knobs{
		{},
		{Hotness: true, ColdPage: true, ColdConfidence: 1.0, LazyRelocate: true},
	}
	buf := make([]byte, 1<<20)
	for seed := int64(1); seed <= 10; seed++ {
		for ci, knobs := range configs {
			res := mustRun(t, w, RunConfig{Knobs: knobs, Seed: seed, Scale: 0.03})
			if res.GCCycleCount == 0 {
				t.Fatalf("config %d seed %d: no GC cycle, nothing to outlive the run", ci, seed)
			}
			for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
				// A GC worker in a mark or drain loop, or a cycle in
				// progress. (A goroutine on its way out of the closure that
				// signalled its exit — a triggered cycle's token release, a
				// worker's wg.Done — is not a finding.)
				if strings.Contains(g, "hcsgc/internal/core.(*gcWorker)") ||
					strings.Contains(g, "hcsgc/internal/core.(*Collector).runCycle(") {
					t.Fatalf("config %d seed %d: a collector goroutine outlived Run:\n%s", ci, seed, g)
				}
			}
		}
	}
}
