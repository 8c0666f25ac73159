// Package workloads implements the paper's benchmark programs (§4.4–4.7)
// against the public hcsgc API: the synthetic microbenchmarks, the JGraphT
// graph computations, DaCapo-like tradebeans and h2 substitutes, and a
// SPECjbb2015-like ramping transaction workload.
//
// Every workload is a deterministic function of its RunConfig seed except
// for goroutine interleaving with the concurrent collector, which supplies
// the run-to-run variance the paper's bootstrap methodology expects.
package workloads

import (
	"errors"
	"fmt"
	"sync"

	"hcsgc"
	"hcsgc/internal/kvstore"
	"hcsgc/internal/machine"
	"hcsgc/internal/simmem"
)

// RunConfig parameterises one benchmark run.
type RunConfig struct {
	// Knobs is the HCSGC configuration under test.
	Knobs hcsgc.Knobs
	// Machine is the execution-time model (defaults to the laptop).
	Machine hcsgc.Machine
	// HeapMaxBytes overrides the workload's default heap size.
	HeapMaxBytes uint64
	// Seed drives all workload randomness.
	Seed int64
	// Scale in (0,1] shrinks the workload from paper scale. 0 means the
	// workload's default benchmarking scale.
	Scale float64
	// GCWorkers / TriggerPercent pass through to the collector.
	GCWorkers      int
	TriggerPercent float64
	// EvacThreshold overrides the evacuation live-ratio threshold
	// (0 = the paper's 75%); used by the ablation benches.
	EvacThreshold float64
	// MemConfig overrides the cache hierarchy; used by the ablation
	// benches (e.g. prefetcher off).
	MemConfig *simmem.HierarchyConfig
	// DisableMem turns the cache model off (functional tests only).
	DisableMem bool
	// Telemetry attaches a live observability sink to the run's runtime
	// (nil = disabled). Shared across runs, it reports the latest run.
	Telemetry *hcsgc.TelemetrySink
	// Latency overrides the run's latency tracker (nil = the runtime
	// builds a default one). The caller keeps the handle and reads the
	// report after the run.
	Latency *hcsgc.LatencyTracker
	// Signals, when set, is bound to the run's latency tracker (see
	// hcsgc.SignalsConfig). The caller keeps the handle and reads the
	// snapshot after the run.
	Signals *hcsgc.SignalPlane
	// Contention overrides the run's contention attribution plane (nil =
	// the runtime builds a default one). The caller keeps the handle and
	// reads the snapshot after the run.
	Contention *hcsgc.ContentionPlane
	// Mutators sets the number of mutator threads for workloads that
	// scale across them (the fig4 synthetic and the KV server; 0 = the
	// workload's default). Other workloads ignore it. The scaling sweep
	// drives this.
	Mutators int
	// FaultInjector arms the run's fault-injection plane (nil =
	// disarmed). Used by the chaos soak.
	FaultInjector *hcsgc.FaultInjector
	// Verifier attaches the STW heap verifier to the run's runtime
	// (nil = detached). The caller keeps the handle and inspects the
	// violations after the run.
	Verifier *hcsgc.HeapVerifier
	// KV is the serving ledger for the KV server workload: request
	// latencies, outcomes and the tail's attribution (nil = the per-run
	// ledger is discarded after Scores are derived). Shared across runs, it
	// merges them.
	KV *kvstore.Metrics
	// Overload protects the KV serving path: per-request deadlines
	// (DeadlineCycles, propagated into the load generator's schedule and
	// armed as allocation budgets) and the stale shed at dequeue.
	// Unprotected, heap exhaustion still degrades to per-request failures.
	Overload bool
	// LoadFactor multiplies the KV arrival rate (the mean interarrival
	// gap divides by it; 0 or 1 = the workload's sustainable default).
	// The overload bench sets >= 2 to push past the sustainable point.
	LoadFactor float64
	// StallRetries bounds the allocation-stall loop (see hcsgc.Options;
	// only tests set it).
	StallRetries int
}

// scale resolves the run's scale: Scale, or def when that is 0. It keeps the
// answer in c.Scale, for the Result to report.
func (c *RunConfig) scale(def float64) float64 {
	if c.Scale <= 0 {
		c.Scale = def
	}
	return c.Scale
}

// HeapSample is one point of the heap-usage-over-time series (the
// rightmost plot of every figure).
type HeapSample struct {
	Seconds float64
	UsedPct float64
}

// Result is the measurement of one run, covering the three aspects of
// §4.2: execution time, cache statistics, GC statistics.
type Result struct {
	// ExecSeconds is the simulated wall-clock execution time of the
	// measured portion.
	ExecSeconds float64
	// Loads / L1Misses / LLCMisses are whole-process cache counters for
	// the complete run (as perf reports them); Owners splits the same
	// run's counters by owner (mutators, GC threads, pauses).
	Loads, L1Misses, LLCMisses uint64
	Owners                     hcsgc.OwnerMemStats
	// GCCycleCount is the number of GC cycles.
	GCCycleCount int
	// MedianECSmall is the median number of small pages selected for
	// evacuation per cycle.
	MedianECSmall float64
	// MutatorReloc / GCReloc count objects relocated by each party.
	MutatorReloc, GCReloc uint64
	// HeapSamples traces heap occupancy over time.
	HeapSamples []HeapSample
	// Ops counts the workload's operations in the measured portion: array
	// accesses completed for the synthetics, requests scheduled for the
	// KV server (the open-loop demand — Scores["kv-failures"] of them
	// were not served); 0 when a workload does not report it.
	Ops uint64
	// Scores holds workload-specific metrics (SPECjbb throughput/latency).
	Scores map[string]float64
	// Check is a workload-defined checksum; identical across
	// configurations for the same seed, or the run is wrong.
	Check uint64
	// Scale is the scale the run used: RunConfig.Scale, or the workload's
	// default where that was 0.
	Scale float64
}

// Workload is one runnable benchmark. Run returns an error instead of a
// Result when the heap is exhausted (ErrOutOfMemory in the chain): the
// run is abandoned but the process — and the remaining runs of a sweep —
// survive.
type Workload struct {
	Name string
	Run  func(RunConfig) (Result, error)
}

// guard adapts a workload body to the error-returning Run contract: the
// allocation fast paths panic with a structured *hcsgc.OutOfMemoryError
// when the stall budget is exhausted, and guard converts exactly that
// panic into an error return. Any other panic is a real bug and
// propagates. The body must defer env.cleanup() so the runtime is closed
// on the abandoned path too.
func guard(body func(RunConfig) Result) func(RunConfig) (Result, error) {
	return func(cfg RunConfig) (res Result, err error) {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			e, ok := r.(error)
			if !ok || !errors.Is(e, hcsgc.ErrOutOfMemory) {
				panic(r)
			}
			res, err = Result{}, fmt.Errorf("workload run abandoned: %w", e)
		}()
		return body(cfg), nil
	}
}

// env bundles the runtime plumbing each workload sets up.
type env struct {
	rt  *hcsgc.Runtime
	m   *hcsgc.Mutator
	cfg RunConfig

	samples   []HeapSample
	execStart float64
	done      bool
}

// runtimeBuilt, when set, is handed each run's runtime as newEnv builds it,
// so a test can read the runtime after the run. Nil otherwise.
var runtimeBuilt func(*hcsgc.Runtime)

// newEnv builds a runtime + main mutator for a workload.
func newEnv(cfg RunConfig, heapDefault uint64, rootSlots int) *env {
	heapBytes := cfg.HeapMaxBytes
	if heapBytes == 0 {
		heapBytes = heapDefault
	}
	mach := cfg.Machine
	if mach.Cores == 0 {
		mach = machine.Laptop()
	}
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes:    heapBytes,
		Knobs:           cfg.Knobs,
		GCWorkers:       cfg.GCWorkers,
		TriggerPercent:  cfg.TriggerPercent,
		EvacThreshold:   cfg.EvacThreshold,
		Machine:         mach,
		MemConfig:       cfg.MemConfig,
		DisableMemModel: cfg.DisableMem,
		Telemetry:       cfg.Telemetry,
		Latency:         cfg.Latency,
		Signals:         cfg.Signals,
		Contention:      cfg.Contention,
		FaultInjector:   cfg.FaultInjector,
		Verifier:        cfg.Verifier,
		StallRetries:    cfg.StallRetries,
	})
	if runtimeBuilt != nil {
		runtimeBuilt(rt)
	}
	return &env{rt: rt, m: rt.NewMutator(rootSlots), cfg: cfg}
}

// cleanup winds the runtime down exactly once: it runs both on the normal
// finish path and — via the workload body's defer — when an out-of-memory
// panic abandons the run, so no cycle or worker goroutine outlives a
// failed run.
func (e *env) cleanup() {
	if e.done {
		return
	}
	e.done = true
	e.m.Close()
	e.rt.Close()
}

// markMeasured starts the measured portion (after warm-up). Called by the
// main mutator's goroutine, which publishes its ledger first so the start
// mark is exact.
func (e *env) markMeasured() {
	e.m.Publish()
	e.execStart = e.rt.ExecSeconds()
}

// sampleHeap appends a heap-usage observation from the main mutator's
// goroutine.
func (e *env) sampleHeap() { e.sampleHeapAs(e.m) }

// sampleHeapAs appends a heap-usage observation from the goroutine that
// owns m, publishing m's ledger first so the sample's time is exact in the
// caller's own term.
func (e *env) sampleHeapAs(m *hcsgc.Mutator) {
	m.Publish()
	e.samples = append(e.samples, HeapSample{
		Seconds: e.rt.ExecSeconds(),
		UsedPct: e.rt.Heap.UsedPercent(),
	})
}

// finish closes the runtime and assembles the Result.
func (e *env) finish(check uint64) Result {
	e.cleanup()
	ms := e.rt.MemStats()
	st := e.rt.Collector.Stats()
	return Result{
		ExecSeconds:   e.rt.ExecSeconds() - e.execStart,
		Loads:         ms.Loads,
		L1Misses:      ms.L1Misses,
		LLCMisses:     ms.LLCMisses,
		Owners:        e.rt.MemStatsByOwner(),
		GCCycleCount:  len(st.Cycles),
		MedianECSmall: st.MedianECSmall(),
		MutatorReloc:  st.MutatorRelocObjects,
		GCReloc:       st.GCRelocObjects,
		HeapSamples:   e.samples,
		Check:         check,
		Scale:         e.cfg.Scale,
	}
}

// inputCache is a one-entry cache of the last input a workload built, keyed
// by everything the input is a function of: every repeat of one seed — an
// A/B's sides of one run index, a benchmark's reps — reads the same input
// instead of building it again. Cached inputs are shared read-only, by
// concurrent runs too. The entry lives until a different key replaces it.
type inputCache[K comparable, V any] struct {
	mu     sync.Mutex
	key    K
	val    V
	builds uint64 // 0 = empty
}

// get returns the input of key, building it when the entry holds another.
func (c *inputCache[K, V]) get(key K, build func(K) V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.builds == 0 || c.key != key {
		c.key, c.val = key, build(key)
		c.builds++
	}
	return c.val
}

// built returns how many inputs the cache has built.
func (c *inputCache[K, V]) built() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds
}

// All returns every workload keyed by the experiment it reproduces.
func All() map[string]Workload {
	return map[string]Workload{
		"fig4":  SyntheticSinglePhase(),
		"fig5":  SyntheticMultiPhase(),
		"fig6":  SyntheticOverloaded(),
		"fig7":  JGraphTCC("uk"),
		"fig8":  JGraphTCC("enwiki"),
		"fig9":  JGraphTMC("uk"),
		"fig10": JGraphTMC("enwiki"),
		"fig11": Tradebeans(),
		"fig12": H2(),
		"fig13": SPECjbb(),
		"kv":    KVServer(),
	}
}

// Get looks up a workload by experiment id.
func Get(id string) (Workload, error) {
	w, ok := All()[id]
	if !ok {
		return Workload{}, fmt.Errorf("workloads: unknown experiment %q", id)
	}
	return w, nil
}
