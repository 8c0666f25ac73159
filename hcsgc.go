// Package hcsgc is the public API of the HCSGC reproduction: a managed
// heap with a ZGC-style mostly-concurrent mark-compact collector extended
// with hot/cold object segregation, as described in "Improving Program
// Locality in the GC using Hotness" (Yang, Österlund, Wrigstad, PLDI 2020).
//
// A Runtime bundles the simulated heap, the collector, the cache-hierarchy
// model that measures locality, and a machine model that folds cycle
// ledgers into execution time. Application threads attach as Mutators;
// every object access goes through the collector's load barrier and is
// charged to the mutator's simulated core.
//
// Minimal use:
//
//	rt := hcsgc.MustNewRuntime(hcsgc.Options{
//		HeapMaxBytes: 64 << 20,
//		Knobs:        hcsgc.Knobs{Hotness: true, LazyRelocate: true},
//	})
//	defer rt.Close()
//	node := rt.Types.Register("node", 2, []int{0})
//	m := rt.NewMutator(8)
//	obj := m.Alloc(node)
//	m.SetRoot(0, obj)
//	...
package hcsgc

import (
	"io"
	"sync"
	"time"

	"hcsgc/internal/contention"
	"hcsgc/internal/core"
	"hcsgc/internal/faultinject"
	"hcsgc/internal/heap"
	"hcsgc/internal/locality"
	"hcsgc/internal/machine"
	"hcsgc/internal/objmodel"
	"hcsgc/internal/simmem"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// Re-exported types so users never import internal packages.
type (
	// Knobs are the HCSGC tuning knobs from Table 2 of the paper.
	Knobs = core.Knobs
	// Mutator is an application thread's handle onto the managed heap.
	Mutator = core.Mutator
	// Ref is a colored reference to a heap object.
	Ref = heap.Ref
	// Type describes an object layout.
	Type = objmodel.Type
	// MemStats is the process-wide cache-model counter snapshot.
	MemStats = simmem.SystemStats
	// Machine is the core-count/clock model used for execution time.
	Machine = machine.Model
	// TelemetrySink is the live observability surface: event recorder,
	// metrics registry, and HTTP exporters (see internal/telemetry).
	TelemetrySink = telemetry.Sink
	// LocalityProfiler samples the mutator access stream for reuse
	// distance, page entropy and segregation purity (see
	// internal/locality); prefetch friendliness is the cache model's
	// count (MemStats.PrefUseful).
	LocalityProfiler = locality.Profiler
	// LocalityConfig tunes the locality profiler.
	LocalityConfig = locality.Config
	// LocalityReport is a locality-profiler snapshot.
	LocalityReport = locality.Report
	// LocalityStats is one interval's derived locality measurements.
	LocalityStats = locality.Stats
	// FaultInjector is the seeded, deterministic fault-injection plane
	// (see internal/faultinject). Nil = disarmed, one branch per site.
	FaultInjector = faultinject.Injector
	// FaultConfig configures a FaultInjector.
	FaultConfig = faultinject.Config
	// HeapVerifier is the opt-in STW heap-invariant verifier
	// (see internal/heap). Nil = detached, one branch per phase boundary.
	HeapVerifier = heap.Verifier
	// HeapViolation is one invariant violation found by the verifier.
	HeapViolation = heap.Violation
	// OutOfMemoryError is the structured error returned (or carried by the
	// panic of the legacy Alloc wrappers) when the allocation-stall retry
	// budget is exhausted.
	OutOfMemoryError = core.OutOfMemoryError
	// LatencyTracker is the latency-attribution plane: HDR pause/phase/
	// stall distributions, MMU curves, barrier slow-path profiling, and the
	// cycle log every per-cycle reader reads — the GC log, the flight
	// recorder and /signals (Window), the hcsgc_signal_value gauges, and
	// the KV ledger's cycle link (Lookup) (see internal/telemetry/latency).
	// Every runtime has one (Runtime.Latency).
	LatencyTracker = latency.Tracker
	// LatencyConfig tunes the latency tracker.
	LatencyConfig = latency.Config
	// LatencyReport is a latency-tracker snapshot.
	LatencyReport = latency.Report
	// LatencyDist is one HDR distribution summary inside a LatencyReport.
	LatencyDist = latency.Dist
	// LatencyWindow is the /signals endpoint payload: the flight window of
	// the cycle log (LatencyTracker.Window).
	LatencyWindow = latency.Window
	// ContentionPlane is the contention & scalability attribution plane:
	// per-site lock acquisition/contended counts and wait histograms, and
	// CAS retry profiling (see internal/contention). Every runtime has one
	// (Runtime.Contention).
	// Its ranked snapshot says where threads wait; read wait-for-GC
	// convoys (core.cycleMu) apart from contended locks before acting on it.
	ContentionPlane = contention.Plane
)

// Sentinel errors for errors.Is against allocation failures.
var (
	// ErrOutOfMemory is in the chain of every exhausted allocation.
	ErrOutOfMemory = core.ErrOutOfMemory
	// ErrDeadlineExceeded is in the chain of every allocation aborted by
	// a per-request budget (Mutator.SetAllocBudget).
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
)

// NewFaultInjector builds an armed injector from a fault configuration.
// Pass it via Options.FaultInjector.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return faultinject.New(cfg) }

// RandomFaultConfig derives a bounded randomized fault configuration from a
// seed — the chaos soak's per-run schedule. The same seed always yields the
// same configuration and the same injection decisions.
func RandomFaultConfig(seed int64) FaultConfig { return faultinject.Randomized(seed) }

// NewHeapVerifier builds a heap verifier. Pass it via Options.Verifier;
// when Options.Telemetry is also set, its counters are bound into the
// sink's registry as hcsgc_verify_*.
func NewHeapVerifier() *HeapVerifier { return heap.NewVerifier() }

// NewTelemetrySink builds an enabled telemetry sink. Pass it via
// Options.Telemetry and serve it with Sink.Serve. Several runtimes may share
// one sink, one after another: every series, endpoint and the GC log then
// report the runtime attached last (a series reports what its currently
// attached source holds), so one scrape has one time base; accumulators
// that are themselves shared across runs (RunConfig.KV, the KV serving
// ledger; a shared ContentionPlane) accumulate because they do.
func NewTelemetrySink() *TelemetrySink { return telemetry.NewSink() }

// NewLocalityProfiler builds an enabled locality profiler. Pass it via
// Options.Locality; when Options.Telemetry is also set the runtime binds
// the profiler's metrics into the sink's registry and serves its report
// on the sink's /locality endpoint.
func NewLocalityProfiler(cfg LocalityConfig) *LocalityProfiler { return locality.New(cfg) }

// NewLatencyTracker builds a latency tracker with a non-default
// configuration. Pass it via Options.Latency; a runtime handed none builds
// a default tracker itself.
func NewLatencyTracker(cfg LatencyConfig) *LatencyTracker { return latency.New(cfg) }

// SignalsConfig is a compatibility view for the benchmark harness, which
// still reads the cycle log the way the deleted signal plane served it:
// Snapshot returns the newest History records. Pass it via
// Options.Signals; NewRuntime binds it to the runtime's tracker. Every
// other reader uses LatencyTracker.Window. The benchmark change ROADMAP
// item 7 lists deletes it.
type SignalsConfig struct {
	// History is how many of the cycle log's newest records Snapshot
	// returns.
	History int
	lat     *latency.Tracker
}

// SignalPlane is the name the benchmark harness builds SignalsConfig by.
type SignalPlane = SignalsConfig

// NewSignalPlane returns cfg for Options.Signals.
func NewSignalPlane(cfg SignalsConfig) *SignalPlane { return &cfg }

// Snapshot returns the newest History records of the bound runtime's cycle
// log, oldest first, in the /signals payload's shape.
func (p *SignalPlane) Snapshot() LatencyWindow {
	log := p.lat.Log()
	w := LatencyWindow{Cycles: uint64(len(log)), History: p.History, Records: log[max(0, len(log)-p.History):]}
	if len(log) > 0 {
		w.Latest = log[len(log)-1]
	}
	return w
}

// NewContentionPlane builds a contention plane. Pass it via
// Options.Contention to share one plane across runtimes, or to read it after
// Close; a runtime handed none builds its own or reuses the last one a
// closed runtime built (see Runtime.Close).
func NewContentionPlane() *ContentionPlane { return contention.New() }

// NullRef is the null reference.
const NullRef = heap.NullRef

// Options configures a Runtime. The zero value is a usable 256 MB heap
// with original-ZGC behaviour on the laptop machine model (machine.Laptop).
// A cycle starts when a mutator takes a page at TriggerPercent occupancy,
// when an allocation stalls on a full heap, and on request (Runtime.GC,
// Mutator.RequestGC).
type Options struct {
	// HeapMaxBytes is the committed-heap limit (like -Xmx). 0 = 256 MB.
	HeapMaxBytes uint64
	// Knobs are the HCSGC tuning knobs; the zero value is original ZGC.
	Knobs Knobs
	// GCWorkers is the concurrent GC thread count. 0 = 2.
	GCWorkers int
	// TriggerPercent is the occupancy at which a page take starts a cycle.
	// 0 = 70; 101 leaves collection to allocation stalls and requests.
	TriggerPercent float64
	// EvacThreshold is the evacuation live-ratio threshold. 0 = 0.75
	// (the paper's 75%).
	EvacThreshold float64
	// Machine is the execution-time model. Zero value = machine.Laptop().
	Machine Machine
	// MemConfig overrides the cache hierarchy; nil = the paper's laptop
	// (32KB L1 / 256KB L2 / 4MB LLC, stream prefetcher).
	MemConfig *simmem.HierarchyConfig
	// DisableMemModel turns off cache simulation entirely (unit tests,
	// functional runs).
	DisableMemModel bool
	// Telemetry attaches a live observability sink (nil = disabled; the
	// disabled instrumentation costs one predictable branch per site).
	Telemetry *TelemetrySink
	// Locality attaches a sampling locality profiler (nil = disabled;
	// each mutator access site then costs one predictable branch).
	Locality *LocalityProfiler
	// Latency overrides the latency tracker (HDR pause/phase/stall
	// distributions, MMU, barrier profile, flight recorder). Nil = the
	// runtime builds one with default configuration.
	Latency *LatencyTracker
	// Signals, when set, is bound to the runtime's latency tracker (see
	// SignalsConfig).
	Signals *SignalPlane
	// Contention overrides the contention attribution plane. Nil = the
	// runtime builds one, or reuses one a closed runtime built (Close).
	Contention *ContentionPlane
	// FaultInjector arms the fault-injection plane (nil = disarmed; each
	// injection point then costs one predictable branch).
	FaultInjector *FaultInjector
	// Verifier attaches the STW heap verifier, run at the end of every
	// pause (nil = detached).
	Verifier *HeapVerifier
	// StallRetries bounds the allocation-stall loop: after this many
	// stall-and-collect attempts the allocator returns ErrOutOfMemory.
	// 0 = 16. Only tests set it: it is how they reach exhaustion in one
	// stall instead of sixteen.
	StallRetries int
	// STWWatchdog is the wall-clock deadline for mutators to reach a
	// stop-the-world safepoint before the collector emits a diagnostic
	// flight-recorder dump naming the stragglers. 0 = 30s; negative
	// disables the watchdog. Only tests set it: nobody waits 30 s for a
	// watchdog test.
	STWWatchdog time.Duration
}

// Runtime bundles the full system.
type Runtime struct {
	Heap      *heap.Heap
	Collector *core.Collector
	Mem       *simmem.Hierarchy // nil when DisableMemModel
	Types     *objmodel.Registry
	Machine   Machine
	// Latency and Contention are the runtime's always-on planes: the ones
	// Options named, or defaults. Never nil.
	Latency    *LatencyTracker
	Contention *ContentionPlane

	mu        sync.Mutex // guards mutators, nothing else
	mutators  []*Mutator
	closeOnce sync.Once
	// recyclePlane: Contention was built by NewRuntime and never bound to
	// a registry, so Close may hand it to the next runtime (sparePlane).
	recyclePlane bool
}

// sparePlane holds the contention plane of the last runtime Close released
// that had built its own, for the next NewRuntime that builds one: reset,
// its sites keep the memory of their wait histograms.
var sparePlane struct {
	mu sync.Mutex
	p  *contention.Plane
}

// newPlane returns the spare plane, reset, or a new one.
func newPlane() *contention.Plane {
	sparePlane.mu.Lock()
	p := sparePlane.p
	sparePlane.p = nil
	sparePlane.mu.Unlock()
	if p == nil {
		return contention.New()
	}
	p.Reset()
	return p
}

// NewRuntime builds a runtime from options.
func NewRuntime(opts Options) (*Runtime, error) {
	// The heap and the memory model take their contention sites at
	// construction, so this plane is built here; the collector builds the
	// other two (core.Config) and they are read back from it below.
	ctn := opts.Contention
	if ctn == nil {
		ctn = newPlane()
	}
	var mem *simmem.Hierarchy
	if !opts.DisableMemModel {
		cfg := simmem.DefaultConfig()
		if opts.MemConfig != nil {
			cfg = *opts.MemConfig
		}
		var err error
		mem, err = simmem.NewHierarchy(cfg)
		if err != nil {
			return nil, err
		}
		mem.SetContention(ctn)
	}
	h := heap.New(heap.Config{
		MaxBytes:   opts.HeapMaxBytes,
		Injector:   opts.FaultInjector,
		Contention: ctn,
	}, mem)
	h.SetRecorder(opts.Telemetry.Recorder())
	if opts.Verifier != nil {
		if opts.Telemetry != nil {
			opts.Verifier.BindTelemetry(opts.Telemetry.Metrics())
		}
		h.SetVerifier(opts.Verifier)
	}
	types := objmodel.NewRegistry()
	col, err := core.New(h, types, core.Config{
		Knobs:          opts.Knobs,
		GCWorkers:      opts.GCWorkers,
		TriggerPercent: opts.TriggerPercent,
		EvacThreshold:  opts.EvacThreshold,
		Telemetry:      opts.Telemetry,
		Locality:       opts.Locality,
		Latency:        opts.Latency,
		Contention:     ctn,
		FaultInjector:  opts.FaultInjector,
		StallRetries:   opts.StallRetries,
		STWWatchdog:    opts.STWWatchdog,
	})
	if err != nil {
		return nil, err
	}
	lat := col.Config().Latency
	if opts.Signals != nil {
		opts.Signals.lat = lat
	}
	if sink := opts.Telemetry; sink != nil {
		reg, rec := sink.Metrics(), sink.Recorder()
		sink.SetGCLog(col.WriteGCLog)
		if prof := opts.Locality; prof != nil {
			prof.BindTelemetry(reg)
			sink.SetEndpoint("locality", func() any { return prof.Report() })
		}
		lat.BindTelemetry(reg, rec)
		sink.SetEndpoint("mmu", func() any { return lat.MMUSnapshot() })
		sink.SetFlightRecorder(func(w io.Writer) error {
			return lat.WriteFlight(w, "on-demand")
		}, lat.Rearm)
		sink.SetEndpoint("signals", func() any { return lat.Window() })
		ctn.BindTelemetry(reg)
		sink.SetEndpoint("contention", func() any { return ctn.Snapshot() })
	}
	mach := opts.Machine
	if mach.Cores == 0 {
		mach = machine.Laptop()
	}
	rt := &Runtime{
		Heap:       h,
		Collector:  col,
		Mem:        mem,
		Types:      types,
		Machine:    mach,
		Latency:    lat,
		Contention: ctn,
		// A sink's registry serves a plane's cells, so a bound plane is
		// never reset, nor one the caller passed in.
		recyclePlane: opts.Contention == nil && opts.Telemetry == nil,
	}
	return rt, nil
}

// MustNewRuntime is NewRuntime but panics on error.
func MustNewRuntime(opts Options) *Runtime {
	rt, err := NewRuntime(opts)
	if err != nil {
		panic(err)
	}
	return rt
}

// NewMutator attaches an application thread with the given root-slot
// count. The runtime remembers it for the final execution-time ledger.
func (rt *Runtime) NewMutator(rootSlots int) *Mutator {
	m := rt.Collector.NewMutator(rootSlots)
	rt.mu.Lock()
	rt.mutators = append(rt.mutators, m)
	rt.mu.Unlock()
	return m
}

// Close shuts the runtime down and must come last: after the mutators'
// Close and after the final read of anything in the heap. It waits for
// every goroutine the collector started — a cycle the occupancy trigger
// started, and a relocation drain still running from the last cycle — so that
// the statistics (Collector.Stats, Ledger, ExecSeconds, MemStats) read
// afterwards are exact and final. If every mutator has been closed it then
// releases the host memory of the heap and of the memory model's caches for
// the next runtime in this process to reuse: the heap's words cannot be read
// nor its caches accessed any more, while the statistics and planes stay
// readable. A contention plane the runtime built itself (Options.Contention
// nil) and never served to a telemetry sink is released with them: it stays
// readable until the next NewRuntime, which takes it over reset. A caller
// that keeps reading a plane passes its own in Options.Contention. With a
// mutator still attached nothing is released (that memory falls to the Go
// collector with the runtime). The runtime must not be used after.
//
// Concurrent and repeated calls return when the first has finished. Close
// holds no lock while it waits on the collector: a cycle in progress waits
// in its stop-the-world for every attached mutator, and one of those may be
// about to take the runtime's lock in Ledger or NewMutator.
func (rt *Runtime) Close() {
	rt.closeOnce.Do(func() {
		if rt.Collector.Stop() {
			rt.Heap.Release()
			if rt.Mem != nil {
				rt.Mem.Release()
			}
			if rt.recyclePlane {
				sparePlane.mu.Lock()
				sparePlane.p = rt.Contention
				sparePlane.mu.Unlock()
			}
		}
	})
}

// Ledger assembles the machine-model input from every mutator ever
// attached plus the collector's concurrent and pause work. Safe from any
// goroutine: it reads what the owners have published (Mutator.Publish), not
// their private ledgers. That is exact for a closed mutator, for one parked
// or blocked, and for GC workers between phases, so a ledger taken after
// the run is exact; a mutator still running is seen as of its last publish
// (at most ~4k cycles plus one safepoint-poll interval ago). A
// goroutine that reads the ledger mid-run for its own mutator publishes it
// first.
func (rt *Runtime) Ledger() machine.Ledger {
	rt.mu.Lock()
	muts := make([]*Mutator, len(rt.mutators))
	copy(muts, rt.mutators)
	rt.mu.Unlock()
	l := machine.Ledger{}
	for _, m := range muts {
		l.MutatorCycles = append(l.MutatorCycles, m.PublishedCycles())
	}
	l.GCCycles = rt.Collector.GCWorkerCycles()
	l.PauseCycles = rt.Collector.PauseCycles()
	return l
}

// ExecSeconds returns the simulated wall-clock execution time so far, from
// the published ledgers (see Ledger).
func (rt *Runtime) ExecSeconds() float64 {
	return rt.Machine.ExecSeconds(rt.Ledger())
}

// MemStats snapshots the process-wide cache counters (perf analogue), as
// published by their owners (see Ledger). Returns the zero value when the
// memory model is disabled.
func (rt *Runtime) MemStats() MemStats {
	if rt.Mem == nil {
		return MemStats{}
	}
	return rt.Mem.Stats()
}

// GC runs one synchronous collection cycle (no mutator may be running on
// the calling goroutine; use Mutator.RequestGC from mutator context).
func (rt *Runtime) GC() {
	rt.Collector.Collect("explicit")
}
