// Package core implements HCSGC: a ZGC-style non-generational, mostly
// concurrent, parallel, mark-compact, region-based collector (paper §2)
// extended with hotness tracking, weighted-live-bytes evacuation selection,
// lazy relocation and hot/cold segregation (paper §3).
//
// The collector manages the simulated heap from internal/heap. Mutators
// are registered handles whose every object access goes through the load
// barrier, feeding the simmem cache model, so the layout this collector
// produces directly determines the locality measurements reported by the
// benchmark harness.
package core

import (
	"fmt"
	"strings"
	"time"

	"hcsgc/internal/contention"
	"hcsgc/internal/faultinject"
	"hcsgc/internal/locality"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// Knobs are the five HCSGC tuning knobs of Table 2 plus the extension
// options the paper lists as future work. The zero value is the original
// ZGC behaviour (Config 0/1).
type Knobs struct {
	// Hotness records object hotness in the hotmap (paper §3.1.2). The
	// bookkeeping costs a CAS on the slow path (modelled via
	// costHotmapCAS).
	Hotness bool
	// ColdPage gives each GC worker a second thread-local relocation
	// target page for cold objects (paper §3.3). Requires Hotness.
	ColdPage bool
	// ColdConfidence in [0,1] weighs cold bytes when computing weighted
	// live bytes for EC selection (paper §3.1.3). 0 matches ZGC; 1 treats
	// cold objects as garbage for selection purposes. Requires Hotness to
	// have any effect.
	ColdConfidence float64
	// RelocateAllSmallPages puts every small page in EC (paper §3.1.1).
	RelocateAllSmallPages bool
	// LazyRelocate defers GC-thread relocation to the start of the next
	// cycle so mutators win relocation races (paper §3.2, Fig. 3).
	LazyRelocate bool

	// AutoTune enables the future-work feedback loop that backs
	// ColdConfidence off when relocation shows no miss-rate improvement
	// (paper §4.8 extension; off in all paper configurations).
	AutoTune bool
}

// Validate reports knob combinations the paper forbids.
func (k Knobs) Validate() error {
	if k.ColdPage && !k.Hotness {
		return fmt.Errorf("core: ColdPage requires Hotness (paper §3.3)")
	}
	if k.ColdConfidence != 0 && !k.Hotness {
		return fmt.Errorf("core: ColdConfidence requires Hotness (paper §4.1)")
	}
	if k.ColdConfidence < 0 || k.ColdConfidence > 1 {
		return fmt.Errorf("core: ColdConfidence %v outside [0,1]", k.ColdConfidence)
	}
	return nil
}

// String renders the knobs compactly, e.g. "H+CP cc=0.5 lazy".
func (k Knobs) String() string {
	s := ""
	if k.Hotness {
		s += "H"
	}
	if k.ColdPage {
		s += "+CP"
	}
	if k.ColdConfidence != 0 {
		s += fmt.Sprintf(" cc=%g", k.ColdConfidence)
	}
	if k.RelocateAllSmallPages {
		s += " all"
	}
	if k.LazyRelocate {
		s += " lazy"
	}
	if s == "" {
		return "zgc"
	}
	return strings.TrimPrefix(s, " ") // Hotness off: the first part is a spaced one
}

// The abstract cycle costs of collector operations that are not plain
// memory accesses (those come from the cache model). The values are small
// constants; their ratios, not absolute values, shape the results.
const (
	// costBarrierFast is charged on every reference load (the "no
	// additional work" fast path is one test+branch).
	costBarrierFast = 1
	// costBarrierSlow is the slow-path dispatch overhead, excluding the
	// memory traffic it causes (which the cache model charges).
	costBarrierSlow = 10
	// costHotmapCAS is the cost of recording hotness ("in its current
	// implementation involves a CAS operation", §4.1).
	costHotmapCAS = 6
	// costRelocSetup is the per-object overhead of relocating (forwarding
	// insert, accounting), excluding the copy's memory traffic.
	costRelocSetup = 20
	// costRootProcess is the per-root STW cost.
	costRootProcess = 10
	// costAlloc is the bump-allocation cost.
	costAlloc = 4
)

// Config configures a collector instance.
type Config struct {
	Knobs Knobs
	// GCWorkers is the number of concurrent GC threads (mark and
	// relocate). Zero means 2, matching the 2-core laptop setup.
	GCWorkers int
	// EvacThreshold is the live-ratio (or WLB-ratio) below which a page is
	// an evacuation candidate. The paper uses 75%.
	EvacThreshold float64
	// TriggerPercent is the heap occupancy that starts a GC cycle.
	TriggerPercent float64
	// Telemetry is the optional observability sink. Nil disables all
	// instrumentation (each site reduces to one predictable branch).
	Telemetry *telemetry.Sink
	// Locality is the optional sampling locality profiler. Nil disables
	// it (each mutator access site then costs one predictable branch);
	// when set, every mutator gets a probe and the collector snapshots
	// the profiler at each cycle boundary.
	Locality *locality.Profiler
	// Latency is the latency-attribution tracker (HDR pause and phase
	// distributions, MMU, barrier slow-path profile, flight recorder).
	// Nil means one with the default configuration: a collector always
	// has a tracker.
	Latency *latency.Tracker
	// Contention is the optional contention attribution plane: the
	// collector's locks, CAS loops and GC workers report to it, and at
	// every cycle boundary the collector folds its per-cycle delta into
	// the cycle record. Nil leaves the collector's sites unattributed
	// (one predictable branch per site); it has no default here because
	// the heap (heap.Config.Contention) and the hierarchy
	// (Hierarchy.SetContention) are built first and take the same plane —
	// hcsgc.NewRuntime always passes one.
	Contention *contention.Plane
	// FaultInjector arms the fault-injection plane at the collector's
	// injection points (relocation race, barrier slow path, safepoint
	// entry, page retire, occupancy trigger). Nil — the default — costs one
	// predictable branch per site. Pass the same injector to the heap via
	// heap.Config.Injector to arm its sites too.
	FaultInjector *faultinject.Injector

	// StallRetries bounds the allocation stalls (each triggering a GC
	// cycle) before an allocation gives up with ErrOutOfMemory. Zero means
	// 16. Only tests set it: it is how they reach exhaustion in one stall
	// instead of sixteen.
	StallRetries int
	// STWWatchdog is the wall-clock deadline for every mutator to reach
	// the safepoint once a stop-the-world begins; past it the collector
	// emits a flight-recorder dump naming the mutators still running.
	// Wall-clock deliberately: a mutator that never polls freezes the
	// virtual timeline, so a virtual-cycle deadline could never fire.
	// Zero means 30s; negative disables the watchdog. Only tests set it:
	// nobody waits 30 s for a watchdog test.
	STWWatchdog time.Duration
}

func (c Config) withDefaults() Config {
	if c.GCWorkers <= 0 {
		c.GCWorkers = 2
	}
	if c.EvacThreshold == 0 {
		c.EvacThreshold = 0.75
	}
	if c.TriggerPercent == 0 {
		c.TriggerPercent = 70
	}
	if c.StallRetries <= 0 {
		c.StallRetries = 16
	}
	if c.STWWatchdog == 0 {
		c.STWWatchdog = 30 * time.Second
	}
	if c.Latency == nil {
		c.Latency = latency.New(latency.Config{})
	}
	return c
}
