// Package latency is the HCSGC latency-attribution plane: mergeable HDR
// histograms over every STW pause, concurrent-phase duration and
// allocation stall; a minimum-mutator-utilization (MMU) tracker over the
// virtual timeline; per-path load-barrier slow-path profiling; and the
// cycle log, the one store of every GC cycle's record. Every reader of the
// log goes through the tracker: the flight recorder dumps its newest
// entries as structured JSON when something goes wrong (heap-verifier
// violation, ErrOutOfMemory) or on demand, /signals serves the same window
// (Window), the KV ledger links a cycle number to its record (Lookup), and
// every per-cycle gauge and Perfetto counter track is published from the
// logged record through one table (signals).
//
// All durations are simulated cycles — the same deterministic clock the
// rest of the runtime is judged on — so percentiles and MMU curves are
// comparable across runs and configurations, the way the paper's §4
// evaluation compares them.
//
// The tracker is part of a runtime, not an attachment: every collector has
// one (core.Config builds a default when handed none), so the clocks and
// record fields it completes mean the same thing in every run. What it
// costs is the planes' host share in benchmark/ (planes.host_share).
package latency

import (
	"io"
	"os"
	"sync"
	"sync/atomic"

	"hcsgc/internal/telemetry"
)

// BarrierPath classifies load-barrier slow-path work.
type BarrierPath uint8

// The barrier slow-path families. Mark/Relocate/Remap are the primary
// dispatch outcomes; HotmapRecord flags the hotness CAS that can ride
// along a mark-path entry.
const (
	// PathMark: mark-phase entry — mark and queue the object.
	PathMark BarrierPath = iota
	// PathRelocate: relocate-phase entry on an evacuation-candidate page —
	// the mutator races the GC to copy the object.
	PathRelocate
	// PathRemap: forwarding-table resolution (mark phase) or a
	// recolor-only relocate-phase entry on a non-candidate page.
	PathRemap
	// PathHotmapRecord: a successful hotness CAS (§3.1.2).
	PathHotmapRecord

	numPaths = 4
)

// String names the path for metrics labels and reports.
func (p BarrierPath) String() string {
	switch p {
	case PathMark:
		return "mark"
	case PathRelocate:
		return "relocate"
	case PathRemap:
		return "remap"
	case PathHotmapRecord:
		return "hotmap_record"
	default:
		return "unknown"
	}
}

// PhaseKind classifies concurrent-phase durations.
type PhaseKind uint8

// The concurrent phases of one cycle.
const (
	// PhaseMark is the concurrent mark (STW1 resume to STW2 stop).
	PhaseMark PhaseKind = iota
	// PhaseECSelect is the concurrent evacuation-candidate selection.
	PhaseECSelect
	// PhaseRelocDrain is one GC worker's relocation drain of the
	// evacuation set.
	PhaseRelocDrain

	numPhases = 3
)

// String names the phase for metrics labels and reports.
func (k PhaseKind) String() string {
	switch k {
	case PhaseMark:
		return "mark"
	case PhaseECSelect:
		return "ec_select"
	case PhaseRelocDrain:
		return "relocate"
	default:
		return "unknown"
	}
}

// pauseNames label the three STW pauses, indexed 0..2.
var pauseNames = [3]string{"stw1", "stw2", "stw3"}

// DefaultMMUWindows is the paper-style MMU window ladder in simulated
// cycles, ascending: 1/5/20/100 kcycles. One Perfetto counter track
// (latency_mmu_1k…100k) exists per rung, hence the array.
var DefaultMMUWindows = [4]uint64{1_000, 5_000, 20_000, 100_000}

const (
	// maxIntervals bounds the retained stop intervals; past it the oldest
	// half is dropped and the MMU domain advances.
	maxIntervals = 2048
	// autoDumpLimit caps automatic dumps per tracker (until Rearm) so a
	// violation storm cannot flood the output.
	autoDumpLimit = 8
	// sampleShift sets barrier-latency sampling to 1 in 2^6 slow-path
	// entries. Hit counters are always exact.
	sampleShift = 6
)

// Config tunes a Tracker. The zero value gets usable defaults.
type Config struct {
	// FlightRecords is the flight recorder's window: how many of the cycle
	// log's newest records a report or dump carries. The log itself keeps
	// every cycle. Default 64.
	FlightRecords int
	// DumpTo receives automatic dumps as single-line JSON. Default
	// os.Stderr.
	DumpTo io.Writer
}

func (c Config) withDefaults() Config {
	if c.FlightRecords <= 0 {
		c.FlightRecords = 64
	}
	if c.DumpTo == nil {
		c.DumpTo = os.Stderr
	}
	return c
}

// Tracker is the latency-attribution instance for one runtime. The
// collector feeds it pause/phase/stall intervals and barrier slow-path
// events; it maintains the HDR distributions, the MMU state and the cycle
// log, and publishes to telemetry at each cycle boundary.
type Tracker struct {
	cfg Config

	pause      [3]*Hist
	phase      [numPhases]*Hist
	stall      *Hist
	barrierLat [numPaths]*Hist

	// barrierHits count path outcomes and barrierEntries slow-path entries,
	// each entry once however many paths it took. They are exact, live, and
	// the cells behind hcsgc_barrier_path_total and hcsgc_barrier_slow_total
	// once BindTelemetry has had a registry adopt them.
	barrierHits    [numPaths]telemetry.Counter
	barrierEntries telemetry.Counter
	// curPhase accumulates this cycle's per-phase durations, swapped out
	// at each OnCycle into the flight record.
	curPhase [numPhases]atomic.Uint64

	mmu *mmuState

	mu sync.Mutex
	// barrierSynced and entriesSynced are the per-path and entry totals as
	// of the last OnCycle: the flight record carries the differences.
	barrierSynced [numPaths]uint64
	entriesSynced uint64
	// log is every completed cycle record, oldest first. It only grows, so
	// a reader may keep a slice of it taken under mu.
	log   []*CycleRecord
	dumps uint64 // automatic dumps since the last Rearm

	// Telemetry handles (nil until BindTelemetry; all nil-safe).
	gauges    [len(signals)]*telemetry.Gauge // indexed like signals
	dumpsLeft *telemetry.Gauge
	rec       *telemetry.Recorder
}

// New builds a tracker.
func New(cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	t := &Tracker{
		cfg:   cfg,
		stall: NewHist(),
		mmu:   newMMUState(DefaultMMUWindows[:], maxIntervals),
	}
	for i := range t.pause {
		t.pause[i] = NewHist()
	}
	for i := range t.phase {
		t.phase[i] = NewHist()
	}
	for i := range t.barrierLat {
		t.barrierLat[i] = NewHist()
	}
	return t
}

// RecordPause records STW pause i (0-based: stw1..stw3) costing `cost`
// cycles starting at virtual time startV. A pause stops every mutator
// (MMU weight 1).
func (t *Tracker) RecordPause(i int, startV, cost uint64) {
	if i < 0 || i >= len(t.pause) {
		return
	}
	t.pause[i].Record(cost)
	t.mmu.addStop(startV, startV+cost, 1)
}

// RecordPhase records one concurrent-phase execution over virtual
// [startV, endV]. Concurrent phases do not stop mutators, so they feed
// the duration distributions but not the MMU timeline.
//
// Zero-duration executions (endV == startV) are recorded: the virtual
// clock only advances through mutator cycles and pause cost, so a phase
// that ran between two clock readings with no interleaved mutator
// progress — routine in single-mutator synchronous tests — legitimately
// costs 0 virtual cycles, and its execution must still appear in the
// distribution's count. Only an inverted interval (endV < startV, a
// caller bug) is dropped.
func (t *Tracker) RecordPhase(k PhaseKind, startV, endV uint64) {
	if k >= numPhases || endV < startV {
		return
	}
	d := endV - startV
	t.phase[k].Record(d)
	t.curPhase[k].Add(d)
}

// RecordStall records one allocation stall over virtual [startV, endV]
// that stopped the weight-fraction of the mutators (1/numMutators).
func (t *Tracker) RecordStall(startV, endV uint64, weight float64) {
	if endV <= startV {
		return
	}
	t.stall.Record(endV - startV)
	t.mmu.addStop(startV, endV, weight)
}

// BarrierHit counts one slow-path event on path p. Exact (not sampled).
func (t *Tracker) BarrierHit(p BarrierPath) {
	if p >= numPaths {
		return
	}
	t.barrierHits[p].Inc()
}

// EnterBarrier counts one slow-path entry and reports whether it should
// measure its latency (1 in 2^sampleShift entries).
func (t *Tracker) EnterBarrier() bool {
	t.barrierEntries.Inc()
	return t.barrierEntries.Value()&(1<<sampleShift-1) == 0
}

// RecordBarrierLatency records a sampled slow-path latency on path p.
func (t *Tracker) RecordBarrierLatency(p BarrierPath, cycles uint64) {
	if p >= numPaths {
		return
	}
	t.barrierLat[p].Record(cycles)
}

// OnCycle is the cycle-boundary hook: the collector passes the cycle's
// record with every field it owns filled in; the tracker completes it in
// place (phase durations, barrier deltas, MMU, utilization and the stall
// distribution), appends it to the cycle log, and publishes the signals
// table's gauges and Perfetto counter-track samples from it. The log keeps
// rec itself: neither the caller nor the tracker writes it afterwards.
func (t *Tracker) OnCycle(rec *CycleRecord) {
	for k := 0; k < numPhases; k++ {
		d := t.curPhase[k].Swap(0)
		switch PhaseKind(k) {
		case PhaseMark:
			rec.MarkCycles = d
		case PhaseECSelect:
			rec.ECSelectCycles = d
		case PhaseRelocDrain:
			rec.RelocateCycles = d
		}
	}
	t.mmu.advance(rec.VEnd)
	rec.MMU, rec.Utilization = t.mmu.readCycle(rec.VStart, rec.VEnd)
	rec.StallDist = distOf(t.stall)

	t.mu.Lock()
	var deltas [numPaths]uint64
	for p := 0; p < numPaths; p++ {
		hits := t.barrierHits[p].Value()
		deltas[p] = hits - t.barrierSynced[p]
		t.barrierSynced[p] = hits
	}
	entries := t.barrierEntries.Value()
	rec.Barrier = BarrierProfile{
		Entries:      entries - t.entriesSynced,
		Mark:         deltas[PathMark],
		Relocate:     deltas[PathRelocate],
		Remap:        deltas[PathRemap],
		HotmapRecord: deltas[PathHotmapRecord],
	}
	t.entriesSynced = entries
	t.log = append(t.log, rec)
	gauges, recd := t.gauges, t.rec
	t.mu.Unlock()
	publishSignals(rec, &gauges, recd)
}

// BindTelemetry registers the hcsgc_pause/phase/stall/barrier metric
// families and the signals table's gauges on reg (summaries are backed live
// by the HDR histograms, counters by the tracker's own cells) and enables
// Perfetto counter-track emission through rec. A nil reg (no sink) binds
// nothing; binding another tracker re-points the series to it (latest
// runtime wins).
func (t *Tracker) BindTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	if reg == nil {
		return
	}
	for i, name := range pauseNames {
		reg.Summary("hcsgc_pause_cycles",
			"STW pause cost per cycle, in simulated cycles (HDR summary).",
			t.pause[i], "phase", name)
	}
	for k := 0; k < numPhases; k++ {
		reg.Summary("hcsgc_phase_cycles",
			"Concurrent GC phase duration, in simulated cycles (HDR summary).",
			t.phase[k], "phase", PhaseKind(k).String())
	}
	reg.Summary("hcsgc_stall_cycles",
		"Allocation-stall duration, in simulated cycles (HDR summary).",
		t.stall)
	for p := 0; p < numPaths; p++ {
		path := BarrierPath(p).String()
		reg.Summary("hcsgc_barrier_path_cycles",
			"Sampled load-barrier slow-path latency by path, in simulated cycles (HDR summary).",
			t.barrierLat[p], "path", path)
		reg.Adopt("hcsgc_barrier_path_total",
			"Load-barrier slow-path entries by path.", &t.barrierHits[p], "path", path)
	}
	reg.Adopt("hcsgc_barrier_slow_total", "Load-barrier slow-path entries.", &t.barrierEntries)
	dumpsLeft := reg.Gauge("hcsgc_flight_dumps_remaining",
		"Automatic flight-recorder dumps left before the cap (re-armable via /flightrecorder?rearm=1).")
	gauges := bindSignals(reg)

	t.mu.Lock()
	t.gauges = gauges
	t.dumpsLeft = dumpsLeft
	t.rec = rec
	left := uint64(autoDumpLimit)
	if t.dumps < left {
		left -= t.dumps
	} else {
		left = 0
	}
	t.mu.Unlock()
	dumpsLeft.Set(float64(left))
}

// Report snapshots the full latency-attribution state.
func (t *Tracker) Report() *Report {
	r := &Report{
		Pauses:  make(map[string]Dist, 3),
		Phases:  make(map[string]Dist, numPhases),
		Barrier: make(map[string]BarrierPathReport, numPaths),
		Stall:   distOf(t.stall),
		MMU:     t.mmu.snapshot(),
	}
	for i, name := range pauseNames {
		r.Pauses[name] = distOf(t.pause[i])
	}
	for k := 0; k < numPhases; k++ {
		r.Phases[PhaseKind(k).String()] = distOf(t.phase[k])
	}
	for p := 0; p < numPaths; p++ {
		r.Barrier[BarrierPath(p).String()] = BarrierPathReport{
			Hits:    t.barrierHits[p].Value(),
			Sampled: distOf(t.barrierLat[p]),
		}
	}
	t.mu.Lock()
	log := t.log
	r.FlightDumps = t.dumps
	t.mu.Unlock()
	r.Cycles = uint64(len(log))
	r.Flight = t.flight(log)
	return r
}

// Log returns every completed cycle record, oldest first (the GC log's
// source). The records are shared with every other reader: read them, never
// write them.
func (t *Tracker) Log() []*CycleRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.log[:len(t.log):len(t.log)]
}

// MMUSnapshot computes the current MMU report (the /mmu endpoint payload).
func (t *Tracker) MMUSnapshot() MMUReport {
	return t.mmu.snapshot()
}

// AutoDump writes one bounded single-line JSON flight dump to the
// configured DumpTo, capped at autoDumpLimit per tracker. The collector
// calls it on new verifier violations; the allocator on ErrOutOfMemory.
func (t *Tracker) AutoDump(reason string) {
	t.mu.Lock()
	if t.dumps >= autoDumpLimit {
		t.mu.Unlock()
		return
	}
	t.dumps++
	left := t.dumpsLeft
	remaining := autoDumpLimit - t.dumps
	t.mu.Unlock()
	left.Set(float64(remaining))
	writeDump(t.cfg.DumpTo, FlightDump{Reason: reason, Report: t.Report()}, false)
}

// Rearm resets the automatic-dump budget back to autoDumpLimit (served by
// /flightrecorder?rearm=1), so an operator who has collected the capped
// dumps can keep the recorder live without restarting.
func (t *Tracker) Rearm() {
	t.mu.Lock()
	t.dumps = 0
	left := t.dumpsLeft
	t.mu.Unlock()
	left.Set(autoDumpLimit)
}

// DumpsRemaining returns the automatic dumps left before the cap.
func (t *Tracker) DumpsRemaining() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dumps >= autoDumpLimit {
		return 0
	}
	return autoDumpLimit - t.dumps
}

// WriteFlight renders an on-demand flight dump to w as indented JSON (the
// /flightrecorder endpoint and the chaos soak's failure report).
func (t *Tracker) WriteFlight(w io.Writer, reason string) error {
	return writeDump(w, FlightDump{Reason: reason, Report: t.Report()}, true)
}

// Dumps returns the automatic-dump count.
func (t *Tracker) Dumps() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dumps
}

// Aggregate merges per-run trackers into one Report for A/B benching:
// distributions merge exactly (HDR slot addition) and barrier hits sum —
// into one fresh tracker, whose Report lays them out — and MMU takes the
// worst (minimum) value per window across runs. Flight records are not
// aggregated. Nil trackers are skipped.
func Aggregate(trackers []*Tracker) *Report {
	sum := New(Config{})
	worst := MMUReport{Utilization: 1}
	var cycles, dumps uint64
	for _, t := range trackers {
		if t == nil {
			continue
		}
		for i := range sum.pause {
			sum.pause[i].Merge(t.pause[i])
		}
		for k := range sum.phase {
			sum.phase[k].Merge(t.phase[k])
		}
		sum.stall.Merge(t.stall)
		for p := range sum.barrierLat {
			sum.barrierLat[p].Merge(t.barrierLat[p])
			sum.barrierHits[p].Add(t.barrierHits[p].Value())
		}
		// Every snapshot carries the same ladder, DefaultMMUWindows.
		snap := t.mmu.snapshot()
		if worst.Windows == nil {
			worst.Windows = snap.Windows
		}
		for i, pt := range snap.Windows {
			worst.Windows[i].MMU = min(worst.Windows[i].MMU, pt.MMU)
		}
		worst.Utilization = min(worst.Utilization, snap.Utilization)
		worst.SpanCycles = max(worst.SpanCycles, snap.SpanCycles)
		t.mu.Lock()
		cycles += uint64(len(t.log))
		dumps += t.dumps
		t.mu.Unlock()
	}
	r := sum.Report()
	r.MMU, r.Flight, r.Cycles, r.FlightDumps = worst, nil, cycles, dumps
	return r
}
