package core

import (
	"fmt"
	"strings"
	"time"

	"hcsgc/internal/heap"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// colTelemetry holds the collector's pre-resolved telemetry handles.
// When telemetry is disabled every handle is nil and `enabled` is false:
// each instrumentation site then costs one predictable branch (the nil
// check inside the telemetry method, or the `enabled` guard for sites
// that would otherwise do real work like walking pages).
//
// Only what the collector does not count for itself has a handle here.
// Cycles, allocation stalls and relocation wins are counted once, in
// Collector.cycles, Collector.stallCount and statsLog, and the registry
// serves those cells; pause-cost distributions (hcsgc_pause_cycles) live in
// the latency tracker as HDR-backed summaries.
type colTelemetry struct {
	enabled bool
	rec     *telemetry.Recorder

	ecPages         [2]*telemetry.Counter // small-ish, medium
	safepointWaitNS *latency.Hist
}

// Trace tracks: the collector's cycle goroutine emits on track 1; GC
// workers emit their relocation-drain spans on 2+workerID.
const collectorTID = 1

// relocSampleMask downsamples EvRelocWin trace instants to 1 in
// (mask+1): per-object events at relocation rates would otherwise evict
// every phase span from the ring. Counters remain exact.
const relocSampleMask = 1023

// newColTelemetry has the sink's registry serve all of c's metrics. Every
// series is registered eagerly so exporters expose the full schema (at
// zero) from the first scrape, and every counter is a cell of this
// collector — its own count, or one made here — so a collector attached to
// a sink another one used starts its series afresh.
func newColTelemetry(sink *telemetry.Sink, c *Collector) colTelemetry {
	if sink == nil {
		return colTelemetry{}
	}
	reg := sink.Metrics()
	t := colTelemetry{enabled: true, rec: sink.Recorder()}
	reg.Adopt("hcsgc_gc_cycles_total", "Completed GC cycles.", &c.cycles)
	for who, label := range [2]string{telemetry.RelocByGC: "gc", telemetry.RelocByMutator: "mutator"} {
		reg.Adopt("hcsgc_reloc_objects_total",
			"Objects relocated, by relocation-race winner.", &c.stats.relocObjects[who], "who", label)
		reg.Adopt("hcsgc_reloc_bytes_total",
			"Bytes relocated, by relocation-race winner.", &c.stats.relocBytes[who], "who", label)
	}
	reg.Adopt("hcsgc_alloc_stalls_total",
		"Allocation stalls waiting for a GC cycle.", &c.stallCount)
	t.ecPages[0] = reg.Adopt("hcsgc_ec_pages_total",
		"Pages selected as evacuation candidates.", new(telemetry.Counter), "class", "small")
	t.ecPages[1] = reg.Adopt("hcsgc_ec_pages_total",
		"Pages selected as evacuation candidates.", new(telemetry.Counter), "class", "medium")
	t.safepointWaitNS = latency.NewHist()
	reg.Summary("hcsgc_safepoint_wait_ns",
		"Wall-clock stop-the-world handshake latency in nanoseconds (HDR summary).",
		t.safepointWaitNS)
	return t
}

// stopTheWorldTimed runs the STW handshake, recording the wall-clock
// wait until quorum as a safepoint-wait sample attributed to pause. The
// STW progress watchdog is armed here: if the handshake overruns
// Config.STWWatchdog, a flight-recorder dump names the mutators not at
// the safepoint (the pause keeps waiting — the watchdog diagnoses the
// hang, it does not abort it). Wall-clock deliberately: the sample
// measures how long real mutator threads took to park, which is exactly
// the quantity virtual time abstracts away.
//
//hcsgc:wall-clock
func (c *Collector) stopTheWorldTimed(pause telemetry.SpanID) {
	onStall := c.stwWatchdogReport(pause)
	if !c.tm.enabled {
		c.sp.stopTheWorld(c.cfg.STWWatchdog, onStall)
		return
	}
	start := time.Now()
	c.sp.stopTheWorld(c.cfg.STWWatchdog, onStall)
	wait := uint64(time.Since(start).Nanoseconds())
	c.tm.rec.Record(telemetry.EvSafepointWait, 0, wait, uint64(pause))
	c.tm.safepointWaitNS.Record(wait)
}

// stwWatchdogReport builds the watchdog's overrun callback: it emits a
// flight-recorder dump naming the mutators still running, which turns
// the "attached mutator idles without Blocked() and deadlocks every STW"
// gotcha from a silent hang into a diagnosable report.
func (c *Collector) stwWatchdogReport(pause telemetry.SpanID) func(stuck []string, registered, stopped int) {
	if c.cfg.STWWatchdog <= 0 {
		return nil
	}
	return func(stuck []string, registered, stopped int) {
		c.lat.AutoDump(fmt.Sprintf(
			"stw watchdog: pause %s exceeded %v with %d/%d mutators stopped; not at safepoint: %s",
			pause, c.cfg.STWWatchdog, stopped, registered, strings.Join(stuck, ", ")))
		// Counted once the dump is written: whoever sees the count can
		// read the report.
		c.watchdogFired.Add(1)
	}
}

// WatchdogReports returns the number of STW watchdog overrun reports.
func (c *Collector) WatchdogReports() uint64 {
	return c.watchdogFired.Load()
}

// recordMarkEnd fills the record's mark-end measurements in one walk over
// the pages subject to this mark: the marked bytes, the hot/cold
// segregation purity and, with hotness on, cold_frac, one minus the hotmap
// density over hot-trackable pages. Runs inside STW2, while the page set
// is frozen and the livemaps and hotmaps are final.
//
//hcsgc:stw-only
func (c *Collector) recordMarkEnd(cs *CycleStats) {
	startSeq := c.startSeq.Load()
	var seg heap.SegregationStats
	c.heap.LivePages(func(p *heap.Page) {
		if p.Seq <= startSeq {
			cs.MarkedBytes += p.LiveBytes()
			seg.Add(p)
		}
	})
	cs.SegregationPurity = seg.Purity()
	// With hotness off no object is ever marked hot: the -1 sentinel
	// survives so the cold_frac signal reads as unmeasured.
	if c.cfg.Knobs.Hotness && seg.LiveBytes > 0 {
		cs.ColdFrac = 1 - float64(seg.HotBytes)/float64(seg.LiveBytes)
	}
}
