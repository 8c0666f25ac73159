package core

import (
	"fmt"
	"strings"
	"time"

	"hcsgc/internal/heap"
	"hcsgc/internal/telemetry"
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

	hotmapDensity   *telemetry.Gauge
	ecPages         [2]*telemetry.Counter // small-ish, medium
	barrierSlow     *telemetry.Counter
	safepointWaitNS *telemetry.Histogram
}

// Trace tracks: the collector's cycle goroutine emits on track 1; GC
// workers emit their relocation-drain spans on 2+workerID.
const collectorTID = 1

// relocSampleMask downsamples EvRelocWin trace instants to 1 in
// (mask+1): per-object events at relocation rates would otherwise evict
// every phase span from the ring. Counters remain exact.
const relocSampleMask = 1023

// Safepoint-wait histogram buckets, in wall nanoseconds: 1µs .. ~2s.
var safepointWaitBuckets = telemetry.ExpBuckets(1e3, 8, 8)

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
	t.hotmapDensity = reg.Gauge("hcsgc_page_hotmap_density",
		"Hot bytes over live bytes across hot-trackable pages at mark end.")
	t.ecPages[0] = reg.Adopt("hcsgc_ec_pages_total",
		"Pages selected as evacuation candidates.", new(telemetry.Counter), "class", "small")
	t.ecPages[1] = reg.Adopt("hcsgc_ec_pages_total",
		"Pages selected as evacuation candidates.", new(telemetry.Counter), "class", "medium")
	t.barrierSlow = reg.Adopt("hcsgc_barrier_slow_total",
		"Load-barrier slow-path entries.", new(telemetry.Counter))
	t.safepointWaitNS = reg.Histogram("hcsgc_safepoint_wait_ns",
		"Wall-clock stop-the-world handshake latency in nanoseconds.",
		safepointWaitBuckets)
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
	c.tm.safepointWaitNS.Observe(float64(wait))
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

// recordMarkEnd measures the hotmap density over hot-trackable pages
// subject to this mark (the record's cold_frac is one minus it). Runs
// inside STW2, while the page set is frozen.
//
//hcsgc:stw-only
func (c *Collector) recordMarkEnd(cs *CycleStats) {
	startSeq := c.startSeq.Load()
	var hot, live uint64
	c.heap.LivePages(func(p *heap.Page) {
		if p.Seq > startSeq || !hotTrackable(p) {
			return
		}
		hot += p.HotBytes()
		live += p.LiveBytes()
	})
	density := 0.0
	if live > 0 {
		density = float64(hot) / float64(live)
		// Only a real measurement updates the record: with hotness off no
		// page is hot-trackable and the -1 sentinel must survive so the
		// cold_frac signal reads as unmeasured.
		cs.ColdFrac = 1 - density
	}
	c.tm.hotmapDensity.Set(density)
}

// recordSegregation computes the hot/cold segregation purity at mark end
// (inside STW2, while the page set is frozen and the hotmap is fresh) for
// the locality profiler and the per-cycle stats. Skipped — one predictable
// branch — when neither telemetry nor the locality profiler is attached.
//
//hcsgc:stw-only
func (c *Collector) recordSegregation(cs *CycleStats) {
	if !c.tm.enabled && c.cfg.Locality == nil {
		return
	}
	cs.SegregationPurity = c.heap.SegregationStats(c.startSeq.Load()).Purity()
}
