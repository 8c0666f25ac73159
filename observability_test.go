// End-to-end tests of the PR 7 observability surface against live
// runtimes: the /signals and /tailattr endpoint payload shapes, the
// flight-recorder re-arm path, and the STW progress watchdog naming the
// mutator that failed to reach the safepoint.
package hcsgc_test

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hcsgc"
	"hcsgc/internal/bench"
	"hcsgc/internal/kvstore"
	"hcsgc/internal/workloads"
)

func httpGet(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", path, resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	return string(body)
}

// TestSignalsEndpointShape: a runtime serves a well-formed /signals window
// of its latency tracker's cycle log covering every GC cycle, and the
// hcsgc_signal_value family lands in /metrics.
func TestSignalsEndpointShape(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	runTelemetryWorkload(t, sink)

	srv, err := sink.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var snap hcsgc.LatencyWindow
	if err := json.Unmarshal([]byte(httpGet(t, srv.Addr(), "/signals")), &snap); err != nil {
		t.Fatalf("/signals does not parse: %v", err)
	}
	if snap.Cycles != 2 || len(snap.Records) != 2 {
		t.Fatalf("/signals cycles=%d records=%d, want 2/2", snap.Cycles, len(snap.Records))
	}
	if snap.Latest == nil || snap.Latest.Seq != 2 {
		t.Fatalf("/signals latest = %+v, want seq 2", snap.Latest)
	}
	for i, rec := range snap.Records {
		if rec.Seq != uint64(i+1) {
			t.Errorf("record %d seq = %d, want %d (oldest first)", i, rec.Seq, i+1)
		}
		if rec.VEnd <= rec.VStart {
			t.Errorf("cycle %d: VStart %d VEnd %d not ordered", rec.Seq, rec.VStart, rec.VEnd)
		}
		if rec.MarkedBytes == 0 {
			t.Errorf("cycle %d: marked bytes 0 on a live heap", rec.Seq)
		}
	}

	metrics := httpGet(t, srv.Addr(), "/metrics")
	for _, want := range []string{
		`hcsgc_signal_value{signal="utilization"}`,
		`hcsgc_signal_value{signal="heap_used_pct"}`,
		`hcsgc_signal_value{signal="max_pause_cycles"}`,
		`hcsgc_signal_value{signal="cold_frac"}`,
		`hcsgc_signal_value{signal="worker_imbalance"}`,
		"hcsgc_gc_cycles_total 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Without a serving workload the tail endpoint reports null.
	if got := strings.TrimSpace(httpGet(t, srv.Addr(), "/tailattr")); got != "null" {
		t.Errorf("/tailattr without an attributor = %q, want null", got)
	}
}

// TestOneCycleLog: every reader sees the one log. A GC cycle's record is
// stored once, in the latency tracker's cycle log; the /signals window,
// its latest record, the flight recorder and Lookup are that same record,
// and the GC log reads it. The collector has set its end-of-cycle
// fields (closing clock, allocation and relocation deltas, the locality,
// worker and contention sections) before anyone reads it.
func TestOneCycleLog(t *testing.T) {
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes: 64 << 20,
		Knobs:        hcsgc.Knobs{Hotness: true, RelocateAllSmallPages: true, LazyRelocate: true},
		Locality:     hcsgc.NewLocalityProfiler(hcsgc.LocalityConfig{}),
	})
	defer rt.Close()
	obj := rt.Types.Register("onerecord.obj", 3, nil)
	m := rt.NewMutator(1)
	defer m.Close()

	const n, cycles = 6000, 3
	m.SetRoot(0, m.AllocRefArray(n))
	for cyc := 0; cyc < cycles; cyc++ {
		// Replace a third of the objects and touch another third, so every
		// cycle has allocation behind it and hot and cold data to mark.
		for i := cyc % 3; i < n; i += 3 {
			m.StoreRef(m.LoadRoot(0), i, m.Alloc(obj))
			m.LoadRef(m.LoadRoot(0), (i+1)%n)
		}
		m.RequestGC()
	}

	log := rt.Latency.Log()
	gclog := rt.Collector.Stats().Cycles
	flight := rt.Latency.Report().Flight
	snap := rt.Latency.Window()
	history := snap.Records
	if len(log) != cycles || len(gclog) != cycles || len(flight) != cycles || len(history) != cycles {
		t.Fatalf("cycles: log %d, GC log %d, flight recorder %d, signal window %d, want %d each",
			len(log), len(gclog), len(flight), len(history), cycles)
	}
	if snap.Latest != log[cycles-1] {
		t.Errorf("the latest /signals record is not the logged record of cycle %d", cycles)
	}
	for i, rec := range log {
		if history[i] != rec {
			t.Errorf("cycle %d: the signal window holds a record other than the logged one", rec.Seq)
		}
		if h := history[i]; !h.Locality.Present || !h.Workers.Present || !h.Contention.Present {
			t.Errorf("cycle %d: /signals sections present: locality %v, workers %v, contention %v",
				rec.Seq, h.Locality.Present, h.Workers.Present, h.Contention.Present)
		}
		if f := flight[i]; !f.Locality.Present || !f.Workers.Present || !f.Contention.Present {
			t.Errorf("cycle %d: flight record sections present: locality %v, workers %v, contention %v",
				rec.Seq, f.Locality.Present, f.Workers.Present, f.Contention.Present)
		}
		if got := rt.Latency.Lookup(rec.Seq); got != rec {
			t.Errorf("cycle %d: Lookup is not the logged record (found %v)", rec.Seq, got != nil)
		}
		if !reflect.DeepEqual(*rec, gclog[i]) {
			t.Errorf("cycle %d: the GC log differs from the cycle log:\n%+v\n%+v", rec.Seq, gclog[i], *rec)
		}
		if flight[i] != rec {
			t.Errorf("cycle %d: the flight recorder holds a record other than the logged one", rec.Seq)
		}
		if rec.VEnd <= rec.VStart || rec.MarkedBytes == 0 {
			t.Errorf("cycle %d: VStart %d, VEnd %d, marked %d bytes", rec.Seq, rec.VStart, rec.VEnd, rec.MarkedBytes)
		}
		if i > 0 && rec.AllocBytes == 0 {
			t.Errorf("cycle %d: no allocation recorded since the previous cycle", rec.Seq)
		}
	}
}

// TestCycleLogWindows: the flight recorder and the /signals window reach
// a window smaller than the run, while the GC log and Lookup reach every
// cycle. Options.Signals reaches its own History.
func TestCycleLogWindows(t *testing.T) {
	sig := hcsgc.NewSignalPlane(hcsgc.SignalsConfig{History: 3})
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes:    16 << 20,
		DisableMemModel: true,
		Latency:         hcsgc.NewLatencyTracker(hcsgc.LatencyConfig{FlightRecords: 2}),
		Signals:         sig,
	})
	defer rt.Close()
	m := rt.NewMutator(1)
	defer m.Close()
	m.SetRoot(0, m.AllocRefArray(1000))
	const cycles = 4
	for i := 0; i < cycles; i++ {
		m.RequestGC()
	}

	if log := rt.Collector.Stats().Cycles; len(log) != cycles {
		t.Errorf("GC log holds %d cycles, want %d", len(log), cycles)
	}
	rep := rt.Latency.Report()
	if rep.Cycles != cycles || len(rep.Flight) != 2 || rep.Flight[0].Seq != 3 || rep.Flight[1].Seq != 4 {
		t.Errorf("flight recorder: %d cycles, %d retained, want %d and the last 2", rep.Cycles, len(rep.Flight), cycles)
	}
	snap := rt.Latency.Window()
	if snap.Cycles != cycles || len(snap.Records) != 2 || snap.Records[0].Seq != 3 || snap.Records[1].Seq != 4 {
		t.Errorf("/signals window: %d cycles, %d retained, want %d and the last 2", snap.Cycles, len(snap.Records), cycles)
	}
	if snap.Latest == nil || snap.Latest.Seq != cycles {
		t.Errorf("Latest = %+v, want cycle %d", snap.Latest, cycles)
	}
	if rt.Latency.Lookup(3) == nil || rt.Latency.Lookup(4) == nil {
		t.Error("Lookup missed a cycle inside the window")
	}
	if rec := rt.Latency.Lookup(2); rec == nil || rec != rt.Latency.Log()[1] {
		t.Error("Lookup(2) is not the logged record of a cycle outside the window")
	}
	if old := sig.Snapshot(); len(old.Records) != 3 || old.Records[0].Seq != 2 || old.Latest.Seq != cycles {
		t.Errorf("Options.Signals: %d records, want the last 3", len(old.Records))
	}
}

// TestRuntimesSeeOnlyTheirOwnCycles: two runtimes live in one process,
// with different cycle counts, each serve only their own cycle log — through
// the tracker's window, their /signals endpoint, and a KV classifier linking
// exemplars against their tracker, also once both ledgers fold into one.
func TestRuntimesSeeOnlyTheirOwnCycles(t *testing.T) {
	type side struct {
		rt     *hcsgc.Runtime
		addr   string
		cycles int
	}
	var sides []side
	for _, cycles := range []int{2, 3} {
		sink := hcsgc.NewTelemetrySink()
		rt := hcsgc.MustNewRuntime(hcsgc.Options{HeapMaxBytes: 16 << 20, DisableMemModel: true, Telemetry: sink})
		defer rt.Close()
		m := rt.NewMutator(1)
		defer m.Close()
		m.SetRoot(0, m.AllocRefArray(1000))
		for i := 0; i < cycles; i++ {
			m.RequestGC()
		}
		srv, err := sink.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		sides = append(sides, side{rt, srv.Addr(), cycles})
	}

	run := kvstore.NewMetrics()
	for _, s := range sides {
		log := s.rt.Latency.Log()
		if len(log) != s.cycles {
			t.Fatalf("runtime with %d cycles logged %d", s.cycles, len(log))
		}
		w := s.rt.Latency.Window()
		if w.Cycles != uint64(s.cycles) || len(w.Records) != s.cycles || w.Latest != log[s.cycles-1] {
			t.Errorf("runtime with %d cycles: window of %d cycles, %d records", s.cycles, w.Cycles, len(w.Records))
		}
		for i, rec := range w.Records {
			if rec != log[i] {
				t.Errorf("runtime with %d cycles: window record %d is not its own", s.cycles, i)
			}
		}
		var served hcsgc.LatencyWindow
		if err := json.Unmarshal([]byte(httpGet(t, s.addr, "/signals")), &served); err != nil {
			t.Fatal(err)
		}
		if served.Cycles != uint64(s.cycles) || len(served.Records) != s.cycles ||
			!reflect.DeepEqual(served.Records[s.cycles-1], log[s.cycles-1]) {
			t.Errorf("runtime with %d cycles: /signals serves %d cycles, %d records", s.cycles, served.Cycles, len(served.Records))
		}

		// A pause of each runtime's last cycle, classified on its tracker.
		mx := kvstore.NewMetrics()
		o := kvstore.Obs{EndV: kvstore.SLOCycles + 1, PauseV: 1, CycleAfter: uint64(s.cycles), CycleStarted: uint64(s.cycles)}
		mx.Classifier(s.rt.Latency).Observe(o)
		tail := mx.Tail()
		if len(tail.Cycles) != 1 || tail.Cycles[0] != log[s.cycles-1] {
			t.Errorf("runtime with %d cycles: the classifier linked %v, want its own last record", s.cycles, tail.Cycles)
		}
		mx.FoldInto(run)
	}
	tail := run.Tail()
	if len(tail.Cycles) != 2 {
		t.Fatalf("merged ledger links %d records, want one per runtime", len(tail.Cycles))
	}
	for _, ex := range tail.TopK {
		// Each exemplar blames its runtime's last cycle: 2 on the first, 3
		// on the second.
		if want := sides[ex.Cycle-2].rt.Latency.Log()[ex.Cycle-1]; ex.Record != want {
			t.Errorf("merged exemplar blaming cycle %d links another runtime's record", ex.Cycle)
		}
	}
}

// TestTailAttrEndpointShape: the KV workload serves a well-formed
// /tailattr report from its ledger, whose violations carry causes and whose
// exemplars link the cycles they blame. Scale 1 is the smallest where
// serving violates the SLO.
func TestTailAttrEndpointShape(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	w, err := workloads.Get("kv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(workloads.RunConfig{
		Knobs:     bench.KnobsFor(4),
		Seed:      1,
		Scale:     1,
		Telemetry: sink,
	}); err != nil {
		t.Fatal(err)
	}

	srv, err := sink.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var rep kvstore.TailReport
	if err := json.Unmarshal([]byte(httpGet(t, srv.Addr(), "/tailattr")), &rep); err != nil {
		t.Fatalf("/tailattr does not parse: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("/tailattr report invalid: %v", err)
	}
	if rep.Requests == 0 || rep.Violations == 0 {
		t.Fatalf("requests=%d violations=%d, want both > 0", rep.Requests, rep.Violations)
	}
	if len(rep.TopK) == 0 || len(rep.Cycles) == 0 {
		t.Fatalf("%d exemplars linking %d cycles, want both > 0", len(rep.TopK), len(rep.Cycles))
	}
	if got := scrapeSum(t, sink, "hcsgc_kv_requests_total"); got != rep.Requests {
		t.Errorf("/tailattr counts %d requests, hcsgc_kv_requests_total %d", rep.Requests, got)
	}

	metrics := httpGet(t, srv.Addr(), "/metrics")
	for _, want := range []string{
		"hcsgc_tail_attributed_total",
		`hcsgc_tail_violations_total{cause="service"}`,
		`hcsgc_tail_cause_cycles{cause="alloc-stall",quantile="0.99"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestFlightRecorderRearm: after the 8-dump cap exhausts, the
// /flightrecorder?rearm=1 endpoint restores the budget and the
// dumps-remaining gauge tracks both directions.
func TestFlightRecorderRearm(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	tracker := hcsgc.NewLatencyTracker(hcsgc.LatencyConfig{DumpTo: io.Discard})
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes:    8 << 20,
		DisableMemModel: true,
		Telemetry:       sink,
		Latency:         tracker,
	})
	defer rt.Close()

	gauge := sink.Metrics().Gauge("hcsgc_flight_dumps_remaining", "")
	if v := gauge.Value(); v != 8 {
		t.Fatalf("initial dumps-remaining gauge = %v, want 8", v)
	}
	for i := 0; i < 12; i++ { // past the cap: the excess must be dropped
		tracker.AutoDump("test exhaustion")
	}
	if left := tracker.DumpsRemaining(); left != 0 {
		t.Fatalf("DumpsRemaining after exhaustion = %d, want 0", left)
	}
	if v := gauge.Value(); v != 0 {
		t.Fatalf("dumps-remaining gauge after exhaustion = %v, want 0", v)
	}

	srv, err := sink.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	httpGet(t, srv.Addr(), "/flightrecorder?rearm=1")

	if left := tracker.DumpsRemaining(); left != 8 {
		t.Fatalf("DumpsRemaining after rearm = %d, want 8", left)
	}
	if v := gauge.Value(); v != 8 {
		t.Fatalf("dumps-remaining gauge after rearm = %v, want 8", v)
	}
	// The re-armed budget accepts dumps again.
	tracker.AutoDump("post-rearm")
	if left := tracker.DumpsRemaining(); left != 7 {
		t.Fatalf("DumpsRemaining after post-rearm dump = %d, want 7", left)
	}
}

// lockedBuf is a goroutine-safe dump sink: the watchdog writes from its
// timer goroutine while the test polls.
type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// slowBuf is a dump sink whose every write takes a while, as a loaded host
// or a slow disk would make it.
type slowBuf struct{ lockedBuf }

func (s *slowBuf) Write(p []byte) (int, error) {
	time.Sleep(50 * time.Millisecond)
	return s.lockedBuf.Write(p)
}

// startStuckCycle forces the fault the STW watchdog exists for: it starts
// a GC cycle on a runtime with an attached mutator ("sleepy-mutator") that
// neither polls safepoints nor declares itself blocked, freezing every
// stop-the-world. The injected fault is the stuck mutator itself (the
// fault injector's Delay yields virtual time, which a non-polling mutator
// never consumes, so it cannot force this condition). Flight dumps go to
// dumpTo. The cleanup unsticks the world before it closes the runtime,
// whether or not the test failed: Close waits for the cycle, and the cycle
// waits for the sleeper.
func startStuckCycle(t *testing.T, dumpTo io.Writer) *hcsgc.Runtime {
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes:    8 << 20,
		DisableMemModel: true,
		Latency:         hcsgc.NewLatencyTracker(hcsgc.LatencyConfig{DumpTo: dumpTo}),
		STWWatchdog:     25 * time.Millisecond,
	})
	stuck := rt.NewMutator(0)
	stuck.SetName("sleepy-mutator")
	helper := rt.NewMutator(0)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		helper.Blocked(func() { <-release })
	}()
	done := make(chan struct{})
	go func() {
		rt.Collector.Collect("watchdog-test")
		close(done)
	}()
	t.Cleanup(func() {
		// The sleeper declares itself blocked, which counts as stopped for
		// this pause and every later one in the cycle.
		wg.Add(1)
		go func() {
			defer wg.Done()
			stuck.Blocked(func() { <-release })
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("cycle did not complete after the stuck mutator blocked")
			return // Close would wait for it forever
		}
		close(release)
		wg.Wait()
		stuck.Close()
		helper.Close()
		rt.Close()
	})
	return rt
}

// awaitWatchdog polls until the watchdog has counted a report.
func awaitWatchdog(t *testing.T, rt *hcsgc.Runtime) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for rt.Collector.WatchdogReports() == 0 {
		select {
		case <-deadline:
			t.Fatal("watchdog never fired while a mutator ignored the safepoint")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestSTWWatchdogNamesStuckMutator: the watchdog must fire on the wall
// clock — virtual time is frozen by exactly the fault being diagnosed —
// and the flight-recorder dump must name the stuck mutator.
func TestSTWWatchdogNamesStuckMutator(t *testing.T) {
	buf := &lockedBuf{}
	awaitWatchdog(t, startStuckCycle(t, buf))
	dump := buf.String()
	if !strings.Contains(dump, "stw watchdog") {
		t.Fatalf("dump missing watchdog reason:\n%s", dump)
	}
	if !strings.Contains(dump, "sleepy-mutator") {
		t.Fatalf("dump does not name the stuck mutator:\n%s", dump)
	}
}

// TestSTWWatchdogCountsAfterItsReport: WatchdogReports counts reports that
// exist. Whoever sees the count turn non-zero can already read the dump,
// however slowly it was written.
func TestSTWWatchdogCountsAfterItsReport(t *testing.T) {
	buf := &slowBuf{}
	awaitWatchdog(t, startStuckCycle(t, buf))
	if dump := buf.String(); !strings.Contains(dump, "stw watchdog") {
		t.Fatalf("watchdog counted a report that is not written yet; dump so far:\n%q", dump)
	}
}
