// Tests of the /metrics surface as a whole: its schema (this file's golden)
// and the time base its series share.
package hcsgc_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hcsgc"
	"hcsgc/internal/bench"
	"hcsgc/internal/kvstore"
	"hcsgc/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// metricsSchema reduces a Prometheus exposition to its schema: the # TYPE
// lines and every series' name and label set, values and help dropped.
func metricsSchema(exposition string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(exposition), "\n") {
		if strings.HasPrefix(line, "# HELP") {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// metricFamilyCount pins the number of /metrics families as optionCount pins
// the options: a family needs a reader — a report, a gate, a documented
// diagnosis recipe or a test other than the schema golden — and this number.
const metricFamilyCount = 36

// TestMetricsSchema pins the families, kinds and label sets /metrics serves
// once every plane is attached: adding, renaming or dropping a series is a
// visible edit of testdata/metrics_schema.golden (-update regenerates it).
// The run is single-threaded, stays under the occupancy trigger and has the
// memory model off, so the schema does not depend on scheduling.
func TestMetricsSchema(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	reg := sink.Metrics()
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes:    64 << 20,
		Knobs:           hcsgc.Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1, LazyRelocate: true},
		DisableMemModel: true,
		Telemetry:       sink,
		Locality:        hcsgc.NewLocalityProfiler(hcsgc.LocalityConfig{}),
		Verifier:        hcsgc.NewHeapVerifier(),
	})
	kvstore.NewMetrics().BindTelemetry(reg)
	hcsgc.NewTailAttributor(hcsgc.TailConfig{}).BindTelemetry(reg)

	obj := rt.Types.Register("schema.obj", 3, nil)
	m := rt.NewMutator(2)
	const n = 20000
	m.SetRoot(0, m.AllocRefArray(n))
	m.SetRoot(1, m.AllocRefArray(64<<10)) // a medium-page object
	for i := 0; i < n; i++ {
		m.StoreRef(m.LoadRoot(0), i, m.Alloc(obj))
	}
	for cyc := 0; cyc < 3; cyc++ {
		for i := 0; i < n; i += 3 {
			m.LoadRef(m.LoadRoot(0), i)
		}
		m.RequestGC()
	}
	m.Close()
	rt.Close()

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	got := metricsSchema(buf.String())
	const golden = "testdata/metrics_schema.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics schema differs from %s (run with -update if intended)\n--- got\n%s", golden, got)
	}
	if n := strings.Count(got, "# TYPE "); n != metricFamilyCount {
		t.Errorf("/metrics serves %d families, want %d: a new family needs a reader and a deliberate edit of metricFamilyCount; a removed one lowers it",
			n, metricFamilyCount)
	}
}

// scrapeSum scrapes the sink and sums the samples named exactly name, over
// every label set containing all of the given `k="v"` label pairs:
// scrapeSum(t, sink, "hcsgc_kv_requests_total") adds up the per-op series.
func scrapeSum(t *testing.T, sink *hcsgc.TelemetrySink, name string, labels ...string) uint64 {
	t.Helper()
	sum, err := scrapeSumErr(sink, name, labels...)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// scrapeSumErr is scrapeSum for goroutines other than the test's.
func scrapeSumErr(sink *hcsgc.TelemetrySink, name string, labels ...string) (uint64, error) {
	var buf bytes.Buffer
	sink.Metrics().WritePrometheus(&buf)
	var sum uint64
next:
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue next
			}
		}
		v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("%q: %v", line, err)
		}
		sum += uint64(v)
	}
	return sum, nil
}

// TestOneScrapeOneTimeBase: every series of one scrape covers the same
// stretch of time. Two runs share a sink; after the second, the counters
// must describe that run alone, as the summaries, gauges and JSON endpoints
// re-pointed at it already do (a series reports what its currently attached
// source holds).
func TestOneScrapeOneTimeBase(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	run := func(id string, seed int64, scale float64) (workloads.Result, *hcsgc.LatencyReport) {
		w, err := workloads.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		lat := hcsgc.NewLatencyTracker(hcsgc.LatencyConfig{})
		res, err := w.Run(workloads.RunConfig{
			Knobs: bench.KnobsFor(16), Seed: seed, Scale: scale, Telemetry: sink, Latency: lat,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, lat.Report()
	}

	run("fig4", 1, 0.04)
	res, lat := run("fig4", 2, 0.04)
	if res.GCCycleCount < 2 {
		t.Fatalf("fig4 ran %d GC cycles, the test needs >= 2", res.GCCycleCount)
	}
	want := uint64(res.GCCycleCount)
	for _, series := range []struct{ name, label string }{
		{"hcsgc_gc_cycles_total", ""},
		{"hcsgc_pause_cycles_count", `phase="stw1"`},
	} {
		if got := scrapeSum(t, sink, series.name, series.label); got != want {
			t.Errorf("%s{%s} = %d after the second run, which ran %d cycles", series.name, series.label, got, want)
		}
	}
	var hits uint64
	for _, b := range lat.Barrier {
		hits += b.Hits
	}
	if got := scrapeSum(t, sink, "hcsgc_barrier_path_total"); got != hits || hits == 0 {
		t.Errorf("sum of hcsgc_barrier_path_total = %d, the second run's tracker counted %d slow-path entries", got, hits)
	}

	run("kv", 1, 0.05)
	run("kv", 2, 0.05)
	reqs, lats := scrapeSum(t, sink, "hcsgc_kv_requests_total"), scrapeSum(t, sink, "hcsgc_kv_request_cycles_count")
	if reqs != lats || reqs == 0 {
		t.Errorf("sum of hcsgc_kv_requests_total = %d, sum of hcsgc_kv_request_cycles_count = %d: one scrape, two time bases", reqs, lats)
	}
}

// TestScrapeDuringRun scrapes /metrics, and renders /signals,
// /flightrecorder and /overload, in a loop while a KV run serves: the
// registry and /overload read ledger cells that server threads fold into,
// the other two JSON endpoints read cycle records the collector's cycle
// path has just logged, and a run attaching its planes re-points series
// under the scraper. Run under -race (CI does). The view must stay live
// although server threads account privately and fold: mid-run scrapes see
// requests served before the run's last fold, and the count never falls.
// The second run has one server thread, so only a fold before its exit can
// show such a count. Once a run returns, /overload's successes are exactly
// the requests /metrics counted.
func TestScrapeDuringRun(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	w, err := workloads.Get("kv")
	if err != nil {
		t.Fatal(err)
	}
	handler := sink.Handler()
	// render serves path through the sink's handler and decodes its JSON.
	render := func(path string, doc any) error {
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if err := json.Unmarshal(rr.Body.Bytes(), doc); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		return nil
	}
	// running is the seed of the run in progress, 0 between runs; a scrape
	// that reads the same seed before and after was taken during that run.
	var running atomic.Int64
	var inRun [3][]uint64   // hcsgc_kv_requests_total of each in-run scrape, by seed
	var cycles uint64       // the most cycles both JSON endpoints showed in one in-run scrape
	threads := [3]int{2: 1} // server threads by seed; 0 is the workload default, four
	var scrapeErr error
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			seed := running.Load()
			reqs, err := scrapeSumErr(sink, "hcsgc_kv_requests_total")
			var sig struct{ Cycles uint64 }
			var dump struct{ Report struct{ Cycles uint64 } }
			var ovl struct{ Successes uint64 }
			if err == nil {
				err = render("/signals", &sig)
			}
			if err == nil {
				err = render("/flightrecorder", &dump)
			}
			if err == nil {
				err = render("/overload", &ovl)
			}
			if err != nil {
				scrapeErr = err
				return
			}
			if seed != 0 && running.Load() == seed {
				inRun[seed] = append(inRun[seed], reqs)
				cycles = max(cycles, min(sig.Cycles, dump.Report.Cycles))
			}
		}
	}()
	var final [3]uint64 // the count each run left; final[0] is the empty registry's
	for seed := int64(1); seed <= 2; seed++ {
		running.Store(seed)
		// The first run allocates more than 6 MB, so its page takes start
		// cycles while it serves.
		if _, err := w.Run(workloads.RunConfig{Knobs: bench.KnobsFor(4), Seed: seed, Scale: 0.05,
			Mutators: threads[seed], HeapMaxBytes: 6 << 20, Telemetry: sink}); err != nil {
			t.Error(err)
		}
		running.Store(0)
		final[seed] = scrapeSum(t, sink, "hcsgc_kv_requests_total")
		var ovl struct{ Successes uint64 }
		if err := render("/overload", &ovl); err != nil {
			t.Fatal(err)
		}
		if ovl.Successes != final[seed] {
			t.Errorf("run %d: /overload counted %d successes, /metrics %d requests", seed, ovl.Successes, final[seed])
		}
	}
	close(stop)
	wg.Wait()
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}
	if cycles == 0 {
		t.Error("no mid-run /signals and /flightrecorder pair showed a recorded cycle")
	}
	for seed := 1; seed <= 2; seed++ {
		if final[seed] == 0 {
			t.Fatalf("run %d: no KV request reached the registry", seed)
		}
		// Until a run binds its accumulator, scrapes read the previous
		// run's, which no longer moves.
		seen := inRun[seed]
		for len(seen) > 0 && seen[0] == final[seed-1] {
			seen = seen[1:]
		}
		live := false
		for i, reqs := range seen {
			if i > 0 && reqs < seen[i-1] {
				t.Errorf("run %d: hcsgc_kv_requests_total fell from %d to %d mid-run", seed, seen[i-1], reqs)
			}
			live = live || (reqs > 0 && reqs < final[seed])
		}
		if !live {
			t.Errorf("run %d: no mid-run scrape saw a request served (%d in-run scrapes, %d requests at the end)",
				seed, len(inRun[seed]), final[seed])
		}
	}
}
