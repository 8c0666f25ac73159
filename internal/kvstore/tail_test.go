package kvstore

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"hcsgc/internal/loadgen"
	"hcsgc/internal/signals"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// obsAt builds a clean observation of the given latency arriving at a
// point on the virtual timeline.
func obsAt(seq, arrival, lat uint64) Obs {
	return Obs{
		Seq: seq, Op: loadgen.OpGet, Phase: loadgen.PhaseSteady,
		ArrivalV: arrival, StartV: arrival, EndV: arrival + lat,
		CycleAfter: 1,
	}
}

// loggedPlane is a signal plane viewing a cycle log of n records, as a
// collector would have logged them.
func loggedPlane(n uint64) (*signals.Plane, []*latency.CycleRecord) {
	p := signals.New(signals.Config{})
	tr := latency.New(latency.Config{})
	p.Attach(tr)
	for seq := uint64(1); seq <= n; seq++ {
		tr.OnCycle(&latency.CycleRecord{Seq: seq, VStart: (seq - 1) * 1_000_000, VEnd: seq * 1_000_000})
	}
	return p, tr.Log()
}

// TestClassifierCauses pins the classification of each cause in
// isolation.
func TestClassifierCauses(t *testing.T) {
	cases := []struct {
		name   string
		mut    func(*Obs)
		cause  string
		cycle  uint64
		behind string
	}{
		{"own-stall", func(o *Obs) { o.OwnStallV = 2_000_000; o.CycleAfter = 7 }, "alloc-stall", 7, ""},
		{"stw-pause", func(o *Obs) { o.PauseV = 50_000; o.CycleAfter = 7 }, "stw-pause", 7, ""},
		{"stall-dominates-pause", func(o *Obs) { o.OwnStallV = 2_000_000; o.PauseV = 50_000; o.CycleAfter = 7 }, "alloc-stall", 7, ""},
		{"concurrent-stall", func(o *Obs) { o.GlobalStalls = 1; o.CycleAfter = 7 }, "queued-behind-stall", 7, "concurrent-stall"},
		{"service", func(o *Obs) {}, "service", 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mx := NewMetrics()
			cl := mx.Classifier(nil)
			o := obsAt(1, 0, 5_000_000)
			tc.mut(&o)
			cl.Observe(o)
			r := mx.Tail()
			if r.Requests != 1 || r.Violations != 1 {
				t.Fatalf("requests %d violations %d, want 1/1", r.Requests, r.Violations)
			}
			for _, c := range r.ByCause {
				want := uint64(0)
				if c.Cause == tc.cause {
					want = 1
				}
				if c.Count != want {
					t.Fatalf("cause %q count = %d, want %d", c.Cause, c.Count, want)
				}
			}
			if len(r.TopK) != 1 {
				t.Fatalf("topK = %d exemplars, want 1", len(r.TopK))
			}
			ex := r.TopK[0]
			if ex.Cause != tc.cause || ex.Cycle != tc.cycle || ex.BehindCause != tc.behind {
				t.Fatalf("exemplar = cause %q cycle %d behind %q, want %q/%d/%q",
					ex.Cause, ex.Cycle, ex.BehindCause, tc.cause, tc.cycle, tc.behind)
			}
			wantAttr := uint64(1)
			if tc.cause == "service" || tc.cycle == 0 {
				wantAttr = 0
			}
			if r.Attributed != wantAttr {
				t.Fatalf("attributed = %d, want %d", r.Attributed, wantAttr)
			}
		})
	}
}

// TestClassifierQueuedBehind: a request arriving while the thread is
// still draining an earlier stall's backlog inherits that disruption's
// cause and cycle.
func TestClassifierQueuedBehind(t *testing.T) {
	mx := NewMetrics()
	cl := mx.Classifier(nil)

	// Request 1 stalls: disruption memory now ends at its EndV.
	stalled := obsAt(1, 0, 30_000_000)
	stalled.OwnStallV = 29_000_000
	stalled.CycleAfter = 5
	cl.Observe(stalled)

	// Request 2 arrived mid-disruption and ran clean: queued-behind.
	queued := obsAt(2, 10_000_000, 22_000_000)
	queued.CycleAfter = 6
	cl.Observe(queued)

	// Request 3 arrived after the backlog drained and ran clean: service.
	clean := obsAt(3, 40_000_000, 2_000_000)
	cl.Observe(clean)

	r := mx.Tail()
	if r.Violations != 3 || r.Attributed != 2 {
		t.Fatalf("violations %d attributed %d, want 3/2", r.Violations, r.Attributed)
	}
	byCause := map[string]uint64{}
	for _, c := range r.ByCause {
		byCause[c.Cause] = c.Count
	}
	if byCause["alloc-stall"] != 1 || byCause["queued-behind-stall"] != 1 || byCause["service"] != 1 {
		t.Fatalf("cause counts = %v", byCause)
	}
	for _, ex := range r.TopK {
		if ex.Seq == 2 {
			if ex.Cause != "queued-behind-stall" || ex.Cycle != 5 || ex.BehindCause != "alloc-stall" {
				t.Fatalf("queued exemplar = %+v, want queued-behind-stall behind alloc-stall at cycle 5", ex)
			}
		}
	}
}

// TestClassifierConvoyChain: the drain window extends through requests
// that arrived mid-disruption and still found a queue, so late convoy
// members blame the seeding disruption instead of falling to service;
// the chain breaks on the first request that starts at its arrival.
func TestClassifierConvoyChain(t *testing.T) {
	mx := NewMetrics()
	cl := mx.Classifier(nil)

	// Request 1 stalls: window ends at 30M, cycle 5 responsible.
	stalled := obsAt(1, 0, 30_000_000)
	stalled.OwnStallV = 29_000_000
	stalled.CycleAfter = 5
	cl.Observe(stalled)

	// Request 2 arrived mid-window and queued (started late): it extends
	// the window to its completion at 45M.
	chained := obsAt(2, 20_000_000, 25_000_000)
	chained.StartV = 30_000_000 // queued 10M behind the stall
	cl.Observe(chained)

	// Request 3 arrived after the original 30M window but inside the
	// extended one: still the same convoy, same responsible cycle.
	late := obsAt(3, 40_000_000, 4_000_000)
	late.StartV = 41_000_000
	cl.Observe(late)

	// Request 3 ran inside the window but finished before it closes
	// (EndV 44M < 45M), so it must NOT extend it. Request 4 arrives after
	// the window and starts at its arrival: the queue drained, service.
	after := obsAt(4, 46_000_000, 2_000_000)
	cl.Observe(after)

	r := mx.Tail()
	byCause := map[string]uint64{}
	for _, c := range r.ByCause {
		byCause[c.Cause] = c.Count
	}
	if byCause["alloc-stall"] != 1 || byCause["queued-behind-stall"] != 2 || byCause["service"] != 1 {
		t.Fatalf("cause counts = %v, want 1 alloc-stall / 2 queued-behind-stall / 1 service", byCause)
	}
	for _, ex := range r.TopK {
		if ex.Seq == 3 && (ex.Cause != "queued-behind-stall" || ex.Cycle != 5) {
			t.Fatalf("late convoy member = %+v, want queued-behind-stall at cycle 5", ex)
		}
		if ex.Seq == 4 && ex.Cause != "service" {
			t.Fatalf("post-drain request = %+v, want service", ex)
		}
	}
}

// TestClassifierLinksPlane: exemplars entering the top-K store link the
// responsible cycle's logged record when it is inside the plane's window,
// and the report writes that record once for every exemplar naming it.
func TestClassifierLinksPlane(t *testing.T) {
	p, log := loggedPlane(7)
	mx := NewMetrics()
	cl := mx.Classifier(p)
	for seq := uint64(1); seq <= 2; seq++ {
		o := obsAt(seq, seq*10_000_000, 5_000_000+seq)
		o.OwnStallV = 4_000_000
		o.CycleAfter = 7
		cl.Observe(o)
	}
	r := mx.Tail()
	if len(r.TopK) != 2 || r.TopK[0].Record != log[6] || r.TopK[1].Record != log[6] {
		t.Fatalf("exemplars not linked to cycle 7's logged record: %+v", r.TopK)
	}
	if len(r.Cycles) != 1 || r.Cycles[0] != log[6] || r.TopK[0].CycleIndex != 0 || r.TopK[1].CycleIndex != 0 {
		t.Fatalf("cycle 7's record not written once: %d cycles, indexes %d/%d",
			len(r.Cycles), r.TopK[0].CycleIndex, r.TopK[1].CycleIndex)
	}
}

// TestTailTopKBounded: the exemplar store keeps exactly the K slowest,
// reported slowest-first.
func TestTailTopKBounded(t *testing.T) {
	mx := NewMetrics()
	cl := mx.Classifier(nil)
	// maxExemplars+8 latencies from just over the SLO up at disjoint
	// windows; the store must keep the maxExemplars largest.
	const n = maxExemplars + 8
	for i := uint64(0); i < n; i++ {
		cl.Observe(obsAt(i, i*10_000_000, SLOCycles+1+i))
	}
	r := mx.Tail()
	if len(r.TopK) != maxExemplars {
		t.Fatalf("topK = %d exemplars, want %d", len(r.TopK), maxExemplars)
	}
	for i := range r.TopK {
		if want := uint64(SLOCycles + n - i); r.TopK[i].LatencyCycles != want {
			t.Fatalf("topK[%d] latency = %d, want %d (slowest first)", i, r.TopK[i].LatencyCycles, want)
		}
		if r.TopK[i].CycleIndex != -1 {
			t.Fatalf("topK[%d] links cycle index %d without a record", i, r.TopK[i].CycleIndex)
		}
	}
}

// TestTailReportValidate rejects structural corruption.
func TestTailReportValidate(t *testing.T) {
	p, _ := loggedPlane(3)
	mx := NewMetrics()
	cl := mx.Classifier(p)
	for seq := uint64(1); seq <= 2; seq++ {
		o := obsAt(seq, seq*10_000_000, 5_000_000)
		o.OwnStallV = 4_000_000
		o.CycleAfter = seq + 1
		cl.Observe(o)
	}
	r := mx.Tail()
	if err := r.Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	if len(r.Cycles) != 2 {
		t.Fatalf("%d cycles linked, want 2", len(r.Cycles))
	}

	for name, corrupt := range map[string]func(*TailReport){
		"cause-count/violation mismatch":   func(b *TailReport) { b.Violations++ },
		"out-of-range attributed fraction": func(b *TailReport) { b.AttributedFraction = 1.5 },
		"exemplar below the SLO threshold": func(b *TailReport) { b.SLOThresholdCycles = 10_000_000 },
		"causeless exemplar":               func(b *TailReport) { b.TopK[0].Cause = "" },
		// The other link clauses have rows in TestKVABValidateRejectsCorruption.
		"an empty record": func(b *TailReport) { b.Cycles[1] = nil },
	} {
		bad := r
		bad.TopK = append([]Exemplar(nil), r.TopK...)
		bad.Cycles = append([]*latency.CycleRecord(nil), r.Cycles...)
		corrupt(&bad)
		if bad.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestTailTelemetry: the hcsgc_tail_* families land in the exposition,
// beside the one request count.
func TestTailTelemetry(t *testing.T) {
	mx := NewMetrics()
	reg := telemetry.NewRegistry()
	mx.BindTelemetry(reg)
	cl := mx.Classifier(nil)
	fast := obsAt(1, 0, 10)
	cl.Observe(fast)
	slow := obsAt(2, 1_000_000, 5_000_000)
	slow.OwnStallV = 4_000_000
	slow.CycleAfter = 2
	cl.Observe(slow)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`hcsgc_kv_requests_total{op="get"} 2`,
		"hcsgc_tail_attributed_total 1",
		`hcsgc_tail_violations_total{cause="alloc-stall"} 1`,
		`hcsgc_tail_violations_total{cause="service"} 0`,
		`hcsgc_tail_cause_cycles{cause="alloc-stall",quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "hcsgc_tail_requests_total") {
		t.Error("the tail section counts requests a second time")
	}
}

// TestTailNilSafe: a nil ledger's tail is the zero report, and folding or
// merging through a nil ledger is inert.
func TestTailNilSafe(t *testing.T) {
	var mx *Metrics
	if r := mx.Tail(); r.Requests != 0 || len(r.TopK) != 0 {
		t.Fatal("nil ledger reported a tail")
	}
	full := NewMetrics()
	full.Classifier(nil).Observe(obsAt(1, 0, 10_000_000))
	mx.Merge(full)
	full.Merge(mx)
	mx.FoldInto(full)
	if r := full.Tail(); r.Violations != 1 || len(r.TopK) != 1 {
		t.Fatalf("a nil ledger changed a real one: %+v", r)
	}
}

// TestFoldKeepsTopKExact: two server threads classifying into ledgers of
// their own and folding into the run's as they go, concurrently, leave the
// same tail as one ledger fed every observation: the exemplar store keeps
// the exact top K across folds.
func TestFoldKeepsTopKExact(t *testing.T) {
	const n = 400
	obs := make([]Obs, n)
	for i := range obs {
		// Distinct latencies over the SLO, in scrambled order, at
		// disjoint windows (so no request queues behind another).
		lat := SLOCycles + 1 + uint64(i*7919%n)
		obs[i] = obsAt(uint64(i), uint64(i)*100_000_000, lat)
	}
	single := NewMetrics()
	scl := single.Classifier(nil)
	for _, o := range obs {
		scl.Observe(o)
	}

	run := NewMetrics()
	var wg sync.WaitGroup
	for tid := 0; tid < 2; tid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tmx := NewMetrics()
			cl := tmx.Classifier(nil)
			for i := tid; i < n; i += 2 {
				cl.Observe(obs[i])
				if i%16 == tid {
					tmx.FoldInto(run)
					run.Tail() // a scrape mid-run
				}
			}
			tmx.FoldInto(run)
		}()
	}
	wg.Wait()
	if got, want := run.Tail(), single.Tail(); !reflect.DeepEqual(got, want) {
		t.Fatalf("folded tail differs from one ledger's:\n got %+v\nwant %+v", got, want)
	}
}

// TestFoldKeepsConvoyChain: the disruption memory is the classifier's, so
// a request queued behind a stall its thread saw before a fold still
// blames that stall's cycle after it.
func TestFoldKeepsConvoyChain(t *testing.T) {
	run, tmx := NewMetrics(), NewMetrics()
	cl := tmx.Classifier(nil)
	stalled := obsAt(1, 0, 30_000_000)
	stalled.OwnStallV = 29_000_000
	stalled.CycleAfter = 5
	cl.Observe(stalled)
	tmx.FoldInto(run)

	queued := obsAt(2, 10_000_000, 22_000_000)
	queued.CycleAfter = 6
	cl.Observe(queued)
	tmx.FoldInto(run)

	r := run.Tail()
	if r.Violations != 2 || len(r.TopK) != 2 {
		t.Fatalf("violations %d exemplars %d, want 2/2", r.Violations, len(r.TopK))
	}
	if ex := r.TopK[1]; ex.Seq != 2 || ex.Cause != "queued-behind-stall" || ex.Cycle != 5 {
		t.Fatalf("request after the fold = %+v, want queued-behind-stall at cycle 5", ex)
	}
}
