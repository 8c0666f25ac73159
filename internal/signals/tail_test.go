package signals

import (
	"strings"
	"testing"

	"hcsgc/internal/telemetry"
)

// obsAt builds a clean observation of the given latency arriving at a
// point on the virtual timeline.
func obsAt(seq, arrival, lat uint64) Obs {
	return Obs{
		Seq: seq, Op: "get", Phase: "steady",
		ArrivalV: arrival, StartV: arrival, EndV: arrival + lat,
		CycleBefore: 1, CycleAfter: 1,
	}
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
			ta := NewTailAttributor(TailConfig{SLOThresholdCycles: 1_000_000})
			cl := ta.Classifier(nil)
			o := obsAt(1, 0, 5_000_000)
			tc.mut(&o)
			cl.Observe(o)
			r := ta.Report()
			if r.Violations != 1 {
				t.Fatalf("violations = %d, want 1", r.Violations)
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
	ta := NewTailAttributor(TailConfig{SLOThresholdCycles: 1_000_000})
	cl := ta.Classifier(nil)

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

	r := ta.Report()
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
	ta := NewTailAttributor(TailConfig{SLOThresholdCycles: 1_000_000})
	cl := ta.Classifier(nil)

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

	r := ta.Report()
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
// responsible cycle's logged record when it is inside the plane's window.
func TestClassifierLinksPlane(t *testing.T) {
	p := New(Config{})
	log := logCycles(p, 7)
	ta := NewTailAttributor(TailConfig{SLOThresholdCycles: 1_000_000})
	cl := ta.Classifier(p)
	o := obsAt(1, 0, 5_000_000)
	o.OwnStallV = 4_000_000
	o.CycleAfter = 7
	cl.Observe(o)
	r := ta.Report()
	if len(r.TopK) != 1 || r.TopK[0].Record != log[6] {
		t.Fatalf("exemplar not linked to cycle 7's logged record: %+v", r.TopK)
	}
}

// TestTailTopKBounded: the exemplar store keeps exactly the K slowest,
// reported slowest-first.
func TestTailTopKBounded(t *testing.T) {
	ta := NewTailAttributor(TailConfig{SLOThresholdCycles: 100})
	cl := ta.Classifier(nil)
	// maxExemplars+8 latencies from 101 up at disjoint windows; the store must
	// keep the maxExemplars largest.
	const n = maxExemplars + 8
	for i := uint64(0); i < n; i++ {
		cl.Observe(obsAt(i, i*1_000, 101+i))
	}
	r := ta.Report()
	if len(r.TopK) != maxExemplars {
		t.Fatalf("topK = %d exemplars, want %d", len(r.TopK), maxExemplars)
	}
	for i := range r.TopK {
		if want := uint64(100 + n - i); r.TopK[i].LatencyCycles != want {
			t.Fatalf("topK[%d] latency = %d, want %d (slowest first)", i, r.TopK[i].LatencyCycles, want)
		}
	}
}

// TestTailReportValidate rejects structural corruption.
func TestTailReportValidate(t *testing.T) {
	ta := NewTailAttributor(TailConfig{SLOThresholdCycles: 1_000})
	cl := ta.Classifier(nil)
	o := obsAt(1, 0, 5_000)
	o.OwnStallV = 4_000
	o.CycleAfter = 3
	cl.Observe(o)
	r := ta.Report()
	if err := r.Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}

	bad := r
	bad.Violations++
	if bad.Validate() == nil {
		t.Fatal("cause-count/violation mismatch accepted")
	}
	bad = r
	bad.AttributedFraction = 1.5
	if bad.Validate() == nil {
		t.Fatal("out-of-range attributed fraction accepted")
	}
	bad = r
	bad.SLOThresholdCycles = 10_000
	if bad.Validate() == nil {
		t.Fatal("exemplar below the SLO threshold accepted")
	}
	bad = r
	bad.TopK = append([]Exemplar(nil), r.TopK...)
	bad.TopK[0].Cause = ""
	if bad.Validate() == nil {
		t.Fatal("causeless exemplar accepted")
	}
}

// TestTailTelemetry: the hcsgc_tail_* families land in the exposition.
func TestTailTelemetry(t *testing.T) {
	ta := NewTailAttributor(TailConfig{SLOThresholdCycles: 1_000})
	reg := telemetry.NewRegistry()
	ta.BindTelemetry(reg)
	cl := ta.Classifier(nil)
	fast := obsAt(1, 0, 10)
	cl.Observe(fast)
	slow := obsAt(2, 1_000_000, 5_000)
	slow.OwnStallV = 4_000
	slow.CycleAfter = 2
	cl.Observe(slow)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"hcsgc_tail_requests_total 2",
		"hcsgc_tail_attributed_total 1",
		`hcsgc_tail_violations_total{cause="alloc-stall"} 1`,
		`hcsgc_tail_violations_total{cause="service"} 0`,
		`hcsgc_tail_cause_cycles{cause="alloc-stall",quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestTailNilSafe: the disabled attributor (and its nil classifier)
// accept every call.
func TestTailNilSafe(t *testing.T) {
	var ta *TailAttributor
	cl := ta.Classifier(nil)
	cl.Observe(obsAt(1, 0, 10_000_000))
	ta.BindTelemetry(telemetry.NewRegistry())
	if r := ta.Report(); r.Requests != 0 {
		t.Fatal("nil attributor recorded requests")
	}
}
