package kvstore

import (
	"strings"
	"testing"

	"hcsgc"
	"hcsgc/internal/loadgen"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

func newTestStore(t *testing.T, heapBytes uint64, expectKeys int) (*Store, *hcsgc.Mutator, func()) {
	t.Helper()
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes:    heapBytes,
		DisableMemModel: true,
	})
	m := rt.NewMutator(RootSlots)
	s := New(m, RegisterTypes(rt.Types), expectKeys)
	return s, m, func() { m.Close(); rt.Close() }
}

func TestStoreBasicOps(t *testing.T) {
	s, _, done := newTestStore(t, 64<<20, 256)
	defer done()

	if _, hit := s.Get(7); hit {
		t.Fatal("empty store reported a hit")
	}
	if v := s.Set(7, 8); v != 1 {
		t.Fatalf("first Set version = %d, want 1", v)
	}
	sum, hit := s.Get(7)
	if !hit || sum != ValueSum(7, 1, 8) {
		t.Fatalf("Get(7) = (%d,%v), want (%d,true)", sum, hit, ValueSum(7, 1, 8))
	}
	if v := s.Set(7, 12); v != 2 {
		t.Fatalf("second Set version = %d, want 2", v)
	}
	sum, _ = s.Get(7)
	if sum != ValueSum(7, 2, 12) {
		t.Fatalf("Get after update = %d, want %d", sum, ValueSum(7, 2, 12))
	}
	if s.Version(7) != 2 || s.Version(8) != 0 {
		t.Fatalf("Version(7)=%d Version(8)=%d, want 2, 0", s.Version(7), s.Version(8))
	}
	if !s.Delete(7) || s.Delete(7) {
		t.Fatal("Delete must report presence exactly once")
	}
	if _, hit := s.Get(7); hit {
		t.Fatal("deleted key still readable")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after delete, want 0", s.Len())
	}
}

// TestStoreSurvivesGC churns keys through inserts, updates and deletes
// across explicit GC cycles and checks every surviving payload against
// the ValueSum oracle — entries and payloads must survive relocation.
func TestStoreSurvivesGC(t *testing.T) {
	s, m, done := newTestStore(t, 16<<20, 512)
	defer done()

	const keys = 400
	version := make(map[uint64]uint64)
	for round := 0; round < 3; round++ {
		for k := uint64(0); k < keys; k++ {
			s.Set(k, 8+int(k%24))
			version[k]++
		}
		// Delete a rotating third to create chain-unlink traffic.
		for k := uint64(round); k < keys; k += 3 {
			if s.Delete(k) {
				delete(version, k)
			}
		}
		m.RequestGC()
		for k, v := range version {
			sum, hit := s.Get(k)
			if !hit {
				t.Fatalf("round %d: key %d lost after GC", round, k)
			}
			if want := ValueSum(k, v, 8+int(k%24)); sum != want {
				t.Fatalf("round %d: key %d sum %d, want %d", round, k, sum, want)
			}
		}
		if s.Len() != len(version) {
			t.Fatalf("round %d: Len=%d, want %d", round, s.Len(), len(version))
		}
	}
	gotSum, touched := s.Scan(0, 1<<30)
	if touched != s.Len() {
		t.Fatalf("full Scan touched %d entries, want %d", touched, s.Len())
	}
	if gotSum == 0 {
		t.Fatal("full Scan over a populated store summed to 0")
	}
}

func TestMetricsReportAndMerge(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	for i := uint64(1); i <= 100; i++ {
		a.RecordRequest(loadgen.PhaseSteady, loadgen.OpGet, i*100)
		b.RecordRequest(loadgen.PhaseBurst, loadgen.OpSet, i*1000)
	}
	a.RecordLookup(true)
	a.RecordLookup(false)
	b.RecordSessionRetired()
	a.Merge(b)

	r := a.Report(nil)
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if r.Phases[loadgen.PhaseSteady].Dist.Count != 100 ||
		r.Phases[loadgen.PhaseBurst].Dist.Count != 100 {
		t.Fatalf("merged phase counts = %d/%d, want 100/100",
			r.Phases[loadgen.PhaseSteady].Dist.Count, r.Phases[loadgen.PhaseBurst].Dist.Count)
	}
	if r.Ops["get"] != 100 || r.Ops["set"] != 100 {
		t.Fatalf("merged ops = %v", r.Ops)
	}
	if r.Hits != 1 || r.Misses != 1 || r.SessionsRetired != 1 {
		t.Fatalf("counters = %d/%d/%d", r.Hits, r.Misses, r.SessionsRetired)
	}
	// The steady phase saw latencies 100..10000: the 20k rung must cover
	// everything, the 2k rung only a prefix (the 10k sample itself sits
	// in a slot whose upper bound exceeds 10k — HDR slot granularity).
	var lo, hi float64
	for _, p := range r.Phases[loadgen.PhaseSteady].SLO {
		switch p.Threshold {
		case 2_000:
			lo = p.Fraction
		case 20_000:
			hi = p.Fraction
		}
	}
	if hi != 1 || lo >= hi || lo == 0 {
		t.Fatalf("steady SLO fractions lo=%v hi=%v, want 0<lo<hi=1", lo, hi)
	}

	// Validate must reject a non-monotone curve.
	bad := a.Report(nil)
	bad.Phases[0].SLO[0].Fraction = 2
	if bad.Validate() == nil {
		t.Fatal("Validate accepted an out-of-range SLO fraction")
	}
}

// TestMergedPhasesEqualDirectHist: HDR merges are exact, so the success
// distribution Outcomes merges from the per-phase histograms summarizes
// latencies spread across all three phases exactly as one histogram that
// recorded every latency directly.
func TestMergedPhasesEqualDirectHist(t *testing.T) {
	mx, direct := NewMetrics(), latency.NewHist()
	for i := uint64(1); i <= 3000; i++ {
		lat := i * i % 1_000_003 // spread over several HDR ranges
		mx.RecordRequest(int(i%loadgen.NumPhases), loadgen.OpGet, lat)
		direct.Record(lat)
	}
	for _, p := range mx.Report(nil).Phases {
		if p.Dist.Count == 0 {
			t.Fatal("a phase recorded nothing; the merge is not exercised")
		}
	}
	if got, want := mx.Outcomes().Success, direct.Dist(); got != want {
		t.Fatalf("merged-phase dist %+v != direct dist %+v", got, want)
	}
}

// TestNilMetricsIsInert: a nil ledger accepts every recording call.
func TestNilMetricsIsInert(t *testing.T) {
	var mx *Metrics
	mx.RecordRequest(loadgen.PhaseSteady, loadgen.OpGet, 10)
	mx.RecordFailure(Shed)
	mx.RecordLookup(true)
	mx.RecordSessionRetired()
	mx.AddServe(1, 1)
	mx.Merge(NewMetrics())
	mx.FoldInto(NewMetrics())
	mx.BindTelemetry(telemetry.NewRegistry())
	if mx.ServeAllocBytes() != 0 {
		t.Fatal("nil ledger reported bytes")
	}
}

// TestOutcomesMergeReportValidate: outcome accounting survives a
// cross-thread fold and merge, and the outcome invariants hold.
func TestOutcomesMergeReportValidate(t *testing.T) {
	a, b, run := NewMetrics(), NewMetrics(), NewMetrics()
	a.RecordRequest(loadgen.PhaseSteady, loadgen.OpGet, 100)
	a.RecordRequest(loadgen.PhaseBurst, loadgen.OpSet, 5_000_000)
	a.RecordFailure(Shed)
	a.AddServe(1_000_000, 4096)
	b.RecordRequest(loadgen.PhaseShift, loadgen.OpGet, 200)
	b.RecordFailure(DeadlineExceeded)
	b.RecordFailure(OOM)
	a.FoldInto(run)
	run.Merge(b)
	if a.Outcomes().Successes != 0 || a.ServeAllocBytes() != 0 {
		t.Fatal("FoldInto left counts behind")
	}

	o := run.Outcomes()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.Successes != 3 || o.Goodput != 2 || o.Failures != 3 {
		t.Fatalf("merged counts: %+v", o)
	}
	if o.Badput != (o.Successes-o.Goodput)+o.Failures {
		t.Fatalf("badput %d does not partition", o.Badput)
	}
	if o.Sheds != 1 || o.DeadlineExceeded != 1 || o.OOMFailures != 1 {
		t.Fatalf("failure causes lost in merge: %+v", o)
	}
	if o.ShedRate != 1.0/6 {
		t.Fatalf("shed rate = %v, want 1/6 (one shed of six requests)", o.ShedRate)
	}
	if o.GoodputPerMcycle != 2 {
		t.Fatalf("goodput/Mcycle = %v, want 2", o.GoodputPerMcycle)
	}
	if run.ServeAllocBytes() != 4096 {
		t.Fatalf("serve alloc bytes = %d", run.ServeAllocBytes())
	}
	if o.Success.Count != o.Successes || o.Success.Max != 5_000_000 {
		t.Fatalf("success dist %+v, want all %d successes", o.Success, o.Successes)
	}

	// Validate rejects each corrupted invariant.
	for name, corrupt := range map[string]func(*Outcomes){
		"goodput over successes": func(c *Outcomes) { c.Goodput = c.Successes + 1 },
		"badput partition":       func(c *Outcomes) { c.Badput++ },
		"failure partition":      func(c *Outcomes) { c.Sheds++ },
		"shed rate":              func(c *Outcomes) { c.ShedRate = 1.5 },
		"success quantiles":      func(c *Outcomes) { c.Success.P50 = c.Success.Max + 1 },
		"success count":          func(c *Outcomes) { c.Successes++; c.Badput++ },
	} {
		bad := o
		corrupt(&bad)
		if bad.Validate() == nil {
			t.Errorf("Validate accepted a corrupted report: %s", name)
		}
	}
}

// TestThreadLedgerRecycles: a server thread's ledger taken, recorded into,
// folded and given back allocates nothing once one has been given back, and
// the next thread takes it empty.
func TestThreadLedgerRecycles(t *testing.T) {
	run := NewMetrics()
	thread := func() {
		tmx := TakeMetrics()
		tmx.RecordRequest(loadgen.PhaseSteady, loadgen.OpGet, 100)
		tmx.RecordRequest(loadgen.PhaseBurst, loadgen.OpSet, 2*SLOCycles)
		tmx.RecordFailure(Shed)
		tmx.FoldInto(run)
		tmx.Release()
	}
	if allocs := testing.AllocsPerRun(10, thread); allocs != 0 {
		t.Errorf("a recycled thread ledger made %v host allocations, want 0", allocs)
	}
	if o := run.Outcomes(); o.Successes != 22 || o.Sheds != 11 {
		t.Errorf("run ledger holds %d successes and %d sheds, want 22 and 11", o.Successes, o.Sheds)
	}
	tmx := TakeMetrics()
	defer tmx.Release()
	if got, want := tmx.Outcomes(), NewMetrics().Outcomes(); got != want {
		t.Errorf("a recycled ledger starts at %+v, want %+v", got, want)
	}
	if got, want := tmx.Tail().Violations, uint64(0); got != want {
		t.Errorf("a recycled ledger starts with %d violations", got)
	}
}

// TestOutcomesAllocatesNothing: an outcome snapshot merges the phase
// histograms without a histogram of its own.
func TestOutcomesAllocatesNothing(t *testing.T) {
	mx := NewMetrics()
	mx.RecordRequest(loadgen.PhaseSteady, loadgen.OpGet, 100)
	mx.RecordRequest(loadgen.PhaseShift, loadgen.OpGet, 300)
	want := mx.Outcomes()
	if allocs := testing.AllocsPerRun(10, func() {
		if got := mx.Outcomes(); got != want {
			t.Fatalf("Outcomes = %+v, then %+v", want, got)
		}
	}); allocs != 0 {
		t.Errorf("Outcomes made %v host allocations, want 0", allocs)
	}
	if want.Success.Count != 2 || want.Success.Max != 300 {
		t.Errorf("success dist %+v, want both requests", want.Success)
	}
}

func TestMetricsBindTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	mx := NewMetrics()
	mx.BindTelemetry(reg)
	mx.RecordRequest(loadgen.PhaseSteady, loadgen.OpGet, 500)
	mx.RecordLookup(true)
	mx.RecordSessionRetired()
	mx.RecordFailure(Shed)

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`hcsgc_kv_requests_total{op="get"} 1`,
		`hcsgc_kv_lookups_total{result="hit"} 1`,
		`hcsgc_kv_sessions_retired_total 1`,
		`hcsgc_kv_request_cycles{phase="steady",quantile="0.5"}`,
		`hcsgc_overload_stale_sheds_total 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q\n%s", want, out)
		}
	}
}

// TestOutcomesSurviveTelemetryBinding: binding the ledger to a registry
// leaves outcome accounting intact, and only stale sheds reach the
// stale-shed counter.
func TestOutcomesSurviveTelemetryBinding(t *testing.T) {
	reg := telemetry.NewRegistry()
	mx := NewMetrics()
	mx.BindTelemetry(reg)
	mx.RecordRequest(loadgen.PhaseSteady, loadgen.OpGet, 10)
	mx.RecordFailure(Shed)
	mx.RecordFailure(DeadlineExceeded)
	if o := mx.Outcomes(); o.Successes != 1 || o.Failures != 2 || o.Sheds != 1 || o.DeadlineExceeded != 1 {
		t.Fatalf("recording broke after binding: %+v", o)
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if out := sb.String(); !strings.Contains(out, "hcsgc_overload_stale_sheds_total 1\n") {
		t.Fatalf("stale-shed counter is not 1\n%s", out)
	}
}
