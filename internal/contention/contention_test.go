package contention

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hcsgc/internal/telemetry"
)

// addAcquisitions credits n acquisitions to s the way real ones arrive: on
// a mutex registered with the site.
func addAcquisitions(s *Site, n uint64) {
	var mu Mutex
	mu.Instrument(s)
	mu.acquisitions.Add(n)
}

// TestSiteSumsItsMutexes: acquisitions are counted per mutex; a site shared
// by several (the LLC set-group locks) reports their sum, in Acquisitions, in the
// per-cycle delta and in the snapshot.
func TestSiteSumsItsMutexes(t *testing.T) {
	p := New()
	s := p.NewSite("striped")
	var mus [4]Mutex
	for i := range mus {
		mus[i].Instrument(s)
		for j := 0; j <= i; j++ {
			mus[i].Lock()
			mus[i].Unlock()
		}
	}
	if got := s.Acquisitions(); got != 10 {
		t.Fatalf("site acquisitions = %d, want 1+2+3+4", got)
	}
	if d := p.OnCycle(nil).Locks; d.Acquisitions != 10 {
		t.Fatalf("cycle delta acquisitions = %d, want 10", d.Acquisitions)
	}
	mus[0].Lock()
	mus[0].Unlock()
	if d := p.OnCycle(nil).Locks; d.Acquisitions != 1 {
		t.Fatalf("second cycle delta = %d, want 1", d.Acquisitions)
	}
	if snap := p.Snapshot(); len(snap.Sites) != 1 || snap.Sites[0].Acquisitions != 11 {
		t.Fatalf("snapshot = %+v, want one site with 11 acquisitions", snap.Sites)
	}
}

// TestMutexUncontended: a single-threaded lock/unlock sequence counts
// acquisitions only — the contended counter and the wait histogram stay
// untouched, which is what makes the fast path two atomic ops (the count
// and the TryLock), both on the mutex's own line.
func TestMutexUncontended(t *testing.T) {
	p := New()
	s := p.NewSite("test.mu")
	var mu Mutex
	mu.Instrument(s)
	for i := 0; i < 100; i++ {
		mu.Lock()
		mu.Unlock()
	}
	if got := s.Acquisitions(); got != 100 {
		t.Fatalf("acquisitions = %d, want 100", got)
	}
	if got := s.Contended(); got != 0 {
		t.Fatalf("contended = %d, want 0", got)
	}
	if got := s.Wait().Count(); got != 0 {
		t.Fatalf("wait samples = %d, want 0", got)
	}
}

// TestMutexContended forces one deterministic contended acquisition:
// the lock is held while a second goroutine attempts it, and the
// contended counter (which increments before the blocking wait) lets
// the holder observe the collision before releasing. Each contended
// acquisition must record exactly one wait sample.
func TestMutexContended(t *testing.T) {
	p := New()
	s := p.NewSite("test.mu")
	var mu Mutex
	mu.Instrument(s)
	mu.Lock()
	done := make(chan struct{})
	go func() {
		mu.Lock() // collides with the held lock
		mu.Unlock()
		close(done)
	}()
	// The waiter bumps the contended counter before parking, so polling
	// it is a race-free rendezvous.
	for s.Contended() == 0 {
		runtime.Gosched()
	}
	mu.Unlock()
	<-done
	if got := s.Acquisitions(); got != 2 {
		t.Fatalf("acquisitions = %d, want 2", got)
	}
	if got := s.Contended(); got != 1 {
		t.Fatalf("contended = %d, want 1", got)
	}
	if got := s.Wait().Count(); got != 1 {
		t.Fatalf("wait samples = %d, want 1 per contended acquisition", got)
	}
}

// TestMutexHammer is the mutual-exclusion soak the race detector
// watches: many goroutines on one instrumented lock, every acquisition
// counted, wait samples never exceeding the contended subset.
func TestMutexHammer(t *testing.T) {
	p := New()
	s := p.NewSite("test.mu")
	var mu Mutex
	mu.Instrument(s)
	const goroutines, iters = 8, 2000
	var wg sync.WaitGroup
	shared := 0
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				mu.Lock()
				shared++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if shared != goroutines*iters {
		t.Fatalf("shared = %d, want %d (mutual exclusion broken)", shared, goroutines*iters)
	}
	if got := s.Acquisitions(); got != goroutines*iters {
		t.Fatalf("acquisitions = %d, want %d", got, goroutines*iters)
	}
	if got := s.Wait().Count(); got != s.Contended() {
		t.Fatalf("wait samples = %d, contended = %d — each contended acquisition must record one wait", got, s.Contended())
	}
}

// TestMutexTryLock: a successful TryLock is an acquisition, a failed one
// is neither an acquisition nor a contended event (the caller didn't
// wait).
func TestMutexTryLock(t *testing.T) {
	p := New()
	s := p.NewSite("test.mu")
	var mu Mutex
	mu.Instrument(s)
	if !mu.TryLock() {
		t.Fatal("TryLock on free mutex failed")
	}
	if mu.TryLock() {
		t.Fatal("TryLock on held mutex succeeded")
	}
	mu.Unlock()
	if got := s.Acquisitions(); got != 1 {
		t.Fatalf("acquisitions = %d, want 1 (failed TryLock must not count)", got)
	}
	if got := s.Contended(); got != 0 {
		t.Fatalf("contended = %d, want 0", got)
	}
}

// TestMutexUninstrumented: a wrapper with no site behaves as a bare
// sync.Mutex — the disabled plane compiles down to one nil check.
func TestMutexUninstrumented(t *testing.T) {
	var mu Mutex
	mu.Lock()
	if mu.TryLock() {
		t.Fatal("TryLock on held uninstrumented mutex succeeded")
	}
	mu.Unlock()
	if !mu.TryLock() {
		t.Fatal("TryLock on free uninstrumented mutex failed")
	}
	mu.Unlock()
}

// TestOpSite: ops and retries accumulate independently and nil-safely.
func TestOpSite(t *testing.T) {
	p := New()
	o := p.NewOpSite("test.cas")
	for i := 0; i < 5; i++ {
		o.Op()
	}
	o.Retry()
	if o.Ops() != 5 || o.Retries() != 1 {
		t.Fatalf("ops/retries = %d/%d, want 5/1", o.Ops(), o.Retries())
	}
	var nils *OpSite
	nils.Op()
	nils.Retry()
	if nils.Ops() != 0 || nils.Retries() != 0 {
		t.Fatal("nil OpSite must read zero")
	}
}

// TestPlaneNilSafe: every constructor and probe on a nil plane is a
// no-op, and the sites it hands out are nil (one-branch disabled path).
func TestPlaneNilSafe(t *testing.T) {
	var p *Plane
	if s := p.NewSite("x"); s != nil {
		t.Fatal("nil plane returned a live site")
	}
	if o := p.NewOpSite("x"); o != nil {
		t.Fatal("nil plane returned a live op site")
	}
	p.BindTelemetry(telemetry.NewRegistry())
	if d := p.OnCycle(nil); d != (CycleDelta{}) {
		t.Fatal("nil plane OnCycle not zero")
	}
	if s := p.Snapshot(); len(s.Sites) != 0 || s.Cycles != 0 {
		t.Fatal("nil plane snapshot not empty")
	}
	var mu Mutex
	mu.Instrument(p.NewSite("x")) // nil site: must stay a bare mutex
	mu.Lock()
	mu.Unlock()
}

// TestPlaneSiteIdempotent: registering the same name twice returns the
// same site, so several locks (or several runtimes' constructors) can
// share one attribution bucket.
func TestPlaneSiteIdempotent(t *testing.T) {
	p := New()
	a, b := p.NewSite("same"), p.NewSite("same")
	if a != b {
		t.Fatal("NewSite not idempotent by name")
	}
	if x, y := p.NewOpSite("op"), p.NewOpSite("op"); x != y {
		t.Fatal("NewOpSite not idempotent by name")
	}
}

// TestSnapshotRanking: sites are ranked by contended count descending —
// the "what do I shard next" serialization list must lead with the
// worst offender.
func TestSnapshotRanking(t *testing.T) {
	p := New()
	cold := p.NewSite("cold")
	warm := p.NewSite("warm")
	hot := p.NewSite("hot")
	for i := 0; i < 10; i++ {
		addAcquisitions(hot, 1)
		hot.contended.Add(1)
	}
	for i := 0; i < 3; i++ {
		addAcquisitions(warm, 1)
	}
	warm.contended.Add(2)
	addAcquisitions(cold, 50)

	s := p.Snapshot()
	want := []string{"hot", "warm", "cold"}
	if len(s.Sites) != len(want) {
		t.Fatalf("sites = %d, want %d", len(s.Sites), len(want))
	}
	for i, name := range want {
		if s.Sites[i].Name != name {
			t.Fatalf("rank %d = %q, want %q (full order %+v)", i, s.Sites[i].Name, name, s.Sites)
		}
	}
	if got := s.Sites[0].ContendedFrac; got != 1.0 {
		t.Fatalf("hot contended frac = %g, want 1", got)
	}
}

// TestOnCycleDeltas: per-cycle deltas are differences against the
// previous cycle, not cumulative totals, and the contended fraction is
// derived from the delta alone.
func TestOnCycleDeltas(t *testing.T) {
	p := New()
	s := p.NewSite("mu")
	o := p.NewOpSite("cas")

	addAcquisitions(s, 10)
	s.contended.Add(2)
	o.ops.Add(100)
	o.retries.Add(5)
	d1 := p.OnCycle(nil).Locks
	if d1.Acquisitions != 10 || d1.Contended != 2 || d1.CASOps != 100 || d1.CASRetries != 5 {
		t.Fatalf("first delta = %+v", d1)
	}
	if math.Abs(d1.ContendedFrac-0.2) > 1e-12 {
		t.Fatalf("contended frac = %g, want 0.2", d1.ContendedFrac)
	}

	addAcquisitions(s, 5)
	d2 := p.OnCycle(nil).Locks
	if d2.Acquisitions != 5 || d2.Contended != 0 || d2.CASOps != 0 {
		t.Fatalf("second delta not differenced: %+v", d2)
	}
	if got := p.Snapshot().Cycles; got != 2 {
		t.Fatalf("cycles = %d, want 2", got)
	}
}

// TestOnCycleWorkerBalance pins the imbalance coefficient: per-worker
// work is the busy-cycle delta, and the coefficient is stddev/mean of
// the per-worker shares (0 = perfectly balanced).
func TestOnCycleWorkerBalance(t *testing.T) {
	p := New()
	p.OnCycle([]WorkerTotals{{BusyCycles: 0}, {BusyCycles: 0}})
	// Cycle 2: worker 0 did 300 cycles of work, worker 1 did 100.
	d := p.OnCycle([]WorkerTotals{
		{Scanned: 30, BusyCycles: 300},
		{Scanned: 10, BusyCycles: 100},
	}).Workers
	if d.Workers != 2 || d.Scanned != 40 {
		t.Fatalf("delta = %+v", d)
	}
	// work = {300, 100}: mean 200, stddev 100 -> coefficient 0.5.
	if math.Abs(d.Imbalance-0.5) > 1e-12 {
		t.Fatalf("imbalance = %g, want 0.5", d.Imbalance)
	}

	// Balanced cycle: both advance equally -> 0.
	d = p.OnCycle([]WorkerTotals{
		{Scanned: 40, BusyCycles: 500},
		{Scanned: 20, BusyCycles: 300},
	}).Workers
	if d.Imbalance != 0 {
		t.Fatalf("balanced imbalance = %g, want 0", d.Imbalance)
	}

	// No memory model (BusyCycles flat): falls back to scanned+relocated
	// work units.
	d = p.OnCycle([]WorkerTotals{
		{Scanned: 70, BusyCycles: 500},
		{Scanned: 30, BusyCycles: 300},
	}).Workers
	// scanned deltas {30, 10} -> same 0.5 shape.
	if math.Abs(d.Imbalance-0.5) > 1e-12 {
		t.Fatalf("fallback imbalance = %g, want 0.5", d.Imbalance)
	}
}

// TestImbalanceEdgeCases: fewer than two workers or zero total work
// reads as perfectly balanced, never NaN.
func TestImbalanceEdgeCases(t *testing.T) {
	for _, work := range [][]float64{nil, {5}, {0, 0, 0}} {
		if got := imbalance(work); got != 0 {
			t.Fatalf("imbalance(%v) = %g, want 0", work, got)
		}
	}
}

// TestBindTelemetry: the hcsgc_contention_* families land in the Prometheus
// exposition with per-site labels, and the per-worker totals and their
// imbalance in the snapshot.
func TestBindTelemetry(t *testing.T) {
	p := New()
	s := p.NewSite("core.cycleMu")
	o := p.NewOpSite("heap.pageBump")
	reg := telemetry.NewRegistry()
	p.BindTelemetry(reg)

	addAcquisitions(s, 7)
	s.contended.Add(3)
	s.wait.Record(1000)
	o.ops.Add(20)
	o.retries.Add(2)
	p.OnCycle([]WorkerTotals{{Scanned: 5, BusyCycles: 100}, {Scanned: 5, BusyCycles: 100}})

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`hcsgc_contention_acquisitions_total{site="core.cycleMu"} 7`,
		`hcsgc_contention_contended_total{site="core.cycleMu"} 3`,
		`hcsgc_contention_cas_ops_total{structure="heap.pageBump"} 20`,
		`hcsgc_contention_cas_retries_total{structure="heap.pageBump"} 2`,
		`hcsgc_contention_wait_ns{site="core.cycleMu",quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if snap := p.Snapshot(); len(snap.Workers) != 2 || snap.Workers[0].Scanned != 5 ||
		snap.Workers[1].BusyCycles != 100 || snap.Imbalance != 0 {
		t.Errorf("worker table = %+v, imbalance %v, want two workers, scanned 5 and busy 100, balanced",
			snap.Workers, snap.Imbalance)
	}
}

// BenchmarkMutex prices the wrapper against a bare sync.Mutex:
// uncontended lock/unlock with the plane off (nil site), on
// (instrumented), and the raw standard-library baseline. The
// instrumented fast path must stay within a handful of nanoseconds of
// raw — one TryLock plus one atomic add.
func BenchmarkMutex(b *testing.B) {
	b.Run("sync", func(b *testing.B) {
		var mu sync.Mutex
		for i := 0; i < b.N; i++ {
			mu.Lock()
			mu.Unlock()
		}
	})
	b.Run("wrapper-off", func(b *testing.B) {
		var mu Mutex
		for i := 0; i < b.N; i++ {
			mu.Lock()
			mu.Unlock()
		}
	})
	b.Run("wrapper-on", func(b *testing.B) {
		p := New()
		var mu Mutex
		mu.Instrument(p.NewSite("bench.mu"))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mu.Lock()
			mu.Unlock()
		}
	})
}

// TestContentionEndpoint: the /contention endpoint serves the plane's
// ranked snapshot as JSON — the golden shape downstream tooling (the CI
// smoke step, dashboards) parses. Before a source is installed the
// endpoint answers null, matching the sink's other pull endpoints.
func TestContentionEndpoint(t *testing.T) {
	sink := telemetry.NewSink()
	srv := httptest.NewServer(sink.Handler())
	defer srv.Close()

	get := func() string {
		resp, err := http.Get(srv.URL + "/contention")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/contention status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("/contention content type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if got := strings.TrimSpace(get()); got != "null" {
		t.Fatalf("/contention without a source = %q, want null", got)
	}

	p := New()
	hot := p.NewSite("core.cycleMu")
	addAcquisitions(hot, 10)
	hot.contended.Add(4)
	cold := p.NewSite("heap.mu")
	addAcquisitions(cold, 2)
	fwd := p.NewOpSite("heap.forwarding")
	for i := 0; i < 2; i++ {
		fwd.Op()
	}
	for i := 0; i < 4; i++ {
		fwd.Retry()
	}
	p.OnCycle([]WorkerTotals{
		{Scanned: 5, Relocated: 1, BusyCycles: 100},
		{Scanned: 3, BusyCycles: 100},
	})
	sink.SetEndpoint("contention", func() any { return p.Snapshot() })

	var snap Snapshot
	if err := json.Unmarshal([]byte(get()), &snap); err != nil {
		t.Fatalf("/contention does not parse: %v", err)
	}
	if snap.Cycles != 1 {
		t.Errorf("cycles = %d, want 1", snap.Cycles)
	}
	if len(snap.Sites) != 2 || snap.Sites[0].Name != "core.cycleMu" {
		t.Errorf("ranked sites = %+v, want core.cycleMu first", snap.Sites)
	}
	if snap.Sites[0].Contended != 4 || snap.Sites[0].ContendedFrac != 0.4 {
		t.Errorf("top site = %+v, want contended 4 (40%%)", snap.Sites[0])
	}
	if len(snap.CAS) != 1 || snap.CAS[0].Name != "heap.forwarding" || snap.CAS[0].Retries != 4 {
		t.Errorf("CAS table = %+v", snap.CAS)
	}
	if len(snap.Workers) != 2 || snap.Workers[0].Scanned != 5 {
		t.Errorf("workers = %+v", snap.Workers)
	}
}

// TestResetPlaneIsLikeANewOne: a reset plane snapshots like a new one, the
// same registrations and cycles then snapshot alike on both, and the reset
// plane hands its old sites back out by name instead of building new ones.
func TestResetPlaneIsLikeANewOne(t *testing.T) {
	// Each plane's instrumented mutex; the sites outlive them.
	var mu, freshMu Mutex
	use := func(p *Plane, mu *Mutex) (*Site, *OpSite) {
		s := p.NewSite("heap.mu")
		mu.Instrument(s)
		mu.Lock()
		mu.Unlock()
		o := p.NewOpSite("heap.pageBump")
		o.Op()
		o.Retry()
		p.OnCycle([]WorkerTotals{{Scanned: 5, BusyCycles: 10}, {Scanned: 7, BusyCycles: 30}})
		return s, o
	}
	p := New()
	s, o := use(p, &mu)
	s.wait.Record(1000)
	s.contended.Add(1)
	p.Reset()
	if got, want := p.Snapshot(), New().Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reset plane snapshots %+v, a new one %+v", got, want)
	}
	fresh := New()
	mu = Mutex{}
	s2, o2 := use(p, &mu)
	use(fresh, &freshMu)
	if got, want := p.Snapshot(), fresh.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the same use, reset plane snapshots %+v, a new one %+v", got, want)
	}
	if s2 != s || o2 != o {
		t.Error("the reset plane built new sites for names it had")
	}
	if allocs := testing.AllocsPerRun(5, func() {
		p.Reset()
		use(p, &mu)
	}); allocs != 0 {
		t.Errorf("reset and reuse made %v host allocations, want 0", allocs)
	}
}
