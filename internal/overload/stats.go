package overload

import (
	"fmt"
	"sync/atomic"

	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// Stats accumulates the overload plane's request-outcome accounting:
// offered/admitted/shed counts by priority, fast-fail outcomes (deadline
// expiries, per-request OOM failures), client retries, and the
// goodput/badput split over successful requests. All recording is
// lock-free and nil-safe; instances merge across server threads and
// across A/B repeat runs.
//
// The request outcomes are accounted per thread: each KV server thread
// records them into a Stats of its own and folds it into the run's
// (FoldInto) every 1024 requests it handles and when it exits, so the run's
// accumulator — what /overload serves — lags each thread by at most 1024
// requests and is exact once the run ends. The Controller's admission
// accounting (admitted, sheds at admission, transitions, emergencies) is
// one state machine's and goes straight to the run's Stats.
type Stats struct {
	admitted  atomic.Uint64
	withinSLO atomic.Uint64
	spanV     atomic.Uint64
	// serveAllocBytes is the heap allocation volume performed by serving
	// threads inside the serving window. The zero-allocations-after-shed
	// regression test pins it to 0 under a forced-shed schedule.
	serveAllocBytes atomic.Uint64

	// The outcome counts. BindTelemetry has the registry adopt stale, so it
	// is stored once.
	sheds     [NumPriorities]telemetry.Counter
	stale     telemetry.Counter
	forced    telemetry.Counter
	deadline  telemetry.Counter
	oom       telemetry.Counter
	retries   telemetry.Counter
	failures  telemetry.Counter
	successes telemetry.Counter
	trans     telemetry.Counter
	emerg     telemetry.Counter

	// success holds successful-request latencies (enqueue to final
	// completion, retries included) across all phases.
	success *latency.Hist
}

// NewStats returns an empty accumulator.
func NewStats() *Stats {
	return &Stats{success: latency.NewHist()}
}

func (st *Stats) recordAdmit() {
	if st == nil {
		return
	}
	st.admitted.Add(1)
}

func (st *Stats) recordShed(pri Priority, forced bool) {
	if st == nil {
		return
	}
	st.sheds[pri].Add(1)
	if forced {
		st.forced.Add(1)
	}
}

// RecordStaleShed records one request shed at dequeue because its
// queueing delay had already consumed its SLO budget: serving it could
// only produce an over-SLO response (badput), so dropping it is strictly
// better — the freed capacity goes to requests that can still meet the
// SLO. Counted as a shed of its priority class plus a dedicated stale
// counter, so the dequeue-side and admission-side shed volumes stay
// separable in telemetry.
func (st *Stats) RecordStaleShed(pri Priority) {
	if st == nil {
		return
	}
	st.sheds[pri].Add(1)
	st.stale.Add(1)
}

func (st *Stats) recordTransition() {
	if st == nil {
		return
	}
	st.trans.Add(1)
}

func (st *Stats) recordEmergency() {
	if st == nil {
		return
	}
	st.emerg.Add(1)
}

// RecordDeadlineExceeded records one attempt failed fast by the
// per-request allocation budget.
func (st *Stats) RecordDeadlineExceeded() {
	if st == nil {
		return
	}
	st.deadline.Add(1)
}

// RecordOOMFailure records one attempt failed by heap exhaustion
// (surfaced as a per-request failure instead of aborting the run).
func (st *Stats) RecordOOMFailure() {
	if st == nil {
		return
	}
	st.oom.Add(1)
}

// RecordRetry records one client retry (after jittered backoff).
func (st *Stats) RecordRetry() {
	if st == nil {
		return
	}
	st.retries.Add(1)
}

// RecordFailure records one request that exhausted its retry budget
// without completing.
//
//hcsgc:alloc-free
func (st *Stats) RecordFailure() {
	if st == nil {
		return
	}
	st.failures.Add(1)
}

// RecordSuccess records one completed request: its enqueue-to-completion
// latency (virtual cycles, retries included) and whether it landed
// within the goodput SLO.
//
//hcsgc:alloc-free
func (st *Stats) RecordSuccess(latV uint64, withinSLO bool) {
	if st == nil {
		return
	}
	st.successes.Add(1)
	st.success.Record(latV)
	if withinSLO {
		st.withinSLO.Add(1)
	}
}

// AddServeSpan accumulates one run's serving span (virtual cycles); the
// goodput rate is normalized against it.
func (st *Stats) AddServeSpan(v uint64) {
	if st == nil {
		return
	}
	st.spanV.Add(v)
}

// AddServeAllocBytes accumulates serving-window heap allocation volume.
func (st *Stats) AddServeAllocBytes(v uint64) {
	if st == nil {
		return
	}
	st.serveAllocBytes.Add(v)
}

// ServeAllocBytes returns the accumulated serving-window allocation
// volume (0 unless a signal plane was attached).
func (st *Stats) ServeAllocBytes() uint64 {
	if st == nil {
		return 0
	}
	return st.serveAllocBytes.Load()
}

// Merge folds o into st (histograms slot-wise, counters additively).
//
//hcsgc:alloc-free
func (st *Stats) Merge(o *Stats) {
	if st == nil || o == nil {
		return
	}
	st.admitted.Add(o.admitted.Load())
	for i := range st.sheds {
		st.sheds[i].Add(o.sheds[i].Value())
	}
	st.stale.Add(o.stale.Value())
	st.forced.Add(o.forced.Value())
	st.deadline.Add(o.deadline.Value())
	st.oom.Add(o.oom.Value())
	st.retries.Add(o.retries.Value())
	st.failures.Add(o.failures.Value())
	st.successes.Add(o.successes.Value())
	st.withinSLO.Add(o.withinSLO.Load())
	st.trans.Add(o.trans.Value())
	st.emerg.Add(o.emerg.Value())
	st.spanV.Add(o.spanV.Load())
	st.serveAllocBytes.Add(o.serveAllocBytes.Load())
	st.success.Merge(o.success)
}

// FoldInto moves what st accumulated into dst and empties st. Owner only:
// a server thread folds its private Stats into the run's, so the shared
// cells take one write per fold instead of one per request.
//
//hcsgc:alloc-free
func (st *Stats) FoldInto(dst *Stats) {
	if st == nil {
		return
	}
	dst.Merge(st)
	st.success.Reset()
	*st = Stats{success: st.success}
}

// BindTelemetry has reg serve the dequeue-side drop count from this
// accumulator (re-pointing it if another was bound) — the one overload
// series a diagnosis recipe reads (EXPERIMENTS.md). The rest of the
// accounting is the /overload endpoint's Report.
func (st *Stats) BindTelemetry(reg *telemetry.Registry) {
	if st == nil || reg == nil {
		return
	}
	reg.Adopt("hcsgc_overload_stale_sheds_total",
		"Requests shed at dequeue with their SLO budget already consumed by queueing delay.", &st.stale)
}

// Report is the overload plane's accounting snapshot, JSON-shaped for
// the /overload endpoint and the bench report.
type Report struct {
	// State is the controller's admission state at snapshot time (only
	// set by Controller.Report; a bare Stats reports "").
	State string `json:"state,omitempty"`

	Admitted  uint64 `json:"admitted"`
	ShedPoint uint64 `json:"shed_point"`
	ShedBulk  uint64 `json:"shed_bulk"`
	// StaleSheds is the subset of ShedPoint+ShedBulk dropped at dequeue
	// because queueing delay had already consumed the SLO budget.
	StaleSheds  uint64 `json:"stale_sheds,omitempty"`
	ForcedSheds uint64 `json:"forced_sheds,omitempty"`

	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	OOMFailures      uint64 `json:"oom_failures"`
	Retries          uint64 `json:"retries"`
	Failures         uint64 `json:"failures"`

	Successes uint64 `json:"successes"`
	// Goodput/Badput split completed work: successes within the SLO vs
	// over-SLO successes plus definitive failures.
	Goodput uint64 `json:"goodput"`
	Badput  uint64 `json:"badput"`
	// GoodputPerMcycle normalizes goodput against the serving span.
	GoodputPerMcycle float64 `json:"goodput_per_mcycle"`
	// ShedRate is sheds over offered (admitted + shed) requests.
	ShedRate float64 `json:"shed_rate"`

	Transitions  uint64 `json:"transitions"`
	EmergencyGCs uint64 `json:"emergency_gcs"`

	SLOThresholdCycles uint64 `json:"slo_threshold_cycles"`
	ServeSpanVCycles   uint64 `json:"serve_span_vcycles"`

	// Success is the successful-request latency distribution (virtual
	// cycles, retries included, all phases).
	Success latency.Dist `json:"success"`
}

// Report snapshots the accumulator against the given goodput SLO.
func (st *Stats) Report(sloCycles uint64) Report {
	if st == nil {
		return Report{SLOThresholdCycles: sloCycles}
	}
	r := Report{
		Admitted:           st.admitted.Load(),
		ShedPoint:          st.sheds[PriorityPoint].Value(),
		ShedBulk:           st.sheds[PriorityBulk].Value(),
		StaleSheds:         st.stale.Value(),
		ForcedSheds:        st.forced.Value(),
		DeadlineExceeded:   st.deadline.Value(),
		OOMFailures:        st.oom.Value(),
		Retries:            st.retries.Value(),
		Failures:           st.failures.Value(),
		Successes:          st.successes.Value(),
		Goodput:            st.withinSLO.Load(),
		Transitions:        st.trans.Value(),
		EmergencyGCs:       st.emerg.Value(),
		SLOThresholdCycles: sloCycles,
		ServeSpanVCycles:   st.spanV.Load(),
		Success:            st.success.Dist(),
	}
	r.Badput = (r.Successes - r.Goodput) + r.Failures
	if offered := r.Admitted + r.ShedPoint + r.ShedBulk; offered > 0 {
		r.ShedRate = float64(r.ShedPoint+r.ShedBulk) / float64(offered)
	}
	if r.ServeSpanVCycles > 0 {
		r.GoodputPerMcycle = float64(r.Goodput) / (float64(r.ServeSpanVCycles) / 1e6)
	}
	return r
}

// Validate checks a report's structural invariants: the goodput split
// must partition successes and the shed rate must be a fraction.
func (r Report) Validate() error {
	if r.Goodput > r.Successes {
		return fmt.Errorf("overload: goodput %d exceeds successes %d", r.Goodput, r.Successes)
	}
	if r.Badput != (r.Successes-r.Goodput)+r.Failures {
		return fmt.Errorf("overload: badput %d does not partition successes/failures", r.Badput)
	}
	if r.StaleSheds > r.ShedPoint+r.ShedBulk {
		return fmt.Errorf("overload: stale sheds %d exceed total sheds %d",
			r.StaleSheds, r.ShedPoint+r.ShedBulk)
	}
	if r.ShedRate < 0 || r.ShedRate > 1 {
		return fmt.Errorf("overload: shed rate %v out of [0,1]", r.ShedRate)
	}
	if d := r.Success; d.Count > 0 && (d.P50 > d.P99 || d.P99 > d.P999 || d.P999 > d.Max) {
		return fmt.Errorf("overload: success quantiles not monotone")
	}
	if d := r.Success; d.Count != r.Successes {
		return fmt.Errorf("overload: success histogram count %d != successes %d", d.Count, r.Successes)
	}
	return nil
}
