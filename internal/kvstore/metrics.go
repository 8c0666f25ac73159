package kvstore

import (
	"fmt"
	"sort"
	"sync"

	"hcsgc/internal/loadgen"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// SLOCycles is the serving SLO in virtual cycles, the one bound every part
// of the ledger judges by: a success within it is goodput, one over it is a
// violation the tail section classifies, and the protected serving path's
// stale shed enforces it as a budget. Well above pause cost, well below
// stall cost (the second-to-top rung of DefaultSLOThresholds).
const SLOCycles = 1_000_000

// Metrics is the KV serving ledger: every measurement a KV run makes of its
// requests. A successful request lands in its phase's request-latency HDR
// histogram on the virtual-cycle timeline and in its op's counter; a failed
// one in the count of its one cause. Beside them: lookup hit/miss counters,
// session retirements, the successes within the SLO, the serving window's
// span and allocation volume, and the tail section (tail.go): the
// successes over the SLO by cause, and the slowest of them. Counters and
// histograms are lock-free; instances merge across server threads and
// across A/B repeat runs (histograms add slot-wise, so the merged quantiles
// are exact over the union of samples).
//
// Accounting is per thread: each KV server thread records into a Metrics
// of its own (through its Classifier) and folds it into the run's
// (FoldInto) every 1024 requests it handles and when it exits, so the run's
// accumulator — what /kv, /overload, /tailattr and /metrics serve — lags
// each thread by at most 1024 requests and is exact once the run ends.
type Metrics struct {
	phase [loadgen.NumPhases]*latency.Hist
	// The counts are the cells /metrics serves once BindTelemetry has had a
	// registry adopt them.
	ops     [loadgen.NumOps]telemetry.Counter
	hits    telemetry.Counter
	misses  telemetry.Counter
	retired telemetry.Counter
	failed  [numFailures]telemetry.Counter
	// goodput counts the successes within SLOCycles.
	goodput telemetry.Counter
	// spanV and allocBytes sum the runs' serving spans (virtual cycles) and
	// the heap bytes their server threads allocated while serving.
	spanV      telemetry.Counter
	allocBytes telemetry.Counter

	// The tail section: the successes over SLOCycles by cause (a count and
	// a latency histogram each) and how many of them name a concrete cause
	// and cycle.
	causeCount [numCauses]telemetry.Counter
	causeHist  [numCauses]*latency.Hist
	attributed telemetry.Counter
	// ex keeps the slowest violations. Its owner classifies into it
	// without a lock; exMu guards it where other goroutines meet: Merge
	// into it, and Tail reading it.
	exMu sync.Mutex
	ex   exemplars
}

// Failure is why a request ended without completing; each failed request
// has exactly one.
type Failure int

const (
	// Shed: dropped at dequeue because queueing delay had already consumed
	// its SLO budget.
	Shed Failure = iota
	// DeadlineExceeded: dropped at dequeue past its deadline, or unwound by
	// its allocation budget.
	DeadlineExceeded
	// OOM: failed by heap exhaustion (a per-request failure, not an
	// aborted run).
	OOM
	numFailures
)

// NewMetrics returns an empty accumulator.
func NewMetrics() *Metrics {
	mx := &Metrics{}
	for i := range mx.phase {
		mx.phase[i] = latency.NewHist()
	}
	for i := range mx.causeHist {
		mx.causeHist[i] = latency.NewHist()
	}
	return mx
}

// spareLedgers holds the thread ledgers handed back by Release, for the
// next TakeMetrics: a server thread's ledger lives as long as the thread,
// and the threads of the next run in the process reuse its histograms.
var spareLedgers struct {
	mu   sync.Mutex
	list []*Metrics
}

// TakeMetrics returns an empty accumulator, reusing one that Release
// handed back if there is one.
func TakeMetrics() *Metrics {
	spareLedgers.mu.Lock()
	defer spareLedgers.mu.Unlock()
	n := len(spareLedgers.list)
	if n == 0 {
		return NewMetrics()
	}
	mx := spareLedgers.list[n-1]
	spareLedgers.list[n-1] = nil
	spareLedgers.list = spareLedgers.list[:n-1]
	return mx
}

// Release hands an empty accumulator back for TakeMetrics to reuse. A
// thread ledger is empty right after its last FoldInto; nothing may use
// it, or a Classifier recording into it, afterwards.
func (mx *Metrics) Release() {
	if mx == nil {
		return
	}
	spareLedgers.mu.Lock()
	spareLedgers.list = append(spareLedgers.list, mx)
	spareLedgers.mu.Unlock()
}

// RecordRequest records one completed request: its phase, op and
// enqueue-to-completion latency in virtual cycles, counting it as goodput
// when that is within SLOCycles. It reports whether the request violated
// the SLO; Classifier.Observe classifies the ones that did.
//
//hcsgc:alloc-free
func (mx *Metrics) RecordRequest(phase int, op loadgen.Op, latV uint64) (violated bool) {
	if mx == nil {
		return false
	}
	if phase >= 0 && phase < len(mx.phase) {
		mx.phase[phase].Record(latV)
	}
	if op < loadgen.NumOps {
		mx.ops[op].Inc()
	}
	if latV > SLOCycles {
		return true
	}
	mx.goodput.Inc()
	return false
}

// RecordFailure records one request that ended without completing.
//
//hcsgc:alloc-free
func (mx *Metrics) RecordFailure(why Failure) {
	if mx == nil {
		return
	}
	mx.failed[why].Inc()
}

// RecordLookup records a GET hit or miss.
//
//hcsgc:alloc-free
func (mx *Metrics) RecordLookup(hit bool) {
	if mx == nil {
		return
	}
	if hit {
		mx.hits.Inc()
	} else {
		mx.misses.Inc()
	}
}

// RecordSessionRetired records one retired key-range session.
//
//hcsgc:alloc-free
func (mx *Metrics) RecordSessionRetired() {
	if mx == nil {
		return
	}
	mx.retired.Inc()
}

// AddServe accumulates one run's serving span (virtual cycles; the goodput
// rate is normalized against it) and the heap bytes its server threads
// allocated inside that window.
func (mx *Metrics) AddServe(spanV, allocBytes uint64) {
	if mx == nil {
		return
	}
	mx.spanV.Add(spanV)
	mx.allocBytes.Add(allocBytes)
}

// ServeAllocBytes returns the accumulated serving-window allocation volume.
func (mx *Metrics) ServeAllocBytes() uint64 {
	if mx == nil {
		return 0
	}
	return mx.allocBytes.Value()
}

// Merge folds o into mx (histograms slot-wise, counters additively,
// exemplar stores to the slowest of both). o must have no writer: a
// thread's own ledger folding, or a run's after the run. Phases go before
// cause counts, cause counts before the attributed count: Tail reads them
// in the reverse order.
//
//hcsgc:alloc-free
func (mx *Metrics) Merge(o *Metrics) {
	if mx == nil || o == nil {
		return
	}
	for i := range mx.phase {
		mx.phase[i].Merge(o.phase[i])
	}
	for i := range mx.causeHist {
		mx.causeHist[i].Merge(o.causeHist[i])
		mx.causeCount[i].Add(o.causeCount[i].Value())
	}
	mx.attributed.Add(o.attributed.Value())
	mx.exMu.Lock()
	for i := 0; i < o.ex.n; i++ {
		mx.ex.add(&o.ex.h[i])
	}
	mx.exMu.Unlock()
	for i := range mx.ops {
		mx.ops[i].Add(o.ops[i].Value())
	}
	for i := range mx.failed {
		mx.failed[i].Add(o.failed[i].Value())
	}
	mx.hits.Add(o.hits.Value())
	mx.misses.Add(o.misses.Value())
	mx.retired.Add(o.retired.Value())
	mx.goodput.Add(o.goodput.Value())
	mx.spanV.Add(o.spanV.Value())
	mx.allocBytes.Add(o.allocBytes.Value())
}

// FoldInto moves what mx accumulated into dst and empties mx. Owner only:
// a server thread folds its private Metrics into the run's, so the shared
// cells take one write per fold instead of one per request.
//
//hcsgc:alloc-free
func (mx *Metrics) FoldInto(dst *Metrics) {
	if mx == nil {
		return
	}
	dst.Merge(mx)
	for _, h := range mx.phase {
		h.Reset()
	}
	for _, h := range mx.causeHist {
		h.Reset()
	}
	*mx = Metrics{phase: mx.phase, causeHist: mx.causeHist}
}

// BindTelemetry has reg serve the hcsgc_kv_* and hcsgc_tail_* metric
// families and the stale-shed count from this accumulator (re-pointing
// them if another was bound): the counters are its own cells, the
// per-phase and per-cause latency summaries its HDR histograms, so scrapes
// see them live and over the same requests. The rest of the outcome
// accounting is the /overload endpoint's Outcomes.
func (mx *Metrics) BindTelemetry(reg *telemetry.Registry) {
	if mx == nil || reg == nil {
		return
	}
	for op := loadgen.Op(0); op < loadgen.NumOps; op++ {
		reg.Adopt("hcsgc_kv_requests_total",
			"KV requests completed, by operation.", &mx.ops[op], "op", op.String())
	}
	reg.Adopt("hcsgc_kv_lookups_total",
		"KV GET lookups, by outcome.", &mx.hits, "result", "hit")
	reg.Adopt("hcsgc_kv_lookups_total",
		"KV GET lookups, by outcome.", &mx.misses, "result", "miss")
	reg.Adopt("hcsgc_kv_sessions_retired_total",
		"KV key-range sessions retired by churn.", &mx.retired)
	for i, name := range loadgen.PhaseNames {
		reg.Summary("hcsgc_kv_request_cycles",
			"KV request latency in virtual cycles, by load phase.",
			mx.phase[i], "phase", name)
	}
	reg.Adopt("hcsgc_overload_stale_sheds_total",
		"Requests shed at dequeue with their SLO budget already consumed by queueing delay.", &mx.failed[Shed])
	reg.Adopt("hcsgc_tail_attributed_total",
		"SLO violations carrying a concrete GC cause and responsible cycle id.", &mx.attributed)
	for _, c := range causeOrder {
		reg.Adopt("hcsgc_tail_violations_total",
			"SLO-violating requests, by attributed cause.", &mx.causeCount[c], "cause", c.String())
		reg.Summary("hcsgc_tail_cause_cycles",
			"SLO-violating request latency in virtual cycles, by attributed cause (HDR summary).",
			mx.causeHist[c], "cause", c.String())
	}
}

// Dist is one phase's latency distribution summary. Quantiles carry the
// HDR histogram's <=1/32 relative slot error; Max is exact.
type Dist struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	P9999 float64 `json:"p9999"`
	Max   uint64  `json:"max"`
}

func distOf(h *latency.Hist) Dist {
	return Dist{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		P9999: h.Quantile(0.9999),
		Max:   h.Max(),
	}
}

// SLOPoint is one rung of the SLO ladder: the fraction of requests whose
// latency was <= Threshold virtual cycles (an MMU-style curve over the
// request distribution rather than the mutator timeline).
type SLOPoint struct {
	Threshold uint64  `json:"threshold_cycles"`
	Fraction  float64 `json:"fraction"`
}

// DefaultSLOThresholds is the report's threshold ladder, spanning
// barrier-only fast requests through multi-pause stalls.
func DefaultSLOThresholds() []uint64 {
	return []uint64{2_000, 5_000, 10_000, 20_000, 50_000,
		100_000, 200_000, 500_000, 1_000_000, 5_000_000}
}

// PhaseReport is one load phase's latency view.
type PhaseReport struct {
	Phase string     `json:"phase"`
	Dist  Dist       `json:"dist"`
	SLO   []SLOPoint `json:"slo"`
}

// Report is the serving-side summary of a KV run (or merged runs).
type Report struct {
	Phases          []PhaseReport     `json:"phases"`
	Ops             map[string]uint64 `json:"ops"`
	Hits            uint64            `json:"hits"`
	Misses          uint64            `json:"misses"`
	SessionsRetired uint64            `json:"sessions_retired"`
}

// Report snapshots the accumulated metrics. A nil or empty thresholds
// slice selects DefaultSLOThresholds; thresholds are reported sorted.
func (mx *Metrics) Report(thresholds []uint64) Report {
	if len(thresholds) == 0 {
		thresholds = DefaultSLOThresholds()
	} else {
		thresholds = append([]uint64(nil), thresholds...)
		sort.Slice(thresholds, func(i, j int) bool { return thresholds[i] < thresholds[j] })
	}
	r := Report{Ops: make(map[string]uint64, loadgen.NumOps)}
	for i, name := range loadgen.PhaseNames {
		h := mx.phase[i]
		pr := PhaseReport{Phase: name, Dist: distOf(h)}
		for _, th := range thresholds {
			pr.SLO = append(pr.SLO, SLOPoint{Threshold: th, Fraction: h.FractionLE(th)})
		}
		r.Phases = append(r.Phases, pr)
	}
	for op := loadgen.Op(0); op < loadgen.NumOps; op++ {
		r.Ops[op.String()] = mx.ops[op].Value()
	}
	r.Hits = mx.hits.Value()
	r.Misses = mx.misses.Value()
	r.SessionsRetired = mx.retired.Value()
	return r
}

// Validate checks a report's structural invariants: every phase present
// with a monotone SLO curve, and op counts consistent with the lookup
// counters. It is the shape check behind the bench JSON round-trip test.
func (r Report) Validate() error {
	if len(r.Phases) != len(loadgen.PhaseNames) {
		return fmt.Errorf("kvstore: report has %d phases, want %d",
			len(r.Phases), len(loadgen.PhaseNames))
	}
	for i, pr := range r.Phases {
		if pr.Phase != loadgen.PhaseNames[i] {
			return fmt.Errorf("kvstore: phase %d named %q, want %q",
				i, pr.Phase, loadgen.PhaseNames[i])
		}
		if len(pr.SLO) == 0 {
			return fmt.Errorf("kvstore: phase %q has no SLO curve", pr.Phase)
		}
		prev := SLOPoint{}
		for _, p := range pr.SLO {
			if p.Threshold < prev.Threshold || p.Fraction < prev.Fraction {
				return fmt.Errorf("kvstore: phase %q SLO curve not monotone at threshold %d",
					pr.Phase, p.Threshold)
			}
			if p.Fraction < 0 || p.Fraction > 1 {
				return fmt.Errorf("kvstore: phase %q SLO fraction %v out of [0,1]",
					pr.Phase, p.Fraction)
			}
			prev = p
		}
		d := pr.Dist
		if d.Count > 0 && (d.P50 > d.P99 || d.P99 > d.P999 || d.P999 > d.P9999 ||
			d.P9999 > float64(d.Max)) {
			return fmt.Errorf("kvstore: phase %q quantiles not monotone", pr.Phase)
		}
	}
	if r.Hits+r.Misses > 0 && r.Ops[loadgen.OpGet.String()] == 0 {
		return fmt.Errorf("kvstore: lookups recorded without GET ops")
	}
	return nil
}

// Outcomes is the request-outcome section of the ledger, JSON-shaped for
// the /overload endpoint and the overload report: every request ends
// exactly once, as a success or a failure.
type Outcomes struct {
	// Sheds counts requests dropped at dequeue because queueing delay had
	// already consumed the SLO budget.
	Sheds uint64 `json:"sheds"`

	// Failures partition into Sheds, DeadlineExceeded and OOMFailures.
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	OOMFailures      uint64 `json:"oom_failures"`
	Failures         uint64 `json:"failures"`

	Successes uint64 `json:"successes"`
	// Goodput/Badput split completed work: successes within the SLO vs
	// over-SLO successes plus definitive failures.
	Goodput uint64 `json:"goodput"`
	Badput  uint64 `json:"badput"`
	// GoodputPerMcycle normalizes goodput against the serving span.
	GoodputPerMcycle float64 `json:"goodput_per_mcycle"`
	// ShedRate is sheds over offered (successes + failures) requests.
	ShedRate float64 `json:"shed_rate"`

	SLOThresholdCycles uint64 `json:"slo_threshold_cycles"`
	ServeSpanVCycles   uint64 `json:"serve_span_vcycles"`

	// Success is the successful-request latency distribution (virtual
	// cycles): the three phase histograms merged, which is exact.
	Success latency.Dist `json:"success"`
}

// successScratch is where Outcomes merges the phase histograms: one for the
// process, under its lock, so a snapshot allocates nothing.
var successScratch struct {
	mu sync.Mutex
	h  latency.Hist
}

// Outcomes snapshots the outcome accounting.
func (mx *Metrics) Outcomes() Outcomes {
	successScratch.mu.Lock()
	success := &successScratch.h
	success.Reset()
	for _, h := range mx.phase {
		success.Merge(h)
	}
	dist := success.Dist()
	successScratch.mu.Unlock()
	o := Outcomes{
		Sheds:              mx.failed[Shed].Value(),
		DeadlineExceeded:   mx.failed[DeadlineExceeded].Value(),
		OOMFailures:        mx.failed[OOM].Value(),
		Goodput:            mx.goodput.Value(),
		SLOThresholdCycles: SLOCycles,
		ServeSpanVCycles:   mx.spanV.Value(),
		Success:            dist,
	}
	o.Successes = o.Success.Count
	o.Failures = o.Sheds + o.DeadlineExceeded + o.OOMFailures
	o.Badput = (o.Successes - o.Goodput) + o.Failures
	if offered := o.Successes + o.Failures; offered > 0 {
		o.ShedRate = float64(o.Sheds) / float64(offered)
	}
	if o.ServeSpanVCycles > 0 {
		o.GoodputPerMcycle = float64(o.Goodput) / (float64(o.ServeSpanVCycles) / 1e6)
	}
	return o
}

// Validate checks the outcome section's structural invariants: the goodput
// split must partition successes, the failure causes must partition
// failures, and the shed rate must be a fraction.
func (o Outcomes) Validate() error {
	if o.Goodput > o.Successes {
		return fmt.Errorf("kvstore: goodput %d exceeds successes %d", o.Goodput, o.Successes)
	}
	if o.Badput != (o.Successes-o.Goodput)+o.Failures {
		return fmt.Errorf("kvstore: badput %d does not partition successes/failures", o.Badput)
	}
	if causes := o.Sheds + o.DeadlineExceeded + o.OOMFailures; causes != o.Failures {
		return fmt.Errorf("kvstore: %d sheds + %d deadline expiries + %d OOM failures != %d failures",
			o.Sheds, o.DeadlineExceeded, o.OOMFailures, o.Failures)
	}
	if o.ShedRate < 0 || o.ShedRate > 1 {
		return fmt.Errorf("kvstore: shed rate %v out of [0,1]", o.ShedRate)
	}
	if d := o.Success; d.Count > 0 && (d.P50 > d.P99 || d.P99 > d.P999 || d.P999 > d.Max) {
		return fmt.Errorf("kvstore: success quantiles not monotone")
	}
	if d := o.Success; d.Count != o.Successes {
		return fmt.Errorf("kvstore: success histogram count %d != successes %d", d.Count, o.Successes)
	}
	return nil
}
