package signals

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"

	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// Cause classifies why an SLO-violating request was slow.
type Cause uint8

// The causes, in dominance order for a single request: its own
// allocation stall, a stop-the-world pause it sat through, queueing
// behind an earlier disruption on its server thread (or a concurrent
// stall elsewhere), or plain service time.
const (
	// CauseService: the request exceeded the SLO with no GC involvement
	// observed — the residual bucket.
	CauseService Cause = iota
	// CauseSTWPause: a stop-the-world pause landed inside the request's
	// execution window.
	CauseSTWPause
	// CauseAllocStall: the request's own allocation stalled waiting for
	// a GC cycle (PR 6: p50 ~30M virtual cycles, the dominant tail
	// mechanism).
	CauseAllocStall
	// CauseQueuedBehindStall: the request itself ran clean but arrived
	// while its server thread (or the runtime at large) was digging out
	// of an earlier stall/pause — the open-loop queueing convoy.
	CauseQueuedBehindStall

	numCauses
)

// String names the cause for reports and metric labels.
func (c Cause) String() string {
	switch c {
	case CauseService:
		return "service"
	case CauseSTWPause:
		return "stw-pause"
	case CauseAllocStall:
		return "alloc-stall"
	case CauseQueuedBehindStall:
		return "queued-behind-stall"
	default:
		return "unknown"
	}
}

// causeOrder is the report order: concrete GC causes first, residual
// last.
var causeOrder = []Cause{CauseSTWPause, CauseAllocStall, CauseQueuedBehindStall, CauseService}

// TailConfig tunes a TailAttributor. The zero value gets usable
// defaults.
type TailConfig struct {
	// SLOThresholdCycles is the request-latency SLO in virtual cycles;
	// requests above it are violations and get classified. Default
	// 1_000_000 (the second-to-top rung of the KV report's SLO ladder:
	// well above pause cost, well below stall cost).
	SLOThresholdCycles uint64
}

// maxExemplars bounds the slow-request exemplar store (TailReport.TopK).
const maxExemplars = 32

func (c TailConfig) withDefaults() TailConfig {
	if c.SLOThresholdCycles == 0 {
		c.SLOThresholdCycles = 1_000_000
	}
	return c
}

// Exemplar is one retained slow request: its identity, timing
// decomposition, assigned cause, and the responsible cycle's full
// CycleSignals record (which links the logged cycle record), captured at
// classification time.
type Exemplar struct {
	Seq   uint64 `json:"seq"`
	Op    string `json:"op"`
	Phase string `json:"phase"`
	// ArrivalV/StartV/EndV are the request's schedule arrival, service
	// start (after open-loop queueing) and completion on the virtual
	// timeline.
	ArrivalV uint64 `json:"arrival_vcycles"`
	StartV   uint64 `json:"start_vcycles"`
	EndV     uint64 `json:"end_vcycles"`
	// LatencyCycles = EndV - ArrivalV; QueueCycles = StartV - ArrivalV.
	LatencyCycles uint64 `json:"latency_cycles"`
	QueueCycles   uint64 `json:"queue_cycles"`
	// StallCycles/PauseCycles are the request's own allocation-stall and
	// STW-pause exposure during execution.
	StallCycles uint64 `json:"stall_cycles"`
	PauseCycles uint64 `json:"pause_cycles"`
	Cause       string `json:"cause"`
	// BehindCause names what a queued-behind-stall request queued behind
	// (alloc-stall, stw-pause, or concurrent-stall).
	BehindCause string `json:"behind_cause,omitempty"`
	// Cycle is the responsible GC cycle's sequence number (0 = none
	// identified).
	Cycle uint64 `json:"cycle"`
	// Signals is the responsible cycle's unified record, when it was
	// still in the plane's history at classification time.
	Signals *CycleSignals `json:"cycle_signals,omitempty"`
}

// exemplarHeap is a min-heap on LatencyCycles, so the store keeps the
// top-K slowest.
type exemplarHeap []Exemplar

func (h exemplarHeap) Len() int           { return len(h) }
func (h exemplarHeap) Less(i, j int) bool { return h[i].LatencyCycles < h[j].LatencyCycles }
func (h exemplarHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *exemplarHeap) Push(x any)        { *h = append(*h, x.(Exemplar)) }
func (h *exemplarHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// TailAttributor accumulates request-level slowness attribution: per-
// cause HDR latency histograms over the SLO-violating requests, the
// attributed fraction, and the bounded top-K exemplar store. Recording
// is concurrency-safe; instances merge across runs (histograms add
// slot-wise, so merged quantiles are exact over the union).
type TailAttributor struct {
	cfg TailConfig

	violations atomic.Uint64
	// requests, attributed and causeCount are the cells /metrics serves once
	// BindTelemetry has had a registry adopt them.
	requests   telemetry.Counter
	attributed telemetry.Counter
	causeCount [numCauses]telemetry.Counter
	causeHist  [numCauses]*latency.Hist

	mu   sync.Mutex
	topK exemplarHeap
}

// NewTailAttributor builds an attributor. A nil *TailAttributor is the
// disabled state: every method is a one-branch no-op.
func NewTailAttributor(cfg TailConfig) *TailAttributor {
	t := &TailAttributor{cfg: cfg.withDefaults()}
	for i := range t.causeHist {
		t.causeHist[i] = latency.NewHist()
	}
	return t
}

// Config returns the (defaulted) configuration.
func (t *TailAttributor) Config() TailConfig {
	if t == nil {
		return TailConfig{}
	}
	return t.cfg
}

// Obs is one completed request's raw observation, as the serving path
// measures it: virtual-timeline positions plus the deltas of the
// runtime's stall/pause/cycle counters across the execution window.
type Obs struct {
	Seq   uint64
	Op    string
	Phase string
	// ArrivalV is the scheduled (open-loop) arrival; StartV is when the
	// server thread began executing it; EndV is completion.
	ArrivalV, StartV, EndV uint64
	// OwnStallV is the request's own allocation-stall exposure (the
	// mutator's stall-virtual delta, net of pause cost); PauseV is the
	// STW pause cost accrued during execution; GlobalStalls is the
	// runtime-wide stall-count delta.
	OwnStallV, PauseV uint64
	GlobalStalls      uint64
	// CycleBefore/CycleAfter are the completed-GC-cycle counts around
	// the execution window.
	CycleBefore, CycleAfter uint64
}

// Classifier is one server thread's classification front-end: it owns
// the thread-local "last disruption" memory that lets queued requests
// inherit the responsible cycle of the stall or pause they queued
// behind. Not concurrency-safe; create one per serving thread.
type Classifier struct {
	t     *TailAttributor
	plane *Plane

	lastDisruptEnd   uint64
	lastDisruptCycle uint64
	lastDisruptCause Cause
}

// Classifier creates a per-thread classifier feeding this attributor,
// linking exemplars against plane (which may be nil). Nil-safe: a nil
// attributor returns a nil classifier, whose Observe is a one-branch
// no-op.
func (t *TailAttributor) Classifier(plane *Plane) *Classifier {
	if t == nil {
		return nil
	}
	return &Classifier{t: t, plane: plane}
}

// NoteDisruption maintains the convoy chain across requests Observe never
// sees — failed or dropped ones (deadline-expired, shed, OOM).
// A failed request that stalled or sat through a pause seeds the
// disruption window exactly as a successful one would; a failed request
// that merely arrived mid-backlog extends it (the queue has not drained).
// Without this the chain breaks at every failure: its successors queue
// behind a disruption the classifier never learned about and misclassify
// as plain service time. Nil-safe.
func (cl *Classifier) NoteDisruption(arrivalV, endV, cycleAfter, ownStallV, pauseV uint64) {
	if cl == nil {
		return
	}
	if ownStallV > 0 || pauseV > 0 {
		if endV > cl.lastDisruptEnd {
			cl.lastDisruptEnd = endV
			cl.lastDisruptCycle = cycleAfter
			if ownStallV >= pauseV {
				cl.lastDisruptCause = CauseAllocStall
			} else {
				cl.lastDisruptCause = CauseSTWPause
			}
		}
		return
	}
	if arrivalV < cl.lastDisruptEnd && endV > cl.lastDisruptEnd {
		cl.lastDisruptEnd = endV
	}
}

// Observe records one completed request, classifying it when it
// violates the SLO threshold. Nil-safe.
func (cl *Classifier) Observe(o Obs) {
	if cl == nil {
		return
	}
	t := cl.t
	t.requests.Inc()
	lat := o.EndV - o.ArrivalV
	if lat > t.cfg.SLOThresholdCycles {
		cause := CauseService
		respCycle := uint64(0)
		behind := ""
		switch {
		case o.OwnStallV > 0 && o.OwnStallV >= o.PauseV:
			// The request's own allocation stalled; the stall triggered
			// (or waited out) the cycle that completed during it.
			cause = CauseAllocStall
			respCycle = o.CycleAfter
		case o.PauseV > 0:
			cause = CauseSTWPause
			respCycle = o.CycleAfter
		case o.ArrivalV < cl.lastDisruptEnd:
			// The request arrived while this thread was still draining
			// the backlog behind an earlier stall/pause: blame that
			// disruption's cycle.
			cause = CauseQueuedBehindStall
			respCycle = cl.lastDisruptCycle
			behind = cl.lastDisruptCause.String()
		case o.GlobalStalls > 0:
			// No local disruption, but another thread stalled during the
			// window — the whole-runtime convoy case.
			cause = CauseQueuedBehindStall
			respCycle = o.CycleAfter
			behind = "concurrent-stall"
		}
		t.recordViolation(cause, lat, Exemplar{
			Seq: o.Seq, Op: o.Op, Phase: o.Phase,
			ArrivalV: o.ArrivalV, StartV: o.StartV, EndV: o.EndV,
			LatencyCycles: lat, QueueCycles: o.StartV - o.ArrivalV,
			StallCycles: o.OwnStallV, PauseCycles: o.PauseV,
			Cause: cause.String(), BehindCause: behind, Cycle: respCycle,
		}, cl.plane)
	}
	// Update the disruption memory after classification, so a request
	// that itself stalled is alloc-stall and only its successors queue
	// behind it.
	if o.OwnStallV > 0 || o.PauseV > 0 {
		if o.EndV > cl.lastDisruptEnd {
			cl.lastDisruptEnd = o.EndV
			cl.lastDisruptCycle = o.CycleAfter
			if o.OwnStallV >= o.PauseV {
				cl.lastDisruptCause = CauseAllocStall
			} else {
				cl.lastDisruptCause = CauseSTWPause
			}
		}
	} else if o.ArrivalV < cl.lastDisruptEnd && o.StartV > o.ArrivalV && o.EndV > cl.lastDisruptEnd {
		// The convoy outlives the disrupting request: this request arrived
		// mid-disruption and still found a queue, so the backlog it is
		// part of keeps delaying arrivals past the original window.
		// Extend the window to its completion (keeping the original
		// cycle/cause — the disruption that seeded the backlog is the one
		// to blame). The chain breaks on the first request that starts at
		// its arrival: the queue has drained.
		cl.lastDisruptEnd = o.EndV
	}
}

func (t *TailAttributor) recordViolation(cause Cause, lat uint64, ex Exemplar, plane *Plane) {
	t.violations.Add(1)
	t.causeCount[cause].Inc()
	t.causeHist[cause].Record(lat)
	if cause != CauseService && ex.Cycle != 0 {
		t.attributed.Inc()
	}
	t.mu.Lock()
	if len(t.topK) < maxExemplars {
		t.attachSignals(&ex, plane)
		heap.Push(&t.topK, ex)
	} else if lat > t.topK[0].LatencyCycles {
		t.attachSignals(&ex, plane)
		t.topK[0] = ex
		heap.Fix(&t.topK, 0)
	}
	t.mu.Unlock()
}

// attachSignals links the responsible cycle's CycleSignals, if it is still
// in the plane's history; the cycle record inside is the logged one,
// shared, not copied. Called only for exemplars that enter the top-K store.
func (t *TailAttributor) attachSignals(ex *Exemplar, plane *Plane) {
	if cs, ok := plane.Lookup(ex.Cycle); ok {
		ex.Signals = &cs
	}
}

// Merge folds o into t (histograms slot-wise, counters additively, the
// exemplar stores re-ranked into t's top-K). Nil-safe in both arguments.
func (t *TailAttributor) Merge(o *TailAttributor) {
	if t == nil || o == nil {
		return
	}
	t.requests.Add(o.requests.Value())
	t.violations.Add(o.violations.Load())
	t.attributed.Add(o.attributed.Value())
	for i := range t.causeCount {
		t.causeCount[i].Add(o.causeCount[i].Value())
		t.causeHist[i].Merge(o.causeHist[i])
	}
	o.mu.Lock()
	exs := append([]Exemplar(nil), o.topK...)
	o.mu.Unlock()
	t.mu.Lock()
	for _, ex := range exs {
		if len(t.topK) < maxExemplars {
			heap.Push(&t.topK, ex)
		} else if ex.LatencyCycles > t.topK[0].LatencyCycles {
			t.topK[0] = ex
			heap.Fix(&t.topK, 0)
		}
	}
	t.mu.Unlock()
}

// BindTelemetry has reg serve the hcsgc_tail_* metric families from this
// attributor: request/violation counters by cause and the attributed
// counter (its own cells), and per-cause violation-latency summaries backed
// live by the HDR histograms. Nil-safe; binding another attributor
// re-points the series to it.
func (t *TailAttributor) BindTelemetry(reg *telemetry.Registry) {
	if t == nil || reg == nil {
		return
	}
	reg.Adopt("hcsgc_tail_requests_total",
		"Requests observed by the tail attributor.", &t.requests)
	reg.Adopt("hcsgc_tail_attributed_total",
		"SLO violations carrying a concrete GC cause and responsible cycle id.", &t.attributed)
	for _, c := range causeOrder {
		reg.Adopt("hcsgc_tail_violations_total",
			"SLO-violating requests, by attributed cause.", &t.causeCount[c], "cause", c.String())
		reg.Summary("hcsgc_tail_cause_cycles",
			"SLO-violating request latency in virtual cycles, by attributed cause (HDR summary).",
			t.causeHist[c], "cause", c.String())
	}
}

// CauseReport is one cause's share of the violations.
type CauseReport struct {
	Cause string `json:"cause"`
	Count uint64 `json:"count"`
	// Fraction is Count over total violations (0 when no violations).
	Fraction float64 `json:"fraction"`
	// Dist summarizes the violating requests' latencies for this cause.
	Dist latency.Dist `json:"dist"`
}

// TailReport is the attribution summary: counts, the attributed
// fraction, the per-cause breakdown and the top-K exemplars
// (descending latency).
type TailReport struct {
	SLOThresholdCycles uint64 `json:"slo_threshold_cycles"`
	Requests           uint64 `json:"requests"`
	Violations         uint64 `json:"violations"`
	// Attributed counts violations with a concrete (non-service) cause
	// and a responsible cycle id; AttributedFraction is its share of
	// Violations (1 when there are none).
	Attributed         uint64        `json:"attributed"`
	AttributedFraction float64       `json:"attributed_fraction"`
	ByCause            []CauseReport `json:"by_cause"`
	TopK               []Exemplar    `json:"top_k"`
}

// Report snapshots the attributor. Nil-safe (returns the zero report).
func (t *TailAttributor) Report() TailReport {
	if t == nil {
		return TailReport{}
	}
	r := TailReport{
		SLOThresholdCycles: t.cfg.SLOThresholdCycles,
		Requests:           t.requests.Value(),
		Violations:         t.violations.Load(),
		Attributed:         t.attributed.Value(),
		AttributedFraction: 1,
	}
	if r.Violations > 0 {
		r.AttributedFraction = float64(r.Attributed) / float64(r.Violations)
	}
	for _, c := range causeOrder {
		count := t.causeCount[c].Value()
		cr := CauseReport{Cause: c.String(), Count: count, Dist: t.causeHist[c].Dist()}
		if r.Violations > 0 {
			cr.Fraction = float64(count) / float64(r.Violations)
		}
		r.ByCause = append(r.ByCause, cr)
	}
	t.mu.Lock()
	r.TopK = append([]Exemplar(nil), t.topK...)
	t.mu.Unlock()
	// Heap order is partial; present the exemplars slowest-first.
	for i := 0; i < len(r.TopK); i++ {
		for j := i + 1; j < len(r.TopK); j++ {
			if r.TopK[j].LatencyCycles > r.TopK[i].LatencyCycles {
				r.TopK[i], r.TopK[j] = r.TopK[j], r.TopK[i]
			}
		}
	}
	return r
}

// Validate checks a report's structural invariants: cause counts summing
// to the violation count, fractions in range, monotone per-cause
// quantiles, and exemplars consistent with the threshold. The shape gate
// behind (*KVAB).Validate, (*OverloadAB).Validate and the endpoint tests.
func (r TailReport) Validate() error {
	if r.Violations > r.Requests {
		return fmt.Errorf("signals: %d violations exceed %d requests", r.Violations, r.Requests)
	}
	var sum uint64
	for _, cr := range r.ByCause {
		sum += cr.Count
		if cr.Fraction < 0 || cr.Fraction > 1 {
			return fmt.Errorf("signals: cause %q fraction %v out of [0,1]", cr.Cause, cr.Fraction)
		}
		d := cr.Dist
		if d.Count > 0 && (d.P50 > d.P99 || d.P99 > d.P999 || d.P999 > d.Max) {
			return fmt.Errorf("signals: cause %q quantiles not monotone", cr.Cause)
		}
	}
	if sum != r.Violations {
		return fmt.Errorf("signals: cause counts sum to %d, want %d violations", sum, r.Violations)
	}
	if r.AttributedFraction < 0 || r.AttributedFraction > 1 {
		return fmt.Errorf("signals: attributed fraction %v out of [0,1]", r.AttributedFraction)
	}
	for _, ex := range r.TopK {
		if ex.LatencyCycles <= r.SLOThresholdCycles {
			return fmt.Errorf("signals: exemplar seq %d latency %d within SLO threshold %d",
				ex.Seq, ex.LatencyCycles, r.SLOThresholdCycles)
		}
		if ex.Cause == "" {
			return fmt.Errorf("signals: exemplar seq %d has no cause", ex.Seq)
		}
	}
	return nil
}
