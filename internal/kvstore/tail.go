package kvstore

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"

	"hcsgc/internal/loadgen"
	"hcsgc/internal/signals"
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

// maxExemplars bounds the slow-request exemplar store (TailReport.TopK).
const maxExemplars = 32

// Exemplar is one retained slow request: its identity, timing
// decomposition, assigned cause, and a link to the responsible cycle's
// logged record, taken at classification time.
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
	// identified). Seq numbers restart with every runtime, so across the
	// runs a ledger merges it does not name a record: CycleIndex does.
	Cycle uint64 `json:"cycle"`
	// Record is the responsible cycle's logged record, when it was still
	// inside the signal plane's window at classification time. A report
	// writes each record once, in TailReport.Cycles.
	Record *latency.CycleRecord `json:"-"`
	// CycleIndex is Record's position in TailReport.Cycles, -1 without one.
	CycleIndex int `json:"cycle_index"`
}

// exemplars is the fixed-size top-K store: h[:n] holds the maxExemplars
// slowest requests offered, h[min] the fastest of them.
type exemplars struct {
	n, min int
	h      [maxExemplars]Exemplar
}

// admits reports whether a request of latency lat would enter the store.
//
//hcsgc:alloc-free
func (s *exemplars) admits(lat uint64) bool {
	return s.n < maxExemplars || lat > s.h[s.min].LatencyCycles
}

// add offers ex to the store: it takes a free slot, or evicts the fastest.
//
//hcsgc:alloc-free
func (s *exemplars) add(ex *Exemplar) {
	switch {
	case s.n < maxExemplars:
		s.h[s.n] = *ex
		s.n++
	case ex.LatencyCycles > s.h[s.min].LatencyCycles:
		s.h[s.min] = *ex
	default:
		return
	}
	for i := range s.h[:s.n] {
		if s.h[i].LatencyCycles < s.h[s.min].LatencyCycles {
			s.min = i
		}
	}
}

// Obs is one completed request's raw observation, as the serving path
// measures it: virtual-timeline positions plus the deltas of the
// runtime's stall/pause/cycle counters across the execution window.
type Obs struct {
	Seq   uint64
	Op    loadgen.Op
	Phase int
	// ArrivalV is the scheduled (open-loop) arrival; StartV is when the
	// server thread began executing it; EndV is completion.
	ArrivalV, StartV, EndV uint64
	// OwnStallV is the request's own allocation-stall exposure (the
	// mutator's stall-virtual delta, net of pause cost); PauseV is the
	// STW pause cost accrued during execution; GlobalStalls is the
	// runtime-wide stall-count delta.
	OwnStallV, PauseV uint64
	GlobalStalls      uint64
	// CycleAfter is the completed-GC-cycle count at completion.
	CycleAfter uint64
}

// Classifier is one server thread's front end to its ledger: it records
// each successful request and classifies the ones over the SLO, and it
// owns the thread's "last disruption" memory that lets queued requests
// inherit the responsible cycle of the stall or pause they queued behind.
// The memory is the classifier's, not the ledger's, so it survives the
// ledger's folds. Not concurrency-safe; create one per serving thread.
type Classifier struct {
	mx    *Metrics
	plane *signals.Plane

	lastDisruptEnd   uint64
	lastDisruptCycle uint64
	lastDisruptCause Cause
}

// Classifier creates a per-thread classifier recording into mx (the
// thread's own ledger), linking exemplars against plane (nil links none).
func (mx *Metrics) Classifier(plane *signals.Plane) *Classifier {
	return &Classifier{mx: mx, plane: plane}
}

// noteDisrupted seeds the disruption window with a request that stalled
// or sat through a pause and ended at endV.
func (cl *Classifier) noteDisrupted(endV, cycle, ownStallV, pauseV uint64) {
	if endV <= cl.lastDisruptEnd {
		return
	}
	cl.lastDisruptEnd = endV
	cl.lastDisruptCycle = cycle
	if ownStallV >= pauseV {
		cl.lastDisruptCause = CauseAllocStall
	} else {
		cl.lastDisruptCause = CauseSTWPause
	}
}

// NoteDisruption maintains the convoy chain across requests Observe never
// sees — failed or dropped ones (deadline-expired, shed, OOM).
// A failed request that stalled or sat through a pause seeds the
// disruption window exactly as a successful one would; a failed request
// that merely arrived mid-backlog extends it (the queue has not drained).
// Without this the chain breaks at every failure: its successors queue
// behind a disruption the classifier never learned about and misclassify
// as plain service time.
func (cl *Classifier) NoteDisruption(arrivalV, endV, cycleAfter, ownStallV, pauseV uint64) {
	if ownStallV > 0 || pauseV > 0 {
		cl.noteDisrupted(endV, cycleAfter, ownStallV, pauseV)
		return
	}
	if arrivalV < cl.lastDisruptEnd && endV > cl.lastDisruptEnd {
		cl.lastDisruptEnd = endV
	}
}

// Observe records one successful request in the ledger (RecordRequest)
// and, when it is over the SLO, classifies it.
func (cl *Classifier) Observe(o Obs) {
	lat := o.EndV - o.ArrivalV
	if cl.mx.RecordRequest(o.Phase, o.Op, lat) {
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
		mx := cl.mx
		mx.causeCount[cause].Inc()
		mx.causeHist[cause].Record(lat)
		if cause != CauseService && respCycle != 0 {
			mx.attributed.Inc()
		}
		if mx.ex.admits(lat) {
			mx.ex.add(&Exemplar{
				Seq: o.Seq, Op: o.Op.String(), Phase: loadgen.PhaseNames[o.Phase],
				ArrivalV: o.ArrivalV, StartV: o.StartV, EndV: o.EndV,
				LatencyCycles: lat, QueueCycles: o.StartV - o.ArrivalV,
				StallCycles: o.OwnStallV, PauseCycles: o.PauseV,
				Cause: cause.String(), BehindCause: behind, Cycle: respCycle,
				Record: cl.plane.Lookup(respCycle),
			})
		}
	}
	// Update the disruption memory after classification, so a request
	// that itself stalled is alloc-stall and only its successors queue
	// behind it.
	if o.OwnStallV > 0 || o.PauseV > 0 {
		cl.noteDisrupted(o.EndV, o.CycleAfter, o.OwnStallV, o.PauseV)
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

// CauseReport is one cause's share of the violations.
type CauseReport struct {
	Cause string `json:"cause"`
	Count uint64 `json:"count"`
	// Fraction is Count over total violations (0 when no violations).
	Fraction float64 `json:"fraction"`
	// Dist summarizes the violating requests' latencies for this cause.
	Dist latency.Dist `json:"dist"`
}

// TailReport is the ledger's tail section (the /tailattr payload): the
// successful requests, the violations among them by cause, the attributed
// fraction, the top-K exemplars (descending latency) and the cycle records
// they name, each once.
type TailReport struct {
	SLOThresholdCycles uint64 `json:"slo_threshold_cycles"`
	// Requests counts the successful requests: the sum of the phase counts.
	Requests   uint64 `json:"requests"`
	Violations uint64 `json:"violations"`
	// Attributed counts violations with a concrete (non-service) cause
	// and a responsible cycle id; AttributedFraction is its share of
	// Violations (1 when there are none).
	Attributed         uint64        `json:"attributed"`
	AttributedFraction float64       `json:"attributed_fraction"`
	ByCause            []CauseReport `json:"by_cause"`
	TopK               []Exemplar    `json:"top_k"`
	// Cycles holds every record an exemplar links, once, in the order the
	// exemplars first name them.
	Cycles []*latency.CycleRecord `json:"cycles"`
}

// Tail snapshots the ledger's tail section. Nil-safe (returns the zero
// report).
func (mx *Metrics) Tail() TailReport {
	if mx == nil {
		return TailReport{}
	}
	// Read in the reverse of Merge's order, so a report taken while a
	// thread folds still has attributed <= violations <= requests.
	r := TailReport{
		SLOThresholdCycles: SLOCycles,
		Attributed:         mx.attributed.Value(),
		AttributedFraction: 1,
		Cycles:             []*latency.CycleRecord{},
	}
	for _, c := range causeOrder {
		cr := CauseReport{Cause: c.String(), Count: mx.causeCount[c].Value(), Dist: mx.causeHist[c].Dist()}
		r.Violations += cr.Count
		r.ByCause = append(r.ByCause, cr)
	}
	for _, h := range mx.phase {
		r.Requests += h.Count()
	}
	if r.Violations > 0 {
		r.AttributedFraction = float64(r.Attributed) / float64(r.Violations)
		for i := range r.ByCause {
			r.ByCause[i].Fraction = float64(r.ByCause[i].Count) / float64(r.Violations)
		}
	}
	mx.exMu.Lock()
	r.TopK = append([]Exemplar(nil), mx.ex.h[:mx.ex.n]...)
	mx.exMu.Unlock()
	// Present the exemplars slowest-first.
	slices.SortFunc(r.TopK, func(a, b Exemplar) int {
		return cmp.Or(cmp.Compare(b.LatencyCycles, a.LatencyCycles), cmp.Compare(a.Seq, b.Seq))
	})
	index := map[*latency.CycleRecord]int{}
	for i := range r.TopK {
		ex := &r.TopK[i]
		ex.CycleIndex = -1
		if ex.Record == nil {
			continue
		}
		at, seen := index[ex.Record]
		if !seen {
			at = len(r.Cycles)
			index[ex.Record] = at
			r.Cycles = append(r.Cycles, ex.Record)
		}
		ex.CycleIndex = at
	}
	return r
}

// Validate checks a report's structural invariants: cause counts summing
// to the violation count, fractions in range, monotone per-cause
// quantiles, exemplars consistent with the threshold, and each exemplar's
// cycle link naming the one record in Cycles of the cycle it blames. The
// shape gate behind (*KVAB).Validate, (*OverloadAB).Validate and the
// endpoint tests.
func (r TailReport) Validate() error {
	if r.Violations > r.Requests {
		return fmt.Errorf("kvstore: %d violations exceed %d requests", r.Violations, r.Requests)
	}
	var sum uint64
	for _, cr := range r.ByCause {
		sum += cr.Count
		if cr.Fraction < 0 || cr.Fraction > 1 {
			return fmt.Errorf("kvstore: cause %q fraction %v out of [0,1]", cr.Cause, cr.Fraction)
		}
		d := cr.Dist
		if d.Count > 0 && (d.P50 > d.P99 || d.P99 > d.P999 || d.P999 > d.Max) {
			return fmt.Errorf("kvstore: cause %q quantiles not monotone", cr.Cause)
		}
	}
	if sum != r.Violations {
		return fmt.Errorf("kvstore: cause counts sum to %d, want %d violations", sum, r.Violations)
	}
	if r.AttributedFraction < 0 || r.AttributedFraction > 1 {
		return fmt.Errorf("kvstore: attributed fraction %v out of [0,1]", r.AttributedFraction)
	}
	// A decoded report has lost the records' identity: equal values are
	// the same record written twice.
	for i, a := range r.Cycles {
		if a == nil {
			return fmt.Errorf("kvstore: cycles[%d] is empty", i)
		}
		for _, b := range r.Cycles[:i] {
			if reflect.DeepEqual(a, b) {
				return fmt.Errorf("kvstore: cycle %d's record appears twice in cycles", a.Seq)
			}
		}
	}
	for _, ex := range r.TopK {
		if ex.LatencyCycles <= r.SLOThresholdCycles {
			return fmt.Errorf("kvstore: exemplar seq %d latency %d within SLO threshold %d",
				ex.Seq, ex.LatencyCycles, r.SLOThresholdCycles)
		}
		if ex.Cause == "" {
			return fmt.Errorf("kvstore: exemplar seq %d has no cause", ex.Seq)
		}
		if ex.CycleIndex == -1 {
			continue
		}
		if ex.CycleIndex < 0 || ex.CycleIndex >= len(r.Cycles) {
			return fmt.Errorf("kvstore: exemplar seq %d cycle_index %d out of range (%d cycles)",
				ex.Seq, ex.CycleIndex, len(r.Cycles))
		}
		if rec := r.Cycles[ex.CycleIndex]; rec.Seq != ex.Cycle {
			return fmt.Errorf("kvstore: exemplar seq %d blames cycle %d, links the record of cycle %d",
				ex.Seq, ex.Cycle, rec.Seq)
		}
	}
	return nil
}
