package contention

import (
	"math"
	"sort"
	"sync"

	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// WorkerTotals is one GC worker's cumulative activity, reported by the
// collector at cycle end. All fields are since-process-start totals; the
// plane differentiates them into per-cycle deltas.
type WorkerTotals struct {
	// Scanned counts objects traced by the worker during marking.
	Scanned uint64
	// Relocated counts objects the worker copied during the drain.
	Relocated uint64
	// Steals counts work chunks the worker fetched from the shared
	// mark pool (work acquired globally rather than from its own local
	// stack).
	Steals uint64
	// BusyCycles is the worker's simulated-memory cycle consumption —
	// virtual time spent doing work rather than parked waiting for it.
	// Zero when the memory model is disabled.
	BusyCycles uint64
}

// CycleDelta is what OnCycle hands back: per-cycle differences of every
// cumulative counter the plane tracks, as the cycle record's "workers" and
// "contention" sections.
type CycleDelta struct {
	Workers latency.WorkerDelta
	Locks   latency.LockDelta
}

// advance moves seen, a cumulative total as of the last cycle boundary, to
// now and returns the step. The plane differentiates every live total
// against such a cell, and the cell is what /metrics serves: each count is
// stored once, and all of the plane's series move at cycle boundaries,
// together.
func advance(seen *telemetry.Counter, now uint64) uint64 {
	d := now - seen.Value()
	seen.Add(d)
	return d
}

// source bridges a component whose locking cannot adopt contention.Mutex
// (the telemetry registry/recorder would create an import cycle through
// telemetry/latency) but that can report (attempts, contended) totals.
type source struct {
	name               string
	probe              func() (ops, contended uint64)
	seenOps, seenContd telemetry.Counter
}

// workerSeen is one GC worker's WorkerTotals as of the last cycle.
type workerSeen struct{ scanned, relocated, steals, busy telemetry.Counter }

// Plane owns the registered sites and turns their cumulative counters
// into per-cycle deltas, metrics, Perfetto counter tracks and the
// /contention snapshot. A nil *Plane is the opted-out plane: NewSite and
// NewOpSite return nil, so every instrumentation site degrades to the
// nil no-op path.
type Plane struct {
	// mu orders plane-internal state. Innermost of the runtime's ranked
	// locks: OnCycle runs with collector locks held.
	//
	//hcsgc:lock-order 70
	mu      sync.Mutex
	sites   []*Site
	ops     []*OpSite
	sources []*source
	workers []*workerSeen

	cycles        uint64
	lastImbalance float64

	reg *telemetry.Registry
	rec *telemetry.Recorder
}

// New builds an empty, enabled plane.
func New() *Plane { return &Plane{} }

// NewSite registers a named lock site. Returns nil (the no-op site) on a
// nil plane. If the name is already registered the existing site is
// returned, so re-wiring a shared plane stays idempotent.
func (p *Plane) NewSite(name string) *Site {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.sites {
		if s.name == name {
			return s
		}
	}
	s := &Site{name: name}
	p.sites = append(p.sites, s)
	p.bindLock(name, &s.wait, &s.seenAcq, &s.seenContd)
	return s
}

// NewOpSite registers a named CAS/atomic-loop site; nil-plane safe and
// idempotent like NewSite.
func (p *Plane) NewOpSite(name string) *OpSite {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, o := range p.ops {
		if o.name == name {
			return o
		}
	}
	o := &OpSite{name: name}
	p.ops = append(p.ops, o)
	p.bindOp(o)
	return o
}

// AddSource registers (or replaces, by name) an external probe reporting
// cumulative (attempts, contended) for a lock the plane cannot wrap.
func (p *Plane) AddSource(name string, probe func() (ops, contended uint64)) {
	if p == nil || probe == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.sources {
		if s.name == name {
			s.probe = probe
			return
		}
	}
	src := &source{name: name, probe: probe}
	p.sources = append(p.sources, src)
	p.bindLock(name, nil, &src.seenOps, &src.seenContd)
}

// BindTelemetry attaches the metrics registry and event recorder and has
// the registry serve every site, source and CAS loop known so far; those
// registered later join as they arrive, so a series exists from the moment
// its site does, whether or not it was ever contended. Per-worker totals
// are the snapshot's worker table; their per-cycle imbalance is the signal
// plane's hcsgc_signal_value{signal="worker_imbalance"}.
func (p *Plane) BindTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reg = reg
	p.rec = rec
	for _, s := range p.sites {
		p.bindLock(s.name, &s.wait, &s.seenAcq, &s.seenContd)
	}
	for _, src := range p.sources {
		p.bindLock(src.name, nil, &src.seenOps, &src.seenContd)
	}
	for _, o := range p.ops {
		p.bindOp(o)
	}
}

// bindLock has the registry serve one lock site or source: its totals as
// of the last cycle and, for a wrapped mutex, the live wait histogram.
// Like bindOp: caller holds p.mu, a nil registry is a no-op.
func (p *Plane) bindLock(name string, wait *latency.Hist, acq, contended *telemetry.Counter) {
	if wait != nil {
		p.reg.Summary("hcsgc_contention_wait_ns",
			"Wall-clock nanoseconds contended lock acquisitions waited.", wait, "site", name)
	}
	p.reg.Adopt("hcsgc_contention_acquisitions_total", helpAcq, acq, "site", name)
	p.reg.Adopt("hcsgc_contention_contended_total", helpContended, contended, "site", name)
}

func (p *Plane) bindOp(o *OpSite) {
	p.reg.Adopt("hcsgc_contention_cas_ops_total", helpCASOps, &o.seenOps, "structure", o.name)
	p.reg.Adopt("hcsgc_contention_cas_retries_total", helpCASRetry, &o.seenRetries, "structure", o.name)
}

// Metric family helps, shared with the telemetrynames fixtures.
const (
	helpAcq       = "Lock acquisitions by site."
	helpContended = "Lock acquisitions that had to block, by site."
	helpCASOps    = "Completed atomic-loop operations by structure."
	helpCASRetry  = "Failed atomic-loop attempts that looped, by structure."
)

// OnCycle ingests one GC cycle's worker totals, differentiates every
// cumulative counter into this cycle's delta, updates metrics and
// Perfetto counter tracks, and returns the delta: the two sections the
// cycle record carries. Called once per cycle from the collector
// with seq the cycle sequence number; nil-plane safe (returns the zero
// delta, Present false).
func (p *Plane) OnCycle(seq uint64, workers []WorkerTotals) CycleDelta {
	if p == nil {
		return CycleDelta{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cycles++

	l := latency.LockDelta{Present: true}
	for _, s := range p.sites {
		l.Acquisitions += advance(&s.seenAcq, s.Acquisitions())
		l.Contended += advance(&s.seenContd, s.contended.Load())
	}
	for _, src := range p.sources {
		ops, con := src.probe()
		l.Acquisitions += advance(&src.seenOps, ops)
		l.Contended += advance(&src.seenContd, con)
	}
	if l.Acquisitions > 0 {
		l.ContendedFrac = float64(l.Contended) / float64(l.Acquisitions)
	}
	for _, o := range p.ops {
		l.CASOps += advance(&o.seenOps, o.ops.Load())
		l.CASRetries += advance(&o.seenRetries, o.retries.Load())
	}
	if l.CASOps > 0 {
		l.RetryFrac = float64(l.CASRetries) / float64(l.CASOps)
	}

	// Worker balance.
	for i := len(p.workers); i < len(workers); i++ {
		p.workers = append(p.workers, &workerSeen{})
	}
	w := latency.WorkerDelta{Present: true, Workers: len(workers)}
	work := make([]float64, len(workers))
	for i, t := range workers {
		ws := p.workers[i]
		dScan, dReloc := advance(&ws.scanned, t.Scanned), advance(&ws.relocated, t.Relocated)
		dBusy := advance(&ws.busy, t.BusyCycles)
		w.Scanned += dScan
		w.Relocated += dReloc
		w.Steals += advance(&ws.steals, t.Steals)
		// Imbalance is computed over busy virtual cycles when the memory
		// model runs; otherwise over scanned+relocated work units.
		if dBusy > 0 {
			work[i] = float64(dBusy)
		} else {
			work[i] = float64(dScan + dReloc)
		}
	}
	w.Imbalance = imbalance(work)
	p.lastImbalance = w.Imbalance
	p.rec.Counter(telemetry.CounterContentionContended, float64(l.Contended), seq)
	p.rec.Counter(telemetry.CounterContentionCASRetries, float64(l.CASRetries), seq)
	p.rec.Counter(telemetry.CounterWorkerImbalance, w.Imbalance, seq)
	return CycleDelta{Workers: w, Locks: l}
}

// imbalance is the coefficient of variation (stddev/mean) of per-worker
// work; 0 for perfectly balanced, empty, or idle cycles.
func imbalance(work []float64) float64 {
	if len(work) == 0 {
		return 0
	}
	var sum float64
	for _, w := range work {
		sum += w
	}
	mean := sum / float64(len(work))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, w := range work {
		dev := w - mean
		ss += dev * dev
	}
	return math.Sqrt(ss/float64(len(work))) / mean
}

// SiteSnapshot is one lock site's cumulative totals for /contention.
type SiteSnapshot struct {
	Name          string  `json:"name"`
	Acquisitions  uint64  `json:"acquisitions"`
	Contended     uint64  `json:"contended"`
	ContendedFrac float64 `json:"contended_frac"`
	WaitP50NS     float64 `json:"wait_p50_ns"`
	WaitP99NS     float64 `json:"wait_p99_ns"`
	WaitMaxNS     uint64  `json:"wait_max_ns"`
}

// OpSnapshot is one atomic-loop site's cumulative totals.
type OpSnapshot struct {
	Name      string  `json:"name"`
	Ops       uint64  `json:"ops"`
	Retries   uint64  `json:"retries"`
	RetryFrac float64 `json:"retry_frac"`
}

// WorkerSnapshot is one GC worker's cumulative totals as of the last
// completed cycle.
type WorkerSnapshot struct {
	ID         int    `json:"id"`
	Scanned    uint64 `json:"scanned"`
	Relocated  uint64 `json:"relocated"`
	Steals     uint64 `json:"steals"`
	BusyCycles uint64 `json:"busy_cycles"`
}

// Snapshot is the /contention endpoint payload: the ranked serialization
// list (sites sorted by contended acquisitions, descending) plus CAS and
// worker breakdowns and the last cycle's imbalance coefficient.
type Snapshot struct {
	Cycles    uint64           `json:"cycles"`
	Sites     []SiteSnapshot   `json:"sites"`
	CAS       []OpSnapshot     `json:"cas"`
	Workers   []WorkerSnapshot `json:"workers"`
	Imbalance float64          `json:"imbalance"`
}

// Snapshot captures cumulative totals. Nil-plane safe (returns the zero
// snapshot). Sites are ranked most-contended first, ties broken by
// acquisitions then name so the order is deterministic.
func (p *Plane) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := Snapshot{Cycles: p.cycles, Imbalance: p.lastImbalance}
	for _, s := range p.sites {
		ss := SiteSnapshot{
			Name:         s.name,
			Acquisitions: s.Acquisitions(),
			Contended:    s.contended.Load(),
			WaitP50NS:    s.wait.Quantile(0.50),
			WaitP99NS:    s.wait.Quantile(0.99),
			WaitMaxNS:    s.wait.Max(),
		}
		if ss.Acquisitions > 0 {
			ss.ContendedFrac = float64(ss.Contended) / float64(ss.Acquisitions)
		}
		snap.Sites = append(snap.Sites, ss)
	}
	for _, src := range p.sources {
		ops, con := src.probe()
		ss := SiteSnapshot{Name: src.name, Acquisitions: ops, Contended: con}
		if ops > 0 {
			ss.ContendedFrac = float64(con) / float64(ops)
		}
		snap.Sites = append(snap.Sites, ss)
	}
	sort.Slice(snap.Sites, func(i, j int) bool {
		a, b := snap.Sites[i], snap.Sites[j]
		if a.Contended != b.Contended {
			return a.Contended > b.Contended
		}
		if a.Acquisitions != b.Acquisitions {
			return a.Acquisitions > b.Acquisitions
		}
		return a.Name < b.Name
	})
	for _, o := range p.ops {
		os := OpSnapshot{Name: o.name, Ops: o.ops.Load(), Retries: o.retries.Load()}
		if os.Ops > 0 {
			os.RetryFrac = float64(os.Retries) / float64(os.Ops)
		}
		snap.CAS = append(snap.CAS, os)
	}
	sort.Slice(snap.CAS, func(i, j int) bool {
		a, b := snap.CAS[i], snap.CAS[j]
		if a.Retries != b.Retries {
			return a.Retries > b.Retries
		}
		return a.Name < b.Name
	})
	for i, w := range p.workers {
		snap.Workers = append(snap.Workers, WorkerSnapshot{
			ID: i, Scanned: w.scanned.Value(), Relocated: w.relocated.Value(),
			Steals: w.steals.Value(), BusyCycles: w.busy.Value(),
		})
	}
	return snap
}
