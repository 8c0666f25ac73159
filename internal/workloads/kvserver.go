package workloads

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hcsgc"
	"hcsgc/internal/kvstore"
	"hcsgc/internal/loadgen"
)

// KVServer models a memcached-style serving system: server threads
// (RunConfig.Mutators, default kvThreads) each own one shard of an
// in-heap key/value cache
// (internal/kvstore) and execute a pregenerated open-loop request
// schedule (internal/loadgen). Request latency is measured on the
// virtual-cycle timeline from the scheduled arrival time to completion,
// so GC pauses and allocation stalls land on whatever requests were in
// flight — and, because arrivals are open-loop, on the requests that
// queued up behind them (no coordinated omission).
//
// Sharding is slot mod the thread count (generation-invariant, see
// loadgen), so
// every key's operations execute on a single thread: the run's checksum
// is deterministic for a seed even though threads interleave freely with
// the collector.
//
// With RunConfig.Overload set, the serving loop runs protected: a request
// still queued past its deadline, or whose queueing delay has consumed its
// SLO budget, is dropped at dequeue, and each served request's deadline is
// armed as its allocation budget (so a would-be convoy seat unwinds as
// ErrDeadlineExceeded instead of stalling through the global retry budget).
// Every request runs once. Unprotected runs skip all of that except the OOM
// degradation — a full heap fails individual requests, never the run.
const (
	// DeadlineCycles is a protected request's virtual-cycle budget from
	// arrival, propagated into the load generator's schedule.
	DeadlineCycles = 2_000_000
	// MaxStallsPerRequest bounds the allocation stalls one protected request
	// may absorb before failing fast.
	MaxStallsPerRequest = 2
)

const (
	kvThreads      = 4
	kvDefaultScale = 1.0
	kvBaseKeys     = 10_000
	// kvBaseRequests makes each traffic phase long relative to one GC
	// cycle (~10 pause-widths): with short phases the tail percentiles
	// degenerate into a coin flip over whether a pause landed inside
	// the phase at all.
	kvBaseRequests = 300_000
	// kvWorkPerReq is the request-handling compute (parse, respond)
	// beyond the heap traffic itself, in cycles.
	kvWorkPerReq = 120
	// kvHeapBytes sizes the heap so the warm cache is roughly half of it:
	// SET/fill churn crosses the 70% GC trigger every few million virtual
	// cycles (~10 cycles per run at default scale), while leaving enough
	// slack above the trigger that allocation stalls stay an occasional
	// tail event instead of a permanent overload.
	kvHeapBytes = 18 << 20
	// kvFoldEvery is how many requests a server thread handles between
	// folds of its private accounting into the run's: the bound on how far
	// /kv, /metrics and /overload lag each thread mid-run.
	kvFoldEvery = 1024
	// kvMaxBuckets caps a shard's bucket array at the largest power of two
	// that is still a small object (one header word + 8 bytes a bucket <=
	// heap.SmallObjectMax). One more doubling is a medium object, whose
	// 32 MB page does not fit kvHeapBytes: uncapped, the one shard of a
	// single server thread at scale 1 (20,000 expected keys) cannot
	// allocate its table and fails every request. Chains absorb the load
	// factor above one; no shard of two or more threads reaches the cap.
	kvMaxBuckets = 1 << 14
)

// KVServer is the serving-latency benchmark behind `hcsgc-bench -report kv`
// and (with RunConfig.Overload armed) `hcsgc-bench -report overload`.
func KVServer() Workload {
	return Workload{
		Name: "KV server under open-loop load (SLO latency)",
		Run: guard(func(cfg RunConfig) Result {
			scale := cfg.scale(kvDefaultScale)
			threads := cfg.Mutators
			if threads <= 0 {
				threads = kvThreads
			}
			sched := kvSchedule(cfg, scale, threads)
			keys, reqs := sched.Config.Keys, sched.Config.Requests

			// The run's ledger; merged into the caller's (the bench A/B
			// aggregates across repeats) at the end.
			mx := kvstore.NewMetrics()
			if cfg.Telemetry != nil {
				mx.BindTelemetry(cfg.Telemetry.Metrics())
				// The /kv and /overload endpoints serve this run's live
				// ledger (latest run wins, like the other per-runtime
				// endpoints).
				cfg.Telemetry.SetEndpoint("kv", func() any { return mx.Report(nil) })
				cfg.Telemetry.SetEndpoint("overload", func() any { return mx.Outcomes() })
				cfg.Telemetry.SetEndpoint("tailattr", func() any { return mx.Tail() })
			}

			e := newEnv(cfg, kvHeapBytes, 2)
			defer e.cleanup()
			types := kvstore.RegisterTypes(e.rt.Types)

			lg := sched.Config
			var (
				wg         sync.WaitGroup
				loaded     sync.WaitGroup
				serve      = make(chan struct{})
				checks     = make([]uint64, threads)
				spans      = make([]uint64, threads)
				serveAlloc atomic.Uint64
			)
			loaded.Add(threads)
			for t := 0; t < threads; t++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					// Each server thread owns its mutator for its whole
					// lifetime: created here (so it polls safepoints from
					// birth) and detached on exit.
					m := e.rt.NewMutator(kvstore.RootSlots)
					defer m.Close()
					m.SetName(fmt.Sprintf("kv-server-%d", tid))
					// The thread's own ledger, folded into mx every
					// kvFoldEvery handled requests and on exit: the shared
					// cells see one write per fold, not per request. Its
					// classifier records the successes into it, classifies
					// the ones over the SLO and links their exemplars
					// against the runtime's cycle log.
					col := e.rt.Collector
					tmx := kvstore.NewMetrics()
					defer tmx.FoldInto(mx)
					cl := tmx.Classifier(e.rt.Latency)
					// A heap too exhausted to hold even the bucket array
					// leaves the shard dead: the thread stays up and fails
					// its requests without heap work (a goroutine panic
					// here would kill the whole process — guard() only
					// covers the main goroutine).
					st, stErr := kvstore.TryNew(m, types, min(2*keys/threads, kvMaxBuckets))
					if stErr != nil && !errors.Is(stErr, hcsgc.ErrOutOfMemory) {
						panic(stErr)
					}
					// Preload this thread's shard at generation 0
					// (Key == slot): the cache starts warm, as a serving
					// system does after ramp-up. GC may run mid-preload;
					// every Set polls safepoints at its allocation sites.
					// If the heap can't hold the full warm set, the shard
					// serves with a partial cache instead of dying — read
					// traffic degrades to misses, not to a dead run.
					if st != nil {
						for s := tid; s < keys; s += threads {
							vw := loadgen.ValueWordsMin + s%(loadgen.ValueWordsMax-loadgen.ValueWordsMin+1)
							if _, err := st.TrySet(uint64(s), vw); err != nil {
								if errors.Is(err, hcsgc.ErrOutOfMemory) {
									break
								}
								panic(err)
							}
						}
					}
					loaded.Done()
					// Wait for the measurement boundary as blocked (the
					// collector must be free to pause the world while
					// this thread idles between phases).
					m.Blocked(func() { <-serve })
					// Arrivals are relative to the serving start on this
					// thread's virtual clock (preload already advanced it).
					base := m.VirtualCycles()
					allocBase := m.AllocatedBytes()
					var check uint64
					// Per-op decayed maximum of clean (stall- and
					// pause-free) service cycles, feeding the
					// SLO-staleness shed below. A worst-case estimate,
					// not a mean: serving must guarantee the slowest
					// clean instance of the op still fits the remaining
					// SLO budget, or near-boundary requests violate by a
					// hair and the violation is attributable to nothing.
					var svcWorst [loadgen.NumOps]uint64
					handled := 0
					for i := range sched.Requests {
						r := &sched.Requests[i]
						if int(r.Key%uint64(keys))%threads != tid {
							continue
						}
						if r.Seq%64 == 0 {
							m.Safepoint()
						}
						if handled%kvFoldEvery == 0 && handled > 0 {
							tmx.FoldInto(mx)
						}
						handled++
						at := base + r.At
						// Open-loop pacing: idle (but let virtual time
						// pass) until the scheduled arrival; never wait
						// for the server to catch up.
						if now := m.VirtualCycles(); now < at {
							m.Work(at - now)
						}
						var deadlineAbs uint64
						if d := lg.Deadline(r); d > 0 {
							deadlineAbs = base + d
							// Deadline-aware shedding at dequeue: a request
							// already past its deadline when the server
							// reaches it (queued behind a stall convoy) is
							// dropped for the cost of one clock read — the
							// client gave up long ago, and serving it only
							// delays every request behind it. This is what
							// bounds the successful-request tail: a served
							// request can be at most DeadlineCycles old when
							// service starts.
							if now := m.VirtualCycles(); now >= deadlineAbs {
								tmx.RecordFailure(kvstore.DeadlineExceeded)
								// The drop itself proves the queue has not
								// drained: keep the convoy chain alive for
								// the requests behind it.
								cl.NoteDisruption(kvstore.Obs{ArrivalV: at, EndV: now})
								continue
							}
						}
						// SLO-staleness shedding at dequeue: if queueing
						// delay alone has consumed the SLO budget (minus
						// twice this class's learned service time), the
						// request can no longer complete within the SLO —
						// serving it would spend capacity manufacturing
						// badput and push every request behind it further
						// past its own budget. This bounds the
						// pure-overload queueing ramp: load above capacity
						// grows the queue without a single stall, and
						// without this check every request in that ramp
						// becomes an SLO violation attributable to nothing
						// but the queue itself.
						if cfg.Overload {
							const guard = kvstore.SLOCycles / 16
							if now := m.VirtualCycles(); now > at &&
								now-at+svcWorst[r.Op]+guard >= kvstore.SLOCycles {
								tmx.RecordFailure(kvstore.Shed)
								// Like the deadline drop: the backlog has
								// not drained, keep the convoy chain alive.
								cl.NoteDisruption(kvstore.Obs{ArrivalV: at, EndV: now})
								continue
							}
						}
						if st == nil {
							// Dead shard (bucket array never fit): fail the
							// request without touching the heap.
							tmx.RecordFailure(kvstore.OOM)
							m.Work(kvWorkPerReq)
							continue
						}
						// Snapshot the counters around the execution window
						// (service start to completion): the deltas say
						// whether this request stalled, sat through a pause,
						// or (for the classifier) ran while another thread
						// stalled.
						svcStart := m.VirtualCycles()
						stall0, pause0 := m.StallVirtualCycles(), col.PauseCycles()
						gStalls0 := col.StallCount()
						if deadlineAbs > 0 {
							m.SetAllocBudget(deadlineAbs, MaxStallsPerRequest)
						}
						delta, reqErr := kvExecOp(st, tmx, r, keys)
						if deadlineAbs > 0 {
							m.ClearAllocBudget()
						}
						switch {
						case reqErr == nil:
							check += delta
						case errors.Is(reqErr, hcsgc.ErrDeadlineExceeded):
							tmx.RecordFailure(kvstore.DeadlineExceeded)
						case errors.Is(reqErr, hcsgc.ErrOutOfMemory):
							tmx.RecordFailure(kvstore.OOM)
						default:
							panic(reqErr)
						}
						m.Work(kvWorkPerReq)
						end := m.VirtualCycles()
						o := kvstore.Obs{
							Seq:          uint64(r.Seq),
							Op:           r.Op,
							Phase:        int(r.Phase),
							ArrivalV:     at,
							StartV:       svcStart,
							EndV:         end,
							OwnStallV:    m.StallVirtualCycles() - stall0,
							PauseV:       col.PauseCycles() - pause0,
							GlobalStalls: col.StallCount() - gStalls0,
							CycleAfter:   col.Cycles(),
							CycleStarted: col.CyclesStarted(),
						}
						if reqErr == nil {
							cl.Observe(o)
							if cfg.Overload {
								// Update the clean-service worst case:
								// slow decay so a one-off high does not
								// over-shed forever, and only stall- and
								// pause-free requests contribute (a
								// disrupted request's span measures the
								// disruption, not the op).
								w := svcWorst[r.Op] - svcWorst[r.Op]/64
								if svc := end - svcStart; svc > w &&
									o.OwnStallV == 0 && o.PauseV == 0 {
									w = svc
								}
								svcWorst[r.Op] = w
							}
						} else {
							// A failed request can still be the convoy's
							// seed (it stalled or sat through a pause) or
							// part of its backlog: either way, tell the
							// classifier so its successors' queueing delay
							// stays attributable.
							cl.NoteDisruption(o)
						}
						if tid == 0 && r.Seq%2048 == 0 {
							e.sampleHeapAs(m)
						}
					}
					checks[tid] = check
					spans[tid] = m.VirtualCycles() - base
					serveAlloc.Add(m.AllocatedBytes() - allocBase)
				}(t)
			}
			// The main mutator waits as blocked: it is attached to the
			// runtime but idle, and an idle unblocked mutator would stall
			// every stop-the-world the server threads trigger.
			e.m.Blocked(func() { loaded.Wait() })
			e.sampleHeap()
			e.markMeasured()
			close(serve)
			e.m.Blocked(func() { wg.Wait() })
			e.sampleHeap()

			mx.AddServe(slices.Max(spans), serveAlloc.Load())

			rep := mx.Report(nil)
			out := mx.Outcomes()
			var check uint64
			for _, c := range checks {
				check += c
			}
			cfg.KV.Merge(mx)
			res := e.finish(check)
			res.Ops = uint64(reqs)
			steady := rep.Phases[loadgen.PhaseSteady].Dist
			burst := rep.Phases[loadgen.PhaseBurst].Dist
			hitRate := 0.0
			if rep.Hits+rep.Misses > 0 {
				hitRate = float64(rep.Hits) / float64(rep.Hits+rep.Misses)
			}
			res.Scores = map[string]float64{
				"kv-p99-steady":  steady.P99,
				"kv-p999-steady": steady.P999,
				"kv-p999-burst":  burst.P999,
				"kv-hit-rate":    hitRate,
				"kv-sheds":       float64(out.Sheds),
				"kv-failures":    float64(out.Failures),
				"kv-goodput":     float64(out.Goodput),
			}
			return res
		}),
	}
}

// kvSchedule returns the request schedule of a KV run: the shared cached
// schedule of its (seed, keys, requests, mean gap), on a shallow copy that
// carries the run's own deadline knob.
func kvSchedule(cfg RunConfig, scale float64, threads int) *loadgen.Schedule {
	keys := int(float64(kvBaseKeys) * scale)
	if keys < 64*threads {
		keys = 64 * threads
	}
	reqs := int(float64(kvBaseRequests) * scale)
	if reqs < 1_000 {
		reqs = 1_000
	}
	// The protected and unprotected sides of an overload A/B must face
	// identical traffic: the mean gap and deadline knobs are RNG-free, so
	// the arrivals, keys, and op mix depend only on (seed, keys, reqs).
	gap := 600.0
	if cfg.LoadFactor > 0 {
		gap /= cfg.LoadFactor
	}
	var deadline uint64
	if cfg.Overload {
		deadline = DeadlineCycles
	}
	lg := loadgen.Config{Seed: cfg.Seed, Keys: keys, Requests: reqs, MeanGapCycles: gap,
		DeadlineCycles: deadline}
	key := lg
	key.DeadlineCycles = 0
	kvSched.mu.Lock()
	if kvSched.s == nil || kvSched.s.Config != key {
		kvSched.s = loadgen.Generate(key)
		kvSched.builds++
	}
	s := *kvSched.s
	kvSched.mu.Unlock()
	s.Config = lg
	return &s
}

// kvSched is a one-entry cache of the last KV schedule built (7.2 MB at
// scale 1): every repeat of one seed — an A/B's sides of one run index, a
// benchmark's reps — reads the same schedule instead of regenerating it.
// The schedule is shared read-only; deadlines draw no randomness, so they
// live on each run's copy of the Config (see kvSchedule).
var kvSched struct {
	mu     sync.Mutex
	s      *loadgen.Schedule
	builds uint64
}

// KVSchedulesBuilt returns how many KV schedules the process has generated:
// runs that reuse the cached one do not count.
func KVSchedulesBuilt() uint64 {
	kvSched.mu.Lock()
	defer kvSched.mu.Unlock()
	return kvSched.builds
}

// kvExecOp executes one request against the thread's shard, returning the
// checksum delta. Only SET and read-through fills allocate (GET/SCAN/DELETE
// are allocation-free), so only they can fail — with ErrOutOfMemory or,
// under an armed allocation budget, ErrDeadlineExceeded. A failed request
// never mutates the index (see kvstore.TrySet).
func kvExecOp(st *kvstore.Store, mx *kvstore.Metrics, r *loadgen.Request, keys int) (uint64, error) {
	switch r.Op {
	case loadgen.OpGet:
		sum, hit := st.Get(r.Key)
		mx.RecordLookup(hit)
		if !hit {
			// Read-through fill, object-cache style.
			if _, err := st.TrySet(r.Key, int(r.ValueWords)); err != nil {
				return 0, err
			}
		}
		return sum, nil
	case loadgen.OpSet:
		return st.TrySet(r.Key, int(r.ValueWords))
	case loadgen.OpDelete:
		var delta uint64
		if st.Delete(r.Key) {
			delta = 1
		}
		if r.SessionRetire {
			mx.RecordSessionRetired()
		}
		return delta, nil
	case loadgen.OpScan:
		sum, _ := st.Scan(int(r.Key%uint64(keys)), loadgen.ScanLen)
		return sum, nil
	}
	return 0, nil
}
