package bench

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"hcsgc"
	"hcsgc/internal/kvstore"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/workloads"
)

// chaosConfigs are the Table 2 configurations the soak cycles through:
// the ZGC baseline, the all-pages family that exercises relocation
// hardest, and the full HCSGC configuration.
var chaosConfigs = []int{0, 3, 4, 16}

// ChaosRun is the outcome of one seeded soak run.
type ChaosRun struct {
	// Seed derives the run's fault schedule (hcsgc.RandomFaultConfig) and
	// the workload randomness. It is the reproducer token: replaying the
	// same seed re-arms the same fault mix and decision sequence.
	Seed int64
	// Config is the Table 2 configuration id the run used.
	Config int
	// Faults renders the armed fault schedule.
	Faults string
	// OOM is set when the run was abandoned with ErrOutOfMemory — graceful
	// degradation under injected commit failures, not a failure of the
	// soak.
	OOM bool
	// Err holds any non-OOM run error (always a soak failure).
	Err error
	// Violations are the STW verifier's findings; any entry fails the soak.
	Violations []hcsgc.HeapViolation
	// VerifierRuns counts the verifier passes that produced the findings.
	VerifierRuns uint64
	// Fired counts injected faults by point name.
	Fired map[string]uint64
	// KV is the KV soak's request outcomes (zero for other workloads).
	// Under injected faults, stale sheds and per-request fast failures with
	// a nil Err are the graceful degradation the soak wants: requests fail
	// individually, the run survives.
	KV kvstore.Outcomes
	// GCLog is the run's gclog snapshot, captured only for failed runs as
	// the diagnostic artifact.
	GCLog string
	// FlightDump is the latency flight-recorder dump for failed and OOM
	// runs: the automatic dumps the run emitted (verifier violation, OOM),
	// or a final on-demand dump when the failure produced none.
	FlightDump string
}

// Failed reports whether the run counts against the soak: an invariant
// violation or an unexpected error. OOM is survivable by design.
func (r ChaosRun) Failed() bool {
	return len(r.Violations) > 0 || r.Err != nil
}

// ChaosResult aggregates a soak.
type ChaosResult struct {
	Experiment string
	Workload   string
	Runs       []ChaosRun
	// Failures counts failed runs; OOMs counts graceful exhaustions.
	Failures int
	OOMs     int
}

// RunChaos soaks an experiment's workload under randomized fault schedules
// with the STW heap verifier attached to every run. Run r uses seed
// baseSeed+r for both the fault schedule and the workload, so a failing
// seed printed by the report reproduces the whole run. The soak never
// stops early: every seed is driven to a verdict so a sweep reports all
// failures, not just the first.
func RunChaos(expID string, runs int, scale float64, baseSeed int64, progress Progress) (ChaosResult, error) {
	w, err := workloads.Get(expID)
	if err != nil {
		return ChaosResult{}, err
	}
	if runs <= 0 {
		runs = 20
	}
	// The KV soak serves protected: the randomized schedules force
	// deadline expiries on top of the usual allocation faults, and the
	// serving path must degrade per-request (sheds, fast-fails, dead
	// shards) rather than abort. It also sizes differently — the open-loop
	// schedule needs enough requests to exercise the dequeue-side drops
	// under the tight chaos heap.
	kv := expID == "kv"
	if scale <= 0 && kv {
		scale = 0.12
	}
	if scale <= 0 {
		// The default soak scale: enough cumulative allocation (~7.7 MB of
		// garbage for fig4) that every schedule overflows the tight chaos
		// heap and collects — through stalls when the schedule suppresses
		// the occupancy trigger — while the element array stays below SmallObjectMax
		// (larger scales need a 32 MB medium page the chaos heap cannot
		// commit) and the live set keeps relocation headroom.
		scale = 0.016
	}
	res := ChaosResult{Experiment: expID, Workload: w.Name}
	for r := 0; r < runs; r++ {
		seed := baseSeed + int64(r)
		res.Runs = append(res.Runs, chaosRun(w, chaosConfigs[r%len(chaosConfigs)], scale, seed, kv))
		run := &res.Runs[len(res.Runs)-1]
		switch {
		case run.Failed():
			res.Failures++
			progress.printf("chaos %s seed %d: FAIL (%d violations, err=%v)", expID, seed, len(run.Violations), run.Err)
		case run.OOM:
			res.OOMs++
			progress.printf("chaos %s seed %d: oom (graceful, %d verifier passes)", expID, seed, run.VerifierRuns)
		default:
			progress.printf("chaos %s seed %d: ok (%d verifier passes)", expID, seed, run.VerifierRuns)
		}
	}
	return res, nil
}

// syncBuffer is a mutex-guarded io.Writer: the latency tracker's automatic
// dumps can arrive from collector and mutator goroutines concurrently.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// chaosRun executes one seeded run: fresh injector, fresh verifier, a
// private telemetry sink whose gclog becomes the artifact on failure, and
// a latency tracker whose flight recorder dumps into the run record.
func chaosRun(w workloads.Workload, config int, scale float64, seed int64, kv bool) ChaosRun {
	faults := hcsgc.RandomFaultConfig(seed)
	inj := hcsgc.NewFaultInjector(faults)
	v := hcsgc.NewHeapVerifier()
	sink := telemetry.NewSink()
	dumpBuf := &syncBuffer{}
	tracker := hcsgc.NewLatencyTracker(hcsgc.LatencyConfig{DumpTo: dumpBuf})
	run := ChaosRun{Seed: seed, Config: config, Faults: faults.String()}

	// Other workloads leave the KV serving ledger empty.
	kvm := kvstore.NewMetrics()
	// The KV soak halves the chaos heap: the serving workload's churn at
	// soak scale does not overflow 8 MB, so a trigger-suppressed schedule
	// would never collect (zero verifier passes). At 4 MB every schedule
	// reaches the limit and collects through stalls — and the protected
	// serving path turns the resulting exhaustion into sheds and
	// per-request fast-fails instead of an aborted run.
	heapMax := uint64(8 << 20)
	if kv {
		heapMax = 4 << 20
	}
	_, err := w.Run(workloads.RunConfig{
		Overload: kv,
		KV:       kvm,
		Knobs:    KnobsFor(config),
		Seed:     seed,
		Scale:    scale,
		Latency:  tracker,
		// A deliberately tight heap and an eager trigger: chaos wants many
		// cycles (each one is a verifier pass and a fresh relocation era),
		// not a leisurely stroll to 70% of 64 MB. Tight enough that even a
		// trigger-suppressed schedule reaches the limit and collects through
		// allocation stalls — but 4 small pages, not 3: a lazy relocation
		// era parks the live set across two GC target pages plus the
		// retired TLAB, and with only 3 pages of budget every stall retry
		// would land on a full heap again (a livelock the stall budget ends
		// in graceful OOM).
		HeapMaxBytes:   heapMax,
		TriggerPercent: 30,
		DisableMem:     true, // chaos exercises control flow, not locality
		Telemetry:      sink,
		FaultInjector:  inj,
		Verifier:       v,
	})
	switch {
	case err == nil:
	case errors.Is(err, hcsgc.ErrOutOfMemory):
		run.OOM = true
	default:
		run.Err = err
	}
	run.Violations = v.Violations()
	run.VerifierRuns = v.Runs()
	run.Fired = inj.FiredByPoint()
	run.KV = kvm.Outcomes()
	if run.Failed() || run.OOM {
		run.FlightDump = dumpBuf.String()
		if run.FlightDump == "" {
			// The failure mode produced no automatic dump (e.g. a violation
			// found after the last cycle boundary): take one on demand so a
			// reproduced seed always ships its flight record.
			var b strings.Builder
			tracker.WriteFlight(&b, fmt.Sprintf("chaos: seed %d failed", seed))
			run.FlightDump = b.String()
		}
	}
	if run.Failed() {
		var b strings.Builder
		sink.WriteGCLog(&b)
		run.GCLog = b.String()
	}
	return run
}

// WriteChaosReport renders a soak result, leading with the reproducer
// command line for every failed seed.
func WriteChaosReport(out io.Writer, res ChaosResult) {
	fmt.Fprintf(out, "chaos soak: %s (%s): %d runs, %d failures, %d graceful OOMs\n",
		res.Experiment, res.Workload, len(res.Runs), res.Failures, res.OOMs)
	var sheds, ofails uint64
	for _, r := range res.Runs {
		sheds += r.KV.Sheds
		ofails += r.KV.DeadlineExceeded + r.KV.OOMFailures
	}
	if sheds+ofails > 0 {
		fmt.Fprintf(out, "overload plane: %d sheds, %d per-request fast-fails across the soak\n", sheds, ofails)
	}
	for _, r := range res.Runs {
		if !r.Failed() {
			continue
		}
		fmt.Fprintf(out, "\nFAILED seed %d (config %d, faults: %s)\n", r.Seed, r.Config, r.Faults)
		fmt.Fprintf(out, "reproduce: hcsgc-bench -report chaos -exp %s -seed %d -runs 1\n", res.Experiment, r.Seed)
		if r.Err != nil {
			fmt.Fprintf(out, "error: %v\n", r.Err)
		}
		for _, viol := range r.Violations {
			fmt.Fprintf(out, "violation: %s\n", viol)
		}
		// Deterministic report bytes: the same failed seed must print the
		// same reproduction block every time.
		points := make([]string, 0, len(r.Fired))
		for point := range r.Fired {
			points = append(points, point)
		}
		sort.Strings(points)
		for _, point := range points {
			fmt.Fprintf(out, "fired %s: %d\n", point, r.Fired[point])
		}
	}
}
