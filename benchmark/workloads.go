package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"hcsgc"
	"hcsgc/internal/bench"
	"hcsgc/internal/stats"
	"hcsgc/internal/workloads"
)

// spec names one benchmark workload: one of the repo's own programs
// (workloads.Get(ID), what hcsgc-bench users run) at a fixed configuration.
// Scale, Config and Mutators define the workload and never change between
// commits; only the number of reps follows --seconds.
type spec struct {
	Name string
	Why  string // one line; copied into BENCHMARK.json
	ID   string // experiment id for workloads.Get
	// Config is the Table 2 configuration under test; config 0 (unmodified
	// ZGC) is always the reference.
	Config     int
	Scale      float64
	QuickScale float64 // -quick: smoke-test size, numbers meaningless
	Mutators   int     // 0 = the workload's default
	KV         bool    // serving workload: ops are requests, not reps
}

var specs = []spec{
	{
		Name: "syn-hot", ID: "fig4", Config: 16, Scale: 0.075, QuickScale: 0.01,
		Why: "paper's headline microbenchmark: mark, lazy relocation and hot/cold segregation plus the LLC/DRAM side of simmem all work hard; closed loop, one thread",
	},
	{
		Name: "graph-cc", ID: "fig7", Config: 16, Scale: 0.25, QuickScale: 0.02,
		Why: "access-path dominated (barrier, heap.LoadWord, simmem.Core) with 2 GC cycles: bypasses collector changes, amplifies simulator fast-path work; determinism canary",
	},
	{
		Name: "kv-serve", ID: "kv", Config: 4, Scale: 1.0, QuickScale: 0.02, Mutators: 2, KV: true,
		Why: "open-loop serving path (kvstore, loadgen, 2 server threads, SET/fill writes beside reads) where GC pauses and stalls queue requests; L1/L2-hit side of simmem",
	},
	{
		Name: "jbb-alloc", ID: "fig13", Config: 16, Scale: 1.0, QuickScale: 0.05,
		Why: "allocation-dominated (TLAB, stores, empty-page reclaim, ~1% survival): the workload HCSGC costs, so locality bought with extra GC work shows as a loss",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) scale(quick bool) float64 {
	if quick {
		return s.QuickScale
	}
	return s.Scale
}

// dumpSink collects the multi-KB flight-recorder dumps the library writes
// on OOM or a stuck safepoint. Server threads may dump concurrently.
type dumpSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (d *dumpSink) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.buf.Write(p)
}

// runConfig is the RunConfig of one rep under the given Table 2 config.
// Every rep carries a benchmark-owned latency tracker: the runtime builds
// one anyway (the plane is always-on), so owning it changes nothing about
// the rep and lets the benchmark read mutator utilisation and keep the
// library's flight-recorder dumps off the console. Traced reps add the
// other planes.
func (s spec) runConfig(o options, config int, dumps *dumpSink) workloads.RunConfig {
	return workloads.RunConfig{
		Knobs:      bench.KnobsFor(config),
		Seed:       o.Seed,
		Scale:      s.scale(o.Quick),
		Mutators:   s.Mutators,
		LoadFactor: 1,
		// The default ring keeps 64 cycle records; no rep here runs more
		// than a few dozen cycles, but a changed trigger policy might.
		Latency: hcsgc.NewLatencyTracker(hcsgc.LatencyConfig{DumpTo: dumps, FlightRecords: 512}),
	}
}

// rep is one Workload.Run call measured from outside.
type rep struct {
	HostS   float64 // wall seconds of the call: build + measured portion
	CPUS    float64 // process CPU seconds (user+sys) over the call
	AllocMB float64 // Go heap bytes allocated over the call, in MB (2^20)
	Util    float64 // mutator utilisation over the run (latency plane)
	// What the Go runtime spent over the call: collections, heap objects
	// allocated, stop-the-world pause time, and its GC's share of CPU.
	GoGCs, GoMallocs uint64
	GoPauseNs        uint64
	GoGCCPUFrac      float64
	Res              workloads.Result
	Err              error
}

// runRep executes the workload once. The Go heap is collected first,
// outside the timed region, so every rep starts from the same host heap
// state.
func runRep(w workloads.Workload, cfg workloads.RunConfig) rep {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, all0 := runtimeCPU()
	cpu0 := processCPU()
	t0 := time.Now()
	res, err := w.Run(cfg)
	host := time.Since(t0)
	cpu := processCPU() - cpu0
	gc1, all1 := runtimeCPU()
	runtime.ReadMemStats(&after)
	r := rep{
		HostS:     host.Seconds(),
		CPUS:      cpu.Seconds(),
		AllocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		Util:      cfg.Latency.MMUSnapshot().Utilization,
		GoGCs:     uint64(after.NumGC - before.NumGC),
		GoMallocs: after.Mallocs - before.Mallocs,
		GoPauseNs: after.PauseTotalNs - before.PauseTotalNs,
		Res:       res,
		Err:       err,
	}
	if all1 > all0 {
		r.GoGCCPUFrac = (gc1 - gc0) / (all1 - all0)
	}
	return r
}

// runtimeCPU reads the Go runtime's own CPU accounting: seconds spent in
// its garbage collector and in total.
func runtimeCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// synOracle recomputes the syn-hot checksum and op count without the
// runtime. Element i of the array holds payload i and every outer loop
// replays the same RNG sequence, so the checksum is outer times the sum of
// one inner loop's draws. The size arithmetic mirrors the workload's; if
// the two drift apart the Ops check fails before the checksum does.
func synOracle(seed int64, scale float64) (check, ops uint64) {
	elems := max(int(float64(2_000_000)*scale), 1000)
	outer := max(int(float64(200)*scale*2), 3)
	inner := max(int(float64(800_000)*scale), 1000)
	rng := rand.New(rand.NewSource(seed))
	var sum uint64
	for j := 0; j < inner; j++ {
		sum += uint64(rng.Intn(elems))
	}
	return sum * uint64(outer), uint64(outer) * uint64(inner)
}

// checker applies the output checks to each rep of one pass and counts
// operations. Batch workloads count reps; the serving workload counts
// requests, and a failed or shed request is a failed operation.
type checker struct {
	s        spec
	haveRef  bool
	check    uint64  // checksum every rep must reproduce
	hitRate  float64 // kv: identical across reps
	wantOps  uint64  // syn-hot oracle; 0 = not checked
	reqs     uint64  // kv: requests per rep, learnt from the first good rep
	failures []string

	Attempted, Failed uint64
}

func newChecker(s spec, o options) *checker {
	c := &checker{s: s}
	if s.ID == "fig4" {
		c.check, c.wantOps = synOracle(o.Seed, s.scale(o.Quick))
		c.haveRef = true
	}
	return c
}

// observe checks one rep and reports whether it may contribute samples.
func (c *checker) observe(label string, r rep) bool {
	fail := func(format string, args ...any) bool {
		c.failures = append(c.failures, label+": "+fmt.Sprintf(format, args...))
		if c.s.KV {
			c.Attempted += max(c.reqs, 1)
			c.Failed += max(c.reqs, 1)
		} else {
			c.Attempted++
			c.Failed++
		}
		return false
	}
	if r.Err != nil {
		return fail("%v", r.Err)
	}
	if !c.haveRef {
		c.check, c.haveRef = r.Res.Check, true
		c.hitRate = r.Res.Scores["kv-hit-rate"]
	}
	if r.Res.Check != c.check {
		return fail("checksum %#x, want %#x (GC must never change program results)", r.Res.Check, c.check)
	}
	if c.wantOps != 0 && r.Res.Ops != c.wantOps {
		return fail("ops %d, want %d", r.Res.Ops, c.wantOps)
	}
	if r.Res.ExecSeconds <= 0 || r.Res.Loads == 0 {
		return fail("empty result: exec %v s, %d loads", r.Res.ExecSeconds, r.Res.Loads)
	}
	if !c.s.KV {
		c.Attempted++
		return true
	}
	c.reqs = r.Res.Ops
	bad := uint64(r.Res.Scores["kv-failures"] + r.Res.Scores["kv-sheds"])
	c.Attempted += r.Res.Ops
	c.Failed += bad
	ok := true
	if bad != 0 {
		c.failures = append(c.failures, fmt.Sprintf("%s: %d requests failed or shed", label, bad))
		ok = false
	}
	if hr := r.Res.Scores["kv-hit-rate"]; hr != c.hitRate {
		c.failures = append(c.failures, fmt.Sprintf("%s: hit rate %v, want %v", label, hr, c.hitRate))
		ok = false
	}
	return ok
}

// goodput is the share of demand served on time. Open loop: requests
// completed inside the 1 M-cycle SLO over requests offered. Closed loop
// (no per-request deadline exists): mutator utilisation, the share of
// virtual time the program ran rather than sat in a pause or stall.
func goodput(s spec, r rep) float64 {
	if s.KV {
		return r.Res.Scores["kv-goodput"] / float64(r.Res.Ops)
	}
	return r.Util
}

// passResult is what one (workload, trace mode) pass produced.
type passResult struct {
	Workload  string
	Trace     int
	Attempted uint64
	Failed    uint64
	Reps      int
	RefReps   int
	Checksum  uint64
	Metrics   map[string]metricOut
	Failures  []string
}

func (p passResult) correct() bool { return len(p.Failures) == 0 }

// metricOut is one reported metric: its declaration, the samples in the
// order they were taken, and their median, quartiles and count.
type metricOut struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	summary
	Samples []float64 `json:"samples"`
}

func outOf(d metricDecl, samples ...float64) metricOut {
	return metricOut{Unit: d.Unit, Better: d.Better, Bound: d.Bound, summary: summarize(samples), Samples: samples}
}

// endToEndPass measures one workload with tracing off: one warm-up rep
// (set-up), timed reps under the HCSGC config for o.Seconds, then reference
// reps under config 0 as checksum oracle and speed-up denominator.
//
// sectionStart is when the pass's section began: process start for the
// first pass of a process, so that start-up work counts as set-up.
func endToEndPass(s spec, o options, tr *tracer, parent int, sectionStart time.Time) passResult {
	section := tr.begin(parent, "workload/"+s.Name)
	defer tr.end(section)

	w, err := workloads.Get(s.ID)
	if err != nil {
		return passResult{Workload: s.Name, Failures: []string{err.Error()}}
	}
	dumps := &dumpSink{}
	chk := newChecker(s, o)
	oneRep := func(phase int, label string, config int) (rep, bool) {
		sp := tr.begin(phase, label)
		r := runRep(w, s.runConfig(o, config, dumps))
		tr.end(sp)
		return r, chk.observe(s.Name+" "+label, r)
	}

	setup := tr.begin(section, "setup")
	oneRep(setup, "rep/warm-up", s.Config)
	tr.end(setup)
	setupS := time.Since(sectionStart).Seconds()

	var host, cpu, alloc, exec, good []float64
	timed := tr.begin(section, "timed")
	minReps := 3 // quartiles need three samples
	if o.Quick {
		minReps = 1
	}
	for start, i := time.Now(), 0; i < minReps || time.Since(start) < o.Seconds; i++ {
		r, ok := oneRep(timed, fmt.Sprintf("rep/%d", i), s.Config)
		if !ok {
			if r.Err != nil {
				break // a rep that cannot run will not run next time either
			}
			continue
		}
		host = append(host, r.HostS)
		cpu = append(cpu, r.CPUS)
		alloc = append(alloc, r.AllocMB)
		exec = append(exec, r.Res.ExecSeconds)
		good = append(good, goodput(s, r))
	}
	tr.end(timed)

	var refExec []float64
	reference := tr.begin(section, "reference")
	for start, i := time.Now(), 0; i < 1 || time.Since(start) < o.Seconds/5; i++ {
		r, ok := oneRep(reference, fmt.Sprintf("rep/%d", i), 0)
		if !ok {
			break
		}
		refExec = append(refExec, r.Res.ExecSeconds)
	}
	tr.end(reference)

	res := passResult{
		Workload: s.Name, Attempted: chk.Attempted, Failed: chk.Failed,
		Reps: len(host), RefReps: len(refExec), Checksum: chk.check,
		Failures: chk.failures,
	}
	res.Failures = append(res.Failures, saveDumps(o, s.Name, dumps)...)
	if len(host) == 0 || len(refExec) == 0 {
		res.Failures = append(res.Failures, s.Name+": no complete rep, no metrics")
		return res
	}
	samples := map[string][]float64{
		"setup_s":            {setupS},
		"host_s":             host,
		"host_cpu_s":         cpu,
		"host_alloc_mb":      alloc,
		"sim_exec_s":         exec,
		"sim_speedup_vs_zgc": {stats.Median(refExec) / stats.Median(exec)},
		"sim_goodput_frac":   good,
	}
	res.Metrics = make(map[string]metricOut, len(endToEnd))
	for _, d := range endToEnd {
		res.Metrics[d.Name] = outOf(d, samples[d.Name]...)
	}
	return res
}
