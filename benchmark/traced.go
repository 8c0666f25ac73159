package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"hcsgc"
	"hcsgc/internal/kvstore"
	"hcsgc/internal/loadgen"
	"hcsgc/internal/stats"
	"hcsgc/internal/workloads"
)

// tracedRep is one rep run under the CPU profiler with benchmark-owned
// planes attached, reduced to per-layer samples.
type tracedRep struct {
	rep
	flat   map[string]int64   // CPU profile, flat ns by function
	layers map[string]float64 // per-layer metrics read back from the planes
}

// runTracedRep profiles one rep and reads every plane back afterwards. The
// telemetry sink makes the runtime record events it otherwise skips; that
// and the profiler's signals are the tracing overhead the pass reports.
func runTracedRep(w workloads.Workload, s spec, o options, dumps *dumpSink, kvAll *kvstore.Metrics) (tracedRep, error) {
	p := s.runConfig(o, s.Config, dumps)
	p.Telemetry = hcsgc.NewTelemetrySink()
	p.Signals = hcsgc.NewSignalPlane(hcsgc.SignalsConfig{History: 512})
	p.Contention = hcsgc.NewContentionPlane()
	p.KV = kvAll
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return tracedRep{}, fmt.Errorf("start CPU profile: %w", err)
	}
	r := runRep(w, p)
	pprof.StopCPUProfile()

	flat, err := flatByFunction(prof.Bytes())
	if err != nil {
		return tracedRep{}, err
	}
	tr := tracedRep{rep: r, flat: flat, layers: map[string]float64{}}
	if r.Err != nil {
		return tr, nil
	}
	l := tr.layers

	res := r.Res
	l["simmem.loads"] = float64(res.Loads)
	l["simmem.l1_mpkl"] = 1000 * float64(res.L1Misses) / float64(res.Loads)
	l["simmem.llc_mpkl"] = 1000 * float64(res.LLCMisses) / float64(res.Loads)
	l["core.gc_cycles"] = float64(res.GCCycleCount)
	l["core.gc_reloc_objs"] = float64(res.GCReloc)
	l["core.mut_reloc_objs"] = float64(res.MutatorReloc)
	l["core.ec_small_median"] = res.MedianECSmall
	l["workloads.jbb_max_jops"] = res.Scores["max-jOPS"]
	l["workloads.jbb_critical_jops"] = res.Scores["critical-jOPS"]

	lat := p.Latency.Report()
	var pause, mark, reloc, marked, usedAfter []float64
	var pauseMax, freed float64
	for _, c := range lat.Flight {
		pause = append(pause, float64(c.Pause1+c.Pause2+c.Pause3))
		pauseMax = max(pauseMax, float64(c.Pause1), float64(c.Pause2), float64(c.Pause3))
		mark = append(mark, float64(c.MarkCycles))
		reloc = append(reloc, float64(c.RelocateCycles))
		marked = append(marked, float64(c.MarkedBytes)/(1<<20))
		usedAfter = append(usedAfter, c.HeapUsedAfter)
		freed += float64(c.PagesFreedEmpty)
	}
	l["core.pause_vcycles_p50"] = stats.Median(pause)
	l["core.pause_vcycles_max"] = pauseMax
	l["core.mark_vcycles_p50"] = stats.Median(mark)
	l["core.relocate_vcycles_p50"] = stats.Median(reloc)
	l["core.marked_mb_per_cycle"] = stats.Mean(marked)
	l["heap.used_pct_after_p50"] = stats.Median(usedAfter)
	l["heap.pages_freed_empty"] = freed
	l["core.stall_count"] = float64(lat.Stall.Count)
	l["core.stall_vcycles_p99"] = lat.Stall.P99
	for _, path := range []string{"mark", "relocate", "remap", "hotmap_record"} {
		l["core.barrier_slow."+path] = float64(lat.Barrier[path].Hits)
	}

	var imbalance []float64
	for _, c := range p.Signals.Snapshot().Records {
		if c.Workers.Present {
			imbalance = append(imbalance, c.Workers.Imbalance)
		}
	}
	l["core.worker_imbalance"] = stats.Median(imbalance)
	ctn := p.Contention.Snapshot()
	for _, site := range ctn.Sites {
		if site.Name == "core.cycleMu" {
			l["core.cyclemu_wait_ns_p99"] = site.WaitP99NS
		}
	}
	for _, op := range ctn.CAS {
		switch op.Name {
		case "heap.forwardTable":
			l["heap.fwd_cas_retry_frac"] = op.RetryFrac
		case "heap.pageBump":
			l["heap.page_bump_cas_retry_frac"] = op.RetryFrac
		}
	}

	if s.KV {
		l["kvstore.hit_rate"] = res.Scores["kv-hit-rate"]
		l["kvstore.p99_steady_cycles"] = res.Scores["kv-p99-steady"]
		l["kvstore.p999_steady_cycles"] = res.Scores["kv-p999-steady"]
		l["kvstore.p999_burst_cycles"] = res.Scores["kv-p999-burst"]
	}

	l["go-runtime.gc_cpu_frac"] = r.GoGCCPUFrac
	l["go-runtime.num_gc"] = float64(r.GoGCs)
	l["go-runtime.mallocs_k"] = float64(r.GoMallocs) / 1000
	l["go-runtime.pause_total_ms"] = float64(r.GoPauseNs) / 1e6
	return tr, nil
}

// tracedPass produces the workload-dependent per-layer metrics: a warm-up,
// then pairs of one untraced and one traced rep for half of o.Seconds (the
// untraced twin prices the tracing). The caller adds the layer probes.
func tracedPass(s spec, o options, tr *tracer, parent int) passResult {
	section := tr.begin(parent, "workload/"+s.Name)
	defer tr.end(section)

	w, err := workloads.Get(s.ID)
	if err != nil {
		return passResult{Workload: s.Name, Trace: 1, Failures: []string{err.Error()}}
	}
	dumps := &dumpSink{}
	chk := newChecker(s, o)
	untraced := func(phase int, label string) (rep, bool) {
		sp := tr.begin(phase, label)
		r := runRep(w, s.runConfig(o, s.Config, dumps))
		tr.end(sp)
		return r, chk.observe(s.Name+" "+label, r)
	}

	setup := tr.begin(section, "setup")
	untraced(setup, "rep/warm-up")
	tr.end(setup)

	var (
		plainHost, tracedHost, exec, nsPerLoad []float64
		reps                                   []tracedRep
		kvAll                                  *kvstore.Metrics
		failures                               []string
	)
	if s.KV {
		kvAll = kvstore.NewMetrics()
	}
	phase := tr.begin(section, "traced")
	for begin, i := time.Now(), 0; i < 1 || time.Since(begin) < o.Seconds/2; i++ {
		u, ok := untraced(phase, fmt.Sprintf("rep/%d-untraced", i))
		if ok {
			plainHost = append(plainHost, u.HostS)
			exec = append(exec, u.Res.ExecSeconds)
			nsPerLoad = append(nsPerLoad, 1e9*u.HostS/float64(u.Res.Loads))
		}
		sp := tr.begin(phase, fmt.Sprintf("rep/%d-traced", i))
		t, err := runTracedRep(w, s, o, dumps, kvAll)
		tr.end(sp)
		if err != nil {
			failures = append(failures, s.Name+": "+err.Error())
			break
		}
		if chk.observe(fmt.Sprintf("%s rep/%d-traced", s.Name, i), t.rep) {
			reps = append(reps, t)
			tracedHost = append(tracedHost, t.HostS)
			exec = append(exec, t.Res.ExecSeconds)
		} else if t.Err != nil {
			break
		}
	}
	tr.end(phase)

	res := passResult{
		Workload: s.Name, Trace: 1, Reps: len(reps), Checksum: chk.check,
		Failures: append(failures, chk.failures...),
	}
	res.Failures = append(res.Failures, saveDumps(o, s.Name, dumps)...)
	if len(reps) == 0 || len(plainHost) == 0 {
		res.Attempted, res.Failed = chk.Attempted, chk.Failed
		res.Failures = append(res.Failures, s.Name+": no complete traced pair, no metrics")
		return res
	}

	values := make(map[string]float64, len(perLayer))
	// Counts and distributions: the median over the traced reps.
	for name := range reps[0].layers {
		var xs []float64
		for _, t := range reps {
			xs = append(xs, t.layers[name])
		}
		values[name] = stats.Median(xs)
	}
	// Host shares: all traced reps' profiles pooled.
	flat := map[string]int64{}
	for _, t := range reps {
		for fn, v := range t.flat {
			flat[fn] += v
		}
	}
	for layer, share := range hostShares(flat) {
		values[layer+".host_share"] = share
	}
	if kvAll != nil {
		rep := kvAll.Report(nil)
		values["kvstore.p50_steady_cycles"] = rep.Phases[loadgen.PhaseSteady].Dist.P50
		values["kvstore.p999_shifted_cycles"] = rep.Phases[loadgen.PhaseShift].Dist.P999
		for _, ph := range rep.Phases {
			values["kvstore.p9999_merged_cycles"] = max(values["kvstore.p9999_merged_cycles"], ph.Dist.P9999)
		}
	}
	values["workloads.host_ns_per_load"] = stats.Median(nsPerLoad)
	lo, hi := exec[0], exec[0]
	for _, x := range exec {
		lo, hi = min(lo, x), max(hi, x)
	}
	values["workloads.sim_spread_pct"] = 100 * (hi - lo) / stats.Median(exec)
	values["workloads.trace_overhead_pct"] = 100 * (stats.Median(tracedHost)/stats.Median(plainHost) - 1)

	res.Attempted, res.Failed = chk.Attempted, chk.Failed
	res.Metrics = make(map[string]metricOut, len(perLayer))
	for _, d := range perLayer {
		res.Metrics[d.Name] = outOf(d, values[d.Name])
	}
	return res
}
