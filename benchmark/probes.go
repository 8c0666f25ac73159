package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hcsgc"
	"hcsgc/internal/bench"
	"hcsgc/internal/contention"
	"hcsgc/internal/graphgen"
	"hcsgc/internal/heap"
	"hcsgc/internal/kvstore"
	"hcsgc/internal/loadgen"
	"hcsgc/internal/locality"
	"hcsgc/internal/simmem"
	"hcsgc/internal/stats"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// Layer probes time calls into one layer's public functions from outside,
// on inputs derived from the seed, single goroutine unless stated. They do
// not depend on the workload; a traced pass of any workload reports them so
// that a change to a layer can be read next to the workload it should move.
//
// Each *_ns metric is the median over probeBatches batches of host time per
// operation. Each *_vcycles metric is simulated cycles per operation over
// the first batch, a pure function of the seed.

// probeSizes fixes the op counts. They are constants, not a function of
// --seconds, so *_vcycles values compare exactly between commits.
type probeSizes struct {
	batches  int
	ops      int // operations per batch for the cheap (sub-microsecond) probes
	gcLive   int // live objects under the explicit-GC probe
	graphMul float64
}

var (
	fullProbes  = probeSizes{batches: 5, ops: 200_000, gcLive: 500_000, graphMul: 0.25}
	quickProbes = probeSizes{batches: 1, ops: 2_000, gcLive: 5_000, graphMul: 0.02}
)

// prober carries one probe run's state.
type prober struct {
	probeSizes
	seed     int64
	tr       *tracer
	layer    int // current probe/<layer> span
	values   map[string]float64
	failures []string
}

// sink defeats dead-code elimination of probe loops whose results are
// otherwise unused.
var sink uint64

// runProbes executes every probe and returns the metric values plus one
// line per probe that could not run.
func runProbes(o options, tr *tracer, parent int) (map[string]float64, []string) {
	p := &prober{probeSizes: fullProbes, seed: o.Seed, tr: tr, values: map[string]float64{}}
	if o.Quick {
		p.probeSizes = quickProbes
	}
	root := tr.begin(parent, "probes")
	for _, l := range []struct {
		name string
		run  func()
	}{
		{"simmem", p.probeSimmem},
		{"heap", p.probeHeap},
		{"core", p.probeCore},
		{"kvstore", p.probeKV},
		{"inputs", p.probeInputs},
		{"planes", p.probePlanes},
	} {
		p.layer = tr.begin(root, "probe/"+l.name)
		l.run()
		tr.end(p.layer)
	}
	tr.end(root)
	return p.values, p.failures
}

// timed runs fn once per batch under a batch/<metric>/<i> span and returns
// the median duration. prepare, if non-nil, runs before each batch outside
// the timed region.
func (p *prober) timed(metric string, prepare func(batch int), fn func()) time.Duration {
	var ds []float64
	for i := 0; i < p.batches; i++ {
		if prepare != nil {
			prepare(i)
		}
		sp := p.tr.begin(p.layer, fmt.Sprintf("batch/%s/%d", metric, i))
		fn()
		ds = append(ds, float64(p.tr.end(sp)))
	}
	return time.Duration(stats.Median(ds))
}

// perOp records metric as median nanoseconds per operation of fn, which
// performs ops operations per call.
func (p *prober) perOp(metric string, ops int, prepare func(batch int), fn func()) {
	p.values[metric] = float64(p.timed(metric, prepare, fn)) / float64(ops)
}

// lines returns 2^16 seed-derived addresses, each the start of a random
// cache line inside a working set of the given size above base. Probe loops
// index the slice with a mask.
func (p *prober) lines(salt int64, base, workingSet uint64) []uint64 {
	return p.linesN(salt, 1<<16, base, workingSet)
}

// linesN is lines with an explicit power-of-two count.
func (p *prober) linesN(salt int64, n int, base, workingSet uint64) []uint64 {
	rng := rand.New(rand.NewSource(p.seed*1000 + salt))
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(rng.Int63n(int64(workingSet/simmem.LineSize)))*simmem.LineSize
	}
	return out
}

const probeBase = 1 << 30 // probes address memory well away from zero

func (p *prober) probeSimmem() {
	ops := p.ops
	// Cache.Access on a lone L1-shaped cache.
	l1cfg := simmem.DefaultConfig().L1
	hit := p.lines(1, probeBase, 16<<10)
	c := simmem.MustNewCache(l1cfg)
	for _, a := range hit {
		c.Access(a)
	}
	p.perOp("simmem.cache_access_ns.hit", ops, nil, func() {
		for i := 0; i < ops; i++ {
			c.Access(hit[i&(len(hit)-1)])
		}
	})
	miss := p.lines(2, probeBase, 64<<20)
	p.perOp("simmem.cache_access_ns.miss", ops, nil, func() {
		for i := 0; i < ops; i++ {
			c.Access(miss[i&(len(miss)-1)])
		}
	})

	// Core.Load / Core.Store over working sets sized to each level of the
	// default hierarchy (32 KB L1, 256 KB L2, 4 MB LLC).
	for i, ws := range []struct {
		level string
		bytes uint64
		store bool
	}{
		{"l1", 16 << 10, true}, {"l2", 128 << 10, false},
		{"llc", 2 << 20, false}, {"dram", 64 << 20, true},
	} {
		// 2^18 distinct lines are 16 MB: cycling through them defeats the
		// 4 MB LLC where the working set is meant to.
		addrs := p.linesN(int64(10+i), 1<<18, probeBase, ws.bytes)
		warm := func(core *simmem.Core) {
			// Two sweeps leave the set resident wherever it fits; the
			// DRAM-sized set fits nowhere and starts cold.
			for pass := 0; pass < 2 && ws.bytes <= 4<<20; pass++ {
				for a := uint64(0); a < ws.bytes; a += simmem.LineSize {
					core.Load(probeBase+a, 8)
				}
			}
		}
		core := simmem.MustNewHierarchy(simmem.DefaultConfig()).NewCore()
		warm(core)
		first := true
		p.perOp("simmem.core_load_ns."+ws.level, ops, nil, func() {
			c0 := core.Cycles()
			for i := 0; i < ops; i++ {
				core.Load(addrs[i&(len(addrs)-1)], 8)
			}
			if first {
				p.values["simmem.core_load_vcycles."+ws.level] = float64(core.Cycles()-c0) / float64(ops)
				first = false
			}
		})
		if ws.store {
			score := simmem.MustNewHierarchy(simmem.DefaultConfig()).NewCore()
			warm(score)
			p.perOp("simmem.core_store_ns."+ws.level, ops, nil, func() {
				for i := 0; i < ops; i++ {
					score.Store(addrs[i&(len(addrs)-1)], 8)
				}
			})
		}
	}

	// Sequential line-granular sweep over 64 MB: the stream prefetcher runs.
	seq := simmem.MustNewHierarchy(simmem.DefaultConfig()).NewCore()
	var next uint64
	first := true
	p.perOp("simmem.core_load_ns.seq", ops, nil, func() {
		c0 := seq.Cycles()
		for i := 0; i < ops; i++ {
			seq.Load(probeBase+next, 8)
			next = (next + simmem.LineSize) & (64<<20 - 1)
		}
		if first {
			p.values["simmem.core_load_vcycles.seq"] = float64(seq.Cycles()-c0) / float64(ops)
			first = false
		}
	})

	// Two goroutines, each on its own Core of one Hierarchy, both L1
	// resident: any slowdown against .l1 is shared-counter or
	// false-sharing traffic, not modelled contention.
	h := simmem.MustNewHierarchy(simmem.DefaultConfig())
	cores := [2]*simmem.Core{h.NewCore(), h.NewCore()}
	sets := [2][]uint64{p.lines(20, probeBase, 16<<10), p.lines(21, probeBase+(1<<20), 16<<10)}
	for i, core := range cores {
		for _, a := range sets[i] {
			core.Load(a, 8)
		}
	}
	p.perOp("simmem.core_load_ns.l1-x2", ops, nil, func() {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(core *simmem.Core, addrs []uint64) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					core.Load(addrs[i&(len(addrs)-1)], 8)
				}
			}(cores[g], sets[g])
		}
		wg.Wait()
	})
}

// probeHeap times the heap's raw word accessors and page structures. It
// owns this heap outright: no collector or mutator is attached, so there is
// no load barrier to bypass, and the probe stands where a GC thread would.
//
//hcsgc:gc-thread
func (p *prober) probeHeap() {
	ops := p.ops
	h := heap.New(heap.Config{MaxBytes: 64 << 20}, nil)
	// Four small pages hold 256 K 32-byte objects: more than one batch.
	const objBytes = 32
	var pages []*heap.Page
	for i := 0; i < 4; i++ {
		pg, err := h.AllocPage(heap.ClassSmall)
		if err != nil {
			p.failures = append(p.failures, "probe heap: "+err.Error())
			return
		}
		pages = append(pages, pg)
	}
	pg := pages[0]
	words := p.lines(30, pg.Start(), pg.Size()) // line starts are word aligned

	p.perOp("heap.load_word_ns", ops, nil, func() {
		var acc uint64
		for i := 0; i < ops; i++ {
			acc += h.LoadWord(nil, words[i&(len(words)-1)])
		}
		sink += acc
	})
	p.perOp("heap.store_word_ns", ops, nil, func() {
		for i := 0; i < ops; i++ {
			h.StoreWord(nil, words[i&(len(words)-1)], uint64(i))
		}
	})
	p.perOp("heap.page_of_ns", ops, nil, func() {
		var acc uint64
		for i := 0; i < ops; i++ {
			acc += h.PageOf(words[i&(len(words)-1)]).Seq
		}
		sink += acc
	})

	// Forwarding table: insert into an empty table sized for the batch
	// (ends at or below 50 % load); look up in a table held at 50 %.
	var ft *heap.ForwardTable
	p.perOp("heap.fwd_insert_ns", ops, func(int) { ft = heap.NewForwardTable(ops) }, func() {
		for i := 0; i < ops; i++ {
			ft.Insert(uint64(i)*4, probeBase+uint64(i)*objBytes)
		}
	})
	const fwdEntries = 1 << 16 // capacity 2^17: exactly half full
	full := heap.NewForwardTable(fwdEntries)
	for i := uint64(0); i < fwdEntries; i++ {
		full.Insert(i*4, probeBase+i*objBytes)
	}
	offs := p.lines(31, 0, fwdEntries*simmem.LineSize) // random i*64; /16 gives i*4
	p.perOp("heap.fwd_lookup_ns", ops, nil, func() {
		var acc uint64
		for i := 0; i < ops; i++ {
			acc += full.Lookup(offs[i&(len(offs)-1)] / 16)
		}
		sink += acc
	})

	perPage := int(pg.Size() / objBytes)
	p.perOp("heap.mark_live_ns", ops, func(int) {
		for _, pg := range pages {
			pg.ResetMarks()
		}
	}, func() {
		for i := 0; i < ops; i++ {
			pg := pages[(i/perPage)%len(pages)]
			pg.MarkLive(pg.Start()+uint64(i%perPage)*objBytes, objBytes)
		}
	})
	src, dst := pages[1], pages[2]
	p.perOp("heap.copy_object_ns", ops, nil, func() {
		for i := 0; i < ops; i++ {
			off := uint64(i%perPage) * objBytes
			h.CopyObject(nil, src.Start()+off, dst.Start()+off, objBytes)
		}
	})
	// One commit (zeroing a 2 MB backing), free and drop of a small page.
	pageOps := max(ops/1000, 20)
	p.values["heap.page_alloc_free_us"] = float64(p.timed("heap.page_alloc_free_us", nil, func() {
		for i := 0; i < pageOps; i++ {
			pg, err := h.AllocPage(heap.ClassSmall)
			if err != nil {
				p.failures = append(p.failures, "probe heap.page_alloc_free_us: "+err.Error())
				return
			}
			h.FreePage(pg)
			h.DropPage(pg)
		}
	})) / float64(pageOps) / 1e3
}

// memModes are the two ways the core probes run: with the cache model
// pricing every access, and with it disabled.
var memModes = []struct {
	suffix string
	nomem  bool
}{{".mem", false}, {".nomem", true}}

// probeRuntime builds a driver-less config-16 runtime for the core probes.
// The heap is large enough that no probe needs a collection, so simulated
// costs depend on the seed alone.
func probeRuntime(nomem bool) (*hcsgc.Runtime, error) {
	return hcsgc.NewRuntime(hcsgc.Options{
		HeapMaxBytes:    256 << 20,
		Knobs:           bench.KnobsFor(16),
		DisableMemModel: nomem,
	})
}

func (p *prober) probeCore() {
	ops := p.ops
	const elems = 1 << 16
	idx := p.lines(40, 0, elems*simmem.LineSize) // random i*64
	for _, mode := range memModes {
		rt, err := probeRuntime(mode.nomem)
		if err != nil {
			p.failures = append(p.failures, "probe core: "+err.Error())
			return
		}
		obj := rt.Types.Register("probe.obj", 3, nil)
		m := rt.NewMutator(2)
		arr := m.AllocRefArray(elems)
		m.SetRoot(0, arr)
		for i := 0; i < elems; i++ {
			o := m.Alloc(obj)
			m.StoreField(o, 0, uint64(i))
			m.StoreRef(m.LoadRoot(0), i, o)
		}
		// No collection runs in this runtime, so references stay valid in
		// Go locals across the loops below.
		arr = m.LoadRoot(0)
		objs := make([]hcsgc.Ref, elems)
		for i := range objs {
			objs[i] = m.LoadRef(arr, i)
		}
		p.perOp("core.load_ref_ns"+mode.suffix, ops, nil, func() {
			var acc uint64
			for i := 0; i < ops; i++ {
				acc += uint64(m.LoadRef(arr, int(idx[i&(len(idx)-1)]/simmem.LineSize)))
			}
			sink += acc
		})
		p.perOp("core.load_field_ns"+mode.suffix, ops, nil, func() {
			var acc uint64
			for i := 0; i < ops; i++ {
				acc += m.LoadField(objs[idx[i&(len(idx)-1)]/simmem.LineSize], 0)
			}
			sink += acc
		})
		p.perOp("core.store_ref_ns"+mode.suffix, ops, nil, func() {
			for i := 0; i < ops; i++ {
				j := int(idx[i&(len(idx)-1)] / simmem.LineSize)
				m.StoreRef(arr, j, objs[j])
			}
		})
		p.perOp("core.alloc_small_ns"+mode.suffix, ops, nil, func() {
			for i := 0; i < ops; i++ {
				m.Alloc(obj)
			}
		})
		if !mode.nomem {
			arrayOps := ops / 10
			p.perOp("core.alloc_array1k_ns.mem", arrayOps, nil, func() {
				for i := 0; i < arrayOps; i++ {
					m.AllocWordArray(127)
				}
			})
			p.perOp("core.safepoint_poll_ns", ops, nil, func() {
				for i := 0; i < ops; i++ {
					m.Safepoint()
				}
			})
		}
		m.Close()
		rt.Close()
	}

	p.probeStaleLoad()
	p.probeGCCycle()

	newOps := max(p.ops/20_000, 3)
	p.values["core.new_runtime_ms"] = float64(p.timed("core.new_runtime_ms", nil, func() {
		for i := 0; i < newOps; i++ {
			rt, err := hcsgc.NewRuntime(hcsgc.Options{HeapMaxBytes: 64 << 20})
			if err != nil {
				p.failures = append(p.failures, "probe core.new_runtime_ms: "+err.Error())
				return
			}
			rt.Close()
		}
	})) / float64(newOps) / 1e6
}

// probeStaleLoad prices the load barrier's slow path: the first sweep over
// an array after a cycle that selected its pages for evacuation. Under
// config 16 relocation is lazy, so the sweeping mutator remaps and copies.
// Three garbage objects between live ones leave the pages a quarter live,
// well under the 75 % evacuation threshold.
func (p *prober) probeStaleLoad() {
	elems := min(p.ops/4, 1<<16)
	var (
		rt *hcsgc.Runtime
		m  *hcsgc.Mutator
	)
	closeRT := func() {
		if rt != nil {
			m.Close()
			rt.Close()
			rt = nil
		}
	}
	defer closeRT()
	p.perOp("core.load_ref_ns.stale", elems, func(int) {
		closeRT()
		var err error
		if rt, err = probeRuntime(false); err != nil {
			p.failures = append(p.failures, "probe core.load_ref_ns.stale: "+err.Error())
			return
		}
		obj := rt.Types.Register("probe.obj", 3, nil)
		m = rt.NewMutator(2)
		m.SetRoot(0, m.AllocRefArray(elems))
		for i := 0; i < elems; i++ {
			m.StoreRef(m.LoadRoot(0), i, m.Alloc(obj))
			for g := 0; g < 3; g++ {
				m.Alloc(obj)
			}
		}
		m.RequestGC()
	}, func() {
		if rt == nil {
			return
		}
		arr := m.LoadRoot(0)
		var acc uint64
		for i := 0; i < elems; i++ {
			acc += uint64(m.LoadRef(arr, i))
		}
		sink += acc
	})
}

// probeGCCycle times one explicit cycle over a live array, with and without
// the memory model. The cycle is requested from the mutator: Runtime.GC()
// called from a goroutine that owns an attached mutator never reaches the
// safepoint and sits until the STW watchdog fires.
func (p *prober) probeGCCycle() {
	for _, mode := range memModes {
		rt, err := probeRuntime(mode.nomem)
		if err != nil {
			p.failures = append(p.failures, "probe core.gc_cycle_ms: "+err.Error())
			return
		}
		obj := rt.Types.Register("probe.obj", 3, nil)
		m := rt.NewMutator(2)
		m.SetRoot(0, m.AllocRefArray(p.gcLive))
		for i := 0; i < p.gcLive; i++ {
			m.StoreRef(m.LoadRoot(0), i, m.Alloc(obj))
		}
		d := p.timed("core.gc_cycle_ms"+mode.suffix, nil, m.RequestGC)
		p.values["core.gc_cycle_ms"+mode.suffix] = float64(d) / 1e6
		if !mode.nomem {
			p.values["core.gc_ns_per_live_obj.mem"] = float64(d) / float64(p.gcLive)
		}
		m.Close()
		rt.Close()
	}
}

func (p *prober) probeKV() {
	const keys = 10_000
	rt, err := hcsgc.NewRuntime(hcsgc.Options{HeapMaxBytes: 256 << 20, Knobs: bench.KnobsFor(4)})
	if err != nil {
		p.failures = append(p.failures, "probe kvstore: "+err.Error())
		return
	}
	defer rt.Close()
	m := rt.NewMutator(kvstore.RootSlots)
	defer m.Close()
	st := kvstore.New(m, kvstore.RegisterTypes(rt.Types), 2*keys)
	words := func(k uint64) int { return 8 + int(k%49) } // the load generator's 8..56-word values
	for k := uint64(0); k < keys; k++ {
		st.Set(k, words(k))
	}
	ks := p.lines(50, 0, keys*simmem.LineSize) // random k*64

	getOps := p.ops / 4 // a GET reads the whole value: ~30 loads
	first := true
	p.perOp("kvstore.get_hit_ns", getOps, nil, func() {
		c0 := m.Cycles()
		var acc uint64
		for i := 0; i < getOps; i++ {
			sum, _ := st.Get(ks[i&(len(ks)-1)] / simmem.LineSize)
			acc += sum
		}
		sink += acc
		if first {
			p.values["kvstore.get_hit_vcycles"] = float64(m.Cycles()-c0) / float64(getOps)
			first = false
		}
	})
	setOps := p.ops / 10
	first = true
	p.perOp("kvstore.set_ns", setOps, nil, func() {
		c0 := m.Cycles()
		for i := 0; i < setOps; i++ {
			k := ks[i&(len(ks)-1)] / simmem.LineSize
			st.Set(k, words(k))
		}
		if first {
			p.values["kvstore.set_vcycles"] = float64(m.Cycles()-c0) / float64(setOps)
			first = false
		}
	})
	scans := max(p.ops/100, 10)
	var touched int
	d := p.timed("kvstore.scan_ns_per_entry", func(int) { touched = 0 }, func() {
		var acc uint64
		for i := 0; i < scans; i++ {
			sum, n := st.Scan(int(ks[i&(len(ks)-1)]/simmem.LineSize), 16)
			acc += sum
			touched += n
		}
		sink += acc
	})
	p.values["kvstore.scan_ns_per_entry"] = float64(d) / float64(max(touched, 1))
}

// probeInputs prices the seeded input generators the workloads call before
// they touch the heap.
func (p *prober) probeInputs() {
	reqs := max(p.ops/2, 1_000)
	p.perOp("loadgen.generate_ns_per_req", reqs, nil, func() {
		s := loadgen.Generate(loadgen.Config{Seed: p.seed, Keys: 10_000, Requests: reqs})
		sink += uint64(len(s.Requests))
	})
	params := graphgen.UKCC.Scaled(p.graphMul)
	params.Seed += p.seed
	p.values["graphgen.generate_ms"] = float64(p.timed("graphgen.generate_ms", nil, func() {
		g, err := graphgen.Generate(params)
		if err != nil {
			p.failures = append(p.failures, "probe graphgen.generate_ms: "+err.Error())
			return
		}
		sink += uint64(g.EdgeCount)
	})) / 1e6
}

// probePlanes prices the observation primitives the hot paths call.
func (p *prober) probePlanes() {
	ops := p.ops
	vals := p.lines(60, 0, 1<<30)
	hist := latency.NewHist()
	p.perOp("telemetry.hist_record_ns", ops, nil, func() {
		for i := 0; i < ops; i++ {
			hist.Record(vals[i&(len(vals)-1)])
		}
	})
	sinkT := telemetry.NewSink()
	rec := sinkT.Recorder()
	p.perOp("telemetry.recorder_record_ns", ops, nil, func() {
		for i := 0; i < ops; i++ {
			rec.Record(telemetry.EvPageAlloc, 1, uint64(i), 64)
		}
	})
	ctr := sinkT.Metrics().Counter("hcsgc_benchmark_probe_total", "Benchmark probe counter.")
	p.perOp("telemetry.counter_add_ns", ops, nil, func() {
		for i := 0; i < ops; i++ {
			ctr.Add(1)
		}
	})
	var on, bare contention.Mutex
	on.Instrument(contention.New().NewSite("benchmark.probe"))
	for _, mu := range []struct {
		name string
		m    *contention.Mutex
	}{{"on", &on}, {"bare", &bare}} {
		m := mu.m
		p.perOp("contention.mutex_ns."+mu.name, ops, nil, func() {
			for i := 0; i < ops; i++ {
				m.Lock()
				m.Unlock()
			}
		})
	}
	probe := locality.New(locality.Config{SamplePeriodShift: 12}).NewProbe()
	p.perOp("locality.access_ns.shift12", ops, nil, func() {
		for i := 0; i < ops; i++ {
			probe.Access(vals[i&(len(vals)-1)])
		}
	})
}
