package workloads

import (
	"math/rand"
	"sync"

	"hcsgc"
	"hcsgc/internal/machine"
)

// The synthetic microbenchmark of §4.4, scaled for simulation:
//
//	for i in 0..outer:
//	    rand = Random(seed)            // same seed every outer loop
//	    for j in 0..inner:
//	        f(rand.nextInt(n))         // access array element
//	        if ops % 10 == 0: allocate garbage
//
// At paper scale n = 2e6 (64 MB of 32-byte objects); at simulation scale
// the defaults keep the hot working set comfortably above the 4 MB LLC so
// random access misses and reorganised access hits, which is the effect
// under study.
const (
	synPaperElems = 2_000_000
	synPaperOuter = 200
	synPaperInner = 800_000
	// synDefaultScale keeps one run around a second of host time.
	synDefaultScale = 0.075
	// synGarbageWords sizes the per-10-ops garbage allocation (~1KB) so a
	// run triggers a realistic number of GC cycles.
	synGarbageWords = 127
)

// synObj is the 32-byte element type: header + payload + two pad words.
// Field 0 is the payload the benchmark reads.
var synObjFields = 3

// synParams derives the concrete sizes for a run.
type synParams struct {
	elems, outer, inner int
}

func synSizes(scale float64) synParams {
	p := synParams{
		elems: int(float64(synPaperElems) * scale),
		outer: int(float64(synPaperOuter) * scale * 2),
		inner: int(float64(synPaperInner) * scale),
	}
	if p.elems < 1000 {
		p.elems = 1000
	}
	if p.outer < 3 {
		p.outer = 3
	}
	if p.inner < 1000 {
		p.inner = 1000
	}
	return p
}

// synBuild allocates the element array (root 0) and its objects in index
// order.
func synBuild(e *env, objType *hcsgc.Type, n int) {
	arr := e.m.AllocRefArray(n)
	e.m.SetRoot(0, arr)
	for i := 0; i < n; i++ {
		obj := e.m.Alloc(objType)
		e.m.StoreField(obj, 0, uint64(i))
		e.m.StoreRef(e.m.LoadRoot(0), i, obj)
	}
}

// synRunPhase executes outer*inner accesses with the given per-phase seed
// on the main mutator, allocating garbage every 10 ops. Returns a
// checksum.
func synRunPhase(e *env, p synParams, seed int64) uint64 {
	return synLoop(e, e.m, p, seed, 0, 1)
}

// synLoop runs outer iterations first, first+stride, ... of a phase on m:
// each replays the seed's access sequence over the array in m's root 0,
// allocating garbage every 10 ops and polling a safepoint every 4096. The
// loop that starts at iteration 0 samples the heap, from m, after each
// iteration it runs. Returns the checksum of its iterations.
func synLoop(e *env, m *hcsgc.Mutator, p synParams, seed int64, first, stride int) uint64 {
	var check uint64
	ops := 0
	rng := rand.New(rand.NewSource(seed))
	for i := first; i < p.outer; i += stride {
		rng.Seed(seed) // same sequence every outer loop
		for j := 0; j < p.inner; j++ {
			obj := m.LoadRef(m.LoadRoot(0), rng.Intn(p.elems))
			check += m.LoadField(obj, 0)
			ops++
			if ops%10 == 0 {
				m.AllocWordArray(synGarbageWords)
			}
			if ops%4096 == 0 {
				m.Safepoint()
			}
		}
		if first == 0 {
			e.sampleHeapAs(m)
		}
	}
	return check
}

// synRunPhaseParallel partitions the outer loop across mutators worker
// threads (outer iteration i runs on worker i mod mutators). Every outer
// iteration replays the same RNG sequence regardless of which worker
// executes it, so the summed checksum equals the serial run's for any
// worker count — only the interleaving (and thus the contention) changes.
func synRunPhaseParallel(e *env, p synParams, seed int64, mutators int) uint64 {
	arr := e.m.LoadRoot(0)
	checks := make([]uint64, mutators)
	var wg sync.WaitGroup
	for t := 0; t < mutators; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			// Each worker owns its mutator for its whole lifetime so it
			// polls safepoints from birth, and anchors the shared array in
			// its own root set at spawn.
			m := e.rt.NewMutator(1)
			defer m.Close()
			m.SetRoot(0, arr)
			checks[tid] = synLoop(e, m, p, seed, tid, mutators)
		}(t)
	}
	// The main mutator waits as blocked: an idle unblocked mutator would
	// stall every stop-the-world the workers trigger.
	e.m.Blocked(wg.Wait)
	var check uint64
	for _, c := range checks {
		check += c
	}
	return check
}

// SyntheticSinglePhase is the Fig. 4 benchmark. RunConfig.Mutators > 1
// partitions the outer loop across that many mutator threads (the scaling
// sweep's shared-array workload); the checksum is identical at any width.
func SyntheticSinglePhase() Workload {
	return Workload{
		Name: "synthetic single-phase (Fig. 4)",
		Run: guard(func(cfg RunConfig) Result {
			p := synSizes(cfg.scale(synDefaultScale))
			e := newEnv(cfg, 64<<20, 2)
			defer e.cleanup()
			objType := e.rt.Types.Register("syn.obj", synObjFields, nil)
			synBuild(e, objType, p.elems)
			e.markMeasured()
			var check uint64
			if cfg.Mutators > 1 {
				check = synRunPhaseParallel(e, p, cfg.Seed, cfg.Mutators)
			} else {
				check = synRunPhase(e, p, cfg.Seed)
			}
			res := e.finish(check)
			res.Ops = uint64(p.outer) * uint64(p.inner)
			return res
		}),
	}
}

// SyntheticMultiPhase is the Fig. 5 benchmark: three phases with their own
// access patterns over the same objects.
func SyntheticMultiPhase() Workload {
	return Workload{
		Name: "synthetic 3-phase (Fig. 5)",
		Run: guard(func(cfg RunConfig) Result {
			p := synSizes(cfg.scale(synDefaultScale))
			// Keep total work comparable to single-phase: split the outer
			// iterations across the three phases.
			p.outer = (p.outer + 2) / 3
			e := newEnv(cfg, 64<<20, 2)
			defer e.cleanup()
			objType := e.rt.Types.Register("syn.obj", synObjFields, nil)
			synBuild(e, objType, p.elems)
			e.markMeasured()
			var check uint64
			for phase := 0; phase < 3; phase++ {
				check += synRunPhase(e, p, cfg.Seed+int64(phase)) // per-phase seed
			}
			return e.finish(check)
		}),
	}
}

// SyntheticOverloaded is the Fig. 6 benchmark: a 10x never-accessed cold
// array on a single-core machine, exposing the cost of
// RELOCATEALLSMALLPAGES when computing resources are constrained.
func SyntheticOverloaded() Workload {
	return Workload{
		Name: "synthetic overloaded (Fig. 6)",
		Run: guard(func(cfg RunConfig) Result {
			scale := cfg.scale(synDefaultScale * 0.4)
			p := synSizes(scale)
			if cfg.Machine.Cores == 0 {
				cfg.Machine = machine.SingleCore() // the taskset constraint
			}
			cold := p.elems * 10 // hot:cold = 1:10
			e := newEnv(cfg, uint64(uint64(cold+p.elems)*48+64<<20), 2)
			defer e.cleanup()
			objType := e.rt.Types.Register("syn.obj", synObjFields, nil)
			// Cold array first (allocated "in the beginning, but never
			// accessed").
			coldArr := e.m.AllocRefArray(cold)
			e.m.SetRoot(1, coldArr)
			for i := 0; i < cold; i++ {
				obj := e.m.Alloc(objType)
				e.m.StoreRef(e.m.LoadRoot(1), i, obj)
			}
			synBuild(e, objType, p.elems)
			e.markMeasured()
			check := synRunPhase(e, p, cfg.Seed)
			return e.finish(check)
		}),
	}
}
