package workloads

import (
	"fmt"

	"hcsgc/internal/graphalg"
	"hcsgc/internal/graphgen"
)

// The JGraphT benchmarks of §4.5: load a LAW-substitute graph (nodes
// inserted — and hence allocated — in id order), then run an algorithm
// whose traversal order differs from allocation order. GC cycles during
// the run give HCSGC the opportunity to reorganise nodes into traversal
// order.
//
// The paper uses BiconnectivityInspector for CC and
// BronKerboschCliqueFinder for MC, on the Table 3 inputs. The default scale
// keeps a 19-config sweep tractable; Scale = 1 reproduces Table 3 sizes.
const (
	// JGraphTScale is the JGraphT workloads' default scale.
	JGraphTScale = 0.25
	// ccPasses repeats the inspector pass; JGraphT's inspector caches are
	// queried repeatedly by the driver, and repeated stable traversals are
	// the access pattern HCSGC rewards (§4.8).
	ccPasses = 10
	mcRounds = 3
)

func jgraphtPreset(dataset string, mc bool) (graphgen.Preset, error) {
	switch {
	case dataset == "uk" && !mc:
		return graphgen.UKCC, nil
	case dataset == "uk" && mc:
		return graphgen.UKMC, nil
	case dataset == "enwiki" && !mc:
		return graphgen.EnwikiCC, nil
	case dataset == "enwiki" && mc:
		return graphgen.EnwikiMC, nil
	}
	return graphgen.Preset{}, fmt.Errorf("workloads: unknown dataset %q", dataset)
}

// GraphInput is what one JGraphT workload runs at a scale: its Table 3
// preset, the generator parameters (before the per-run seed offset) and
// the heap the run gets.
type GraphInput struct {
	Preset    graphgen.Preset
	Params    graphgen.Params
	HeapBytes uint64
}

// JGraphTInput sizes the JGraphT workload on dataset ("uk" or "enwiki"),
// CC or MC, at scale in (0,1]. The workloads and the Table 3 report both
// read it. CC shrinks the preset proportionally; MC preserves its edge
// density (see graphgen.ScaledDensity), because proportional scaling would
// make the small graph relatively denser and explode the number of maximal
// cliques.
func JGraphTInput(dataset string, mc bool, scale float64) (GraphInput, error) {
	preset, err := jgraphtPreset(dataset, mc)
	if err != nil {
		return GraphInput{}, err
	}
	var params graphgen.Params
	if mc {
		params = preset.ScaledDensity(scale)
	} else {
		params = preset.Scaled(scale)
	}
	return GraphInput{Preset: preset, Params: params, HeapBytes: graphHeapBytes(params)}, nil
}

// runGraph returns the per-run graph of a JGraphT workload, prepared for
// loading, and builds the runtime it runs in.
func runGraph(cfg RunConfig, dataset string, mc bool) (*graphalg.Input, *env) {
	in, err := JGraphTInput(dataset, mc, cfg.scale(JGraphTScale))
	if err != nil {
		panic(err)
	}
	params := in.Params
	params.Seed += cfg.Seed // per-run graph variation
	return graphs.get(params, prepareGraph), newEnv(cfg, in.HeapBytes, 2)
}

// graphs holds the last JGraphT graph built, with its incidence arrays
// (about 3.6 MB for uk CC at the default scale, 14 MB at scale 1). Only the
// prepared Input is kept: the generator's adjacency lists are not read
// after it.
var graphs inputCache[graphgen.Params, *graphalg.Input]

func prepareGraph(p graphgen.Params) *graphalg.Input {
	return graphalg.Prepare(graphgen.MustGenerate(p))
}

// GraphsBuilt returns how many JGraphT graphs the process has generated:
// runs that reuse the cached one do not count.
func GraphsBuilt() uint64 { return graphs.built() }

// JGraphTCC is the connected/biconnected components benchmark
// (Fig. 7: uk, Fig. 8: enwiki).
func JGraphTCC(dataset string) Workload {
	return Workload{
		Name: fmt.Sprintf("JGraphT CC %s", dataset),
		Run: guard(func(cfg RunConfig) Result {
			in, e := runGraph(cfg, dataset, false)
			defer e.cleanup()
			gt := graphalg.RegisterTypes(e.rt.Types)
			hg := in.Load(e.m, gt, 0)
			// The paper's driver loads the COMPLETE LAW dataset before
			// inserting the used part into JGraphT; that load phase
			// allocates heavily and produces the few early GC cycles the
			// paper reports ("most of them occur within the first 5
			// seconds"). Simulate it with transient allocation until a
			// couple of cycles have run.
			loadPhaseGarbage(e, 2)
			e.sampleHeap()
			e.markMeasured()
			var check uint64
			for pass := 0; pass < ccPasses; pass++ {
				res := hg.Biconnectivity(e.m)
				check += uint64(res.ConnectedComponents)*1_000_000 +
					uint64(res.BiconnectedComponents)*1000 +
					uint64(res.ArticulationPoints)
				e.sampleHeap()
			}
			return e.finish(check)
		}),
	}
}

// JGraphTMC is the Bron–Kerbosch maximal clique benchmark
// (Fig. 9: uk, Fig. 10: enwiki).
func JGraphTMC(dataset string) Workload {
	return Workload{
		Name: fmt.Sprintf("JGraphT MC %s", dataset),
		Run: guard(func(cfg RunConfig) Result {
			in, e := runGraph(cfg, dataset, true)
			defer e.cleanup()
			gt := graphalg.RegisterTypes(e.rt.Types)
			hg := in.Load(e.m, gt, 0)
			hg.AllocSetGarbage = true // JGraphT's per-call set copies
			loadPhaseGarbage(e, 1)
			e.sampleHeap()
			e.markMeasured()
			var check uint64
			for round := 0; round < mcRounds; round++ {
				res := hg.BronKerbosch(e.m, 0)
				check += uint64(res.MaximalCliques)*1_000_000 +
					uint64(res.TotalSize)
				e.sampleHeap()
			}
			return e.finish(check)
		}),
	}
}

// graphHeapBytes sizes the heap for the graph p generates: nodes (48B +
// array slots), edge objects (24B each) and adjacency arrays (two slots per
// edge), with headroom, echoing the paper's per-input heap sizes in Table 3.
// The generator hits p's node and edge counts exactly.
func graphHeapBytes(p graphgen.Params) uint64 {
	bytes := uint64(p.Nodes)*80 + uint64(p.Edges)*48
	heapBytes := bytes * 3
	// Floor well above one medium page (32MB): loading allocates a
	// medium-class temporary edge array. (The paper gives these inputs
	// 600MB-4GB heaps, Table 3.)
	if heapBytes < 64<<20 {
		heapBytes = 64 << 20
	}
	return heapBytes
}

// loadPhaseGarbage allocates transient arrays until at least minCycles GC
// cycles have completed (bounded), standing in for the dataset-loading
// allocation of the paper's driver.
func loadPhaseGarbage(e *env, minCycles uint64) {
	const chunkWords = 511 // 4KB
	maxBytes := e.rt.Heap.MaxBytes() * 8
	var allocated uint64
	for e.rt.Collector.Cycles() < minCycles && allocated < maxBytes {
		e.m.AllocWordArray(chunkWords)
		allocated += (chunkWords + 1) * 8
	}
}
