package graphalg

import (
	"math/rand"
	"runtime"
	"testing"

	"hcsgc/internal/core"
	"hcsgc/internal/graphgen"
	"hcsgc/internal/heap"
	"hcsgc/internal/objmodel"
	"hcsgc/internal/simmem"
)

func newEnv(t *testing.T, knobs core.Knobs) (*core.Collector, Types) {
	t.Helper()
	h := heap.New(heap.Config{MaxBytes: 256 << 20}, nil)
	types := objmodel.NewRegistry()
	c, err := core.New(h, types, core.Config{Knobs: knobs})
	if err != nil {
		t.Fatal(err)
	}
	return c, RegisterTypes(types)
}

// graphFromEdges builds a graphgen.Graph directly from an edge list.
func graphFromEdges(n int, edges [][2]int32) *graphgen.Graph {
	g := &graphgen.Graph{Adj: make([][]int32, n), EdgeCount: len(edges)}
	for _, e := range edges {
		g.Adj[e[0]] = append(g.Adj[e[0]], e[1])
		g.Adj[e[1]] = append(g.Adj[e[1]], e[0])
	}
	return g
}

func load(t *testing.T, g *graphgen.Graph, knobs core.Knobs) (*HeapGraph, *core.Mutator) {
	t.Helper()
	c, gt := newEnv(t, knobs)
	m := c.NewMutator(4)
	t.Cleanup(m.Close)
	return Load(m, gt, g, 0), m
}

func TestLoadRoundTrip(t *testing.T) {
	g := graphFromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	hg, m := load(t, g, core.Knobs{})
	if hg.Nodes() != 4 {
		t.Fatalf("nodes = %d", hg.Nodes())
	}
	var buf []int32
	buf = hg.neighbors(m, 1, buf)
	if len(buf) != 2 {
		t.Fatalf("node 1 neighbors = %v", buf)
	}
	if hg.Degree(m, 0) != 2 {
		t.Fatal("degree wrong")
	}
}

func TestConnectedComponentsKnownGraphs(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges [][2]int32
		want  int
	}{
		{"single edge", 2, [][2]int32{{0, 1}}, 1},
		{"two components", 4, [][2]int32{{0, 1}, {2, 3}}, 2},
		{"isolated vertices", 3, nil, 3},
		{"triangle plus isolated", 4, [][2]int32{{0, 1}, {1, 2}, {2, 0}}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hg, m := load(t, graphFromEdges(tc.n, tc.edges), core.Knobs{})
			if got := hg.ConnectedComponents(m); got != tc.want {
				t.Fatalf("CC = %d, want %d", got, tc.want)
			}
			// Repeat runs must agree (stamp versioning works).
			if got := hg.ConnectedComponents(m); got != tc.want {
				t.Fatalf("second CC run = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestBiconnectivityKnownGraphs(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		edges   [][2]int32
		cc, bcc int
		art     int
	}{
		{"triangle", 3, [][2]int32{{0, 1}, {1, 2}, {2, 0}}, 1, 1, 0},
		{"path3", 3, [][2]int32{{0, 1}, {1, 2}}, 1, 2, 1},
		{"single edge", 2, [][2]int32{{0, 1}}, 1, 1, 0},
		{"two triangles sharing vertex", 5,
			[][2]int32{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}}, 1, 2, 1},
		{"star4", 5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}}, 1, 4, 1},
		{"two components", 5, [][2]int32{{0, 1}, {1, 2}, {3, 4}}, 2, 3, 1},
		{"isolated", 1, nil, 1, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hg, m := load(t, graphFromEdges(tc.n, tc.edges), core.Knobs{})
			got := hg.Biconnectivity(m)
			if got.ConnectedComponents != tc.cc {
				t.Errorf("CC = %d, want %d", got.ConnectedComponents, tc.cc)
			}
			if got.BiconnectedComponents != tc.bcc {
				t.Errorf("BCC = %d, want %d", got.BiconnectedComponents, tc.bcc)
			}
			if got.ArticulationPoints != tc.art {
				t.Errorf("articulation = %d, want %d", got.ArticulationPoints, tc.art)
			}
		})
	}
}

func refIsolated(g *graphgen.Graph, v int) bool { return len(g.Adj[v]) == 0 }

// refComponents counts components, optionally skipping vertex skip.
func refComponents(g *graphgen.Graph, skip int) int {
	n := g.Nodes()
	visited := make([]bool, n)
	comps := 0
	for s := 0; s < n; s++ {
		if s == skip || visited[s] {
			continue
		}
		comps++
		stack := []int32{int32(s)}
		visited[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Adj[v] {
				if int(w) == skip || visited[w] {
					continue
				}
				visited[w] = true
				stack = append(stack, w)
			}
		}
	}
	return comps
}

func TestBiconnectivityAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(12)
		maxE := n * (n - 1) / 2
		e := n - 1 + rng.Intn(maxE-n+2)
		g := graphgen.MustGenerate(graphgen.Params{Nodes: n, Edges: e, CopyProb: 0.4, Seed: int64(trial)})
		hg, m := load(t, g, core.Knobs{})
		got := hg.Biconnectivity(m)

		wantCC := refComponents(g, -1)
		if got.ConnectedComponents != wantCC {
			t.Fatalf("trial %d: CC = %d, want %d", trial, got.ConnectedComponents, wantCC)
		}
		// Articulation points: vertex v is articulation iff removing it
		// increases the component count among remaining vertices.
		wantArt := 0
		for v := 0; v < n; v++ {
			before := wantCC
			if refIsolated(g, v) {
				continue
			}
			after := refComponents(g, v) // components among others
			if after > before {
				wantArt++
			}
		}
		if got.ArticulationPoints != wantArt {
			t.Fatalf("trial %d (n=%d e=%d): articulation = %d, want %d", trial, n, e, got.ArticulationPoints, wantArt)
		}
	}
}

// refBronKerbosch is a simple reference enumeration without pivoting.
func refBronKerbosch(g *graphgen.Graph) CliqueResult {
	n := g.Nodes()
	adj := make([]map[int32]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = map[int32]bool{}
		for _, w := range g.Adj[v] {
			adj[v][w] = true
		}
	}
	var res CliqueResult
	var rec func(r, p, x []int32)
	rec = func(r, p, x []int32) {
		if len(p) == 0 && len(x) == 0 {
			res.MaximalCliques++
			res.TotalSize += len(r)
			if len(r) > res.MaxSize {
				res.MaxSize = len(r)
			}
			return
		}
		for len(p) > 0 {
			v := p[0]
			var np, nx []int32
			for _, w := range p {
				if adj[v][w] {
					np = append(np, w)
				}
			}
			for _, w := range x {
				if adj[v][w] {
					nx = append(nx, w)
				}
			}
			rec(append(append([]int32{}, r...), v), np, nx)
			p = p[1:]
			x = append(x, v)
		}
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	rec(nil, all, nil)
	return res
}

func TestBronKerboschKnownGraphs(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		edges   [][2]int32
		cliques int
		maxSize int
	}{
		{"triangle", 3, [][2]int32{{0, 1}, {1, 2}, {2, 0}}, 1, 3},
		{"path3", 3, [][2]int32{{0, 1}, {1, 2}}, 2, 2},
		{"k4", 4, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, 1, 4},
		{"no edges", 3, nil, 3, 1},
		{"two triangles sharing edge", 4,
			[][2]int32{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}}, 2, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hg, m := load(t, graphFromEdges(tc.n, tc.edges), core.Knobs{})
			got := hg.BronKerbosch(m, 0)
			if got.MaximalCliques != tc.cliques || got.MaxSize != tc.maxSize {
				t.Fatalf("BK = %+v, want cliques=%d maxSize=%d", got, tc.cliques, tc.maxSize)
			}
		})
	}
}

func TestBronKerboschAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		n := 6 + rng.Intn(10)
		maxE := n * (n - 1) / 2
		e := n - 1 + rng.Intn(maxE-n+2)
		g := graphgen.MustGenerate(graphgen.Params{Nodes: n, Edges: e, CopyProb: 0.5, Seed: int64(100 + trial)})
		hg, m := load(t, g, core.Knobs{})
		got := hg.BronKerbosch(m, 0)
		want := refBronKerbosch(g)
		if got != want {
			t.Fatalf("trial %d (n=%d e=%d): BK = %+v, want %+v", trial, n, e, got, want)
		}
	}
}

func TestBronKerboschLimit(t *testing.T) {
	g := graphgen.MustGenerate(graphgen.Params{Nodes: 50, Edges: 300, CopyProb: 0.5, Seed: 7})
	hg, m := load(t, g, core.Knobs{})
	got := hg.BronKerbosch(m, 5)
	if got.MaximalCliques != 5 {
		t.Fatalf("limited BK found %d cliques, want exactly 5", got.MaximalCliques)
	}
}

func TestAlgorithmsSurviveGC(t *testing.T) {
	// Run CC and BK across GC cycles under aggressive knobs: results must
	// match the no-GC run (relocation must be transparent).
	g := graphgen.MustGenerate(graphgen.Params{Nodes: 400, Edges: 2500, CopyProb: 0.4, Seed: 21})
	knobs := core.Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1.0, LazyRelocate: true}

	hgBase, mBase := load(t, g, core.Knobs{})
	wantBi := hgBase.Biconnectivity(mBase)
	wantBK := hgBase.BronKerbosch(mBase, 0)

	hg, m := load(t, g, knobs)
	m.RequestGC()
	gotBi := hg.Biconnectivity(m)
	m.RequestGC()
	gotBK := hg.BronKerbosch(m, 0)
	m.RequestGC()
	gotBi2 := hg.Biconnectivity(m)

	if gotBi != wantBi || gotBi2 != wantBi {
		t.Fatalf("biconnectivity across GC = %+v / %+v, want %+v", gotBi, gotBi2, wantBi)
	}
	if gotBK != wantBK {
		t.Fatalf("BK across GC = %+v, want %+v", gotBK, wantBK)
	}
}

// TestGoldenAccessCounts pins what the graph algorithms ask of the heap: on
// a generated graph with the cache model on and a heap no GC cycle needs,
// the results and the mutator's simulated load and store counts and cycles
// after each phase (the cycles also fix the order of the accesses). A
// host-side rewrite of Load or an algorithm must leave every one of them
// unchanged.
func TestGoldenAccessCounts(t *testing.T) {
	g := graphgen.MustGenerate(graphgen.Params{Nodes: 600, Edges: 2000, CopyProb: 0.6, Seed: 31})
	mem := simmem.MustNewHierarchy(simmem.DefaultConfig())
	h := heap.New(heap.Config{MaxBytes: 256 << 20}, mem)
	types := objmodel.NewRegistry()
	c, err := core.New(h, types, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gt := RegisterTypes(types)
	m := c.NewMutator(4)
	defer m.Close()

	type counts struct{ loads, stores, cycles uint64 }
	phase := func() counts { return counts{m.Core().Loads(), m.Core().Stores(), m.Cycles()} }

	hg := Load(m, gt, g, 0)
	afterLoad := phase()
	bi := hg.Biconnectivity(m)
	bi2 := hg.Biconnectivity(m)
	afterBi := phase()
	hg.AllocSetGarbage = true
	bk := hg.BronKerbosch(m, 0)
	afterBK := phase()

	if n := c.Cycles(); n != 0 {
		t.Fatalf("%d GC cycles ran; the pin assumes none", n)
	}
	wantBi := BiconnectivityResult{ConnectedComponents: 1, BiconnectedComponents: 19, ArticulationPoints: 18}
	if bi != wantBi || bi2 != wantBi {
		t.Errorf("Biconnectivity = %+v, then %+v; want %+v", bi, bi2, wantBi)
	}
	if want := (CliqueResult{MaximalCliques: 1840, TotalSize: 3777, MaxSize: 3}); bk != want {
		t.Errorf("BronKerbosch = %+v, want %+v", bk, want)
	}
	for _, p := range []struct {
		name      string
		got, want counts
	}{
		{"Load", afterLoad, counts{8600, 15002, 146044}},
		{"Load+Biconnectivity×2", afterBi, counts{73974, 20510, 587598}},
		{"Load+Biconnectivity×2+BronKerbosch", afterBK, counts{216790, 23093, 1628948}},
	} {
		if p.got != p.want {
			t.Errorf("after %s: loads/stores/cycles = %+v, want %+v", p.name, p.got, p.want)
		}
	}
}

// TestBiconnectivityReusesScratch: after a first pass, a Biconnectivity
// pass allocates no host memory, whether it runs on the same graph again
// (the workload runs ten passes on one) or on a fresh HeapGraph of the same
// node count (the next run's graph): the DFS stack and the articulation
// marks come from free lists keyed by node count.
func TestBiconnectivityReusesScratch(t *testing.T) {
	g := graphgen.MustGenerate(graphgen.Params{Nodes: 2000, Edges: 6000, CopyProb: 0.4, Seed: 41})
	c, gt := newEnv(t, core.Knobs{})
	m := c.NewMutator(8)
	t.Cleanup(m.Close)
	in := Prepare(g)
	var graphs [4]*HeapGraph
	for i := range graphs {
		graphs[i] = in.Load(m, gt, 2*i)
	}
	want := graphs[0].Biconnectivity(m)
	if allocs := testing.AllocsPerRun(5, func() {
		if got := graphs[0].Biconnectivity(m); got != want {
			t.Fatalf("pass = %+v, want %+v", got, want)
		}
	}); allocs != 0 {
		t.Errorf("a repeated Biconnectivity pass made %v host allocations, want 0", allocs)
	}
	fresh := graphs[1:]
	if allocs := testing.AllocsPerRun(len(fresh)-1, func() {
		if got := fresh[0].Biconnectivity(m); got != want {
			t.Fatalf("pass on a fresh graph = %+v, want %+v", got, want)
		}
		fresh = fresh[1:]
	}); allocs != 0 {
		t.Errorf("a first Biconnectivity pass on a fresh graph made %v host allocations, want 0", allocs)
	}
}

// TestBronKerboschHostBytes bounds BronKerbosch's host allocation on a fixed
// graph at half of what per-recursion Go maps for N(pivot) and N(v) cost:
// 1,000 nodes and 5,000 edges took 2,269,504 B with them and take 229,104 B
// with a stamped membership array (go1.24, linux/amd64).
func TestBronKerboschHostBytes(t *testing.T) {
	const mapBytes = 2_269_504
	g := graphgen.MustGenerate(graphgen.Params{Nodes: 1000, Edges: 5000, CopyProb: 0.5, Seed: 43})
	hg, m := load(t, g, core.Knobs{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := hg.BronKerbosch(m, 0)
	runtime.ReadMemStats(&after)
	if want := refBronKerbosch(g); res != want {
		t.Fatalf("BK = %+v, want %+v", res, want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > mapBytes/2 {
		t.Errorf("BronKerbosch allocated %d host bytes, want <= %d", got, mapBytes/2)
	} else {
		t.Logf("BronKerbosch allocated %d host bytes", got)
	}
}

func TestGraphLayoutChangesUnderMutatorRelocation(t *testing.T) {
	// After traversals under RelocateAllSmallPages+LazyRelocate, nodes
	// should have been relocated (the mechanism the JGraphT figures rely
	// on).
	g := graphgen.MustGenerate(graphgen.Params{Nodes: 2000, Edges: 8000, CopyProb: 0.4, Seed: 23})
	c, gt := newEnv(t, core.Knobs{RelocateAllSmallPages: true, LazyRelocate: true})
	m := c.NewMutator(4)
	defer m.Close()
	hg := Load(m, gt, g, 0)

	addrBefore := make([]uint64, 16)
	for i := range addrBefore {
		addrBefore[i] = hg.node(m, int32(i*100)).Addr()
	}
	m.RequestGC()
	hg.Biconnectivity(m) // traversal relocates in DFS order
	moved := 0
	for i := range addrBefore {
		if hg.node(m, int32(i*100)).Addr() != addrBefore[i] {
			moved++
		}
	}
	if moved < len(addrBefore)/2 {
		t.Fatalf("only %d of %d sampled nodes moved; mutator relocation not happening", moved, len(addrBefore))
	}
}
