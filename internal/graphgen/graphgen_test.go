package graphgen

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"
	"testing/quick"
)

// graphDigest is an FNV-64a digest of g's edge list (in insertion order)
// followed by every node's degree and adjacency list.
func graphDigest(g *Graph) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, e := range g.Edges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e[0]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e[1]))
	}
	for _, ns := range g.Adj {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ns)))
		for _, w := range ns {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// TestGoldenWorkloadGraphs pins the graphs the JGraphT workloads run: each
// Table 3 preset at the parameters its workload uses at the default scale
// (proportional for CC, density-preserving for MC), with the per-run seed
// offsets 1 and 2. Every simulated access of figs 7–10 follows from these
// bytes, so a generator change that moves one of them is a different
// experiment.
func TestGoldenWorkloadGraphs(t *testing.T) {
	cases := []struct {
		params Params
		seed   int64
		want   uint64
	}{
		{UKCC.Scaled(0.25), 1, 0xe048223e3bded31f},
		{UKCC.Scaled(0.25), 2, 0xaac6abe82fde4552},
		{UKMC.ScaledDensity(0.25), 1, 0x0a805539aa695e0d},
		{UKMC.ScaledDensity(0.25), 2, 0x0b955dc4de554af9},
		{EnwikiCC.Scaled(0.25), 1, 0x69fdad20f2276853},
		{EnwikiCC.Scaled(0.25), 2, 0x4cb4ef31f0012d51},
		{EnwikiMC.ScaledDensity(0.25), 1, 0xf39853908ee8cd97},
		{EnwikiMC.ScaledDensity(0.25), 2, 0x8e4a3e24254429c3},
	}
	for _, tc := range cases {
		p := tc.params
		p.Seed += tc.seed
		g := MustGenerate(p)
		if g.EdgeCount != p.Edges || len(g.Edges) != p.Edges {
			t.Errorf("%s seed +%d: %d edges (%d listed), want %d", p.Name, tc.seed, g.EdgeCount, len(g.Edges), p.Edges)
		}
		if got := graphDigest(g); got != tc.want {
			t.Errorf("%s seed +%d: digest %#x, want %#x", p.Name, tc.seed, got, tc.want)
		}
	}
}

// TestGenerateHostBytesPerEdge bounds what Generate allocates per edge: the
// TotalAlloc slope between uk(CC) at two scales, so fixed costs cancel. The
// output itself (an [2]int32 edge and two adjacency slots, with append
// slack) is about 30 B; per-node dedup maps and a stored endpoint list had
// put it at about 102.
func TestGenerateHostBytesPerEdge(t *testing.T) {
	gen := func(scale float64) (allocBytes, edges int64) {
		p := UKCC.Scaled(scale)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		MustGenerate(p)
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc), int64(p.Edges)
	}
	smallB, smallE := gen(0.05)
	bigB, bigE := gen(0.2)
	perEdge := float64(bigB-smallB) / float64(bigE-smallE)
	if perEdge > 40 {
		t.Errorf("%.1f host bytes per edge (%d B for %d edges, %d B for %d), want <= 40",
			perEdge, smallB, smallE, bigB, bigE)
	} else {
		t.Logf("%.1f host bytes per edge", perEdge)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"ok", Params{Nodes: 10, Edges: 20, CopyProb: 0.3}, false},
		{"too few nodes", Params{Nodes: 1, Edges: 0}, true},
		{"too few edges", Params{Nodes: 10, Edges: 5}, true},
		{"too many edges", Params{Nodes: 10, Edges: 50}, true},
		{"bad copy prob", Params{Nodes: 10, Edges: 20, CopyProb: 1.5}, true},
		{"tree", Params{Nodes: 10, Edges: 9}, false},
		{"complete", Params{Nodes: 10, Edges: 45}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); (err != nil) != tc.wantErr {
				t.Fatalf("Validate(%+v) err=%v", tc.p, err)
			}
		})
	}
}

func TestGenerateExactCounts(t *testing.T) {
	g := MustGenerate(Params{Nodes: 500, Edges: 3000, CopyProb: 0.4, Seed: 1})
	if g.Nodes() != 500 {
		t.Fatalf("nodes = %d", g.Nodes())
	}
	if g.EdgeCount != 3000 {
		t.Fatalf("edges = %d, want 3000", g.EdgeCount)
	}
	// Adjacency degrees sum to 2E.
	sum := 0
	for v := 0; v < g.Nodes(); v++ {
		sum += g.Degree(v)
	}
	if sum != 6000 {
		t.Fatalf("degree sum = %d, want 6000", sum)
	}
}

func TestGenerateSimpleAndSymmetric(t *testing.T) {
	g := MustGenerate(Params{Nodes: 300, Edges: 2000, CopyProb: 0.5, Seed: 2})
	for v := 0; v < g.Nodes(); v++ {
		seen := map[int32]bool{}
		for _, w := range g.Adj[v] {
			if w == int32(v) {
				t.Fatalf("self loop at %d", v)
			}
			if seen[w] {
				t.Fatalf("duplicate edge %d-%d", v, w)
			}
			seen[w] = true
			// Symmetry.
			found := false
			for _, x := range g.Adj[w] {
				if x == int32(v) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d-%d not symmetric", v, w)
			}
		}
	}
}

func TestGenerateConnected(t *testing.T) {
	g := MustGenerate(Params{Nodes: 1000, Edges: 1500, CopyProb: 0.3, Seed: 3})
	visited := make([]bool, g.Nodes())
	stack := []int32{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Adj[v] {
			if !visited[w] {
				visited[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	if count != g.Nodes() {
		t.Fatalf("graph not connected: reached %d of %d", count, g.Nodes())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Nodes: 200, Edges: 800, CopyProb: 0.4, Seed: 9}
	a := MustGenerate(p)
	b := MustGenerate(p)
	for v := range a.Adj {
		if len(a.Adj[v]) != len(b.Adj[v]) {
			t.Fatalf("node %d degree differs", v)
		}
		for i := range a.Adj[v] {
			if a.Adj[v][i] != b.Adj[v][i] {
				t.Fatalf("node %d adjacency differs", v)
			}
		}
	}
	c := MustGenerate(Params{Nodes: 200, Edges: 800, CopyProb: 0.4, Seed: 10})
	same := true
	for v := range a.Adj {
		if len(a.Adj[v]) != len(c.Adj[v]) {
			same = false
			break
		}
	}
	if same {
		// Degrees identical across all nodes for a different seed is
		// astronomically unlikely.
		diff := false
		for v := range a.Adj {
			for i := range a.Adj[v] {
				if a.Adj[v][i] != c.Adj[v][i] {
					diff = true
					break
				}
			}
		}
		if !diff {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestDegreeDistributionSkewed(t *testing.T) {
	// Preferential attachment: the max degree must far exceed the mean
	// (heavy tail), the signature of web-graph structure.
	g := MustGenerate(Params{Nodes: 2000, Edges: 10000, CopyProb: 0.4, Seed: 4})
	mean := 2.0 * float64(g.EdgeCount) / float64(g.Nodes())
	max := 0
	for v := 0; v < g.Nodes(); v++ {
		if g.Degree(v) > max {
			max = g.Degree(v)
		}
	}
	if float64(max) < 5*mean {
		t.Fatalf("max degree %d not heavy-tailed (mean %.1f)", max, mean)
	}
}

func TestClusteringPresent(t *testing.T) {
	// The copy model must create triangles (needed for the MC benchmark to
	// have non-trivial cliques). Count triangles at a few hub nodes.
	g := MustGenerate(Params{Nodes: 1000, Edges: 8000, CopyProb: 0.5, Seed: 5})
	triangles := 0
	for v := 0; v < 100 && triangles == 0; v++ {
		adj := map[int32]bool{}
		for _, w := range g.Adj[v] {
			adj[w] = true
		}
		for _, w := range g.Adj[v] {
			for _, x := range g.Adj[w] {
				if adj[x] {
					triangles++
				}
			}
		}
	}
	if triangles == 0 {
		t.Fatal("copy model produced no triangles")
	}
}

func TestTable3Presets(t *testing.T) {
	// Exact Table 3 numbers.
	want := []struct {
		p     Preset
		nodes int
		edges int
	}{
		{UKCC, 28128, 900002},
		{UKMC, 5099, 239294},
		{EnwikiCC, 28126, 80002},
		{EnwikiMC, 43354, 170660},
	}
	for _, tc := range want {
		if tc.p.Nodes != tc.nodes || tc.p.Edges != tc.edges {
			t.Errorf("%s: preset %d/%d, want %d/%d", tc.p.Name, tc.p.Nodes, tc.p.Edges, tc.nodes, tc.edges)
		}
		if err := (Params{Nodes: tc.p.Nodes, Edges: tc.p.Edges, CopyProb: tc.p.CopyProb}).Validate(); err != nil {
			t.Errorf("%s: preset invalid: %v", tc.p.Name, err)
		}
	}
	if len(Presets()) != 4 {
		t.Error("Presets() must list all four inputs")
	}
}

func TestPresetFullScaleGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale graph generation in -short mode")
	}
	// The largest preset must actually generate with exact counts.
	g := MustGenerate(UKCC.Scaled(1.0))
	if g.Nodes() != UKCC.Nodes || g.EdgeCount != UKCC.Edges {
		t.Fatalf("uk(CC) generated %d/%d, want %d/%d", g.Nodes(), g.EdgeCount, UKCC.Nodes, UKCC.Edges)
	}
}

func TestScaled(t *testing.T) {
	p := UKMC.Scaled(0.1)
	if p.Nodes != 509 || p.Edges != 23929 {
		t.Fatalf("scaled = %d/%d", p.Nodes, p.Edges)
	}
	if _, err := Generate(p); err != nil {
		t.Fatalf("scaled params must generate: %v", err)
	}
	// Tiny factors clamp to valid graphs.
	tiny := EnwikiCC.Scaled(0.0001)
	if err := tiny.Validate(); err != nil {
		t.Fatalf("tiny scale invalid: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("factor > 1 must panic")
		}
	}()
	UKCC.Scaled(1.5)
}

func TestPropertyGeneratedGraphsValid(t *testing.T) {
	f := func(seed int64, n8 uint8, extra uint16) bool {
		n := int(n8%100) + 10
		edges := n - 1 + int(extra)%(n*(n-1)/2-n+2)
		g, err := Generate(Params{Nodes: n, Edges: edges, CopyProb: 0.4, Seed: seed})
		if err != nil {
			return false
		}
		sum := 0
		for v := 0; v < g.Nodes(); v++ {
			sum += g.Degree(v)
		}
		return g.EdgeCount == edges && sum == 2*edges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestScaledDensityPreservesDensity(t *testing.T) {
	full := UKMC // 5099 nodes, 239294 edges
	fullDensity := float64(full.Edges) / (float64(full.Nodes) * float64(full.Nodes-1) / 2)
	p := full.ScaledDensity(0.25)
	if p.Nodes != 1274 {
		t.Fatalf("nodes = %d", p.Nodes)
	}
	gotDensity := float64(p.Edges) / (float64(p.Nodes) * float64(p.Nodes-1) / 2)
	ratio := gotDensity / fullDensity
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("density ratio = %.2f, want ~1.0 (%.4f vs %.4f)", ratio, gotDensity, fullDensity)
	}
	if _, err := Generate(p); err != nil {
		t.Fatalf("density-scaled params must generate: %v", err)
	}
	// Proportional scaling, in contrast, raises relative density.
	prop := full.Scaled(0.25)
	propDensity := float64(prop.Edges) / (float64(prop.Nodes) * float64(prop.Nodes-1) / 2)
	if propDensity <= gotDensity {
		t.Fatal("proportional scaling should be denser than density-preserving")
	}
}

func TestScaledDensityClamps(t *testing.T) {
	tiny := EnwikiCC.ScaledDensity(0.001)
	if err := tiny.Validate(); err != nil {
		t.Fatalf("tiny density scale invalid: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("factor > 1 must panic")
		}
	}()
	UKCC.ScaledDensity(2)
}

func TestEdgesListMatchesAdjacency(t *testing.T) {
	g := MustGenerate(Params{Nodes: 300, Edges: 1500, CopyProb: 0.4, Seed: 8})
	if len(g.Edges) != g.EdgeCount {
		t.Fatalf("edge list has %d entries, want %d", len(g.Edges), g.EdgeCount)
	}
	// Every listed edge appears in both adjacency lists; no duplicates.
	seen := map[[2]int32]bool{}
	for _, e := range g.Edges {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		key := [2]int32{a, b}
		if seen[key] {
			t.Fatalf("duplicate edge %v", key)
		}
		seen[key] = true
		found := false
		for _, w := range g.Adj[e[0]] {
			if w == e[1] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("edge %v missing from adjacency", e)
		}
	}
}
