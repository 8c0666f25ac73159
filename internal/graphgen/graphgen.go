// Package graphgen generates deterministic synthetic web graphs standing
// in for the LAW datasets (uk-2007-05@100000, enwiki-2018) used by the
// paper's JGraphT benchmarks (§4.5, Table 3). The generator is a copy
// model (preferential attachment with neighbour copying), which yields the
// power-law degree distributions and local clustering characteristic of
// web and wiki graphs; node ids are assigned in generation order, so
// "allocation order" when the graph is loaded differs from any traversal
// order — the property the benchmarks depend on.
package graphgen

import (
	"fmt"
	"math/rand"
	"slices"
)

// Graph is an undirected simple graph as adjacency lists over dense node
// ids [0, N).
type Graph struct {
	Name string
	Adj  [][]int32
	// EdgeCount is the number of undirected edges.
	EdgeCount int
	// Edges lists the edges in insertion order. Loaders that materialise
	// per-edge objects (as JGraphT does) allocate them in this order,
	// which is scattered with respect to any single node's adjacency —
	// the poor baseline locality the paper's benchmarks start from.
	Edges [][2]int32
}

// Nodes returns the node count.
func (g *Graph) Nodes() int { return len(g.Adj) }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.Adj[v]) }

// Params configures the copy-model generator.
type Params struct {
	Nodes int
	Edges int
	// CopyProb is the probability that a new edge copies a neighbour of
	// the prototype node instead of attaching preferentially. Higher
	// values create more triangles/cliques.
	CopyProb float64
	Seed     int64
	Name     string
}

// Validate checks generator parameters.
func (p Params) Validate() error {
	if p.Nodes < 2 {
		return fmt.Errorf("graphgen: need at least 2 nodes, got %d", p.Nodes)
	}
	maxEdges := p.Nodes * (p.Nodes - 1) / 2
	if p.Edges < p.Nodes-1 || p.Edges > maxEdges {
		return fmt.Errorf("graphgen: edge count %d outside [%d, %d]", p.Edges, p.Nodes-1, maxEdges)
	}
	if p.CopyProb < 0 || p.CopyProb > 1 {
		return fmt.Errorf("graphgen: copy probability %v outside [0,1]", p.CopyProb)
	}
	return nil
}

// Generate builds the graph. Same params -> identical graph.
func Generate(p Params) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.Nodes
	// adjList holds each node's neighbours in insertion order, so
	// neighbour sampling is deterministic.
	adjList := make([][]int32, n)
	edges := make([][2]int32, 0, p.Edges)

	// endpoint draws one of the 2·len(edges) edge endpoints uniformly:
	// preferential attachment (probability proportional to degree).
	// Endpoint k is edges[k>>1][k&1].
	endpoint := func() int32 {
		k := rng.Intn(2 * len(edges))
		return edges[k>>1][k&1]
	}
	addEdge := func(a, b int32) {
		if a == b {
			return
		}
		// A duplicate shows in both lists; scan the shorter.
		short, other := adjList[a], b
		if len(adjList[b]) < len(short) {
			short, other = adjList[b], a
		}
		if slices.Contains(short, other) {
			return
		}
		adjList[a] = append(adjList[a], b)
		adjList[b] = append(adjList[b], a)
		edges = append(edges, [2]int32{a, b})
	}

	// Spanning backbone: each node links to an earlier node, keeping the
	// graph connected (the paper's CC inputs are connected components).
	for v := 1; v < n; v++ {
		var u int32
		if len(edges) > 0 && rng.Float64() < 0.5 {
			u = endpoint() // preferential
		} else {
			u = int32(rng.Intn(v)) // uniform earlier node
		}
		for u == int32(v) {
			u = int32(rng.Intn(v))
		}
		addEdge(int32(v), u)
	}

	// Remaining edges via the copy model: pick a node, pick a prototype,
	// copy one of its neighbours or attach preferentially.
	for guard := 0; len(edges) < p.Edges && guard < p.Edges*50; guard++ {
		v := int32(rng.Intn(n))
		var u int32
		if rng.Float64() < p.CopyProb {
			proto := endpoint()
			ns := adjList[proto]
			if len(ns) == 0 {
				continue
			}
			u = ns[rng.Intn(len(ns))]
			// Copying a neighbour of a prototype that is itself a
			// neighbour of v creates triangles.
			if u == v {
				u = proto
			}
		} else {
			u = endpoint()
		}
		addEdge(v, u)
	}
	// Top up with uniform random edges if the copy loop saturated.
	for len(edges) < p.Edges {
		addEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}

	g := &Graph{Name: p.Name, Adj: adjList, EdgeCount: len(edges), Edges: edges}
	for _, ns := range g.Adj {
		// Deterministic order: sort ascending (as when loading a sorted
		// dataset file).
		slices.Sort(ns)
	}
	return g, nil
}

// MustGenerate is Generate but panics on error.
func MustGenerate(p Params) *Graph {
	g, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return g
}

// --- Table 3 presets ------------------------------------------------------

// Preset identifies one of the paper's four graph inputs.
type Preset struct {
	Name  string
	Nodes int
	Edges int
	// CopyProb tuned per dataset: web graphs (uk) are denser and more
	// clustered than wiki link graphs.
	CopyProb float64
	Seed     int64
}

// The paper's Table 3 inputs (the parts of the LAW graphs actually used).
var (
	UKCC     = Preset{Name: "uk(CC)", Nodes: 28128, Edges: 900002, CopyProb: 0.4, Seed: 101}
	UKMC     = Preset{Name: "uk(MC)", Nodes: 5099, Edges: 239294, CopyProb: 0.35, Seed: 102}
	EnwikiCC = Preset{Name: "enwiki(CC)", Nodes: 28126, Edges: 80002, CopyProb: 0.3, Seed: 103}
	EnwikiMC = Preset{Name: "enwiki(MC)", Nodes: 43354, Edges: 170660, CopyProb: 0.3, Seed: 104}
)

// Presets lists all Table 3 inputs.
func Presets() []Preset { return []Preset{UKCC, UKMC, EnwikiCC, EnwikiMC} }

// Scaled returns the preset shrunk by factor (0 < factor <= 1), keeping
// the density profile. Benchmarks use scaled graphs so a full 19-config
// sweep completes in reasonable time; factor 1 reproduces Table 3 exactly.
func (p Preset) Scaled(factor float64) Params {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("graphgen: scale factor %v outside (0,1]", factor))
	}
	nodes := int(float64(p.Nodes) * factor)
	if nodes < 16 {
		nodes = 16
	}
	edges := int(float64(p.Edges) * factor)
	if min := nodes - 1; edges < min {
		edges = min
	}
	if max := nodes * (nodes - 1) / 2; edges > max {
		edges = max
	}
	return Params{
		Nodes:    nodes,
		Edges:    edges,
		CopyProb: p.CopyProb,
		Seed:     p.Seed,
		Name:     p.Name,
	}
}

// ScaledDensity shrinks nodes by factor and edges by factor², preserving
// the graph's edge density (edges per node pair) instead of its average
// degree. Clique-enumeration benchmarks use this: proportional scaling
// makes small graphs relatively denser and explodes the number of maximal
// cliques, while density-preserving scaling keeps the clique structure of
// the full input. Factor 1 reproduces Table 3 exactly.
func (p Preset) ScaledDensity(factor float64) Params {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("graphgen: scale factor %v outside (0,1]", factor))
	}
	nodes := int(float64(p.Nodes) * factor)
	if nodes < 16 {
		nodes = 16
	}
	edges := int(float64(p.Edges) * factor * factor)
	if min := nodes - 1; edges < min {
		edges = min
	}
	if max := nodes * (nodes - 1) / 2; edges > max {
		edges = max
	}
	return Params{
		Nodes:    nodes,
		Edges:    edges,
		CopyProb: p.CopyProb,
		Seed:     p.Seed,
		Name:     p.Name,
	}
}
