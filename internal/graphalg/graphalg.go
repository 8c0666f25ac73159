// Package graphalg implements the two JGraphT computations the paper
// benchmarks (§4.5) — Bron–Kerbosch maximal clique enumeration [21] and
// Hopcroft–Tarjan biconnectivity / connected components [12] — over graphs
// materialised as objects on the managed heap. Every node and adjacency
// array is a heap object accessed through the load barrier, so the
// traversal order of these algorithms (which differs from the generation/
// allocation order) is exactly the access pattern HCSGC reorganises for.
package graphalg

import (
	"slices"

	"hcsgc/internal/arena"
	"hcsgc/internal/core"
	"hcsgc/internal/graphgen"
	"hcsgc/internal/heap"
	"hcsgc/internal/objmodel"
)

// Node field indices.
const (
	fAdj  = 0 // ref: adjacency array ([]ref of incident edge objects)
	fID   = 1 // word: dense node id
	fDisc = 2 // word: DFS discovery number (Hopcroft–Tarjan)
	fLow  = 3 // word: DFS low-link
	fMark = 4 // word: visited stamp (per-run version)

	nodeFields = 5
)

// Edge field indices. Edges are first-class objects as in JGraphT
// (DefaultEdge holds source and target); they are allocated in global
// edge-insertion order, so a node's incident edges are scattered across
// the heap until the collector (or the mutator, under HCSGC) reorganises
// them.
const (
	eSrc = 0 // ref: source node
	eDst = 1 // ref: target node

	edgeFields = 2
)

// Types bundles the registered graph layouts.
type Types struct {
	Node *objmodel.Type
	Edge *objmodel.Type
}

// RegisterTypes registers the graph layouts. Call once per runtime.
func RegisterTypes(types *objmodel.Registry) Types {
	return Types{
		Node: types.Register("graphalg.node", nodeFields, []int{fAdj}),
		Edge: types.Register("graphalg.edge", edgeFields, []int{eSrc, eDst}),
	}
}

// HeapGraph is a graph materialised on the managed heap. The node array
// lives in the owning mutator's root slot, so the graph survives GC.
type HeapGraph struct {
	types    Types
	rootSlot int
	n        int
	// runStamp versions the visited marks so repeated runs need no reset
	// pass.
	runStamp uint64
	// AllocSetGarbage makes BronKerbosch allocate a short-lived heap array
	// per recursion, mirroring JGraphT's per-call candidate-set copies
	// ("some allocation is done by the Bron-Kerbosch algorithm, which
	// triggers GC often", §4.5). Off by default for pure-algorithm tests.
	AllocSetGarbage bool
}

// Input is a graph prepared for Load: its edges in insertion order and
// each node's incident edge indices, in edge order, as one CSR array — node
// v's are Incident[Start[v]:Start[v+1]]. Load only reads it, so one Input
// serves any number of loads, concurrent ones included.
type Input struct {
	Edges           [][2]int32
	Start, Incident []int32
}

// Prepare builds g's Input. The edges are g.Edges when listed (the
// generator's insertion order), else recovered from the adjacency lists.
func Prepare(g *graphgen.Graph) *Input {
	n := g.Nodes()
	edges := g.Edges
	if len(edges) == 0 {
		edges = edgesFromAdj(g)
	}
	start := make([]int32, n+1)
	for _, ed := range edges {
		start[ed[0]+1]++
		start[ed[1]+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	incident := make([]int32, start[n])
	next := slices.Clone(start[:n]) // each node's next free slot
	for k, ed := range edges {
		for _, v := range ed {
			incident[next[v]] = int32(k)
			next[v]++
		}
	}
	return &Input{Edges: edges, Start: start, Incident: incident}
}

// Load allocates g on the heap (see Input.Load), preparing it first.
func Load(m *core.Mutator, types Types, g *graphgen.Graph, rootSlot int) *HeapGraph {
	return Prepare(g).Load(m, types, rootSlot)
}

// Load allocates the graph on the heap the way the paper's JGraphT driver
// builds it: all node objects first (in id order), then one edge object
// per edge in global insertion order, then per-node adjacency arrays of
// edge references. A node's incident edge objects are therefore scattered
// across the edge population — the baseline layout whose traversal
// locality HCSGC improves. The node array ref lives in the mutator's
// rootSlot; rootSlot+1 is used temporarily during loading.
func (in *Input) Load(m *core.Mutator, types Types, rootSlot int) *HeapGraph {
	n := len(in.Start) - 1
	arr := m.AllocRefArray(n)
	m.SetRoot(rootSlot, arr)
	for v := 0; v < n; v++ {
		obj := m.Alloc(types.Node)
		m.StoreField(obj, fID, uint64(v))
		m.StoreRef(m.LoadRoot(rootSlot), v, obj)
	}
	// Edge objects in insertion order, pinned via a temporary edge array.
	earr := m.AllocRefArray(len(in.Edges))
	m.SetRoot(rootSlot+1, earr)
	for k, ed := range in.Edges {
		e := m.Alloc(types.Edge)
		nodes := m.LoadRoot(rootSlot)
		m.StoreRef(e, eSrc, m.LoadRef(nodes, int(ed[0])))
		m.StoreRef(e, eDst, m.LoadRef(nodes, int(ed[1])))
		m.StoreRef(m.LoadRoot(rootSlot+1), k, e)
		if k%512 == 0 {
			m.Safepoint()
		}
	}
	for v := 0; v < n; v++ {
		ks := in.Incident[in.Start[v]:in.Start[v+1]]
		adj := m.AllocRefArray(len(ks))
		earr := m.LoadRoot(rootSlot + 1)
		for i, k := range ks {
			m.StoreRef(adj, i, m.LoadRef(earr, int(k)))
		}
		node := m.LoadRef(m.LoadRoot(rootSlot), v)
		m.StoreRef(node, fAdj, adj)
		if v%256 == 0 {
			m.Safepoint()
		}
	}
	// The temporary edge array dies here (JGraphT keeps edges reachable
	// only through adjacency).
	m.SetRoot(rootSlot+1, heap.NullRef)
	return &HeapGraph{types: types, rootSlot: rootSlot, n: n}
}

// edgesFromAdj recovers an edge list (ascending order) for graphs built
// directly from adjacency in tests.
func edgesFromAdj(g *graphgen.Graph) [][2]int32 {
	var out [][2]int32
	for v := range g.Adj {
		for _, w := range g.Adj[v] {
			if int32(v) < w {
				out = append(out, [2]int32{int32(v), w})
			}
		}
	}
	return out
}

// Nodes returns the node count.
func (hg *HeapGraph) Nodes() int { return hg.n }

// node returns the node object for id v (fresh barrier-checked ref).
func (hg *HeapGraph) node(m *core.Mutator, v int32) heap.Ref {
	return m.LoadRef(m.LoadRoot(hg.rootSlot), int(v))
}

// edgeOther resolves the endpoint of edge e that is not node v, returning
// the neighbour's ref and id. This is the JGraphT access pattern: read the
// edge object, then the endpoint node object.
func (hg *HeapGraph) edgeOther(m *core.Mutator, e heap.Ref, v int32) (heap.Ref, int32) {
	a := m.LoadRef(e, eSrc)
	ida := int32(m.LoadField(a, fID))
	if ida != v {
		return a, ida
	}
	b := m.LoadRef(e, eDst)
	return b, int32(m.LoadField(b, fID))
}

// neighbors reads node v's neighbour ids from the heap into buf, chasing
// edge objects — the locality-sensitive traffic.
func (hg *HeapGraph) neighbors(m *core.Mutator, v int32, buf []int32) []int32 {
	node := hg.node(m, v)
	adj := m.LoadRef(node, fAdj)
	deg := m.ArrayLen(adj)
	buf = buf[:0]
	for i := 0; i < deg; i++ {
		e := m.LoadRef(adj, i)
		_, id := hg.edgeOther(m, e, v)
		buf = append(buf, id)
	}
	return buf
}

// Degree reads node v's degree.
func (hg *HeapGraph) Degree(m *core.Mutator, v int32) int {
	return m.ArrayLen(m.LoadRef(hg.node(m, v), fAdj))
}

// --- Connected components & biconnectivity (Hopcroft–Tarjan) -------------

// BiconnectivityResult reports what JGraphT's BiconnectivityInspector
// computes: connected components, biconnected components and articulation
// (cut) points.
type BiconnectivityResult struct {
	ConnectedComponents   int
	BiconnectedComponents int
	ArticulationPoints    int
}

// dfsFrame is one node on Biconnectivity's DFS stack.
type dfsFrame struct {
	v      int32
	parent int32
	next   int // next adjacency index to explore
	ref    heap.Ref
}

// Biconnectivity's host scratch, keyed by node count: the DFS stack (it
// holds each node at most once, so n frames never regrow) and the
// articulation marks. A pass takes both at entry and hands them back at
// exit, so the passes of every later graph of the same size, in this run
// or the next one in the process, allocate nothing.
var (
	dfsStacks arena.Slabs[dfsFrame]
	artMarks  arena.Slabs[bool]
)

// Biconnectivity runs the iterative Hopcroft–Tarjan DFS. Discovery and
// low-link values live in the node objects themselves, so the pass reads
// and writes the heap in DFS order.
func (hg *HeapGraph) Biconnectivity(m *core.Mutator) BiconnectivityResult {
	hg.runStamp++
	stamp := hg.runStamp
	var res BiconnectivityResult
	isArt := artMarks.Get(hg.n)
	frames := dfsStacks.Get(hg.n)
	stack := frames[:0]
	depth := 0 // the deepest the stack went: the frames to scrub

	counter := uint64(0)
	steps := 0 // safepoint pacing

	for start := int32(0); start < int32(hg.n); start++ {
		startRef := hg.node(m, start)
		if m.LoadField(startRef, fMark) == stamp {
			continue
		}
		res.ConnectedComponents++
		rootChildren := 0
		counter++
		m.StoreField(startRef, fMark, stamp)
		m.StoreField(startRef, fDisc, counter)
		m.StoreField(startRef, fLow, counter)
		stack = append(stack, dfsFrame{v: start, parent: -1, ref: startRef})
		depth = max(depth, 1)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			adj := m.LoadRef(f.ref, fAdj)
			deg := m.ArrayLen(adj)
			advanced := false
			for f.next < deg {
				i := f.next
				f.next++
				e := m.LoadRef(adj, i)
				nb, w := hg.edgeOther(m, e, f.v)
				if w == f.parent {
					continue
				}
				if m.LoadField(nb, fMark) == stamp {
					// Back edge: update low.
					wd := m.LoadField(nb, fDisc)
					if wd < m.LoadField(f.ref, fLow) {
						m.StoreField(f.ref, fLow, wd)
					}
					continue
				}
				// Tree edge: descend.
				counter++
				m.StoreField(nb, fMark, stamp)
				m.StoreField(nb, fDisc, counter)
				m.StoreField(nb, fLow, counter)
				if f.v == start {
					rootChildren++
				}
				stack = append(stack, dfsFrame{v: w, parent: f.v, ref: nb})
				depth = max(depth, len(stack))
				advanced = true
				break
			}
			if advanced {
				steps++
				if steps%64 == 0 {
					m.Safepoint()
					// Re-derive refs invalidated by the safepoint.
					for i := range stack {
						stack[i].ref = hg.node(m, stack[i].v)
					}
				}
				continue
			}
			// Retreat: fold low into parent, detect articulation.
			done := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := &stack[len(stack)-1]
				childLow := m.LoadField(done.ref, fLow)
				if childLow < m.LoadField(p.ref, fLow) {
					m.StoreField(p.ref, fLow, childLow)
				}
				if childLow >= m.LoadField(p.ref, fDisc) {
					// p separates done's subtree: one biconnected
					// component closes here.
					res.BiconnectedComponents++
					if p.v != start {
						isArt[p.v] = true
					}
				}
			}
		}
		if rootChildren > 1 {
			isArt[start] = true
		}
		if rootChildren == 0 {
			// Isolated vertex: its own (degenerate) component.
			res.BiconnectedComponents++
		}
	}
	for _, a := range isArt {
		if a {
			res.ArticulationPoints++
		}
	}
	dfsStacks.Put(frames, depth)
	artMarks.Put(isArt, len(isArt))
	return res
}

// ConnectedComponents counts connected components with a plain iterative
// DFS (a lighter pass used by tests and warm-ups).
func (hg *HeapGraph) ConnectedComponents(m *core.Mutator) int {
	hg.runStamp++
	stamp := hg.runStamp
	components := 0
	var stack []int32
	for start := int32(0); start < int32(hg.n); start++ {
		ref := hg.node(m, start)
		if m.LoadField(ref, fMark) == stamp {
			continue
		}
		components++
		m.StoreField(ref, fMark, stamp)
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			vref := hg.node(m, v)
			adj := m.LoadRef(vref, fAdj)
			deg := m.ArrayLen(adj)
			for i := 0; i < deg; i++ {
				e := m.LoadRef(adj, i)
				nb, w := hg.edgeOther(m, e, v)
				if m.LoadField(nb, fMark) != stamp {
					m.StoreField(nb, fMark, stamp)
					stack = append(stack, w)
				}
			}
			m.Safepoint()
		}
	}
	return components
}

// --- Bron–Kerbosch maximal cliques ----------------------------------------

// CliqueResult summarises a Bron–Kerbosch enumeration.
type CliqueResult struct {
	MaximalCliques int
	// TotalSize is the sum of clique sizes (a checksum across configs).
	TotalSize int
	// MaxSize is the largest clique found.
	MaxSize int
}

// BronKerbosch enumerates all maximal cliques with the pivoting variant,
// reading every neighbourhood from the heap. maxCliques > 0 bounds the
// enumeration (0 = unbounded).
func (hg *HeapGraph) BronKerbosch(m *core.Mutator, maxCliques int) CliqueResult {
	bk := &bkState{hg: hg, m: m, limit: maxCliques, mark: make([]uint32, hg.n)}
	p := make([]int32, hg.n)
	for i := range p {
		p[i] = int32(i)
	}
	bk.recurse(0, p, nil)
	return bk.res
}

type bkState struct {
	hg    *HeapGraph
	m     *core.Mutator
	res   CliqueResult
	limit int
	buf   []int32
	// mark[v] == stamp makes v a member of the set markSet last stamped.
	mark  []uint32
	stamp uint32
}

// stop reports whether the clique bound was hit.
func (b *bkState) stop() bool {
	return b.limit > 0 && b.res.MaximalCliques >= b.limit
}

// markSet makes ids the set member tests until the next markSet.
func (b *bkState) markSet(ids []int32) {
	b.stamp++
	if b.stamp == 0 { // wrapped: old stamps would alias
		clear(b.mark)
		b.stamp = 1
	}
	for _, w := range ids {
		b.mark[w] = b.stamp
	}
}

// member reports whether v is in the set markSet last stamped.
func (b *bkState) member(v int32) bool { return b.mark[v] == b.stamp }

// recurse is BronKerbosch(R-size, P, X) with Tomita pivoting: the pivot is
// the vertex of P∪X with the largest heap-read degree, and only P \ N(pivot)
// is expanded.
func (b *bkState) recurse(rsize int, p, x []int32) {
	if b.stop() {
		return
	}
	if len(p) == 0 && len(x) == 0 {
		b.res.MaximalCliques++
		b.res.TotalSize += rsize
		if rsize > b.res.MaxSize {
			b.res.MaxSize = rsize
		}
		return
	}
	b.m.Safepoint()

	// Pivot: max-degree vertex of P ∪ X (degree via one heap read each).
	pivot := int32(-1)
	best := -1
	for _, v := range p {
		if d := b.hg.Degree(b.m, v); d > best {
			best, pivot = d, v
		}
	}
	for _, v := range x {
		if d := b.hg.Degree(b.m, v); d > best {
			best, pivot = d, v
		}
	}
	b.buf = b.hg.neighbors(b.m, pivot, b.buf)
	b.markSet(b.buf) // N(pivot)

	// Candidates: P \ N(pivot), snapshotted because p mutates below.
	var cands []int32
	for _, v := range p {
		if !b.member(v) {
			cands = append(cands, v)
		}
	}
	for _, v := range cands {
		if b.stop() {
			return
		}
		b.buf = b.hg.neighbors(b.m, v, b.buf)
		b.markSet(b.buf) // N(v)
		var np, nx []int32
		for _, w := range p {
			if b.member(w) {
				np = append(np, w)
			}
		}
		for _, w := range x {
			if b.member(w) {
				nx = append(nx, w)
			}
		}
		if b.hg.AllocSetGarbage {
			// JGraphT copies P∩N(v) and X∩N(v) into fresh heap sets.
			b.m.AllocWordArray(len(np) + len(nx) + 1)
		}
		b.recurse(rsize+1, np, nx)
		// Move v from P to X.
		for i, w := range p {
			if w == v {
				p = append(p[:i], p[i+1:]...)
				break
			}
		}
		x = append(x, v)
	}
}
