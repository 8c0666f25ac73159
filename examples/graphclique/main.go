// Graphclique: builds a small social-style graph as heap objects using
// only the public API, then counts triangles by neighbourhood
// intersection — a pointer-heavy traversal in an order unrelated to
// allocation order, like the paper's JGraphT benchmarks (§4.5).
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"hcsgc"
)

// Node layout: field 0 = adjacency ref array, field 1 = id.
const (
	fAdj = 0
	fID  = 1
)

func main() { run(os.Stdout) }

// run builds the graph, collects once and counts triangles twice, printing
// each pass's LLC misses to w.
func run(w io.Writer) {
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes: 64 << 20,
		Knobs: hcsgc.Knobs{
			Hotness:        true,
			ColdPage:       true,
			ColdConfidence: 1.0,
			LazyRelocate:   true,
		},
		// One GC worker: two race for mark work, and the cache state they
		// leave behind — so pass 1's miss count, by a few hundred — would
		// depend on scheduling.
		GCWorkers: 1,
	})
	defer rt.Close()
	nodeType := rt.Types.Register("gnode", 2, []int{fAdj})
	m := rt.NewMutator(2)
	defer m.Close()

	// Generate a clustered random graph (Go-side), then materialise it on
	// the managed heap: node objects in id order, adjacency ref arrays.
	// 20,000 nodes are ~6 MB of objects: past the 4 MB LLC, so the layout
	// shows in the miss count, and far below the 64 MB heap's trigger.
	const n = 20000
	adj := generate(n, 12, 3)

	nodes := m.AllocRefArray(n)
	m.SetRoot(0, nodes)
	for v := 0; v < n; v++ {
		obj := m.Alloc(nodeType)
		m.StoreField(obj, fID, uint64(v))
		m.StoreRef(m.LoadRoot(0), v, obj)
	}
	for v := 0; v < n; v++ {
		arr := m.AllocRefArray(len(adj[v]))
		all := m.LoadRoot(0)
		for i, w := range adj[v] {
			m.StoreRef(arr, i, m.LoadRef(all, w))
		}
		node := m.LoadRef(m.LoadRoot(0), v)
		m.StoreRef(node, fAdj, arr)
	}
	// The build never reaches the occupancy trigger, so ask for the one
	// cycle that selects the evacuation candidates: with LazyRelocate the
	// first traversal then relocates what it touches, in the order it
	// touches it.
	m.RequestGC()

	// Runtime-wide counters come from what mutators have published; this
	// goroutine owns m, so it publishes before each reading.
	memStats := func() hcsgc.MemStats {
		m.Publish()
		return rt.MemStats()
	}
	// Count triangles twice: the first traversal reorganises the layout,
	// the second enjoys it.
	for pass := 1; pass <= 2; pass++ {
		before := memStats()
		total := triangles(m, n)
		after := memStats()
		fmt.Fprintf(w, "pass %d: %d triangles, %d LLC misses\n",
			pass, total, after.LLCMisses-before.LLCMisses)
	}
	fmt.Fprintf(w, "GC cycles: %d\n", rt.Collector.Cycles())
}

// triangles counts each triangle three times and divides at the end,
// reading all adjacency data through the load barrier.
func triangles(m *hcsgc.Mutator, n int) int {
	count := 0
	seen := make(map[int]bool, 64)
	for v := 0; v < n; v++ {
		node := m.LoadRef(m.LoadRoot(0), v)
		arr := m.LoadRef(node, fAdj)
		deg := m.ArrayLen(arr)
		clear(seen)
		ids := make([]int, deg)
		for i := 0; i < deg; i++ {
			nb := m.LoadRef(arr, i)
			ids[i] = int(m.LoadField(nb, fID))
			seen[ids[i]] = true
		}
		for _, w := range ids {
			wn := m.LoadRef(m.LoadRoot(0), w)
			wa := m.LoadRef(wn, fAdj)
			wd := m.ArrayLen(wa)
			for j := 0; j < wd; j++ {
				x := int(m.LoadField(m.LoadRef(wa, j), fID))
				if seen[x] {
					count++
				}
			}
		}
		m.Safepoint()
	}
	return count / 6 // each triangle counted twice per vertex, 3 vertices
}

// generate builds an undirected graph with deg random edges per node plus
// tri triangle-closing edges for clustering. The same graph every time: a
// neighbour set is sorted before the seeded RNG draws from it, because Go
// randomises map iteration order.
func generate(n, deg, tri int) [][]int {
	rng := rand.New(rand.NewSource(7))
	adjSet := make([]map[int]bool, n)
	for i := range adjSet {
		adjSet[i] = map[int]bool{}
	}
	add := func(a, b int) {
		if a != b && !adjSet[a][b] {
			adjSet[a][b] = true
			adjSet[b][a] = true
		}
	}
	neighbours := func(v int) []int {
		ns := make([]int, 0, len(adjSet[v]))
		for w := range adjSet[v] {
			ns = append(ns, w)
		}
		sort.Ints(ns)
		return ns
	}
	for v := 0; v < n; v++ {
		for k := 0; k < deg; k++ {
			add(v, rng.Intn(n))
		}
	}
	// Close triangles for clustering.
	for v := 0; v < n; v++ {
		ns := neighbours(v)
		for k := 0; k < tri && len(ns) >= 2; k++ {
			add(ns[rng.Intn(len(ns))], ns[rng.Intn(len(ns))])
		}
	}
	out := make([][]int, n)
	for v := range out {
		out[v] = neighbours(v)
	}
	return out
}
