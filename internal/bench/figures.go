package bench

import (
	"fmt"
	"io"

	"hcsgc/internal/graphgen"
	"hcsgc/internal/heap"
	"hcsgc/internal/workloads"
)

// Specs returns the experiment definitions for every figure of the
// evaluation. Runs per config follow the paper's methodology scaled to
// simulation cost (the paper: 30 VM invocations for synthetic/JGraphT,
// 5 for DaCapo/SPECjbb); the -runs flag can raise them to paper counts.
func Specs() map[string]Spec {
	return map[string]Spec{
		"fig4":  {ID: "fig4", Title: "synthetic single-phase microbenchmark (§4.4)", Runs: 10, Seed: 1},
		"fig5":  {ID: "fig5", Title: "synthetic three-phase microbenchmark (§4.4)", Runs: 10, Seed: 1},
		"fig6":  {ID: "fig6", Title: "RelocateAllSmallPages overhead, 1 core + cold array (§4.4)", Runs: 10, Seed: 1},
		"fig7":  {ID: "fig7", Title: "JGraphT connected components, uk graph (§4.5)", Runs: 10, Seed: 1},
		"fig8":  {ID: "fig8", Title: "JGraphT connected components, enwiki graph (§4.5)", Runs: 10, Seed: 1},
		"fig9":  {ID: "fig9", Title: "JGraphT Bron-Kerbosch, uk graph (§4.5)", Runs: 10, Seed: 1},
		"fig10": {ID: "fig10", Title: "JGraphT Bron-Kerbosch, enwiki graph (§4.5)", Runs: 10, Seed: 1},
		"fig11": {ID: "fig11", Title: "DaCapo tradebeans (§4.6)", Runs: 5, Seed: 1},
		"fig12": {ID: "fig12", Title: "DaCapo h2 (§4.6)", Runs: 5, Seed: 1},
		"fig13": {ID: "fig13", Title: "SPECjbb2015 composite (§4.7)", Runs: 5, Seed: 1,
			ScoreMetrics: []string{"max-jOPS", "critical-jOPS"}},
		"kv": {ID: "kv", Title: "KV server under open-loop load (SLO latency)", Runs: 10, Seed: 1,
			Configs:      []int{0, 3, 4, 16},
			ScoreMetrics: []string{"kv-p99-steady", "kv-p999-burst", "kv-hit-rate"}},
	}
}

// ExperimentIDs lists all runnable experiment ids in order.
func ExperimentIDs() []string {
	return []string{
		"table1", "table2", "table3",
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "kv",
	}
}

// WriteTable1 prints the ZGC page size classes (Table 1).
func WriteTable1(w io.Writer) {
	fmt.Fprintf(w, "== TABLE1: ZGC page size classes ==\n")
	fmt.Fprintf(w, "%-10s %-14s %s\n", "class", "page size", "object size")
	fmt.Fprintf(w, "%-10s %-14s (0, %d] KB\n", "small", fmtMB(heap.SmallPageSize), heap.SmallObjectMax>>10)
	fmt.Fprintf(w, "%-10s %-14s (%d KB, %d MB]\n", "medium", fmtMB(heap.MediumPageSize), heap.SmallObjectMax>>10, heap.MediumObjectMax>>20)
	fmt.Fprintf(w, "%-10s %-14s > %d MB\n", "large", "Nx2 (>4) MB", heap.MediumObjectMax>>20)
	fmt.Fprintln(w)
}

// WriteTable2 prints the configuration matrix (Table 2).
func WriteTable2(w io.Writer) {
	fmt.Fprintf(w, "== TABLE2: benchmark configurations ==\n")
	fmt.Fprintf(w, "%-24s", "knob \\ config")
	for c := 0; c < NumConfigs; c++ {
		fmt.Fprintf(w, "%4d", c)
	}
	fmt.Fprintln(w)
	rows := []struct {
		name string
		get  func(c int) string
	}{
		{"Hotness", func(c int) string { return onOff(c, func(k int) bool { return KnobsFor(k).Hotness }) }},
		{"ColdPage", func(c int) string { return onOff(c, func(k int) bool { return KnobsFor(k).ColdPage }) }},
		{"ColdConfidence", func(c int) string {
			if c == 0 {
				return "n/a"
			}
			return fmt.Sprintf("%g", KnobsFor(c).ColdConfidence)
		}},
		{"RelocateAllSmallPages", func(c int) string { return onOff(c, func(k int) bool { return KnobsFor(k).RelocateAllSmallPages }) }},
		{"LazyRelocate", func(c int) string { return onOff(c, func(k int) bool { return KnobsFor(k).LazyRelocate }) }},
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%-24s", row.name)
		for c := 0; c < NumConfigs; c++ {
			fmt.Fprintf(w, "%4s", row.get(c))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func onOff(c int, get func(int) bool) string {
	if c == 0 {
		return "n/a"
	}
	if get(c) {
		return "1"
	}
	return "0"
}

// WriteTable3 prints the graph inputs (Table 3) as the JGraphT workloads
// run them at scale (0 = their default), generating each to confirm the
// generator hits the counts.
func WriteTable3(w io.Writer, scale float64) {
	if scale == 0 {
		scale = workloads.JGraphTScale
	}
	fmt.Fprintf(w, "== TABLE3: LAW-substitute graph inputs (scale %g) ==\n", scale)
	fmt.Fprintf(w, "%-14s %10s %12s %10s %12s %10s\n",
		"dataset", "nodes", "edges", "gen-nodes", "gen-edges", "heap(MB)")
	for _, dataset := range []string{"uk", "enwiki"} {
		for _, mc := range []bool{false, true} {
			in, err := workloads.JGraphTInput(dataset, mc, scale)
			if err != nil {
				panic(err)
			}
			g := graphgen.MustGenerate(in.Params)
			fmt.Fprintf(w, "%-14s %10d %12d %10d %12d %10d\n",
				in.Preset.Name, in.Preset.Nodes, in.Preset.Edges, g.Nodes(), g.EdgeCount, in.HeapBytes>>20)
		}
	}
	fmt.Fprintf(w, "(nodes/edges: paper Table 3; gen-*, heap: the graph and heap its workload runs at this scale)\n\n")
}

func fmtMB(b int) string {
	return fmt.Sprintf("%d MB", b>>20)
}
