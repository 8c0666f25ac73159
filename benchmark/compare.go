package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// Verdicts of one workload × end-to-end metric comparison of result set B
// against result set A.
const (
	verdictBetter     = "better"       // B's median is better and the interquartile ranges (of at least 3 samples a side) do not overlap
	verdictWithin     = "within-bound" // B is no worse than A by more than the metric's bound
	verdictWorse      = "worse"        // B is worse than A by more than the bound
	verdictUnresolved = "unresolved"   // run-to-run spread exceeds the bound and the sides overlap: the runs cannot tell
)

// verdict judges b against a for a metric with the given direction and
// bound. Spread is checked first: when either side's own reps scatter more
// than the bound and the two sides overlap, neither "worse" nor "within"
// would mean anything.
func verdict(better string, bound float64, a, b summary) string {
	overlap := a.Q1 <= b.Q3 && b.Q1 <= a.Q3
	if overlap && max(a.spread(), b.spread()) > bound {
		return verdictUnresolved
	}
	w := worsening(better, a.Median, b.Median)
	switch {
	case w > bound:
		return verdictWorse
	case w < 0 && !overlap && min(a.N, b.N) >= 3:
		return verdictBetter // one sample a side has no range to be clear of
	default:
		return verdictWithin
	}
}

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain implements `benchmark compare A.json B.json`. It exits 1 when
// any end-to-end metric is worse, when B fails a larger share of its
// operations than A, or when a *_vcycles probe metric differs at all.
func compareMain(args []string, out, errOut io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(errOut, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := loadResult(args[0])
	if err == nil {
		var b *result
		if b, err = loadResult(args[1]); err == nil {
			return compareResults(a, b, out)
		}
	}
	fmt.Fprintln(errOut, "benchmark compare:", err)
	return 2
}

// isSimulatedCost reports whether a per-layer metric is a probe's simulated
// cost per operation (kvstore.get_hit_vcycles, simmem.core_load_vcycles.l1):
// a pure function of the seed, compared exactly.
func isSimulatedCost(name string) bool {
	return strings.HasSuffix(name, "_vcycles") || strings.Contains(name, "_vcycles.")
}

func compareResults(a, b *result, out io.Writer) int {
	fmt.Fprintf(out, "A: seed %d, %gs windows, %s, %d CPUs, commit %s\n", a.Env.Seed, a.Env.Seconds, a.Env.GoVersion, a.Env.NProc, a.Env.GitCommit)
	fmt.Fprintf(out, "B: seed %d, %gs windows, %s, %d CPUs, commit %s\n", b.Env.Seed, b.Env.Seconds, b.Env.GoVersion, b.Env.NProc, b.Env.GitCommit)
	bad := 0
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tB/A\tbound\tverdict")
	var exact []string
	for _, s := range specs {
		wa, wb := a.Workloads[s.Name], b.Workloads[s.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(d.Better, d.Bound, ma.summary, mb.summary)
			if v == verdictWorse {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g] %d\t%.6g [%.6g, %.6g] %d\t%.4f of %.6g\t%g%%\t%s\n",
				s.Name, d.Name, d.Unit, ma.Median, ma.Q1, ma.Q3, ma.N, mb.Median, mb.Q1, mb.Q3, mb.N,
				mb.Median/ma.Median, ma.Median, 100*d.Bound, v)
		}
		// Failure share: a gain does not count when more operations fail.
		fa := float64(wa.OpsFailed) / float64(max(wa.OpsAttempted, 1))
		fb := float64(wb.OpsFailed) / float64(max(wb.OpsAttempted, 1))
		failVerdict := verdictWithin
		if fb > fa {
			failVerdict = verdictWorse
			bad++
		}
		fmt.Fprintf(tw, "%s\tops_failed/ops_attempted\tfraction\t%d/%d\t%d/%d\t\t0%%\t%s\n",
			s.Name, wa.OpsFailed, wa.OpsAttempted, wb.OpsFailed, wb.OpsAttempted, failVerdict)

		for name, ma := range wa.PerLayer {
			mb, ok := wb.PerLayer[name]
			if ok && a.Env.Seed == b.Env.Seed && isSimulatedCost(name) && ma.Median != mb.Median {
				exact = append(exact, fmt.Sprintf("%s %s: A %v, B %v (simulated costs must repeat exactly)", s.Name, name, ma.Median, mb.Median))
			}
		}
	}
	tw.Flush()
	sort.Strings(exact)
	for _, line := range exact {
		fmt.Fprintln(out, "DIFFERS", line)
	}
	bad += len(exact)
	if bad > 0 {
		fmt.Fprintf(out, "%d regressions\n", bad)
		return 1
	}
	return 0
}
