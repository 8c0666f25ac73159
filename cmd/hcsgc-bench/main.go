// Command hcsgc-bench regenerates the tables and figures of "Improving
// Program Locality in the GC using Hotness" (PLDI 2020).
//
// Usage:
//
//	hcsgc-bench -exp fig4                # one experiment, default settings
//	hcsgc-bench -exp all                 # everything (takes a while)
//	hcsgc-bench -exp fig9 -runs 30 -scale 0.06 -configs 0,2,3,4
//	hcsgc-bench -exp fig4 -csv out.csv   # machine-readable output
//	hcsgc-bench -report chaos -runs 20   # fault-injection soak, verifier on
//	hcsgc-bench -report kv -json kv.json # KV serving SLO A/B (cfg 3 vs 4), its tail explained
//
// Results are printed as text reports following the paper's §4.2 layout.
//
// Adding a report mode is one row in the modes table below plus three
// methods on the result type in internal/bench (Validate, WriteText,
// WriteJSON); -list, the flag checks and the -json file follow from the
// row. The report modes diagnose; the regression guard is benchmark/.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"hcsgc"
	"hcsgc/internal/bench"
)

// options is every flag of the command.
type options struct {
	exp, csv, ablate, telemetryAddr string
	configs                         []int // nil = not given
	runs                            int
	scale                           float64
	seed                            int64
	quiet, list                     bool

	report, json string

	// Flags only some report modes read (see mode.flags).
	overloadFactor float64
	sweepMutators  []int // nil = bench.ScalingMutators
	chaosOut       string
}

// flagSet declares the command's flags over o.
func (o *options) flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("hcsgc-bench", flag.ContinueOnError)
	fs.StringVar(&o.exp, "exp", "", "experiment id: table1-3, fig4-13, or 'all' (with -report: the workload, where the mode takes one)")
	fs.IntVar(&o.runs, "runs", 0, "runs per configuration (0 = experiment or mode default)")
	fs.Float64Var(&o.scale, "scale", 0, "workload scale in (0,1]; 0 = default; 1 = paper scale")
	fs.Int64Var(&o.seed, "seed", 0, "base seed; run r uses seed+r (0 = experiment or mode default)")
	intList(fs, &o.configs, "configs", "comma-separated config ids (default: all 19; with -report: the mode's pair, see -list)")
	fs.StringVar(&o.csv, "csv", "", "also write per-config CSV to this file")
	fs.BoolVar(&o.quiet, "q", false, "suppress progress output")
	fs.BoolVar(&o.list, "list", false, "list experiment ids, report modes and ablations, and exit")
	fs.StringVar(&o.ablate, "ablate", "", "run an ablation sweep instead: "+strings.Join(bench.AblationNames(), ", "))
	fs.StringVar(&o.telemetryAddr, "telemetry-addr", "", "serve live telemetry on this address (endpoints are announced on stderr)")

	fs.StringVar(&o.report, "report", "", "run a report mode instead of the timing sweep: "+strings.Join(modeNames(), ", ")+" (see -list)")
	fs.StringVar(&o.json, "json", "", "also write the -report result as JSON to this file")

	fs.Float64Var(&o.overloadFactor, "overload-factor", 0, "-report overload: arrival-rate multiplier past sustainable (0 = default 2)")
	intList(fs, &o.sweepMutators, "sweep-mutators", "-report scaling: comma-separated mutator counts (default 1,2,4,8,16,64)")
	fs.StringVar(&o.chaosOut, "chaos-out", "", "-report chaos: also write the soak report (and failed runs' gclogs) to this file")
	return fs
}

// intList declares a flag holding comma-separated integers.
func intList(fs *flag.FlagSet, dst *[]int, name, usage string) {
	fs.Func(name, usage, func(s string) (err error) {
		*dst, err = parseConfigs(s)
		return err
	})
}

// job is one invocation: the parsed flags — under -report with the mode's
// defaults applied — plus what every mode runs against.
type job struct {
	options
	stdout   io.Writer
	sink     *hcsgc.TelemetrySink
	progress bench.Progress
}

// report is what a report mode produces; runReport drives it.
type report interface {
	// Validate is the mode's acceptance gate (the CI smoke steps rely on
	// it failing the command).
	Validate() error
	WriteText(io.Writer)
	WriteJSON(io.Writer) error
}

// mode is one row of the -report table.
type mode struct {
	name, desc string
	// exp is the default -exp; "" means the mode fixes its own workloads
	// and rejects -exp.
	exp string
	// configs are the default -configs ids; -configs must give exactly as
	// many, and a mode with none rejects -configs.
	configs []int
	seed    int64 // default -seed
	// flags are the flags, beyond the common ones, that the mode reads;
	// any of them given under another mode is an error.
	flags []string
	run   func(*job) error
}

var modes = []mode{
	{
		name: "explain", desc: "explanation A/B from the same runs: cache-model accesses and misses by owner (mutators, GC threads, pauses), prefetch accuracy and coverage, segregation purity; pause/phase HDR percentiles, MMU ladder, barrier profile",
		exp: "fig4", configs: []int{0, 16}, // ZGC baseline vs H+CP+cc1+lazy (COLDPAGE+LAZYRELOCATE)
		flags: []string{"json"},
		run: reporting(func(j *job) (report, error) {
			return bench.RunExplainAB(j.exp, j.runs, j.scale, j.seed, j.configs[0], j.configs[1], j.sink, j.progress)
		}),
	},
	{
		name: "kv", desc: "KV serving A/B: open-loop request latency percentiles and SLO curves per traffic phase, SLO violations by cause and GC cycle",
		configs: []int{3, 4}, seed: 1,
		flags: []string{"json"},
		run: reporting(func(j *job) (report, error) {
			return bench.RunKVAB(j.runs, j.scale, j.seed, j.configs[0], j.configs[1], j.sink, j.progress)
		}),
	},
	{
		name: "overload", desc: "KV overload A/B: past-sustainable load, unprotected vs deadline fast-fail + stale shedding",
		configs: []int{3}, seed: 1, // RelocateAllSmallPages: the serving-path default
		flags: []string{"json", "overload-factor"},
		run: reporting(func(j *job) (report, error) {
			return bench.RunOverloadAB(j.runs, j.scale, j.seed, j.configs[0], j.overloadFactor, j.sink, j.progress)
		}),
	},
	{
		name: "scaling", desc: "many-core scaling sweep: fig4 + KV across mutator counts, USL fit and ranked contention tables",
		seed:  1,
		flags: []string{"json", "sweep-mutators"},
		run: reporting(func(j *job) (report, error) {
			return bench.RunScaleSweep(j.sweepMutators, j.scale, j.seed, j.sink, j.progress)
		}),
	},
	{
		name: "chaos", desc: "chaos soak: seeded fault schedules with the STW heap verifier",
		exp: "fig4", seed: 1,
		flags: []string{"chaos-out"},
		run:   runChaosSoak,
	},
}

func modeNames() []string {
	names := make([]string, len(modes))
	for i := range modes {
		names[i] = modes[i].name
	}
	return names
}

// selectMode resolves -report against the table and applies the mode's
// defaults to j. It is where misuse fails: an unknown mode or -ablate
// sweep, a flag the mode does not read, a -configs list of the wrong
// length. given holds the names of the flags on the command line, sorted.
// Without -report it returns nil, having checked that no report-only flag
// was given and, under -ablate, no flag of the -exp sweep.
func selectMode(j *job, given []string) (*mode, error) {
	var m *mode
	readers := map[string][]string{} // mode-scoped flag -> the modes that read it
	for i := range modes {
		if modes[i].name == j.report {
			m = &modes[i]
		}
		for _, f := range modes[i].flags {
			readers[f] = append(readers[f], modes[i].name)
		}
	}
	if m == nil && j.report != "" {
		return nil, fmt.Errorf("unknown -report %q (have %s)", j.report, strings.Join(modeNames(), ", "))
	}
	for _, f := range given {
		names, scoped := readers[f]
		if !scoped || (m != nil && slices.Contains(names, m.name)) {
			continue
		}
		if m == nil {
			return nil, fmt.Errorf("-%s needs -report %s", f, strings.Join(names, "|"))
		}
		return nil, fmt.Errorf("-%s is not read by -report %s (only by -report %s)", f, m.name, strings.Join(names, "|"))
	}
	if j.ablate != "" {
		if m != nil {
			return nil, fmt.Errorf("-ablate and -report select different modes; give one")
		}
		if names := bench.AblationNames(); !slices.Contains(names, j.ablate) {
			return nil, fmt.Errorf("unknown -ablate %q (have %s)", j.ablate, strings.Join(names, ", "))
		}
		// An ablation fixes its workload and its settings, and prints no CSV.
		for _, f := range []string{"exp", "configs", "csv"} {
			if slices.Contains(given, f) {
				return nil, fmt.Errorf("-%s is not read by -ablate", f)
			}
		}
	}
	if m == nil {
		return nil, nil
	}
	if slices.Contains(given, "csv") {
		return nil, fmt.Errorf("-csv is not read by -report %s (only the -exp sweep writes a CSV)", m.name)
	}
	if m.exp == "" && slices.Contains(given, "exp") {
		return nil, fmt.Errorf("-exp is not read by -report %s (the mode fixes its workloads)", m.name)
	}
	if j.exp == "" {
		j.exp = m.exp
	}
	if j.seed == 0 {
		j.seed = m.seed
	}
	switch {
	case j.configs == nil:
		j.configs = m.configs
	case len(m.configs) == 0:
		return nil, fmt.Errorf("-configs is not read by -report %s", m.name)
	case len(j.configs) != len(m.configs):
		return nil, fmt.Errorf("-report %s needs exactly %d config ids, got %d", m.name, len(m.configs), len(j.configs))
	}
	return m, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: 0 on success, 1 when a run or its gate fails, 2 on
// command-line misuse.
func run(args []string, stdout, stderr io.Writer) int {
	j := &job{stdout: stdout}
	fs := j.flagSet()
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "hcsgc-bench: %v\n", err)
		return code
	}
	var given []string // Visit goes in name order
	fs.Visit(func(f *flag.Flag) { given = append(given, f.Name) })
	m, err := selectMode(j, given)
	if err != nil {
		return fail(2, err)
	}
	if j.list {
		writeList(stdout)
		return 0
	}

	if j.telemetryAddr != "" {
		j.sink = hcsgc.NewTelemetrySink()
		srv, err := j.sink.Serve(j.telemetryAddr)
		if err != nil {
			return fail(1, fmt.Errorf("telemetry: %w", err))
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "hcsgc-bench: telemetry on http://%s (%s)\n", srv.Addr(), strings.Join(j.sink.Endpoints(), " "))
	}
	if !j.quiet {
		j.progress = func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	}

	switch {
	case m != nil:
		if err := m.run(j); err != nil {
			return fail(1, fmt.Errorf("%s: %w", m.name, err))
		}
	case j.ablate != "":
		res, err := bench.RunAblation(j.ablate, j.runs, j.scale, j.seed, j.sink, j.progress)
		if err != nil {
			return fail(1, err)
		}
		bench.WriteAblation(stdout, &res)
	case j.exp == "":
		return fail(2, fmt.Errorf("-exp is required (see -list)"))
	default:
		ids := []string{j.exp}
		if j.exp == "all" {
			ids = bench.ExperimentIDs()
		}
		var csv io.Writer
		if j.csv != "" {
			f, err := os.Create(j.csv)
			if err != nil {
				return fail(1, err)
			}
			defer f.Close()
			csv = f
		}
		for _, id := range ids {
			if err := runOne(j, id, csv); err != nil {
				return fail(1, fmt.Errorf("%s: %w", id, err))
			}
		}
	}
	return 0
}

// writeList enumerates the runnable experiment ids (id first, one-line
// description after), then the report modes — from the modes table, with
// the defaults a mode applies — and the ablation sweeps.
func writeList(w io.Writer) {
	tableTitles := map[string]string{
		"table1": "ZGC page size classes",
		"table2": "benchmark configuration matrix (Table 2)",
		"table3": "LAW-substitute graph inputs",
	}
	specs := bench.Specs()
	fmt.Fprintln(w, "experiments (-exp):")
	for _, id := range bench.ExperimentIDs() {
		title := tableTitles[id]
		if s, ok := specs[id]; ok {
			title = s.Title
		}
		fmt.Fprintf(w, "  %-8s %s\n", id, title)
	}
	fmt.Fprintln(w, "report modes (-report; without it, -exp runs the per-config timing/cache/GC sweep over Table 2):")
	for _, m := range modes {
		fmt.Fprintf(w, "  %-8s %s", m.name, m.desc)
		if m.exp != "" {
			fmt.Fprintf(w, "; default -exp %s", m.exp)
		}
		if len(m.configs) > 0 {
			fmt.Fprintf(w, "; default -configs %v", m.configs)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "ablation sweeps (-ablate):")
	for _, a := range bench.AblationNames() {
		fmt.Fprintf(w, "  ablate:%s\n", a)
	}
}

func runOne(j *job, id string, csv io.Writer) error {
	switch id {
	case "table1":
		bench.WriteTable1(j.stdout)
		return nil
	case "table2":
		bench.WriteTable2(j.stdout)
		return nil
	case "table3":
		bench.WriteTable3(j.stdout, j.scale)
		return nil
	}

	spec, ok := bench.Specs()[id]
	if !ok {
		return fmt.Errorf("unknown experiment (see -list)")
	}
	if j.runs > 0 {
		spec.Runs = j.runs
	}
	if j.scale > 0 {
		spec.Scale = j.scale
	}
	if j.seed != 0 {
		spec.Seed = j.seed
	}
	if j.configs != nil {
		spec.Configs = j.configs
	}
	spec.Telemetry = j.sink
	res, err := bench.Run(spec, j.progress)
	if err != nil {
		return err
	}
	bench.WriteReport(j.stdout, &res)
	if csv != nil {
		bench.WriteCSV(csv, &res)
	}
	return nil
}

// reporting adapts a mode's runner to mode.run through runReport.
func reporting(runner func(*job) (report, error)) func(*job) error {
	return func(j *job) error { return runReport(j, runner) }
}

// runReport is the one path every report mode takes after its flags are
// resolved: run, gate, print, then the optional -json file. With
// -telemetry-addr the in-flight runs serve their planes live.
func runReport(j *job, runner func(*job) (report, error)) error {
	rep, err := runner(j)
	if err != nil {
		return err
	}
	if err := rep.Validate(); err != nil {
		return err
	}
	rep.WriteText(j.stdout)
	if j.json == "" {
		return nil
	}
	f, err := os.Create(j.json)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runChaosSoak runs -report chaos: a seed sweep of randomized fault
// schedules with the STW heap verifier attached to every run. It is not a
// report: a failed soak's output is its result, so the text (which leads
// each failure with the reproducer command line) and the -chaos-out
// artifact (plus the failed runs' gclogs) are written before the failure
// is returned. A seed fails on a verifier violation or an unexpected
// error; graceful OOM is not a failure.
func runChaosSoak(j *job) error {
	res, err := bench.RunChaos(j.exp, j.runs, j.scale, j.seed, j.progress)
	if err != nil {
		return err
	}
	bench.WriteChaosReport(j.stdout, res)
	if j.chaosOut != "" {
		f, err := os.Create(j.chaosOut)
		if err != nil {
			return err
		}
		defer f.Close()
		bench.WriteChaosReport(f, res)
		for _, r := range res.Runs {
			if r.GCLog != "" {
				fmt.Fprintf(f, "\n=== gclog seed %d ===\n%s", r.Seed, r.GCLog)
			}
			if r.FlightDump != "" {
				fmt.Fprintf(f, "\n=== flight recorder seed %d ===\n%s", r.Seed, r.FlightDump)
			}
		}
	}
	if res.Failures > 0 {
		return fmt.Errorf("%d of %d seeds failed", res.Failures, len(res.Runs))
	}
	return nil
}

func parseConfigs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad config id %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
