// Command benchmark is the repo's benchmark: four named workloads measured
// on two clocks (host time, what a user waits for; virtual time, what the
// simulated machine would take), plus a traced pass and layer probes that
// localise a change to simmem, heap, core, kvstore or the planes. It
// measures every layer from outside, by timing calls into public functions.
//
//	go run ./benchmark                              all workloads, both passes
//	go run ./benchmark -workload syn-hot -trace 0   end-to-end metrics of one workload
//	go run ./benchmark -workload syn-hot -trace 1   per-layer metrics of one workload
//	go run ./benchmark compare A.json B.json        verdict per workload and metric
//
// Every pass prints its metrics by name with units and ends with one JSON
// line {"correct","attempted","failed","metrics"}; the run writes
// result.json and trace.json under -out. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"text/tabwriter"
	"time"
)

// processStart approximates process start (package initialisation runs
// first), so the first pass's set-up time includes process start-up.
var processStart = time.Now()

// defaultSeconds is BENCHMARK.json's run_seconds; a test keeps them equal.
const defaultSeconds = 15

type options struct {
	Workload string // a workload name or "all"
	Seed     int64
	Seconds  time.Duration // measurement window of one pass
	Trace    int           // 0 end-to-end, 1 per-layer, -1 both
	Quick    bool          // smoke-test sizes; numbers are meaningless
	OutDir   string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

func parseFlags(args []string, errOut io.Writer) (options, error) {
	var o options
	var seconds int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&o.Workload, "workload", "all", "workload to run: syn-hot, graph-cc, kv-serve, jbb-alloc or all")
	fs.Int64Var(&o.Seed, "seed", 1, "workload and probe input seed")
	fs.IntVar(&seconds, "seconds", defaultSeconds, "measurement window of one pass, in seconds")
	fs.IntVar(&o.Trace, "trace", -1, "0: end-to-end metrics (tracing off); 1: per-layer metrics (traced pass + probes); -1: both")
	fs.BoolVar(&o.Quick, "quick", false, "smoke test: tiny scales, one rep; numbers are meaningless")
	fs.StringVar(&o.OutDir, "out", filepath.Join("benchmark", "out"), "directory for result.json, trace.json and captured dumps")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(errOut, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return o, errors.New("unexpected argument")
	}
	if seconds < 1 || o.Trace < -1 || o.Trace > 1 {
		fmt.Fprintln(errOut, "benchmark: -seconds must be at least 1 and -trace one of -1, 0, 1")
		return o, errors.New("bad flag value")
	}
	o.Seconds = time.Duration(seconds) * time.Second
	if o.Quick {
		o.Seconds = 0 // loops fall back to their minimum rep counts
	}
	return o, nil
}

// environment is recorded in result.json so two result sets can be told
// apart before they are compared.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	TotalWallS float64 `json:"total_wall_s"`
}

// gitCommit reads the revision the toolchain stamped into the binary. `go
// run` and checkouts that are not git repositories leave it unknown; the
// benchmark does not shell out to git, which would read outside its tree.
func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// workloadResult is one workload's section of result.json.
type workloadResult struct {
	Why          string               `json:"why"`
	Correct      bool                 `json:"correct"`
	OpsAttempted uint64               `json:"ops_attempted"`
	OpsFailed    uint64               `json:"ops_failed"`
	Reps         int                  `json:"reps"`
	RefReps      int                  `json:"ref_reps"`
	TracedReps   int                  `json:"traced_reps"`
	Checksum     string               `json:"checksum"`
	Failures     []string             `json:"failures,omitempty"`
	EndToEnd     map[string]metricOut `json:"end_to_end,omitempty"`
	PerLayer     map[string]metricOut `json:"per_layer,omitempty"`
}

// result is the whole of result.json.
type result struct {
	Env environment `json:"env"`
	// Model states the simulated machine's standing: it is checked against
	// no hardware reference, so no error figure accompanies any sim_* value.
	Model     string                     `json:"model"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func (r *result) correct() bool {
	for _, w := range r.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

const modelNote = "model unvalidated: the simulated machine is checked against no hardware reference; caches start empty and cache counters cover the complete run including build"

// run executes the selected passes, prints them to w and writes the result
// files. The error is for failures to run at all; failed checks are in the
// result.
func run(o options, w io.Writer) (*result, error) {
	selected := specs
	if o.Workload != "all" {
		s, ok := specByName(o.Workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", o.Workload)
		}
		selected = []spec{s}
	}
	for _, s := range selected {
		if s.Mutators > runtime.NumCPU() {
			return nil, fmt.Errorf("%s needs %d server threads but the host has %d CPUs; its queueing behaviour would be the host's, not the model's",
				s.Name, s.Mutators, runtime.NumCPU())
		}
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}

	res := &result{
		Env: environment{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			GitCommit: gitCommit(), Seed: o.Seed, Seconds: o.Seconds.Seconds(), Quick: o.Quick,
		},
		Model:     modelNote,
		Workloads: map[string]*workloadResult{},
	}
	fmt.Fprintln(w, modelNote)
	tr := newTracer()
	root := tr.begin(-1, "run")
	start := processStart
	// The probes do not depend on the workload: they run once and every
	// traced pass of this process reports them.
	var probeValues map[string]float64
	var probeFailures []string
	for _, s := range selected {
		wr := &workloadResult{Why: s.Why, Correct: true}
		res.Workloads[s.Name] = wr
		for _, trace := range []int{0, 1} {
			if o.Trace != -1 && o.Trace != trace {
				continue
			}
			var p passResult
			if trace == 0 {
				p = endToEndPass(s, o, tr, root, start)
				wr.EndToEnd, wr.Reps, wr.RefReps = p.Metrics, p.Reps, p.RefReps
			} else {
				p = tracedPass(s, o, tr, root)
				if p.Metrics != nil {
					if probeValues == nil {
						probeValues, probeFailures = runProbes(o, tr, root)
					}
					for name, v := range probeValues {
						p.Metrics[name] = outOf(declOf(perLayer, name), v)
					}
					p.Failures = append(p.Failures, probeFailures...)
				}
				wr.PerLayer, wr.TracedReps = p.Metrics, p.Reps
			}
			start = time.Now()
			wr.Correct = wr.Correct && p.correct()
			wr.OpsAttempted += p.Attempted
			wr.OpsFailed += p.Failed
			wr.Checksum = fmt.Sprintf("%#x", p.Checksum)
			wr.Failures = append(wr.Failures, p.Failures...)
			printPass(w, p)
		}
	}
	tr.end(root)
	res.Env.TotalWallS = time.Since(processStart).Seconds()

	if err := writeJSON(filepath.Join(o.OutDir, "result.json"), res); err != nil {
		return nil, err
	}
	trace, err := tr.chromeTrace()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.OutDir, "trace.json"), trace, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// saveDumps moves the library's flight-recorder dumps (OOM, stuck
// safepoint, verifier violation) from memory to a file, leaving one line
// for the console.
func saveDumps(o options, workload string, d *dumpSink) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.buf.Len() == 0 {
		return nil
	}
	path := filepath.Join(o.OutDir, "flight-"+workload+".jsonl")
	if err := os.WriteFile(path, d.buf.Bytes(), 0o644); err != nil {
		return []string{fmt.Sprintf("%s: flight-recorder dump lost: %v", workload, err)}
	}
	return []string{fmt.Sprintf("%s: flight-recorder dump captured to %s", workload, path)}
}

// contractLine is the last line of a pass: the machine-readable summary.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printPass prints one pass: a line per failure, every metric by name with
// its unit, median, quartiles and count, then the contract's JSON line.
func printPass(w io.Writer, p passResult) {
	kind := "end-to-end (tracing off)"
	if p.Trace == 1 {
		kind = "per-layer (traced pass + probes)"
	}
	fmt.Fprintf(w, "\n== %s: %s; %d reps, %d reference reps; ops attempted %d, failed %d; checksum %#x\n",
		p.Workload, kind, p.Reps, p.RefReps, p.Attempted, p.Failed, p.Checksum)
	for _, f := range p.Failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	names := make([]string, 0, len(p.Metrics))
	for name := range p.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tn\tbetter\tbound")
	line := contractLine{Correct: p.correct(), Attempted: max(p.Attempted, 1), Failed: p.Failed, Metrics: map[string]contractValue{}}
	for _, name := range names {
		m := p.Metrics[name]
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("%g%%", 100*m.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%s\t%s\n", name, m.Unit, m.Median, m.Q1, m.Q3, m.N, m.Better, bound)
		line.Metrics[name] = contractValue{Value: m.Median, Unit: m.Unit}
	}
	tw.Flush()
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // only finite floats and strings are marshalled
	}
	fmt.Fprintf(w, "%s\n", data)
}
