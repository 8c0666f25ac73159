package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hcsgc/internal/kvstore"
	"hcsgc/internal/loadgen"
	"hcsgc/internal/telemetry/latency"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the fixtures")

// The golden tests pin every report's text and JSON rendering byte for
// byte. Real runs are schedule-dependent, so what is pinned is a fixture:
// a value of each report type with every exported field it can reach set
// to a distinct, deterministic value (so a dropped, renamed or reordered
// JSON key changes the bytes), then shaped by hand where the text report
// reads by name (pause/phase/barrier/op keys, traffic phase names, an MMU
// ladder both sides share).

// fixtureKeys names the keys of the string-keyed maps the reports index.
var fixtureKeys = map[string][]string{
	"Pauses":  latencyPauseOrder,
	"Phases":  latencyPhaseOrder,
	"Barrier": latencyBarrierOrder,
	"Ops": {loadgen.OpGet.String(), loadgen.OpSet.String(),
		loadgen.OpDelete.String(), loadgen.OpScan.String()},
}

// fixtureDerived names, as "Type.Field", the fields a report derives from
// others, which the filler leaves for the fixture to derive the same way:
// a tail report's cycles[] and each exemplar's index into it are written
// from the exemplars' records (linkCycles).
var fixtureDerived = map[string]bool{"TailReport.Cycles": true, "Exemplar.CycleIndex": true}

// fixtureLens overrides the default slice length of 2 by field name.
var fixtureLens = map[string]int{
	"Phases":    len(loadgen.PhaseNames),
	"TopK":      4, // one more than the kv report prints per side
	"ReuseHist": 5,
}

// filler hands out the distinct values; n is the running counter.
type filler struct{ n uint64 }

func (f *filler) next() uint64 { f.n++; return f.n }

// fill sets every exported field reachable from v. field is the name of
// the struct field v was reached through ("" at the root).
func (f *filler) fill(v reflect.Value, field string) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(f.next()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(f.next())
	case reflect.Float32, reflect.Float64:
		// Exactly representable, never integral: JSON and %f both stable.
		v.SetFloat(float64(f.next()) + 0.125)
	case reflect.String:
		v.SetString(fmt.Sprintf("%s-%d", field, f.next()))
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem(), field)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if sf := v.Type().Field(i); sf.IsExported() && !fixtureDerived[v.Type().Name()+"."+sf.Name] {
				f.fill(v.Field(i), sf.Name)
			}
		}
	case reflect.Slice:
		n := 2
		if l, ok := fixtureLens[field]; ok {
			n = l
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			f.fill(v.Index(i), field)
		}
	case reflect.Map:
		keys, ok := fixtureKeys[field]
		if !ok || v.Type().Key().Kind() != reflect.String {
			panic(fmt.Sprintf("golden fixture: no keys declared for map field %q", field))
		}
		v.Set(reflect.MakeMap(v.Type()))
		for _, k := range keys {
			elem := reflect.New(v.Type().Elem()).Elem()
			f.fill(elem, field)
			v.SetMapIndex(reflect.ValueOf(k), elem)
		}
	default:
		panic(fmt.Sprintf("golden fixture: field %q has unsupported kind %s", field, v.Kind()))
	}
}

func fixture[T any]() *T {
	v := new(T)
	(&filler{}).fill(reflect.ValueOf(v).Elem(), "")
	return v
}

func fixtureExplainAB() *ExplainAB {
	ab := fixture[ExplainAB]()
	// The MMU table joins the two sides on the window width.
	for i := range ab.Base.Report.MMU.Windows {
		ab.Test.Report.MMU.Windows[i].WindowCycles = ab.Base.Report.MMU.Windows[i].WindowCycles
	}
	return ab
}

// linkCycles derives a filled tail's cycle links as the ledger's Tail
// does: every exemplar's record once in cycles[] (the filler made them
// distinct), each exemplar indexing its own.
func linkCycles(tail *kvstore.TailReport) {
	for i := range tail.TopK {
		tail.Cycles = append(tail.Cycles, tail.TopK[i].Record)
		tail.TopK[i].CycleIndex = i
	}
}

func fixtureKVAB() *KVAB {
	ab := fixture[KVAB]()
	for i, name := range loadgen.PhaseNames {
		ab.Base.Report.Phases[i].Phase = name
		ab.Test.Report.Phases[i].Phase = name
	}
	// A cause nobody hit is skipped by the text report.
	ab.Test.Tail.ByCause[1].Count = 0
	linkCycles(&ab.Base.Tail)
	linkCycles(&ab.Test.Tail)
	return ab
}

func fixtureOverloadAB() *OverloadAB {
	ab := fixture[OverloadAB]()
	for i, name := range loadgen.PhaseNames {
		ab.Unprotected.Report.Phases[i].Phase = name
		ab.Protected.Report.Phases[i].Phase = name
	}
	ab.Protected.Tail.ByCause[0].Count = 0
	linkCycles(&ab.Unprotected.Tail)
	linkCycles(&ab.Protected.Tail)
	return ab
}

func fixtureScaleSweep() *ScaleSweep {
	s := fixture[ScaleSweep]()
	for i := range s.Series {
		for j := range s.Series[i].Points {
			s.Series[i].Points[j].Mutators = s.Mutators[j]
		}
	}
	// One series with a fit (and no note), one where the fit failed.
	s.Series[0].Workload, s.Series[0].FitNote = "fig4", ""
	s.Series[1].Workload, s.Series[1].Fit = "kv", nil
	return s
}

func TestGoldenReports(t *testing.T) {
	explain, kv := fixtureExplainAB(), fixtureKVAB()
	ovl, sweep := fixtureOverloadAB(), fixtureScaleSweep()
	cases := []struct {
		name string
		text func(io.Writer)
		json func(io.Writer) error
	}{
		{"explain", explain.WriteText, explain.WriteJSON},
		{"kv", kv.WriteText, kv.WriteJSON},
		{"overload", ovl.WriteText, ovl.WriteJSON},
		{"scaling", sweep.WriteText, sweep.WriteJSON},
	}
	for _, tc := range cases {
		var b bytes.Buffer
		tc.text(&b)
		compareGolden(t, tc.name+".txt", b.Bytes())
		b.Reset()
		if err := tc.json(&b); err != nil {
			t.Errorf("%s: json: %v", tc.name, err)
			continue
		}
		compareGolden(t, tc.name+".json", b.Bytes())
		// The filler's one running counter renumbers every later value when
		// a field comes or goes; the key paths show what actually moved.
		compareGolden(t, tc.name+".keys", keyPaths(t, b.Bytes()))
	}
}

// TestGoldenPayloadKeys pins the key paths of the two per-cycle payloads a
// live runtime serves: /signals (latency.Window) and the flight dump
// (/flightrecorder and the automatic dumps, latency.FlightDump). Their
// values come from a run, so only the shape is pinned.
func TestGoldenPayloadKeys(t *testing.T) {
	for name, doc := range map[string]any{
		"signals":    fixture[latency.Window](),
		"flightdump": fixture[latency.FlightDump](),
	} {
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compareGolden(t, name+".keys", keyPaths(t, b))
	}
}

// keyPaths renders the sorted unique paths of doc's leaf values, one a
// line, with every array index written "[]".
func keyPaths(t *testing.T, doc []byte) []byte {
	t.Helper()
	var root any
	if err := json.Unmarshal(doc, &root); err != nil {
		t.Fatalf("key paths: %v", err)
	}
	seen := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				walk(strings.TrimPrefix(path+"."+k, "."), e)
			}
		case []any:
			for _, e := range v {
				walk(path+"[]", e)
			}
		default:
			seen[path] = true
		}
	}
	walk("", root)
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return []byte(strings.Join(paths, "\n") + "\n")
}

func compareGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("%v (run go test ./internal/bench -run TestGoldenReports -update)", err)
		return
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file (-update regenerates):\n--- got\n%s\n--- want\n%s", file, got, want)
	}
}
