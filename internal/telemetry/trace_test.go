package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// Three of the latency tracker's counter tracks, registered at package
// initialization as its signals table registers them.
var (
	CounterStreamCoverage = NewCounterTrack("locality_stream_coverage", "locality")
	CounterMMU1k          = NewCounterTrack("latency_mmu_1k", "latency")
	CounterUtilization    = NewCounterTrack("latency_mutator_utilization", "latency")
)

func TestWriteTraceSpans(t *testing.T) {
	r := NewRecorder(1, 64)
	r.BeginSpan(SpanCycle, 1)
	r.BeginSpan(SpanMark, 1)
	r.EndSpan(SpanMark, 1)
	r.BeginSpan(SpanRelocate, 2)
	r.EndSpan(SpanRelocate, 2)
	r.EndSpan(SpanCycle, 1)
	r.Record(EvSafepointWait, 0, 1500, uint64(SpanPause1))
	r.Record(EvPageAlloc, 1, 0x200000, 1<<21)
	r.Record(EvRelocWin, RelocByMutator, 0x200040, 24)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var tf TraceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace does not parse as trace_event JSON: %v", err)
	}

	// Every B must have a matching E on the same (name, tid) track.
	open := map[[2]any]int{}
	for _, ev := range tf.TraceEvents {
		key := [2]any{ev.Name, ev.TID}
		switch ev.Ph {
		case "B":
			open[key]++
		case "E":
			open[key]--
			if open[key] < 0 {
				t.Fatalf("E without B for %v", key)
			}
		}
	}
	for key, n := range open {
		if n != 0 {
			t.Errorf("unbalanced span %v: %d left open", key, n)
		}
	}

	names := map[string][]string{}
	for _, ev := range tf.TraceEvents {
		names[ev.Name] = append(names[ev.Name], ev.Ph)
	}
	for _, span := range []string{"cycle", "mark", "relocate"} {
		phs := names[span]
		if len(phs) != 2 || phs[0] != "B" || phs[1] != "E" {
			t.Errorf("span %q events = %v, want [B E]", span, phs)
		}
	}
	if phs := names["safepoint_wait"]; len(phs) != 1 || phs[0] != "X" {
		t.Errorf("safepoint_wait events = %v, want one X", phs)
	}
	if phs := names["page_alloc"]; len(phs) != 1 || phs[0] != "i" {
		t.Errorf("page_alloc events = %v, want one instant", phs)
	}
	if phs := names["reloc_win"]; len(phs) != 1 || phs[0] != "i" {
		t.Errorf("reloc_win events = %v, want one instant", phs)
	}
	for _, ev := range tf.TraceEvents {
		if ev.Name == "reloc_win" && ev.Args["who"] != "mutator" {
			t.Errorf("reloc_win who = %v, want mutator", ev.Args["who"])
		}
	}
}

// TestCounterTrackCategories: EvCounter events render as "C" counter
// tracks whose category routes by series — locality counters stay in
// "locality", the MMU/utilization ladder goes to "latency". The golden
// snippet pins the exact rendering the /trace endpoint serves.
func TestCounterTrackCategories(t *testing.T) {
	r := NewRecorder(1, 64)
	r.Record(EvCounter, CounterStreamCoverage, math.Float64bits(0.75), 1)
	r.Record(EvCounter, CounterMMU1k, math.Float64bits(0.5), 1)
	r.Record(EvCounter, CounterUtilization, math.Float64bits(0.875), 1)

	tf := BuildTrace(r.Snapshot())
	cats := map[string]string{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "C" {
			t.Fatalf("counter event rendered as %q, want C", ev.Ph)
		}
		cats[ev.Name] = ev.Cat
	}
	if cats["locality_stream_coverage"] != "locality" {
		t.Errorf("stream coverage cat = %q", cats["locality_stream_coverage"])
	}
	if cats["latency_mmu_1k"] != "latency" || cats["latency_mutator_utilization"] != "latency" {
		t.Errorf("latency counters mis-categorized: %v", cats)
	}

	// Golden snippet: one MMU counter sample, minus the wall-clock ts.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var raw struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range raw.TraceEvents {
		if string(ev["name"]) != `"latency_mmu_1k"` {
			continue
		}
		found = true
		for field, want := range map[string]string{
			"cat":  `"latency"`,
			"ph":   `"C"`,
			"pid":  `1`,
			"tid":  `1`,
			"args": `{"value":0.5}`,
		} {
			if got := string(ev[field]); got != want {
				t.Errorf("golden mmu counter field %s = %s, want %s", field, got, want)
			}
		}
	}
	if !found {
		t.Fatal("no latency_mmu_1k counter event in trace")
	}
}
