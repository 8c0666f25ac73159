package main

import (
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "workload/a", Start: 10 * ms, End: 70 * ms},
		{ID: 2, Parent: 1, Name: "rep/0", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "rep/1", Start: 30 * ms, End: 65 * ms},
		{ID: 4, Parent: 0, Name: "probes", Start: 70 * ms, End: 95 * ms},
	}
	want := []time.Duration{15 * ms, 5 * ms, 20 * ms, 35 * ms, 25 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestChromeTraceCarriesParentAndSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin(-1, "run")
	child := tr.begin(root, "workload/x")
	tr.end(child)
	open := tr.begin(root, "still-open") // closed at render time
	_ = open
	tr.end(root)
	data, err := tr.chromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Args struct {
				ID     int
				Parent int
				SelfUs float64 `json:"self_us"`
			}
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	for i, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Args.ID != i || ev.Dur < 0 {
			t.Errorf("event %d malformed: %+v", i, ev)
		}
	}
	if doc.TraceEvents[0].Args.Parent != -1 || doc.TraceEvents[1].Args.Parent != 0 {
		t.Errorf("parent ids wrong: %+v", doc.TraceEvents)
	}
	if r := doc.TraceEvents[0]; r.Args.SelfUs > r.Dur {
		t.Errorf("root self time %v exceeds its duration %v", r.Args.SelfUs, r.Dur)
	}
}
