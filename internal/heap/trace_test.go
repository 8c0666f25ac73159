package heap

import (
	"fmt"
	"testing"

	"hcsgc/internal/telemetry"
)

// TestPageEventsNameTheirClass drives the real page lifecycle with a
// recorder attached and checks that the trace names each page event's class
// exactly as Class.String does. telemetry cannot import heap, so it keeps
// its own copy of the class names; this test is what keeps the two equal.
func TestPageEventsNameTheirClass(t *testing.T) {
	h := testHeap()
	rec := telemetry.NewRecorder(1, 64)
	h.SetRecorder(rec)

	small, err := h.AllocPage(ClassSmall)
	if err != nil {
		t.Fatal(err)
	}
	medium, err := h.AllocPage(ClassMedium)
	if err != nil {
		t.Fatal(err)
	}
	large, err := h.AllocLargePage(MediumObjectMax + 1)
	if err != nil {
		t.Fatal(err)
	}
	pages := map[string]*Page{}
	for _, p := range []*Page{small, medium, large} {
		pages[fmt.Sprintf("%#x", p.Start())] = p
		h.FreePage(p)
	}

	events := 0
	for _, ev := range telemetry.BuildTrace(rec.Snapshot()).TraceEvents {
		if ev.Cat != "page" {
			continue
		}
		events++
		p := pages[ev.Args["addr"].(string)]
		if p == nil {
			t.Fatalf("%s event at %v names no page of this test", ev.Name, ev.Args["addr"])
		}
		if got, want := ev.Args["class"], p.Class().String(); got != want {
			t.Errorf("%s event of %v: class %q, want %q", ev.Name, p, got, want)
		}
	}
	if events != 6 {
		t.Fatalf("%d page events, want 6 (an alloc and a free per page)", events)
	}
}
