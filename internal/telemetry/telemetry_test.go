package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(EvPageAlloc, 1, 2, 3)
	r.BeginSpan(SpanMark, 1)
	r.EndSpan(SpanMark, 1)
	if r.Dropped() != 0 || r.Overwritten() != 0 || r.Snapshot() != nil {
		t.Error("nil recorder must report zero state")
	}
	r.Reset()
}

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(4, 16)
	r.Record(EvPageAlloc, 1, 0xabc, 4096)
	r.BeginSpan(SpanMark, 1)
	r.EndSpan(SpanMark, 1)
	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TimeNS < evs[i-1].TimeNS {
			t.Fatal("snapshot not time sorted")
		}
	}
	var kinds []string
	for _, ev := range evs {
		kinds = append(kinds, ev.Kind.String())
	}
	joined := strings.Join(kinds, ",")
	if !strings.Contains(joined, "page_alloc") || !strings.Contains(joined, "span_begin") {
		t.Fatalf("unexpected kinds %s", joined)
	}
	r.Reset()
	if len(r.Snapshot()) != 0 {
		t.Error("reset must discard events")
	}
}

func TestRecorderOverwriteAccounting(t *testing.T) {
	r := NewRecorder(1, 8)
	for i := 0; i < 20; i++ {
		r.Record(EvPageAlloc, 0, uint64(i), 0)
	}
	written := uint64(len(r.Snapshot())) + r.Overwritten() + r.Dropped()
	if written != 20 {
		t.Fatalf("retained+overwritten+dropped = %d, want 20", written)
	}
	if len(r.Snapshot()) > 8 {
		t.Fatalf("ring retained %d events, capacity 8", len(r.Snapshot()))
	}
}

// TestRecorderConcurrent hammers the recorder from many goroutines; the
// race detector validates the locking discipline, and the accounting
// identity validates that nothing is silently lost.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(4, 64)
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Record(EvRelocWin, uint32(g), uint64(i), 8)
			}
		}(g)
	}
	wg.Wait()
	total := uint64(len(r.Snapshot())) + r.Overwritten() + r.Dropped()
	if total != goroutines*perG {
		t.Fatalf("retained+overwritten+dropped = %d, want %d", total, goroutines*perG)
	}
}

func TestSpanNames(t *testing.T) {
	for span, want := range map[SpanID]string{
		SpanCycle: "cycle", SpanMark: "mark", SpanECSelect: "ec_select",
		SpanRelocate: "relocate", SpanPause1: "stw1", SpanPause2: "stw2",
		SpanPause3: "stw3",
	} {
		if got := span.String(); got != want {
			t.Errorf("SpanID(%d) = %q, want %q", span, got, want)
		}
	}
}

// TestCounterTracks: a series renders with the track name and category
// NewCounterTrack registered it under; id 0 and an id past the table
// render as counter/locality.
func TestCounterTracks(t *testing.T) {
	for _, w := range []struct {
		id        uint32
		name, cat string
	}{
		{CounterStreamCoverage, "locality_stream_coverage", "locality"},
		{CounterMMU1k, "latency_mmu_1k", "latency"},
		{CounterUtilization, "latency_mutator_utilization", "latency"},
		{0, "counter", "locality"},
		{uint32(len(counterTracks)), "counter", "locality"},
	} {
		ev := BuildTrace([]Event{{Kind: EvCounter, Arg: w.id}}).TraceEvents[0]
		if ev.Name != w.name || ev.Cat != w.cat {
			t.Errorf("counter %d = (%q, %q), want (%q, %q)", w.id, ev.Name, ev.Cat, w.name, w.cat)
		}
	}
}
