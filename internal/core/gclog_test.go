package core

import (
	"strings"
	"testing"

	"hcsgc/internal/heap"
	"hcsgc/internal/objmodel"
	"hcsgc/internal/telemetry"
)

func TestFmtBytes(t *testing.T) {
	cases := []struct {
		in   uint64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{1 << 10, "1.0KB"},
		{1536, "1.5KB"},
		{1 << 20, "1.0MB"},
		{3 << 20, "3.0MB"},
		{1 << 30, "1.0GB"},
		{4 << 30, "4.0GB"},
		{6442450944, "6.0GB"}, // 6 GiB must not render as 6144.0MB
	}
	for _, c := range cases {
		if got := fmtBytes(c.in); got != c.want {
			t.Errorf("fmtBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestMedianECSmall(t *testing.T) {
	mk := func(counts ...int) Stats {
		st := Stats{}
		for _, n := range counts {
			st.Cycles = append(st.Cycles, CycleStats{ECSmall: n})
		}
		return st
	}
	cases := []struct {
		name string
		st   Stats
		want float64
	}{
		{"empty", mk(), 0},
		{"single", mk(7), 7},
		{"odd", mk(9, 1, 5), 5},
		{"even", mk(8, 2, 6, 4), 5},
		{"unsorted-dups", mk(3, 1, 3, 1, 3), 3},
	}
	for _, c := range cases {
		if got := c.st.MedianECSmall(); got != c.want {
			t.Errorf("%s: MedianECSmall = %v, want %v", c.name, got, c.want)
		}
	}
	// The input order must survive: MedianECSmall works on a copy.
	st := mk(9, 1, 5)
	st.MedianECSmall()
	if st.Cycles[0].ECSmall != 9 || st.Cycles[1].ECSmall != 1 {
		t.Error("MedianECSmall mutated its receiver's cycle order")
	}
}

// TestWriteGCLog checks the rendered log structure: the knob header, one
// block per cycle with its pause/EC/heap lines, and the totals line.
func TestWriteGCLogGolden(t *testing.T) {
	h := heap.New(heap.Config{MaxBytes: 32 << 20}, nil)
	c := MustNew(h, objmodel.NewRegistry(), Config{
		Knobs:     Knobs{Hotness: true, LazyRelocate: true},
		GCWorkers: 2,
	})
	c.lat.OnCycle(&CycleStats{
		Seq: 1, Trigger: "requested",
		Pause1: 100, Pause2: 200, Pause3: 300,
		MarkedBytes: 5 << 20, ECSmall: 3, ECSmallLiveBytes: 1 << 20,
		ECMedium: 1, PagesFreedEmpty: 2,
		HeapUsedBefore: 50.0, HeapUsedAfter: 25.0,
	})
	c.lat.OnCycle(&CycleStats{Seq: 2, Trigger: "allocation stall"})
	c.stats.addReloc(telemetry.RelocByMutator, 2, 2*4096)
	c.stats.addReloc(telemetry.RelocByGC, 1, 8192)

	var b strings.Builder
	c.WriteGCLog(&b)
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")

	// Header + 5 lines per cycle x 2 cycles + totals.
	if want := 1 + 2*5 + 1; len(lines) != want {
		t.Fatalf("got %d log lines, want %d:\n%s", len(lines), want, out)
	}
	wantFragments := []string{
		"collector: HCSGC (H lazy), 2 workers, evac threshold 75%",
		"GC(1) trigger=requested",
		"GC(1) pause cycles: STW1=100 STW2=200 STW3=300",
		"GC(1) marked 5.0MB live",
		"GC(1) EC: 3 small pages (1.0MB live), 1 medium; 2 empty pages freed",
		"GC(1) heap: 50.0% -> 25.0%",
		"GC(2) trigger=allocation stall",
		"totals: 2 cycles, relocated 2 objects (8.0KB) by mutators, 1 (8.0KB) by GC",
	}
	for _, frag := range wantFragments {
		if !strings.Contains(out, frag) {
			t.Errorf("log missing %q:\n%s", frag, out)
		}
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "[gc] ") {
			t.Errorf("line without [gc] prefix: %q", line)
		}
	}
}
