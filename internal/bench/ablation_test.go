package bench

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"hcsgc"
)

func TestAblationNames(t *testing.T) {
	names := AblationNames()
	if len(names) != 3 {
		t.Fatalf("ablations = %v", names)
	}
	for _, n := range names {
		res, err := RunAblation(n, 1, 0.005, 1, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if len(res.Points) < 2 {
			t.Fatalf("%s: %d points, want a sweep", n, len(res.Points))
		}
		for _, p := range res.Points {
			if p.Label == "" || p.Boot.Mean <= 0 {
				t.Fatalf("%s: bad point %+v", n, p)
			}
		}
		var buf bytes.Buffer
		WriteAblation(&buf, &res)
		if !strings.Contains(buf.String(), res.Name) {
			t.Fatalf("%s: report missing name", n)
		}
	}
}

// TestRunAblationServesTelemetry: an ablation's runs attach the sink
// (hcsgc-bench -ablate NAME -telemetry-addr) like any sweep's.
func TestRunAblationServesTelemetry(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	if _, err := RunAblation("ecthreshold", 1, 0.005, 1, sink, nil); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	sink.Metrics().WritePrometheus(&b)
	if out := b.String(); !strings.Contains(out, "hcsgc_gc_cycles_total") {
		t.Errorf("an ablation run served no metrics:\n%s", out)
	}
}

func TestRunAblationUnknown(t *testing.T) {
	if _, err := RunAblation("nope", 1, 0.01, 1, nil, nil); err == nil {
		t.Fatal("unknown ablation must error")
	}
}

// TestRunAblationFailsOnAFailedRun: a setting whose run fails fails the
// sweep with the run's error, instead of dropping out of its point's
// sample.
func TestRunAblationFailsOnAFailedRun(t *testing.T) {
	saved := ablations
	t.Cleanup(func() { ablations = saved })
	ablations = append(saved[:len(saved):len(saved)], saved[0])
	a := &ablations[len(ablations)-1]
	a.name = "heapmax"
	a.sides = func() []side {
		// 1 MB cannot hold fig4's element array: the run ends in a graceful
		// OOM, its flight dump discarded.
		sides := configSides(4, 4)
		sides[1].label = "heap=1MB"
		sides[1].rc.HeapMaxBytes = 1 << 20
		sides[1].rc.Latency = hcsgc.NewLatencyTracker(hcsgc.LatencyConfig{DumpTo: io.Discard})
		return sides
	}
	_, err := RunAblation("heapmax", 1, 0.005, 1, nil, nil)
	if !errors.Is(err, hcsgc.ErrOutOfMemory) || !strings.Contains(err.Error(), "heap=1MB run 0") {
		t.Fatalf("RunAblation = %v, want the failed run's out-of-memory error", err)
	}
}
