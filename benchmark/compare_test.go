package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 9} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.8, Q3: m * 1.2, N: 9} }
	for _, tc := range []struct {
		name   string
		better string
		bound  float64
		a, b   summary
		want   string
	}{
		{"same", lower, 0.10, tight(10), tight(10), verdictWithin},
		{"slightly slower", lower, 0.10, tight(10), tight(10.5), verdictWithin},
		{"past the bound", lower, 0.10, tight(10), tight(11.5), verdictWorse},
		{"clearly faster", lower, 0.10, tight(10), tight(8), verdictBetter},
		{"faster but overlapping", lower, 0.10, tight(10), tight(9.95), verdictWithin},
		{"noisy and overlapping", lower, 0.10, wide(10), wide(11.5), verdictUnresolved},
		{"noisy but separated worse", lower, 0.10, wide(10), wide(20), verdictWorse},
		{"noisy but separated better", lower, 0.10, wide(20), wide(10), verdictBetter},
		{"speed-up fell", higher, 0.05, tight(1.29), tight(1.20), verdictWorse},
		{"speed-up rose", higher, 0.05, tight(1.29), tight(1.40), verdictBetter},
		{"one sample a side is never better", lower, 0.25, summary{Median: 6.5, Q1: 6.5, Q3: 6.5, N: 1}, summary{Median: 5.9, Q1: 5.9, Q3: 5.9, N: 1}, verdictWithin},
		{"one sample a side can be worse", lower, 0.25, summary{Median: 5, Q1: 5, Q3: 5, N: 1}, summary{Median: 7, Q1: 7, Q3: 7, N: 1}, verdictWorse},
		{"speed-up held", higher, 0.05, tight(1.29), tight(1.27), verdictWithin},
	} {
		if got := verdict(tc.better, tc.bound, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// twoResults builds an A/A pair on one workload that compare must pass.
func twoResults() (*result, *result) {
	mk := func() *result {
		return &result{
			Env: environment{Seed: 1},
			Workloads: map[string]*workloadResult{"syn-hot": {
				OpsAttempted: 10,
				EndToEnd: map[string]metricOut{
					"host_s": outOf(declOf(endToEnd, "host_s"), 5.0, 5.1, 5.2),
				},
				PerLayer: map[string]metricOut{
					"simmem.core_load_vcycles.l1": outOf(declOf(perLayer, "simmem.core_load_vcycles.l1"), 4),
					"simmem.core_load_ns.l1":      outOf(declOf(perLayer, "simmem.core_load_ns.l1"), 33),
				},
			}},
		}
	}
	return mk(), mk()
}

func TestCompareExitCodes(t *testing.T) {
	a, b := twoResults()
	var out bytes.Buffer
	if code := compareResults(a, b, &out); code != 0 {
		t.Fatalf("A/A exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "of 5.1") {
		t.Errorf("ratio printed without its base:\n%s", out.String())
	}

	// Host-time probes may wobble; simulated costs may not.
	b.Workloads["syn-hot"].PerLayer["simmem.core_load_ns.l1"] = outOf(declOf(perLayer, "simmem.core_load_ns.l1"), 40)
	if code := compareResults(a, b, &out); code != 0 {
		t.Errorf("a slower host-time probe alone must not fail compare")
	}
	b.Workloads["syn-hot"].PerLayer["simmem.core_load_vcycles.l1"] = outOf(declOf(perLayer, "simmem.core_load_vcycles.l1"), 4.01)
	out.Reset()
	if code := compareResults(a, b, &out); code != 1 || !strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("changed simulated cost: exit %d\n%s", code, out.String())
	}

	_, b = twoResults()
	b.Workloads["syn-hot"].EndToEnd["host_s"] = outOf(declOf(endToEnd, "host_s"), 7.0, 7.1, 7.2)
	out.Reset()
	if code := compareResults(a, b, &out); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("39%% slower host_s: exit %d\n%s", code, out.String())
	}

	_, b = twoResults()
	b.Workloads["syn-hot"].OpsFailed = 1
	if code := compareResults(a, b, &out); code != 1 {
		t.Errorf("a larger failure share must fail compare, exit %d", code)
	}
}

func TestCompareMainUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := compareMain([]string{"only-one.json"}, &out, &errOut); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if code := compareMain([]string{"/nonexistent/a.json", "/nonexistent/b.json"}, &out, &errOut); code != 2 {
		t.Errorf("missing files: exit %d, want 2", code)
	}
}
