package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// sharedAB runs the calibrated A/B once and shares the result across the
// overload tests: the run is the expensive part, and every test here wants
// the same comparison point (full scale, 2x the sustainable load). Three
// runs a side, not one: convoy formation is bursty and a single run is a
// coin flip (RunOverloadAB's own default is six): a one-run gate fails
// all three tests on an unlucky schedule.
var sharedAB = sync.OnceValues(func() (*OverloadAB, error) {
	return RunOverloadAB(3, 1, 1, 3, 2, nil, nil)
})

// TestRunOverloadAB is the acceptance gate for overload protection, run at
// the calibrated comparison point (full scale, 2x the sustainable load):
// (*OverloadAB).Validate enforces that the unprotected side melted, the
// protected side shed AND fast-failed with >= 99% of its violations
// attributed, and that protection bought a lower successful p999 at no
// goodput cost.
func TestRunOverloadAB(t *testing.T) {
	ab, err := sharedAB()
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Validate(); err != nil {
		t.Fatal(err)
	}
	if ab.LoadFactor != 2 || ab.Config != 3 {
		t.Fatalf("comparison point drifted: factor %g cfg %d", ab.LoadFactor, ab.Config)
	}
	// Protection must have failed requests, not just been configured.
	if p := ab.Protected.Overload; p.Failures == 0 {
		t.Fatalf("protection failed no request: %d failures", p.Failures)
	}

	var text bytes.Buffer
	ab.WriteText(&text)
	for _, want := range []string{
		"KV overload A/B", "goodput (within-SLO ok)", "sheds (stale at dequeue)",
		"deadline expiries", "success p999", "violation causes (protected side)",
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, text.String())
		}
	}
}

// TestOverloadJSONRoundTrip: the JSON the CI job uploads must decode back
// into an OverloadAB that still passes the acceptance gate.
func TestOverloadJSONRoundTrip(t *testing.T) {
	ab, err := sharedAB()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rt OverloadAB
	if err := json.Unmarshal(buf.Bytes(), &rt); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	if err := rt.Validate(); err != nil {
		t.Fatalf("round-tripped report invalid: %v", err)
	}
	if rt.Protected.Overload.Success != ab.Protected.Overload.Success {
		t.Fatal("success distribution changed in round trip")
	}
}

// TestValidateOverloadABRejectsCorruption: the gate must reject a result
// whose protected side stopped protecting.
func TestValidateOverloadABRejectsCorruption(t *testing.T) {
	ab, err := sharedAB()
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Validate(); err != nil {
		t.Fatal(err)
	}

	mutate := func(f func(*OverloadAB)) *OverloadAB {
		c := *ab
		f(&c)
		return &c
	}
	cases := []struct {
		name string
		ab   *OverloadAB
	}{
		{"oom aborts", mutate(func(c *OverloadAB) { c.Protected.OOMAborts = 1 })},
		// A request the protected side never accounted: its badput and its
		// failure cause move with the failure, so only the equal-requests
		// clause can catch it.
		{"lost request", mutate(func(c *OverloadAB) {
			c.Protected.Overload.Failures--
			c.Protected.Overload.Badput--
			c.Protected.Overload.DeadlineExceeded--
		})},
		{"no sheds", mutate(func(c *OverloadAB) { c.Protected.Overload.Sheds = 0 })},
		{"no deadline expiries", mutate(func(c *OverloadAB) { c.Protected.Overload.DeadlineExceeded = 0 })},
		{"baseline sheds", mutate(func(c *OverloadAB) { c.Unprotected.Overload.Sheds = 1 })},
		{"p999 regressed", mutate(func(c *OverloadAB) {
			c.Protected.Overload.Success.P999 = c.Unprotected.Overload.Success.P999 + 1
		})},
		{"goodput regressed", mutate(func(c *OverloadAB) {
			c.Protected.Overload.Goodput = c.Unprotected.Overload.Goodput - 1
		})},
	}
	for _, tc := range cases {
		if tc.ab.Validate() == nil {
			t.Errorf("gate accepted corrupted result: %s", tc.name)
		}
	}
}
