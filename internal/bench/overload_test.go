package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"hcsgc/internal/kvstore"
	"hcsgc/internal/workloads"
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

// TestValidateOverloadABRejectsCorruption: each clause of the gate rejects
// the result it exists for, a protected side that stopped protecting or two
// ledgers that stopped agreeing. Each case is named by a phrase of the
// rejecting clause's message.
func TestValidateOverloadABRejectsCorruption(t *testing.T) {
	ab, err := sharedAB()
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Validate(); err != nil {
		t.Fatal(err)
	}

	// withViolations sets a side's violation count, keeping the by-cause
	// counts summing to it (on a copy: the shared result stays intact).
	withViolations := func(tr *kvstore.TailReport, v uint64) {
		tr.ByCause = append([]kvstore.CauseReport(nil), tr.ByCause...)
		tr.ByCause[0].Count += v - tr.Violations
		tr.Violations = v
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*OverloadAB)
	}{
		// A request the protected side never accounted: its badput and its
		// failure cause move with the failure, so only the equal-requests
		// clause can catch it.
		{"protected side ended", func(c *OverloadAB) {
			c.Protected.Overload.Failures--
			c.Protected.Overload.Badput--
			c.Protected.Overload.DeadlineExceeded--
		}},
		// A success the serving report lost: the outcome accounting
		// disagrees.
		{"serving report counted", func(c *OverloadAB) {
			c.Protected.Report.Phases = append([]kvstore.PhaseReport(nil), c.Protected.Report.Phases...)
			c.Protected.Report.Phases[0].Dist.Count--
		}},
		// A success only the outcome accounting saw, kept self-consistent
		// (badput and the success histogram move with it): only the
		// cross-ledger clause sees it.
		{"outcome accounting", func(c *OverloadAB) {
			c.Protected.Overload.Successes++
			c.Protected.Overload.Badput++
			c.Protected.Overload.Success.Count++
		}},
		{"largest phase max", func(c *OverloadAB) { c.Unprotected.Overload.Success.Max++ }},
		{"badput", func(c *OverloadAB) { c.Protected.Overload.Badput++ }},
		// One shed more on each side's books, each side still partitioned
		// and both ending the same number of requests.
		{"protection leaked", func(c *OverloadAB) {
			u, p := &c.Unprotected.Overload, &c.Protected.Overload
			u.Sheds, u.Failures, u.Badput = u.Sheds+1, u.Failures+1, u.Badput+1
			p.Sheds, p.Failures, p.Badput = p.Sheds+1, p.Failures+1, p.Badput+1
		}},
		{"not an overload", func(c *OverloadAB) { withViolations(&c.Unprotected.Tail, 0) }},
		// The failure causes move between themselves: still a partition.
		{"shed nothing", func(c *OverloadAB) {
			p := &c.Protected.Overload
			p.DeadlineExceeded, p.Sheds = p.DeadlineExceeded+p.Sheds, 0
		}},
		{"no deadline expiries", func(c *OverloadAB) {
			p := &c.Protected.Overload
			p.Sheds, p.DeadlineExceeded = p.Sheds+p.DeadlineExceeded, 0
		}},
		{"must reduce them", func(c *OverloadAB) {
			withViolations(&c.Protected.Tail, c.Unprotected.Tail.Violations)
		}},
		{"attributed only", func(c *OverloadAB) { c.Protected.Tail.AttributedFraction = 0.5 }},
		// The unprotected tail shrinks to the protected p999, its quantiles
		// still monotone.
		{"p999", func(c *OverloadAB) {
			p, u := c.Protected.Overload.Success.P999, &c.Unprotected.Overload.Success
			u.P50, u.P99, u.P999 = min(u.P50, p), min(u.P99, p), p
		}},
		// Goodput turns into badput: the split still partitions.
		{"goodput", func(c *OverloadAB) {
			p := &c.Protected.Overload
			lost := p.Goodput - (c.Unprotected.Overload.Goodput - 1)
			p.Goodput, p.Badput = p.Goodput-lost, p.Badput+lost
		}},
	} {
		c := *ab
		tc.corrupt(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("(*OverloadAB).Validate = %v, want an error saying %q", err, tc.name)
		}
	}
}

// TestRunSidesProtectedRuns: the shared runner behind -report overload
// does not cross-check a protected run's checksum (shedding changes which
// operations execute), and a run error — an aborted run — fails the whole
// comparison instead of dropping out of the side's aggregate.
func TestRunSidesProtectedRuns(t *testing.T) {
	abort := false
	w := workloads.Workload{Name: "fake", Run: func(rc workloads.RunConfig) (workloads.Result, error) {
		if !rc.Overload {
			return workloads.Result{Check: 1}, nil
		}
		if abort {
			return workloads.Result{}, errors.New("workload run abandoned")
		}
		return workloads.Result{Check: 2}, nil
	}}
	sides := configSides(3, 3)
	sides[1].rc.Overload = true
	if _, err := runSides("overload", w, sides, 2, 1, 1, nil, nil, nil); err != nil {
		t.Fatalf("a protected run's checksum was cross-checked: %v", err)
	}
	abort = true
	if _, err := runSides("overload", w, sides, 2, 1, 1, nil, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "abandoned") {
		t.Fatalf("an aborted protected run did not fail the comparison: %v", err)
	}
}
