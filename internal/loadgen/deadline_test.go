package loadgen

import (
	"reflect"
	"testing"
)

// TestDeadlinesAreDerivedNotDrawn pins the overload plane's schedule
// contract: arming DeadlineCycles gives every request the deadline At +
// DeadlineCycles but consumes no RNG draws and changes no request, so the
// arrivals, keys, ops, and value sizes are bit-identical to the
// deadline-free schedule. The protected and unprotected sides of the
// overload A/B depend on this to serve the same offered load.
func TestDeadlinesAreDerivedNotDrawn(t *testing.T) {
	base := Config{Seed: 11, Keys: 512, Requests: 2_000}
	plain := Generate(base)
	armed := base
	armed.DeadlineCycles = 250_000
	withDl := Generate(armed)

	if err := plain.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := withDl.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Requests, withDl.Requests) {
		t.Fatal("arming deadlines changed the request stream")
	}
	for i := range withDl.Requests {
		r := &withDl.Requests[i]
		if d := plain.Config.Deadline(r); d != 0 {
			t.Fatalf("request %d: deadline %d on an unarmed schedule", i, d)
		}
		if d := withDl.Config.Deadline(r); d != r.At+250_000 {
			t.Fatalf("request %d: deadline %d, want At %d + 250000", i, d, r.At)
		}
	}
}

// TestValidateCatchesSeqDrift: a request that does not carry its index
// fails schedule validation.
func TestValidateCatchesSeqDrift(t *testing.T) {
	s := Generate(Config{Seed: 5, Keys: 256, Requests: 500, DeadlineCycles: 100_000})
	s.Requests[17].Seq++
	if s.Validate() == nil {
		t.Fatal("Validate accepted a request out of sequence")
	}
}
