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

// TestRetryBackoffDeterministicAndBounded: the jittered backoff is a pure
// function of (seed, seq, attempt) with jitter in [0.5, 1.5) around
// base x attempt, and degenerate inputs cost nothing.
func TestRetryBackoffDeterministicAndBounded(t *testing.T) {
	if RetryBackoff(1, 10, 1, 0) != 0 {
		t.Fatal("zero base must mean zero backoff")
	}
	if RetryBackoff(1, 10, 0, 1000) != 0 || RetryBackoff(1, 10, -1, 1000) != 0 {
		t.Fatal("non-positive attempt must mean zero backoff")
	}

	const base = 4_000
	for seq := uint64(0); seq < 500; seq++ {
		for attempt := 1; attempt <= 3; attempt++ {
			got := RetryBackoff(42, seq, attempt, base)
			if got != RetryBackoff(42, seq, attempt, base) {
				t.Fatalf("backoff(42, %d, %d) not deterministic", seq, attempt)
			}
			lo := uint64(0.5 * float64(base) * float64(attempt))
			hi := uint64(1.5 * float64(base) * float64(attempt))
			if got < lo || got >= hi {
				t.Fatalf("backoff(42, %d, %d) = %d outside [%d, %d)", seq, attempt, got, lo, hi)
			}
		}
	}

	// Different seeds decorrelate clients; different seqs decorrelate
	// requests (no thundering herd of identical waits).
	same, distinct := 0, map[uint64]bool{}
	for seq := uint64(0); seq < 200; seq++ {
		a, b := RetryBackoff(1, seq, 1, base), RetryBackoff(2, seq, 1, base)
		if a == b {
			same++
		}
		distinct[a] = true
	}
	if same > 10 {
		t.Fatalf("seeds 1 and 2 agree on %d/200 backoffs", same)
	}
	if len(distinct) < 100 {
		t.Fatalf("only %d distinct backoffs across 200 seqs", len(distinct))
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
