package loadgen

import (
	"reflect"
	"testing"
)

// testConfig is the fixed configuration the golden tests pin. Changing
// the generator's stream consumption order is a breaking change to every
// recorded experiment seed — the goldens make that loud.
func testConfig() Config {
	return Config{Seed: 42, Keys: 1000, Requests: 3000}
}

// TestSameSeedIdenticalSchedule is the determinism contract: the schedule
// is a pure function of Config.
func TestSameSeedIdenticalSchedule(t *testing.T) {
	a := Generate(testConfig())
	b := Generate(testConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same Config produced different schedules")
	}
	c := testConfig()
	c.Seed = 43
	if reflect.DeepEqual(a.Requests, Generate(c).Requests) {
		t.Fatal("different seeds produced identical request streams")
	}
}

// TestScheduleValid checks the structural invariants at a few shapes.
func TestScheduleValid(t *testing.T) {
	for _, cfg := range []Config{
		testConfig(),
		{Seed: 7, Keys: 128, Requests: 500},
		{Seed: 1, Keys: 10_000, Requests: 9_001},
		{Seed: 9, Keys: 33, Requests: 100}, // a session every 8 requests, spans of 1
		{Seed: 3, Keys: 8, Requests: 11},   // too short for churn
	} {
		s := Generate(cfg)
		if err := s.Validate(); err != nil {
			t.Errorf("config %+v: %v", cfg, err)
		}
	}
}

// TestGoldenZipfHead pins the Zipfian head: the most popular slots and
// their exact frequencies under the fixed seed. Slot identity (not just
// frequency) matters — it proves the rank->slot permutation and the
// shifted-phase rotation are stable.
func TestGoldenZipfHead(t *testing.T) {
	s := Generate(testConfig())
	counts := map[uint64]int{}
	for _, r := range s.Requests {
		counts[r.Key%uint64(s.Config.Keys)]++
	}
	// Head rank 0 maps to slot 0 in steady/burst and — rotated by
	// shiftFraction*Keys = 500 — to slot 500 in the shifted phase.
	want := map[uint64]int{
		0:   231, // rank 0, steady+burst
		500: 108, // rank 0, shifted phase (rotated head)
		761: 107, // rank 1 (mult = 2654435761 mod 1000), steady+burst
	}
	for slot, n := range want {
		if counts[slot] != n {
			t.Errorf("slot %d frequency = %d, golden %d", slot, counts[slot], n)
		}
	}
}

// TestGoldenArrivalsAndPhases pins the Poisson arrival stream's first
// samples, the phase boundaries (seq and virtual-time), and the total
// span. The burst phase must compress arrivals by ~burstFactor.
func TestGoldenArrivalsAndPhases(t *testing.T) {
	s := Generate(testConfig())
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{785, 1309, 2205} {
		if got := s.Requests[i].At; got != want {
			t.Errorf("arrival %d = %d, golden %d", i, got, want)
		}
	}
	wantPhases := []PhaseInfo{
		{Name: "steady", FirstSeq: 0, EndSeq: 1000, StartAt: 785, EndAt: 596610},
		{Name: "burst", FirstSeq: 1000, EndSeq: 2000, StartAt: 596647, EndAt: 749150},
		{Name: "shifted", FirstSeq: 2000, EndSeq: 3000, StartAt: 749569, EndAt: 1320650},
	}
	if !reflect.DeepEqual(s.Phases, wantPhases) {
		t.Errorf("phases = %+v, golden %+v", s.Phases, wantPhases)
	}
	if got := s.Span(); got != 1320650 {
		t.Errorf("span = %d, golden 1320650", got)
	}
	// Open-loop rate check: the burst phase packs the same request count
	// into a much shorter stretch of virtual time than steady.
	steady := wantPhases[0].EndAt - wantPhases[0].StartAt
	burst := wantPhases[1].EndAt - wantPhases[1].StartAt
	if float64(steady)/float64(burst) < 2 {
		t.Errorf("burst phase not compressed: steady span %d, burst span %d", steady, burst)
	}
}

// TestSessionChurn checks that churn retires ranges: teardown deletes are
// marked, and a retired slot's later traffic uses a bumped generation.
func TestSessionChurn(t *testing.T) {
	cfg := testConfig()
	s := Generate(cfg)
	keys := uint64(s.Config.Keys)
	retires := 0
	maxGen := uint64(0)
	for _, r := range s.Requests {
		if r.SessionRetire {
			retires++
			if r.Op != OpDelete {
				t.Fatalf("session retire with op %v", r.Op)
			}
		}
		if g := r.Key / keys; g > maxGen {
			maxGen = g
		}
	}
	if retires == 0 {
		t.Fatal("no session teardown deletes generated")
	}
	if maxGen == 0 {
		t.Fatal("no slot ever advanced a generation")
	}

	// A schedule shorter than sessionsPerRun requests has no churn.
	noChurn := cfg
	noChurn.Requests = sessionsPerRun - 1
	for _, r := range Generate(noChurn).Requests {
		if r.SessionRetire || r.Key >= keys {
			t.Fatal("a schedule too short for a session must not churn")
		}
	}
}

// TestOpMixAndSizes sanity-checks the op mix fractions and value sizing.
func TestOpMixAndSizes(t *testing.T) {
	s := Generate(testConfig())
	var ops [NumOps]int
	for _, r := range s.Requests {
		ops[r.Op]++
		if r.Op == OpGet || r.Op == OpSet {
			if r.ValueWords < ValueWordsMin || r.ValueWords > ValueWordsMax {
				t.Fatalf("req %d value words %d outside [%d,%d]",
					r.Seq, r.ValueWords, ValueWordsMin, ValueWordsMax)
			}
		}
	}
	// Golden op counts for the fixed seed (deletes include session
	// teardown bursts, hence well above the 2% mix fraction).
	want := [NumOps]int{1845, 671, 400, 84}
	if ops != want {
		t.Errorf("op counts = %v, golden %v", ops, want)
	}
}
