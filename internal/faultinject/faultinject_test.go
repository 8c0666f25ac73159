package faultinject

import (
	"strings"
	"sync"
	"testing"
)

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	inj.At(RelocInsert, 42)
	inj.SetHook(RelocInsert, func(uint64) { t.Fatal("hook on nil injector") })
	if inj.FailCommit() {
		t.Fatal("nil injector failed a commit")
	}
	if inj.DriverSuppressed() {
		t.Fatal("nil injector suppressed the occupancy trigger")
	}
	if inj.Fired(RelocInsert) != 0 || inj.FiredTotal() != 0 {
		t.Fatal("nil injector reported fires")
	}
	if inj.FiredByPoint() != nil {
		t.Fatal("nil injector reported fire map")
	}
}

func TestDelayProbabilityEndpoints(t *testing.T) {
	always := New(Config{Seed: 7, Delay: func() (d [NumPoints]float64) { d[BarrierSlow] = 1; return }()})
	never := New(Config{Seed: 7})
	for i := 0; i < 100; i++ {
		always.At(BarrierSlow, uint64(i))
		never.At(BarrierSlow, uint64(i))
	}
	if got := always.Fired(BarrierSlow); got != 100 {
		t.Fatalf("p=1 fired %d/100", got)
	}
	if got := never.Fired(BarrierSlow); got != 0 {
		t.Fatalf("p=0 fired %d/100", got)
	}
	// Other points stay untouched.
	if always.Fired(RelocInsert) != 0 {
		t.Fatal("unvisited point fired")
	}
}

func TestDecisionSequenceIsSeedDeterministic(t *testing.T) {
	cfg := Config{Seed: 1234}
	cfg.Delay[UndoAllocPre] = 0.5
	cfg.FailCommit = 0.5
	run := func() (delays []bool, fails []bool) {
		inj := New(cfg)
		for i := 0; i < 200; i++ {
			before := inj.Fired(UndoAllocPre)
			inj.At(UndoAllocPre, uint64(i))
			delays = append(delays, inj.Fired(UndoAllocPre) > before)
			fails = append(fails, inj.FailCommit())
		}
		return
	}
	d1, f1 := run()
	d2, f2 := run()
	for i := range d1 {
		if d1[i] != d2[i] || f1[i] != f2[i] {
			t.Fatalf("decision %d diverged across identically seeded injectors", i)
		}
	}
	// And a different seed should give a different sequence.
	other := New(Config{Seed: 99, Delay: cfg.Delay, FailCommit: cfg.FailCommit})
	diff := false
	for i := 0; i < 200; i++ {
		before := other.Fired(UndoAllocPre)
		other.At(UndoAllocPre, uint64(i))
		if (other.Fired(UndoAllocPre) > before) != d1[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("seeds 1234 and 99 produced identical 200-decision sequences")
	}
}

func TestFailCommitRateIsRoughlyCalibrated(t *testing.T) {
	inj := New(Config{Seed: 5, FailCommit: 0.25})
	failed := 0
	for i := 0; i < 4000; i++ {
		if inj.FailCommit() {
			failed++
		}
	}
	if failed < 800 || failed > 1200 {
		t.Fatalf("FailCommit=0.25 fired %d/4000 times", failed)
	}
}

func TestHooksRunWithSiteArgument(t *testing.T) {
	inj := New(Config{})
	var got []uint64
	inj.SetHook(PageFree, func(arg uint64) { got = append(got, arg) })
	inj.At(PageFree, 10)
	inj.At(PageFree, 20)
	inj.SetHook(PageFree, nil)
	inj.At(PageFree, 30)
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("hook saw %v, want [10 20]", got)
	}
}

func TestDriverSuppression(t *testing.T) {
	inj := New(Config{SuppressDriver: true})
	if !inj.DriverSuppressed() || !inj.DriverSuppressed() {
		t.Fatal("suppression not reported")
	}
	if inj.Fired(DriverTrigger) != 2 {
		t.Fatalf("suppressed triggers = %d, want 2", inj.Fired(DriverTrigger))
	}
	if New(Config{}).DriverSuppressed() {
		t.Fatal("unsuppressed injector reported suppression")
	}
}

func TestRandomizedIsDeterministicAndBounded(t *testing.T) {
	a, b := Randomized(42), Randomized(42)
	if a != b {
		t.Fatalf("Randomized(42) not deterministic:\n%v\n%v", a, b)
	}
	sawSuppress := false
	for seed := int64(0); seed < 64; seed++ {
		cfg := Randomized(seed)
		for p := Point(0); p < NumPoints; p++ {
			if cfg.Delay[p] < 0 || cfg.Delay[p] > 0.3 {
				t.Fatalf("seed %d: Delay[%v]=%v out of [0,0.3]", seed, p, cfg.Delay[p])
			}
		}
		if cfg.FailCommit < 0 || cfg.FailCommit > 0.02 {
			t.Fatalf("seed %d: FailCommit=%v out of [0,0.02]", seed, cfg.FailCommit)
		}
		if cfg.MaxYields < 1 || cfg.MaxYields > 4 {
			t.Fatalf("seed %d: MaxYields=%d out of [1,4]", seed, cfg.MaxYields)
		}
		if cfg.SuppressDriver {
			sawSuppress = true
		}
	}
	if !sawSuppress {
		t.Fatal("no seed in [0,64) suppresses the occupancy trigger")
	}
}

func TestConfigString(t *testing.T) {
	cfg := Config{Seed: 3, FailCommit: 0.01, SuppressDriver: true}
	cfg.Delay[RelocInsert] = 0.25
	s := cfg.String()
	for _, want := range []string{"seed=3", "reloc-insert=0.25", "fail-commit=0.010", "suppress-driver"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Config.String() = %q, missing %q", s, want)
		}
	}
}

func TestConcurrentAtAndSetHook(t *testing.T) {
	cfg := Config{Seed: 11}
	cfg.Delay[SafepointEntry] = 0.5
	inj := New(cfg)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				inj.At(SafepointEntry, uint64(i))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			inj.SetHook(SafepointEntry, func(uint64) {})
			inj.SetHook(SafepointEntry, nil)
		}
	}()
	wg.Wait()
	if inj.Fired(SafepointEntry) == 0 {
		t.Fatal("p=0.5 never fired across 4000 visits")
	}
}

func TestPointString(t *testing.T) {
	if RelocInsert.String() != "reloc-insert" || Point(200).String() != "Point(200)" {
		t.Fatalf("Point.String broken: %q %q", RelocInsert, Point(200))
	}
}
