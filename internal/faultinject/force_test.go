package faultinject

import "testing"

// TestForcePointsEndpointsAndCounting: the deadline force point obeys the
// p=0 / p=1 endpoints, counts its fires at its own injection point, and
// leaves the others alone.
func TestForcePointsEndpointsAndCounting(t *testing.T) {
	always := New(Config{Seed: 7, ForceDeadline: 1})
	never := New(Config{Seed: 7})
	for i := 0; i < 100; i++ {
		if !always.ForceDeadline() {
			t.Fatal("p=1 force point declined")
		}
		if never.ForceDeadline() {
			t.Fatal("p=0 force point fired")
		}
	}
	if always.Fired(DeadlineExpire) != 100 {
		t.Fatalf("forced fires miscounted: deadline %d", always.Fired(DeadlineExpire))
	}
	if n := always.FiredTotal(); n != 100 {
		t.Fatalf("forced deadlines fired %d times across all points, want 100", n)
	}
	if n := never.FiredTotal(); n != 0 {
		t.Fatalf("p=0 injector recorded %d fires", n)
	}
}

// TestForcePointsSeedDeterministic: a fractional force probability yields
// the same decision sequence for the same seed, and a calibrated rate.
func TestForcePointsSeedDeterministic(t *testing.T) {
	run := func(seed int64) (out []bool) {
		inj := New(Config{Seed: seed, ForceDeadline: 0.3})
		for i := 0; i < 400; i++ {
			out = append(out, inj.ForceDeadline())
		}
		return
	}
	a, b := run(99), run(99)
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged across identically seeded injectors", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires < 70 || fires > 170 {
		t.Fatalf("ForceDeadline=0.3 fired %d/400", fires)
	}
	c := run(100)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("seeds 99 and 100 produced identical force sequences")
	}
}

// TestNilInjectorForcePoints: the nil injector never forces anything.
func TestNilInjectorForcePoints(t *testing.T) {
	var inj *Injector
	if inj.ForceDeadline() {
		t.Fatal("nil injector forced a deadline expiry")
	}
}

// TestRandomizedCoversOverloadPoints: chaos configs keep the forced
// deadline rate small and bounded (an expiry is a request failure; a chaos
// soak must degrade, not zero out, the workload), and some seeds arm it.
func TestRandomizedCoversOverloadPoints(t *testing.T) {
	sawDeadline := false
	for seed := int64(0); seed < 64; seed++ {
		cfg := Randomized(seed)
		if cfg.ForceDeadline < 0 || cfg.ForceDeadline > 0.05 {
			t.Fatalf("seed %d: ForceDeadline=%v out of [0,0.05]", seed, cfg.ForceDeadline)
		}
		sawDeadline = sawDeadline || cfg.ForceDeadline > 0
	}
	if !sawDeadline {
		t.Fatal("no seed in [0,64) arms the deadline force point")
	}
}
