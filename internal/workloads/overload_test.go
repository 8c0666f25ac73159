package workloads

import (
	"runtime"
	"testing"
	"time"

	"hcsgc"
	"hcsgc/internal/kvstore"
)

// TestProtectionConstants: the goodput bound sits inside the deadline (a
// request that meets its SLO never expires), and a request may absorb at
// least one allocation stall before failing fast.
func TestProtectionConstants(t *testing.T) {
	if kvstore.SLOCycles >= DeadlineCycles || MaxStallsPerRequest < 1 {
		t.Fatal("protection constants out of order")
	}
}

// kvOverloadCfg is the protected tiny KV configuration the overload tests
// share: small scale, deadlines and the stale shed armed.
func kvOverloadCfg(seed int64) (RunConfig, *kvstore.Metrics) {
	kv := kvstore.NewMetrics()
	return RunConfig{Seed: seed, Scale: 0.02, Overload: true, KV: kv}, kv
}

// TestKVForcedDeadlineFailsFast: with every armed allocation budget forced
// to report expiry, allocating ops (SETs, fills) fail fast with zero heap
// work while allocation-free ops still serve. The serving window allocates
// nothing: expiry fires pre-flight, before the first heap touch. The
// control run proves the measurement has teeth.
func TestKVForcedDeadlineFailsFast(t *testing.T) {
	w, err := Get("kv")
	if err != nil {
		t.Fatal(err)
	}
	cfg, ost := kvOverloadCfg(42)
	cfg.FaultInjector = hcsgc.NewFaultInjector(hcsgc.FaultConfig{Seed: 42, ForceDeadline: 1})
	if _, err := w.Run(cfg); err != nil {
		t.Fatal(err)
	}
	rep := ost.Outcomes()
	if rep.DeadlineExceeded == 0 {
		t.Fatal("injector never forced a deadline expiry")
	}
	if rep.Successes == 0 {
		t.Fatal("allocation-free ops must still serve under forced expiry")
	}
	if rep.Failures == 0 {
		t.Fatal("allocating ops must fail under forced expiry")
	}
	if got := ost.ServeAllocBytes(); got != 0 {
		t.Fatalf("forced-expiry serving window allocated %d bytes, want 0", got)
	}

	// Control: the identical run without forced expiries must show the
	// serving window allocating (SETs, fills) — the counter is live.
	ctl, ostCtl := kvOverloadCfg(42)
	if _, err := w.Run(ctl); err != nil {
		t.Fatal(err)
	}
	if ostCtl.ServeAllocBytes() == 0 {
		t.Fatal("control run recorded zero serving allocations; the measurement is dead")
	}
}

// TestKVTinyHeapDegradesGracefully squeezes the protected KV workload into
// a heap a fraction of its default: the run must complete without a panic
// or abort, degrade via shedding / fast-fail instead, and leave no
// goroutines behind.
func TestKVTinyHeapDegradesGracefully(t *testing.T) {
	before := runtime.NumGoroutine()

	w, err := Get("kv")
	if err != nil {
		t.Fatal(err)
	}
	cfg, ost := kvOverloadCfg(7)
	cfg.HeapMaxBytes = 2 << 20 // ~1/9 of the workload's default heap
	cfg.LoadFactor = 4
	res, err := w.Run(cfg)
	if err != nil {
		t.Fatalf("tiny-heap run aborted instead of degrading: %v", err)
	}
	rep := ost.Outcomes()
	degraded := rep.Sheds + rep.DeadlineExceeded + rep.OOMFailures
	if degraded == 0 {
		t.Fatal("tiny heap produced no sheds, expiries, or OOM failures — not actually under pressure")
	}
	if rep.Successes == 0 {
		t.Fatal("degradation must keep serving some requests, not zero out")
	}
	if res.ExecSeconds <= 0 {
		t.Fatal("non-positive execution time")
	}

	// No goroutine leak: triggered cycles, workers, and server threads all wind
	// down (retry briefly; goroutine exits are asynchronous).
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestKVProtectedChecksumUnaffectedWhenCalm: at tiny scale with no load
// multiplier no request expires or goes stale, and the protected run must
// produce the identical checksum to the unprotected one — protection must
// be invisible until it is needed.
func TestKVProtectedChecksumUnaffectedWhenCalm(t *testing.T) {
	w, err := Get("kv")
	if err != nil {
		t.Fatal(err)
	}
	plain := mustRun(t, w, tinyCfg(hcsgc.Knobs{}, 42))
	cfg, ost := kvOverloadCfg(42)
	cfg.Scale = 0.01
	prot := mustRun(t, w, cfg)
	rep := ost.Outcomes()
	if rep.Sheds+rep.DeadlineExceeded != 0 {
		t.Skipf("calm run saw pressure (%d sheds, %d expiries); checksum comparison void",
			rep.Sheds, rep.DeadlineExceeded)
	}
	if plain.Check != prot.Check {
		t.Fatalf("calm protected run changed the checksum: %d vs %d", prot.Check, plain.Check)
	}
}
