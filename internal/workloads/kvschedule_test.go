package workloads

import (
	"sync"
	"testing"

	"hcsgc"
)

// TestKVScheduleShared: two runs of one Config read one schedule, and a
// protected run of it shares the requests but reports its own deadline
// without arming the other runs'.
func TestKVScheduleShared(t *testing.T) {
	cfg := tinyCfg(hcsgc.Knobs{}, 71)
	a := kvSchedule(cfg, cfg.Scale, kvThreads)
	built := KVSchedulesBuilt()
	b := kvSchedule(cfg, cfg.Scale, kvThreads)
	cfg.Overload = true
	p := kvSchedule(cfg, cfg.Scale, kvThreads)
	if n := KVSchedulesBuilt() - built; n != 0 {
		t.Fatalf("repeats of one Config built %d more schedules, want 0", n)
	}
	if &a.Requests[0] != &b.Requests[0] || &a.Requests[0] != &p.Requests[0] {
		t.Fatal("runs of one Config do not share the Requests backing array")
	}
	if a.Config.DeadlineCycles != 0 || b.Config.DeadlineCycles != 0 || p.Config.DeadlineCycles != DeadlineCycles {
		t.Fatalf("deadlines %d, %d, protected %d; want 0, 0, %d",
			a.Config.DeadlineCycles, b.Config.DeadlineCycles, p.Config.DeadlineCycles, uint64(DeadlineCycles))
	}
	cfg.Seed++
	if c := kvSchedule(cfg, cfg.Scale, kvThreads); &c.Requests[0] == &a.Requests[0] {
		t.Fatal("another seed reused the cached schedule")
	}
}

// TestKVConcurrentRunsShareSchedule: two runs of one Config at once read
// the one cached schedule side by side (the race detector checks that
// nothing writes it) and compute the same checksum.
func TestKVConcurrentRunsShareSchedule(t *testing.T) {
	w := mustGet(t, "kv")
	var wg sync.WaitGroup
	res := make([]Result, 2)
	errs := make([]error, 2)
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = w.Run(tinyCfg(hcsgc.Knobs{}, 73))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if res[0].Check != res[1].Check || res[0].Ops != res[1].Ops {
		t.Fatalf("concurrent runs: checksums %d, %d over %d, %d requests",
			res[0].Check, res[1].Check, res[0].Ops, res[1].Ops)
	}
}
