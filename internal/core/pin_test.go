package core

import (
	"math/rand"
	"reflect"
	"testing"

	"hcsgc/internal/heap"
	"hcsgc/internal/objmodel"
	"hcsgc/internal/simmem"
)

// cyclePin is what TestCollectorWorkPin fixes of one cycle's record.
type cyclePin struct {
	MarkedBytes              uint64
	ECSmall, ECMedium        int
	RelocObjects, RelocBytes uint64
	Pause1, Pause2, Pause3   uint64
	ColdFrac                 float64
	SegregationPurity        float64
}

// workPin is what TestCollectorWorkPin fixes of one run.
type workPin struct {
	Cycles                   []cyclePin
	GCWorkerCycles           uint64
	MutatorReloc, GCReloc    uint64
	Scanned                  uint64
	MutatorCycles, MutatorLd uint64
}

// collectorWorkRun runs a seeded object graph through four cycles on one
// GC worker and one mutator. Cycles start only through RequestGC, and the
// test waits out a non-lazy drain before the mutator runs again, so the
// mutator never races a GC thread and the one worker neither steals nor is
// stolen from: every number it returns is a function of the code alone.
func collectorWorkRun(t *testing.T, knobs Knobs) workPin {
	t.Helper()
	mem := simmem.MustNewHierarchy(simmem.DefaultConfig())
	h := heap.New(heap.Config{MaxBytes: 256 << 20}, mem)
	types := objmodel.NewRegistry()
	c, err := New(h, types, Config{Knobs: knobs, GCWorkers: 1, TriggerPercent: 101})
	if err != nil {
		t.Fatal(err)
	}
	node := types.Register("pin.node", 3, []int{0})
	m := c.NewMutator(2)
	defer m.Close()
	rng := rand.New(rand.NewSource(42))

	const n = 60000
	m.SetRoot(0, m.AllocRefArray(n))
	m.SetRoot(1, m.AllocRefArray(2))
	for i := 0; i < n; i++ {
		m.StoreRef(m.LoadRoot(0), i, m.Alloc(node))
	}
	link := func(i int) {
		arr := m.LoadRoot(0)
		m.StoreRef(m.LoadRef(arr, i), 0, m.LoadRef(arr, rng.Intn(n)))
	}
	for i := 0; i < n; i++ {
		link(i)
	}
	for round := 0; round < 4; round++ {
		// Replace a quarter of the array (garbage unless linked), relink
		// the new nodes and touch a third of the graph two hops deep. Of
		// the medium arrays allocated, the last two stay live.
		for k := 0; k < 6; k++ {
			m.StoreRef(m.LoadRoot(1), k%2, m.AllocWordArray(40000))
		}
		for k := 0; k < n/4; k++ {
			i := rng.Intn(n)
			m.StoreRef(m.LoadRoot(0), i, m.Alloc(node))
			link(i)
		}
		for k := 0; k < n/3; k++ {
			obj := m.LoadRef(m.LoadRoot(0), rng.Intn(n))
			m.LoadField(m.LoadRef(obj, 0), 1)
		}
		m.RequestGC()
		c.relocWG.Wait()
	}

	var pin workPin
	for _, cs := range c.Stats().Cycles {
		pin.Cycles = append(pin.Cycles, cyclePin{
			MarkedBytes: cs.MarkedBytes, ECSmall: cs.ECSmall, ECMedium: cs.ECMedium,
			RelocObjects: cs.RelocObjects, RelocBytes: cs.RelocBytes,
			Pause1: cs.Pause1, Pause2: cs.Pause2, Pause3: cs.Pause3,
			ColdFrac: cs.ColdFrac, SegregationPurity: cs.SegregationPurity,
		})
	}
	m.Publish()
	st := c.Stats()
	pin.GCWorkerCycles = c.GCWorkerCycles()
	pin.MutatorReloc, pin.GCReloc = st.MutatorRelocObjects, st.GCRelocObjects
	pin.Scanned = c.workers[0].scanned
	pin.MutatorCycles, pin.MutatorLd = m.Cycles(), m.Core().Stats().Loads
	return pin
}

// TestCollectorWorkPin fixes what the collector does, not just what it
// leaves behind: per cycle the marked bytes, the evacuation set, the
// relocation volume, the three pause costs and the mark-end measurements;
// per run the GC worker's ledger and scan count, who won the relocations,
// and the mutator's ledger and load count. A change to how GC work is
// scheduled (not what it does) must leave every value as it is.
func TestCollectorWorkPin(t *testing.T) {
	cases := []struct {
		knobs Knobs
		want  workPin
	}{
		{Knobs{}, workPin{[]cyclePin{
			{3315696, 1, 1, 1, 480008, 100, 0, 180660, -1, 1},
			{3549616, 2, 1, 8769, 1400536, 100, 0, 180660, -1, 1},
			{3751056, 2, 1, 20584, 1778616, 100, 0, 180660, -1, 1},
			{3933104, 3, 1, 30455, 2094480, 100, 0, 180904, -1, 1},
		}, 41403496, 0, 147719, 314681, 27255494, 480000}},
		{Knobs{Hotness: true, ColdPage: true, LazyRelocate: true}, workPin{[]cyclePin{
			{3315696, 1, 1, 1, 480008, 106, 0, 180660, 0, 1},
			{3549616, 2, 1, 8769, 1400536, 106, 0, 180660, 0.4220099506419185, 0.6422279954823691},
			{3751056, 3, 1, 20584, 1778616, 426, 0, 180660, 0.4605219548831029, 0.7200581368831698},
			{3933104, 4, 1, 30455, 2094480, 266, 0, 181224, 0.4890184424189856, 0.7767372417421474},
		}, 42330490, 23449, 36360, 314681, 22891254, 526898}},
		{Knobs{RelocateAllSmallPages: true, LazyRelocate: true}, workPin{[]cyclePin{
			{3315696, 2, 1, 2, 480032, 100, 0, 180904, -1, 1},
			{3549616, 3, 1, 68618, 3315696, 224, 0, 180904, -1, 1},
			{3751056, 3, 1, 75928, 3549616, 224, 0, 181064, -1, 1},
			{3933104, 3, 1, 82223, 3751056, 224, 0, 181064, -1, 1},
		}, 53211004, 93558, 133213, 314681, 27357806, 680794}},
	}
	for _, tc := range cases {
		t.Run(tc.knobs.String(), func(t *testing.T) {
			if got := collectorWorkRun(t, tc.knobs); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("collector work moved:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
