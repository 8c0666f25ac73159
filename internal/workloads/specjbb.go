package workloads

import (
	"math/rand"
	"slices"

	"hcsgc/internal/arena"
	"hcsgc/internal/machine"
)

// SPECjbb models SPECjbb2015 composite mode (§4.7, Fig. 13): a backend
// processing transactions while the injection rate ramps up each epoch.
// Reported scores mirror max-jOPS (throughput: the highest injection rate
// the backend sustains) and critical-jOPS (latency: the highest rate whose
// p99 transaction latency stays within the SLA). Nearly all transaction
// objects die within the transaction (the paper measures ~1% survival),
// which is why HCSGC shows no significant effect here.
const (
	sjProducts      = 30_000
	sjEpochs        = 12
	sjBaseTxns      = 4_000 // transactions in the first epoch
	sjDefaultScale  = 0.35
	sjLatencySLAMul = 4 // p99 SLA = multiplier on the unloaded median
)

// sjLatencies recycles the per-epoch latency buffer, keyed by its length.
var sjLatencies arena.Slabs[float64]

// Product fields (long-lived catalog).
const (
	spPrice  = 0
	spStock  = 1
	spFields = 2
)

// SPECjbb is the Fig. 13 benchmark.
func SPECjbb() Workload {
	return Workload{
		Name: "SPECjbb2015-like (Fig. 13)",
		Run: guard(func(cfg RunConfig) Result {
			scale := cfg.scale(sjDefaultScale)
			products := int(float64(sjProducts) * scale)
			baseTxns := int(float64(sjBaseTxns) * scale)
			if products < 500 {
				products = 500
			}
			if baseTxns < 200 {
				baseTxns = 200
			}
			if cfg.Machine.Cores == 0 {
				cfg.Machine = machine.Server()
			}

			// Sized so the ramping allocation rate drives GC cycles whose
			// post-cycle occupancy grows with the rate (Fig. 13 rightmost).
			e := newEnv(cfg, 32<<20, 2)
			defer e.cleanup()
			product := e.rt.Types.Register("sj.product", spFields, nil)
			order := e.rt.Types.Register("sj.order", 4, []int{0})
			m := e.m

			// Long-lived product catalog.
			parr := m.AllocRefArray(products)
			m.SetRoot(0, parr)
			for i := 0; i < products; i++ {
				p := m.Alloc(product)
				m.StoreField(p, spPrice, uint64(10+i%90))
				m.StoreRef(m.LoadRoot(0), i, p)
			}

			// One transaction: build a short-lived order of a few line
			// items, read the catalog, compute, drop everything.
			rng := rand.New(rand.NewSource(cfg.Seed))
			var check uint64
			// Root slot 1 pins the line-item array across the allocations
			// inside a transaction (refs must not be held across the
			// safepoints hidden in Alloc).
			txn := func() uint64 {
				start := m.Cycles()
				items := 3 + rng.Intn(4)
				lines := m.AllocRefArray(items)
				m.SetRoot(1, lines)
				total := uint64(0)
				for it := 0; it < items; it++ {
					line := m.Alloc(order) // line item, short-lived
					pi := rng.Intn(products)
					p := m.LoadRef(m.LoadRoot(0), pi)
					total += m.LoadField(p, spPrice)
					m.StoreField(line, 1, total)
					m.StoreRef(m.LoadRoot(1), it, line)
				}
				o := m.Alloc(order)
				m.StoreRef(o, 0, m.LoadRoot(1))
				m.AllocWordArray(127) // marshalling buffer
				m.SetRoot(1, 0)       // drop the pin; the txn graph dies here
				m.Work(200)           // backend compute
				check += total
				return m.Cycles() - start
			}

			// Unloaded latency baseline for the SLA. lat holds one
			// epoch's latencies, sized once for the largest epoch and
			// recycled across runs of one scale; the quantiles sort it in
			// place, and each epoch starts it over.
			latBuf := sjLatencies.Get(max(200, baseTxns*sjEpochs/2))
			defer sjLatencies.Put(latBuf, len(latBuf))
			lat := latBuf[:0]
			for i := 0; i < 200; i++ {
				lat = append(lat, float64(txn()))
			}
			sla := quantile(lat, 0.5) * sjLatencySLAMul

			e.markMeasured()
			cps := cfg.Machine.CyclesPerSecond
			if cps == 0 {
				cps = 3.0e9
			}
			maxJOPS, critJOPS := 0.0, 0.0
			// The injection rate ramps linearly: each epoch processes more
			// transactions, driving allocation rate (and heap usage after
			// GC) up, as the paper describes for Fig. 13.
			for epoch := 1; epoch <= sjEpochs; epoch++ {
				txns := baseTxns * epoch / 2
				if txns < 100 {
					txns = 100
				}
				lat = lat[:0]
				startCycles := m.Cycles()
				for i := 0; i < txns; i++ {
					lat = append(lat, float64(txn()))
					if i%256 == 0 {
						m.Safepoint()
					}
				}
				elapsed := float64(m.Cycles()-startCycles) / cps
				throughput := float64(txns) / elapsed // txns per simulated second
				if throughput > maxJOPS {
					maxJOPS = throughput
				}
				if quantile(lat, 0.99) <= sla {
					critJOPS = throughput
				}
				e.sampleHeap()
			}
			res := e.finish(check)
			res.Scores = map[string]float64{
				"max-jOPS":      maxJOPS,
				"critical-jOPS": critJOPS,
			}
			return res
		}),
	}
}

// quantile returns the q-quantile of xs (the element at rank
// q*(len-1), rounded down), sorting xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[int(q*float64(len(xs)-1))]
}
