package core

import (
	"fmt"
	"math/rand"
	"testing"

	"hcsgc/internal/heap"
)

// TestRandomizedAgainstShadowModel runs randomized object-graph programs
// against a Go-side shadow model, interleaving GC cycles under randomly
// drawn knob configurations. Any divergence between the heap and the
// model is a collector bug (lost update, bad remap, wrong copy).
func TestRandomizedAgainstShadowModel(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)))
			knobs := randomKnobs(rng)
			c, types := testEnv(t, knobs)
			node := types.Register("node", 3, []int{0, 1})
			m := c.NewMutator(8)
			defer m.Close()

			// The object population: a heap ref array in root 0 plus a
			// shadow model with OBJECT IDENTITY. Each heap object carries
			// a unique model id in its payload-adjacent slot? No — the id
			// IS tracked shadow-side: payloads[id] is the expected value
			// of field 2, and the heap object's field 2 always holds
			// payloads[id], mutated in lockstep. Refs in the model store
			// ids, so references to replaced (no longer slot-reachable)
			// objects remain checkable.
			const n = 300
			payloads := []uint64{}
			refA := []int{} // per object id: referenced object id or -1
			refB := []int{}
			newObj := func(v uint64) int {
				payloads = append(payloads, v)
				refA = append(refA, -1)
				refB = append(refB, -1)
				return len(payloads) - 1
			}
			slotID := make([]int, n) // population slot -> object id
			arr := m.AllocRefArray(n)
			m.SetRoot(0, arr)
			for i := 0; i < n; i++ {
				obj := m.Alloc(node)
				m.StoreField(obj, 2, uint64(i))
				m.StoreRef(m.LoadRoot(0), i, obj)
				slotID[i] = newObj(uint64(i))
			}

			get := func(i int) heap.Ref { return m.LoadRef(m.LoadRoot(0), i) }

			for op := 0; op < 4000; op++ {
				switch rng.Intn(10) {
				case 0, 1: // rewire ref field a (to another slot's object)
					i, j := rng.Intn(n), rng.Intn(n+1)-1
					obj := get(i)
					if j < 0 {
						m.StoreRef(obj, 0, heap.NullRef)
						refA[slotID[i]] = -1
					} else {
						m.StoreRef(obj, 0, get(j))
						refA[slotID[i]] = slotID[j]
					}
				case 2, 3: // rewire ref field b
					i, j := rng.Intn(n), rng.Intn(n+1)-1
					obj := get(i)
					if j < 0 {
						m.StoreRef(obj, 1, heap.NullRef)
						refB[slotID[i]] = -1
					} else {
						m.StoreRef(obj, 1, get(j))
						refB[slotID[i]] = slotID[j]
					}
				case 4, 5: // mutate payload of the slot's current object
					i, v := rng.Intn(n), rng.Uint64()>>1
					m.StoreField(get(i), 2, v)
					payloads[slotID[i]] = v
				case 6: // replace the slot's object (old one may die)
					i := rng.Intn(n)
					obj := m.Alloc(node)
					v := rng.Uint64() >> 1
					m.StoreField(obj, 2, v)
					m.StoreRef(m.LoadRoot(0), i, obj)
					slotID[i] = newObj(v)
				case 7: // garbage churn
					m.AllocWordArray(rng.Intn(200) + 1)
				case 8: // verify the slot's object fully
					i := rng.Intn(n)
					id := slotID[i]
					obj := get(i)
					if got := m.LoadField(obj, 2); got != payloads[id] {
						t.Fatalf("op %d: slot %d payload = %d, want %d", op, i, got, payloads[id])
					}
					checkRef := func(field, wantID int) {
						ref := m.LoadRef(obj, field)
						if wantID < 0 {
							if !ref.IsNull() {
								t.Fatalf("op %d: slot %d field %d should be null", op, i, field)
							}
							return
						}
						if got := m.LoadField(ref, 2); got != payloads[wantID] {
							t.Fatalf("op %d: slot %d field %d -> payload %d, want %d (id %d)",
								op, i, field, got, payloads[wantID], wantID)
						}
					}
					checkRef(0, refA[id])
					checkRef(1, refB[id])
				case 9: // GC, sometimes
					if rng.Intn(4) == 0 {
						m.RequestGC()
					} else {
						m.Safepoint()
					}
				}
			}
			// Final sweep: every slot matches the model.
			m.RequestGC()
			for i := 0; i < n; i++ {
				if got := m.LoadField(get(i), 2); got != payloads[slotID[i]] {
					t.Fatalf("final: slot %d payload = %d, want %d", i, got, payloads[slotID[i]])
				}
			}
		})
	}
}

// randomKnobs draws a valid knob configuration.
func randomKnobs(rng *rand.Rand) Knobs {
	k := Knobs{
		Hotness:               rng.Intn(2) == 1,
		RelocateAllSmallPages: rng.Intn(2) == 1,
		LazyRelocate:          rng.Intn(2) == 1,
	}
	if k.Hotness {
		k.ColdPage = rng.Intn(2) == 1
		k.ColdConfidence = []float64{0, 0.5, 1}[rng.Intn(3)]
	}
	return k
}

// TestShadowModelConcurrentMutators runs two mutators sharing one object
// population; each owns a disjoint index range so the shadow models stay
// race-free, while relocation races are shared.
func TestShadowModelConcurrentMutators(t *testing.T) {
	c, types := testEnv(t, Knobs{Hotness: true, ColdConfidence: 1.0, LazyRelocate: true})
	node := types.Register("node", 3, []int{0, 1})
	defer c.Stop()

	run := func(seed int64, errc chan<- error) {
		m := c.NewMutator(4)
		defer m.Close()
		rng := rand.New(rand.NewSource(seed))
		const n = 200
		payload := make([]uint64, n)
		arr := m.AllocRefArray(n)
		m.SetRoot(0, arr)
		for i := 0; i < n; i++ {
			obj := m.Alloc(node)
			m.StoreField(obj, 2, uint64(i))
			m.StoreRef(m.LoadRoot(0), i, obj)
			payload[i] = uint64(i)
		}
		for op := 0; op < 3000; op++ {
			i := rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				v := rng.Uint64() >> 1
				m.StoreField(m.LoadRef(m.LoadRoot(0), i), 2, v)
				payload[i] = v
			case 1:
				if got := m.LoadField(m.LoadRef(m.LoadRoot(0), i), 2); got != payload[i] {
					errc <- fmt.Errorf("op %d: payload %d != %d", op, got, payload[i])
					return
				}
			case 2:
				m.AllocWordArray(rng.Intn(500) + 1)
			case 3:
				m.Safepoint()
			}
		}
		errc <- nil
	}
	errc := make(chan error, 2)
	go run(1, errc)
	go run(2, errc)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
