package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// bufOf returns a mark buffer holding entries, oldest first.
func bufOf(entries ...uint64) *markBuf {
	b := new(markBuf)
	for _, e := range entries {
		b.push(e)
	}
	return b
}

// held returns what b holds, oldest first (nil b: nothing).
func held(b *markBuf) []uint64 {
	if b == nil {
		return nil
	}
	return slices.Clone(b.w[:b.n])
}

// count returns the length of the list b heads.
func count(b *markBuf) int {
	n := 0
	for ; b != nil; b = b.next {
		n++
	}
	return n
}

// stacked returns every entry on p's stack, the order get would hand them
// out reversed: the freshest last. The caller holds p.mu.
func stacked(p *markPool) []uint64 {
	var out []uint64
	for b := p.top; b != nil; b = b.next {
		out = append(held(b), out...)
	}
	return out
}

// TestMarkPoolPacksPartialFlushes: partial flushes share buffers. N puts of
// k entries with no consumer leave at most ⌈N·k/markChunk⌉+1 buffers on the
// stack — one a flush, as when every put travelled, would be N — and get
// then returns every entry exactly once, the freshest first.
func TestMarkPoolPacksPartialFlushes(t *testing.T) {
	const puts = 1000
	for _, k := range []int{1, 7, 30, 100, 200, markChunk - 1} {
		p := newMarkPool()
		p.setActive(1)
		var b *markBuf
		next := uint64(1)
		for range puts {
			for range k {
				b = p.push(b, next)
				next++
			}
			b = p.put(b)
		}
		p.recycle(b)
		p.mu.Lock()
		bufs := count(p.top)
		p.mu.Unlock()
		if limit := (puts*k+markChunk-1)/markChunk + 1; bufs > limit {
			t.Errorf("k=%d: %d puts left %d buffers on the stack, want at most %d", k, puts, bufs, limit)
		}
		p.terminate()
		want := next - 1
		for got := p.get(); got != nil; got = p.get() {
			for got.n > 0 {
				if e := got.pop(); e != want {
					t.Fatalf("k=%d: got entry %d, want %d (every entry once, freshest first)", k, e, want)
				}
				want--
			}
			p.recycle(got)
		}
		if want != 0 {
			t.Fatalf("k=%d: entries 1..%d never came back", k, want)
		}
	}
}

// TestMarkPoolConservesEntries: mutator-like putters (pushes that hand over
// full buffers, flushes of partial ones at random points) and worker-like
// getters run at once; the entries got are exactly the entries put. Run it
// under -race: a packed copy racing a get shows there.
func TestMarkPoolConservesEntries(t *testing.T) {
	const putters, getters, perPutter = 3, 2, 20000
	p := newMarkPool()
	p.setActive(getters)
	var put sync.WaitGroup
	for i := range putters {
		put.Add(1)
		go func() {
			defer put.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			var b *markBuf
			for e := range perPutter {
				b = p.push(b, uint64(i*perPutter+e+1))
				if rng.Intn(40) == 0 {
					b = p.put(b)
				}
			}
			p.recycle(p.put(b))
		}()
	}
	got := make([][]uint64, getters)
	var get sync.WaitGroup
	for i := range getters {
		get.Add(1)
		go func() {
			defer get.Done()
			for b := p.get(); b != nil; b = p.get() {
				for b.n > 0 {
					got[i] = append(got[i], b.pop())
				}
				p.recycle(b)
			}
		}()
	}
	put.Wait()
	p.waitQuiescent()
	p.terminate()
	get.Wait()
	all := slices.Concat(got...)
	slices.Sort(all)
	if len(all) != putters*perPutter {
		t.Fatalf("got %d entries, put %d", len(all), putters*perPutter)
	}
	for i, e := range all {
		if e != uint64(i+1) {
			t.Fatalf("entry %d is %d: the entries got are not the entries put", i, e)
		}
	}
}
