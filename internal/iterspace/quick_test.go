package iterspace

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// Property: Next then Prev (and Prev then Next) return to the same point,
// anywhere in a tiled space.
func TestQuickNextPrevInverse(t *testing.T) {
	box := NewBox([]int64{1, 1, 1}, []int64{9, 7, 5})
	spaces := []Space{
		box,
		NewTiled(box, []int64{4, 3, 2}),
		NewPermutedTiled(box, []int64{2, 7, 3}, []int{2, 0, 1}),
		NewPermutedBox(box, []int{1, 2, 0}),
	}
	r := rand.New(rand.NewPCG(123, 321))
	for si, sp := range spaces {
		p := make([]int64, sp.NumCoords())
		q := make([]int64, sp.NumCoords())
		for iter := 0; iter < 500; iter++ {
			sp.Sample(r, p)
			copy(q, p)
			if sp.Next(q) {
				if !sp.Prev(q) || Compare(p, q) != 0 {
					t.Fatalf("space %d: Prev(Next(%v)) = %v", si, p, q)
				}
			}
			copy(q, p)
			if sp.Prev(q) {
				if !sp.Next(q) || Compare(p, q) != 0 {
					t.Fatalf("space %d: Next(Prev(%v)) = %v", si, p, q)
				}
			}
		}
	}
}

// Property: FromOriginal produces a contained point whose ToOriginal is
// the input, for arbitrary in-range original points.
func TestQuickLiftRoundTrip(t *testing.T) {
	box := NewBox([]int64{2, 0}, []int64{21, 16})
	spaces := []Space{
		NewTiled(box, []int64{5, 4}),
		NewPermutedTiled(box, []int64{3, 9}, []int{1, 0}),
		NewPermutedBox(box, []int{1, 0}),
	}
	for si, sp := range spaces {
		sp := sp
		f := func(a, b uint8) bool {
			orig := []int64{2 + int64(a)%20, int64(b) % 17}
			p := make([]int64, sp.NumCoords())
			back := make([]int64, 2)
			sp.FromOriginal(orig, p)
			if !sp.Contains(p) {
				return false
			}
			sp.ToOriginal(p, back)
			return back[0] == orig[0] && back[1] == orig[1]
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("space %d: %v", si, err)
		}
	}
}

// Property: the coordinate-to-dimension map, OrigDim, is consistent with
// ToOriginal on every space type.
func TestQuickOrigMapConsistent(t *testing.T) {
	box := NewBox([]int64{1, 1}, []int64{8, 6})
	spaces := []Space{
		box,
		NewTiled(box, []int64{3, 2}),
		NewPermutedTiled(box, []int64{3, 2}, []int{1, 0}),
		NewPermutedBox(box, []int{1, 0}),
	}
	r := rand.New(rand.NewPCG(55, 66))
	for si, sp := range spaces {
		mapped := 0
		for c := 0; c < sp.NumCoords(); c++ {
			if sp.OrigDim(c) >= 0 {
				mapped++
			}
		}
		if mapped != sp.OrigDims() {
			t.Fatalf("space %d: OrigDim maps %d coordinates, want %d", si, mapped, sp.OrigDims())
		}
		p := make([]int64, sp.NumCoords())
		orig := make([]int64, sp.OrigDims())
		for iter := 0; iter < 200; iter++ {
			sp.Sample(r, p)
			sp.ToOriginal(p, orig)
			for c := range p {
				if d := sp.OrigDim(c); d >= 0 && p[c] != orig[d] {
					t.Fatalf("space %d: coord %d claims dim %d but %d != %d",
						si, c, d, p[c], orig[d])
				}
			}
		}
	}
}

// Property: Span is the range Prev steps a coordinate through. For every
// coordinate c that carries an original dimension and every point whose
// later coordinates sit at the lo of their Spans: above lo, Prev
// decrements p[c] alone among the coordinates up to c and moves each later
// one to the hi of its Span; at lo it changes an earlier coordinate or
// reports the start of the space. Spans read only tile coordinates, so a
// point that shares p's tile coordinates has the same Spans. The tile
// sizes leave boundary tiles in every dimension.
func TestQuickSpan(t *testing.T) {
	box := NewBox([]int64{3, -2, 5}, []int64{9, 4, 11})
	spaces := []Space{
		box,
		NewTiled(box, []int64{4, 3, 3}), // last dimension: tiles 5-7, 8-10 and 11
		NewPermutedTiled(box, []int64{2, 5, 3}, []int{2, 0, 1}),
		NewPermutedTiled(box, []int64{7, 1, 2}, []int{1, 2, 0}),
		NewPermutedBox(box, []int{2, 0, 1}),
	}
	r := rand.New(rand.NewPCG(7, 77))
	for si, sp := range spaces {
		n := sp.NumCoords()
		p := make([]int64, n)
		q := make([]int64, n)
		check := func(c int) {
			lo, hi := sp.Span(p, c)
			copy(q, p)
			ok := sp.Prev(q)
			switch {
			case p[c] < lo || p[c] > hi:
				t.Fatalf("space %d: %v lies outside coordinate %d's span %d..%d", si, p, c, lo, hi)
			case p[c] > lo:
				if !ok || q[c] != p[c]-1 || Compare(q[:c], p[:c]) != 0 {
					t.Fatalf("space %d: above coordinate %d's floor %d, Prev(%v) = %v, %v", si, c, lo, p, q, ok)
				}
				for e := c + 1; e < n; e++ {
					if _, ehi := sp.Span(q, e); q[e] != ehi {
						t.Fatalf("space %d: Prev(%v) = %v leaves coordinate %d below its ceiling %d", si, p, q, e, ehi)
					}
				}
			case ok && Compare(q[:c], p[:c]) == 0:
				t.Fatalf("space %d: at coordinate %d's floor %d, Prev(%v) = %v moved no earlier coordinate", si, c, lo, p, q)
			}
		}
		for iter := 0; iter < 500; iter++ {
			for c := n - 1; c >= 0; c-- {
				if sp.OrigDim(c) < 0 {
					continue
				}
				sp.Sample(r, p)
				for e := c + 1; e < n; e++ {
					p[e], _ = sp.Span(p, e)
				}
				check(c)
				p[c], _ = sp.Span(p, c)
				if !sp.Contains(p) {
					t.Fatalf("space %d: floor point %v of coordinate %d is not in the space", si, p, c)
				}
				check(c)
				_, p[c] = sp.Span(p, c)
				if !sp.Contains(p) {
					t.Fatalf("space %d: ceiling point %v of coordinate %d is not in the space", si, p, c)
				}
			}
			// A point inside the same tiles has the same Spans.
			sp.Sample(r, p)
			copy(q, p)
			for c := range q {
				if sp.OrigDim(c) >= 0 {
					lo, hi := sp.Span(p, c)
					q[c] = lo + r.Int64N(hi-lo+1)
				}
			}
			for c := range q {
				if sp.OrigDim(c) < 0 {
					continue
				}
				plo, phi := sp.Span(p, c)
				if qlo, qhi := sp.Span(q, c); qlo != plo || qhi != phi {
					t.Fatalf("space %d: coordinate %d spans %d..%d at %v but %d..%d at %v", si, c, plo, phi, p, qlo, qhi, q)
				}
			}
		}
		sp.First(p)
		for c := 0; c < n; c++ {
			if sp.OrigDim(c) >= 0 {
				check(c)
			}
		}
	}
}

// Property: raising one pinned value never makes MinWithPinned return an
// earlier point, and the values a dimension can be pinned to start at its
// value in the all-Free minimum, whatever the other pins.
func TestQuickMinWithPinnedMonotone(t *testing.T) {
	box := NewBox([]int64{3, -2, 5}, []int64{9, 4, 11})
	spaces := []Space{
		box,
		NewTiled(box, []int64{4, 3, 3}),
		NewPermutedTiled(box, []int64{2, 5, 3}, []int{2, 0, 1}),
		NewPermutedBox(box, []int{2, 0, 1}),
	}
	r := rand.New(rand.NewPCG(28, 82))
	for si, sp := range spaces {
		k := sp.OrigDims()
		pinned := make([]int64, k)
		lo := make([]int64, k)
		p := make([]int64, sp.NumCoords())
		q := make([]int64, sp.NumCoords())
		for d := range pinned {
			pinned[d] = Free
		}
		if !sp.MinWithPinned(pinned, p) {
			t.Fatalf("space %d: no point with every dimension free", si)
		}
		sp.ToOriginal(p, lo)
		for iter := 0; iter < 2000; iter++ {
			for d := range pinned {
				pinned[d] = Free
				if r.Int64N(2) == 0 {
					pinned[d] = box.Lo[d] + r.Int64N(box.Extent(d))
				}
			}
			d := int(r.Int64N(int64(k)))
			v := box.Lo[d] - 2 + r.Int64N(box.Extent(d)+4)
			pinned[d] = v
			okLow := sp.MinWithPinned(pinned, p)
			if want := v >= lo[d] && v <= box.Hi[d]; okLow != want {
				t.Fatalf("space %d: pinning dimension %d to %d (pins %v) gave %v", si, d, v, pinned, okLow)
			}
			pinned[d] = v + 1 + r.Int64N(3)
			if okHigh := sp.MinWithPinned(pinned, q); okLow && okHigh && Compare(q, p) < 0 {
				t.Fatalf("space %d: raising dimension %d from %d to %d moved the minimum from %v back to %v",
					si, d, v, pinned[d], p, q)
			}
		}
	}
}
