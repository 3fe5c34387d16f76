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

// Property: InnerFloor is where Prev stops being a decrement of the last
// coordinate. Above the floor Prev changes p[last] alone, by -1; at the
// floor it changes another coordinate or reports the start of the space.
func TestQuickInnerFloor(t *testing.T) {
	box := NewBox([]int64{3, -2, 5}, []int64{9, 4, 11})
	spaces := []Space{
		box,
		NewTiled(box, []int64{4, 3, 3}), // last dimension: tiles 5-7, 8-10 and 11
		NewPermutedTiled(box, []int64{2, 5, 3}, []int{2, 0, 1}),
		NewPermutedBox(box, []int{2, 0, 1}),
	}
	r := rand.New(rand.NewPCG(7, 77))
	for si, sp := range spaces {
		last := sp.NumCoords() - 1
		p := make([]int64, last+1)
		q := make([]int64, last+1)
		check := func() {
			floor := sp.InnerFloor(p)
			copy(q, p)
			ok := sp.Prev(q)
			switch {
			case p[last] < floor:
				t.Fatalf("space %d: %v lies below its floor %d", si, p, floor)
			case p[last] > floor:
				if !ok || q[last] != p[last]-1 || Compare(q[:last], p[:last]) != 0 {
					t.Fatalf("space %d: above floor %d, Prev(%v) = %v, %v", si, floor, p, q, ok)
				}
			case ok && Compare(q[:last], p[:last]) == 0:
				t.Fatalf("space %d: at floor %d, Prev(%v) = %v moved only the last coordinate", si, floor, p, q)
			}
		}
		for iter := 0; iter < 500; iter++ {
			sp.Sample(r, p)
			check()
			p[last] = sp.InnerFloor(p)
			if !sp.Contains(p) {
				t.Fatalf("space %d: floor point %v is not in the space", si, p)
			}
			check()
		}
		sp.First(p)
		check()
	}
}
