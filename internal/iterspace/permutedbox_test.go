package iterspace

import (
	"math/rand/v2"
	"testing"
)

// TestPermutedBoxInterchange: order (1,0) on a 2x3 box visits columns
// first.
func TestPermutedBoxInterchange(t *testing.T) {
	b := NewPermutedBox(NewBox([]int64{1, 1}, []int64{2, 3}), []int{1, 0})
	pts := enumerate(b)
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	// Coordinates are (j, i); first point (1,1), second (1,2): i varies
	// innermost now.
	if pts[0][0] != 1 || pts[0][1] != 1 || pts[1][0] != 1 || pts[1][1] != 2 {
		t.Fatalf("first points: %v %v", pts[0], pts[1])
	}
	orig := make([]int64, 2)
	b.ToOriginal(pts[1], orig)
	if orig[0] != 2 || orig[1] != 1 {
		t.Fatalf("second point original = %v, want (2,1)", orig)
	}
}

func TestPermutedBoxRoundTripAndOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(91, 93))
	for iter := 0; iter < 60; iter++ {
		k := 1 + int(r.Int64N(3))
		lo := make([]int64, k)
		hi := make([]int64, k)
		for d := 0; d < k; d++ {
			lo[d] = r.Int64N(3)
			hi[d] = lo[d] + r.Int64N(5)
		}
		b := NewPermutedBox(NewBox(lo, hi), r.Perm(k))
		seq := enumerate(b)
		if uint64(len(seq)) != b.Count() {
			t.Fatalf("iter %d: count mismatch", iter)
		}
		// Prev inverts Next.
		p := append([]int64(nil), seq[len(seq)-1]...)
		for i := len(seq) - 2; i >= 0; i-- {
			if !b.Prev(p) || Compare(p, seq[i]) != 0 {
				t.Fatalf("iter %d: Prev mismatch at %d", iter, i)
			}
		}
		// From/ToOriginal round trip; OrigDim consistency.
		orig := make([]int64, k)
		lifted := make([]int64, k)
		for _, q := range seq {
			if !b.Contains(q) {
				t.Fatalf("iter %d: %v not contained", iter, q)
			}
			b.ToOriginal(q, orig)
			b.FromOriginal(orig, lifted)
			if Compare(q, lifted) != 0 {
				t.Fatalf("iter %d: round trip failed", iter)
			}
			for pos := range q {
				if q[pos] != orig[b.OrigDim(pos)] {
					t.Fatalf("iter %d: OrigDim inconsistent", iter)
				}
			}
		}
	}
}

func TestPermutedBoxSamplePinned(t *testing.T) {
	b := NewPermutedBox(NewBox([]int64{1, 1, 1}, []int64{4, 5, 6}), []int{2, 0, 1})
	r := rand.New(rand.NewPCG(95, 97))
	p := make([]int64, 3)
	for i := 0; i < 1000; i++ {
		b.Sample(r, p)
		if !b.Contains(p) {
			t.Fatalf("sampled %v not contained", p)
		}
	}
	if !b.MinWithPinned([]int64{3, Free, Free}, p) {
		t.Fatal("pin failed")
	}
	orig := make([]int64, 3)
	b.ToOriginal(p, orig)
	if orig[0] != 3 || orig[1] != 1 || orig[2] != 1 {
		t.Fatalf("pinned min original = %v", orig)
	}
	if b.MinWithPinned([]int64{5, Free, Free}, p) {
		t.Fatal("out-of-range pin accepted")
	}
	// OrigView returns the original variables (scratch-backed).
	b.FromOriginal([]int64{2, 4, 6}, p)
	v := b.OrigView(p)
	if v[0] != 2 || v[1] != 4 || v[2] != 6 {
		t.Fatalf("OrigView = %v", v)
	}
}

func TestNewPermutedBoxPanics(t *testing.T) {
	box := NewBox([]int64{1, 1}, []int64{3, 3})
	for name, f := range map[string]func(){
		"rank":     func() { NewPermutedBox(box, []int{0}) },
		"not perm": func() { NewPermutedBox(box, []int{1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
