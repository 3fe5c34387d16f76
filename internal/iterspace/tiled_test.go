package iterspace

import (
	"math/rand/v2"
	"testing"
)

// enumerate returns every point of the space in execution order.
func enumerate(s Space) [][]int64 {
	p := make([]int64, s.NumCoords())
	if !s.First(p) {
		return nil
	}
	var out [][]int64
	for {
		out = append(out, append([]int64(nil), p...))
		if !s.Next(p) {
			break
		}
	}
	return out
}

// TestTiledMatchesPaperFigure2 checks the exact traversal of the paper's
// Figure 2(b): do ii=1,7,3 / do i=ii,min(ii+2,7).
func TestTiledMatchesPaperFigure2(t *testing.T) {
	s := NewTiled(NewBox([]int64{1}, []int64{7}), []int64{3})
	pts := enumerate(s)
	want := [][2]int64{{1, 1}, {1, 2}, {1, 3}, {4, 4}, {4, 5}, {4, 6}, {7, 7}}
	if len(pts) != len(want) {
		t.Fatalf("visited %d points, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		if p[0] != want[i][0] || p[1] != want[i][1] {
			t.Fatalf("point %d = %v, want %v", i, p, want[i])
		}
	}
}

func TestTiled2DExecutionOrder(t *testing.T) {
	// 4x4 box, 2x3 tiles: tiles (ii=1,3) x (jj=1,4) with jj=4 a remainder.
	s := NewTiled(NewBox([]int64{1, 1}, []int64{4, 4}), []int64{2, 3})
	pts := enumerate(s)
	if len(pts) != 16 {
		t.Fatalf("visited %d points, want 16", len(pts))
	}
	// First tile (ii=1,jj=1) covers i in 1..2, j in 1..3 — 6 points in
	// row-of-tile order.
	want0 := [][]int64{
		{1, 1, 1, 1}, {1, 1, 1, 2}, {1, 1, 1, 3},
		{1, 1, 2, 1}, {1, 1, 2, 2}, {1, 1, 2, 3},
		{1, 4, 1, 4}, // next tile: jj=4 remainder
	}
	for i, w := range want0 {
		if Compare(pts[i], w) != 0 {
			t.Fatalf("point %d = %v, want %v", i, pts[i], w)
		}
	}
	// Every original point appears exactly once.
	seen := map[[2]int64]int{}
	orig := make([]int64, 2)
	for _, p := range pts {
		s.ToOriginal(p, orig)
		seen[[2]int64{orig[0], orig[1]}]++
	}
	if len(seen) != 16 {
		t.Fatalf("distinct original points = %d", len(seen))
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("original point %v visited %d times", k, c)
		}
	}
}

func tiledCases() []*Tiled {
	return []*Tiled{
		NewTiled(NewBox([]int64{1}, []int64{7}), []int64{3}),
		NewTiled(NewBox([]int64{1, 1}, []int64{4, 4}), []int64{2, 3}),
		NewTiled(NewBox([]int64{1, 1}, []int64{5, 6}), []int64{5, 1}),
		NewTiled(NewBox([]int64{0, 2, 1}, []int64{4, 7, 3}), []int64{2, 3, 3}),
		NewTiled(NewBox([]int64{1, 1}, []int64{9, 9}), []int64{4, 9}),
	}
}

func TestTiledPrevInvertsNext(t *testing.T) {
	for ci, s := range tiledCases() {
		seq := enumerate(s)
		if uint64(len(seq)) != s.Count() {
			t.Fatalf("case %d: enumerated %d points, Count says %d", ci, len(seq), s.Count())
		}
		p := append([]int64(nil), seq[len(seq)-1]...)
		for i := len(seq) - 2; i >= 0; i-- {
			if !s.Prev(p) {
				t.Fatalf("case %d: Prev ended early at %d", ci, i)
			}
			if Compare(p, seq[i]) != 0 {
				t.Fatalf("case %d: Prev mismatch at %d: %v vs %v", ci, i, p, seq[i])
			}
		}
		if s.Prev(p) {
			t.Fatalf("case %d: Prev past first point", ci)
		}
	}
}

func TestTiledContains(t *testing.T) {
	for ci, s := range tiledCases() {
		for _, p := range enumerate(s) {
			if !s.Contains(p) {
				t.Fatalf("case %d: enumerated point %v not contained", ci, p)
			}
		}
	}
	s := NewTiled(NewBox([]int64{1, 1}, []int64{4, 4}), []int64{2, 3})
	bad := [][]int64{
		{2, 1, 2, 1}, // ii=2 is not a tile start
		{1, 1, 3, 1}, // i outside its tile
		{1, 4, 1, 7}, // j beyond Hi
		{5, 1, 5, 1}, // ii beyond Hi
	}
	for _, p := range bad {
		if s.Contains(p) {
			t.Fatalf("bad point %v accepted", p)
		}
	}
}

func TestTiledFromToOriginal(t *testing.T) {
	s := NewTiled(NewBox([]int64{1, 1}, []int64{10, 10}), []int64{3, 4})
	p := make([]int64, 4)
	orig := []int64{8, 5}
	s.FromOriginal(orig, p)
	if p[0] != 7 || p[1] != 5 || p[2] != 8 || p[3] != 5 {
		t.Fatalf("FromOriginal = %v", p)
	}
	if !s.Contains(p) {
		t.Fatal("lifted point not contained")
	}
	back := make([]int64, 2)
	s.ToOriginal(p, back)
	if back[0] != 8 || back[1] != 5 {
		t.Fatalf("ToOriginal = %v", back)
	}
}

func TestTiledSampleUniform(t *testing.T) {
	s := NewTiled(NewBox([]int64{1, 1}, []int64{4, 4}), []int64{3, 2})
	r := rand.New(rand.NewPCG(11, 13))
	p := make([]int64, 4)
	orig := make([]int64, 2)
	counts := map[[2]int64]int{}
	const draws = 16000
	for i := 0; i < draws; i++ {
		s.Sample(r, p)
		if !s.Contains(p) {
			t.Fatalf("sampled invalid point %v", p)
		}
		s.ToOriginal(p, orig)
		counts[[2]int64{orig[0], orig[1]}]++
	}
	if len(counts) != 16 {
		t.Fatalf("sampled %d distinct original points, want 16", len(counts))
	}
	for k, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("point %v sampled %d times (expected ~1000)", k, c)
		}
	}
}

func TestTiledMinWithPinned(t *testing.T) {
	s := NewTiled(NewBox([]int64{1, 1}, []int64{10, 10}), []int64{4, 4})
	p := make([]int64, 4)
	if !s.MinWithPinned([]int64{7, Free}, p) {
		t.Fatal("MinWithPinned failed")
	}
	// i1 pinned to 7 (tile start 5), i2 free -> 1 (tile start 1).
	if p[0] != 5 || p[1] != 1 || p[2] != 7 || p[3] != 1 {
		t.Fatalf("MinWithPinned = %v", p)
	}
	if s.MinWithPinned([]int64{11, Free}, p) {
		t.Fatal("out-of-range pin accepted")
	}
	// The result must be lexicographically minimal among matching points:
	// verify by brute force.
	var best []int64
	for _, q := range enumerate(s) {
		if q[2] == 7 {
			best = q
			break // enumeration is in execution order
		}
	}
	s.MinWithPinned([]int64{7, Free}, p)
	if Compare(p, best) != 0 {
		t.Fatalf("MinWithPinned %v != brute force %v", p, best)
	}
}

// Property: for random boxes and tiles, the tiled traversal is a
// permutation of the box and FromOriginal agrees with the enumeration.
func TestTiledPermutationProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 19))
	for iter := 0; iter < 60; iter++ {
		k := 1 + int(r.Int64N(3))
		lo := make([]int64, k)
		hi := make([]int64, k)
		tile := make([]int64, k)
		for d := 0; d < k; d++ {
			lo[d] = r.Int64N(4)
			hi[d] = lo[d] + r.Int64N(6)
			tile[d] = 1 + r.Int64N(hi[d]-lo[d]+1)
		}
		box := NewBox(lo, hi)
		s := NewTiled(box, tile)
		pts := enumerate(s)
		if uint64(len(pts)) != box.Count() {
			t.Fatalf("iter %d: %d points, want %d", iter, len(pts), box.Count())
		}
		seen := map[string]bool{}
		orig := make([]int64, k)
		lifted := make([]int64, 2*k)
		for _, p := range pts {
			s.ToOriginal(p, orig)
			if !box.Contains(orig) {
				t.Fatalf("iter %d: original %v outside box", iter, orig)
			}
			key := ""
			for _, v := range orig {
				key += string(rune(v)) + ","
			}
			if seen[key] {
				t.Fatalf("iter %d: original point %v repeated", iter, orig)
			}
			seen[key] = true
			s.FromOriginal(orig, lifted)
			if Compare(lifted, p) != 0 {
				t.Fatalf("iter %d: FromOriginal(%v) = %v, want %v", iter, orig, lifted, p)
			}
		}
	}
}

func identityOrder(k int) []int {
	o := make([]int, k)
	for i := range o {
		o[i] = i
	}
	return o
}

// TestPermutedIdentityMatchesTiled: NewTiled is NewPermutedTiled at the
// identity order, and the two traverse alike.
func TestPermutedIdentityMatchesTiled(t *testing.T) {
	box := NewBox([]int64{1, 1}, []int64{7, 5})
	tile := []int64{3, 2}
	s := NewTiled(box, tile)
	if got := s.Order(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("NewTiled order = %v, want the identity", got)
	}
	a := enumerate(s)
	b := enumerate(NewPermutedTiled(box, tile, identityOrder(2)))
	if len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if Compare(a[i], b[i]) != 0 {
			t.Fatalf("point %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPermutedOrderChangesTraversal: swapping the tile loops visits tiles
// column-of-tiles first.
func TestPermutedOrderChangesTraversal(t *testing.T) {
	box := NewBox([]int64{1, 1}, []int64{4, 4})
	tile := []int64{2, 2}
	s := NewPermutedTiled(box, tile, []int{1, 0}) // jj outermost
	pts := enumerate(s)
	if len(pts) != 16 {
		t.Fatalf("points = %d", len(pts))
	}
	// First tile is (ii=1, jj=1); the SECOND tile must advance ii (the
	// inner tile loop), i.e. original dim 0, keeping jj fixed.
	// Coordinates: p[0]=jj, p[1]=ii, p[2]=i, p[3]=j.
	second := pts[4]
	if second[0] != 1 || second[1] != 3 {
		t.Fatalf("second tile at jj=%d ii=%d, want jj=1 ii=3", second[0], second[1])
	}
	orig := make([]int64, 2)
	s.ToOriginal(second, orig)
	if orig[0] != 3 || orig[1] != 1 {
		t.Fatalf("second tile original start %v, want (3,1)", orig)
	}
}

func permutedCases() []*Tiled {
	return []*Tiled{
		NewPermutedTiled(NewBox([]int64{1}, []int64{7}), []int64{3}, []int{0}),
		NewPermutedTiled(NewBox([]int64{1, 1}, []int64{4, 4}), []int64{2, 3}, []int{1, 0}),
		NewPermutedTiled(NewBox([]int64{0, 2, 1}, []int64{4, 7, 3}), []int64{2, 3, 3}, []int{2, 0, 1}),
		NewPermutedTiled(NewBox([]int64{1, 1, 1}, []int64{5, 6, 4}), []int64{5, 1, 2}, []int{1, 2, 0}),
	}
}

func TestPermutedPrevInvertsNext(t *testing.T) {
	for ci, s := range permutedCases() {
		seq := enumerate(s)
		if uint64(len(seq)) != s.Count() {
			t.Fatalf("case %d: %d points, Count %d", ci, len(seq), s.Count())
		}
		p := append([]int64(nil), seq[len(seq)-1]...)
		for i := len(seq) - 2; i >= 0; i-- {
			if !s.Prev(p) {
				t.Fatalf("case %d: Prev ended early at %d", ci, i)
			}
			if Compare(p, seq[i]) != 0 {
				t.Fatalf("case %d: Prev mismatch at %d: %v vs %v", ci, i, p, seq[i])
			}
		}
		if s.Prev(p) {
			t.Fatalf("case %d: Prev past first", ci)
		}
	}
}

func TestPermutedPermutationProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(61, 67))
	for iter := 0; iter < 60; iter++ {
		k := 1 + int(r.Int64N(3))
		lo := make([]int64, k)
		hi := make([]int64, k)
		tile := make([]int64, k)
		for d := 0; d < k; d++ {
			lo[d] = r.Int64N(3)
			hi[d] = lo[d] + r.Int64N(6)
			tile[d] = 1 + r.Int64N(hi[d]-lo[d]+1)
		}
		order := r.Perm(k)
		box := NewBox(lo, hi)
		s := NewPermutedTiled(box, tile, order)
		pts := enumerate(s)
		if uint64(len(pts)) != box.Count() {
			t.Fatalf("iter %d: %d points, want %d", iter, len(pts), box.Count())
		}
		seen := map[[3]int64]bool{}
		orig := make([]int64, k)
		lifted := make([]int64, 2*k)
		for _, p := range pts {
			if !s.Contains(p) {
				t.Fatalf("iter %d: enumerated %v not contained", iter, p)
			}
			s.ToOriginal(p, orig)
			var key [3]int64
			copy(key[:], orig)
			if seen[key] {
				t.Fatalf("iter %d: original %v repeated", iter, orig)
			}
			seen[key] = true
			s.FromOriginal(orig, lifted)
			if Compare(lifted, p) != 0 {
				t.Fatalf("iter %d: FromOriginal(%v)=%v want %v", iter, orig, lifted, p)
			}
		}
	}
}

func TestPermutedSampleAndMinPinned(t *testing.T) {
	box := NewBox([]int64{1, 1}, []int64{6, 6})
	s := NewPermutedTiled(box, []int64{2, 3}, []int{1, 0})
	r := rand.New(rand.NewPCG(71, 73))
	p := make([]int64, 4)
	for i := 0; i < 2000; i++ {
		s.Sample(r, p)
		if !s.Contains(p) {
			t.Fatalf("sampled %v not contained", p)
		}
	}
	// MinWithPinned agrees with brute-force first match.
	if !s.MinWithPinned([]int64{Free, 5}, p) {
		t.Fatal("MinWithPinned failed")
	}
	for _, q := range enumerate(s) {
		if q[3] == 5 {
			if Compare(p, q) != 0 {
				t.Fatalf("MinWithPinned %v != first match %v", p, q)
			}
			break
		}
	}
	if s.MinWithPinned([]int64{9, Free}, p) {
		t.Fatal("out-of-range pin accepted")
	}
}

func TestNewPermutedTiledPanics(t *testing.T) {
	box := NewBox([]int64{1, 1}, []int64{4, 4})
	for name, f := range map[string]func(){
		"rank":      func() { NewPermutedTiled(box, []int64{2}, []int{0, 1}) },
		"not perm":  func() { NewPermutedTiled(box, []int64{2, 2}, []int{0, 0}) },
		"oob order": func() { NewPermutedTiled(box, []int64{2, 2}, []int{0, 2}) },
		"bad tile":  func() { NewPermutedTiled(box, []int64{0, 2}, []int{0, 1}) },
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
