package parser

import (
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/cme"
	"repro/internal/tiling"
)

const transposeSrc = `
# 2D transpose
array a(100,100) real8
array b(100,100) real8
do i = 1, 100
  do j = 1, 100
    read  b(i, j)
    write a(j, i)
  end
end
`

func TestParseTranspose(t *testing.T) {
	prog, err := ParseString(transposeSrc, "t2d")
	if err != nil {
		t.Fatal(err)
	}
	nest := prog.Nest
	if nest.Depth() != 2 || len(nest.Refs) != 2 {
		t.Fatalf("depth %d refs %d", nest.Depth(), len(nest.Refs))
	}
	if !nest.IsRectangular() {
		t.Fatal("not rectangular")
	}
	if nest.Refs[0].Array.Name != "b" || nest.Refs[1].Array.Name != "a" || !nest.Refs[1].Write {
		t.Fatalf("refs wrong: %v", nest.Refs)
	}
	// a and b laid back to back, line-aligned, non-overlapping.
	a, b := prog.Arrays[0], prog.Arrays[1]
	if a.Name != "a" || b.Name != "b" {
		t.Fatalf("array order %v", prog.Arrays)
	}
	if b.Base < a.Base+a.SizeBytes() || b.Base%32 != 0 {
		t.Fatalf("layout: a@%d(%dB) b@%d", a.Base, a.SizeBytes(), b.Base)
	}
	// Subscripts evaluate correctly: b(i,j) at i=2,j=3.
	addr := nest.Refs[0].Address([]int64{2, 3})
	want := a.SizeBytes() // b base (a is 80000B, already 32-aligned)
	want = b.Base + (2-1)*8 + (3-1)*100*8
	if addr != want {
		t.Fatalf("b(2,3) at %d, want %d", addr, want)
	}
}

// TestParsedKernelAnalyzes: a parsed kernel runs through the whole
// pipeline — analyzer matches simulator on it.
func TestParsedKernelAnalyzes(t *testing.T) {
	src := `
array x(40,40) real8
array y(40,40) real8 align 8192
do i = 2, 39
  do j = 1, 40
    read  x(i-1, j)
    read  y(i, j)
    write x(i, j)
  end
end
`
	prog, err := ParseString(src, "custom")
	if err != nil {
		t.Fatal(err)
	}
	box, err := tiling.Box(prog.Nest)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.Config{Size: 1024, LineSize: 32, Assoc: 1}
	an, err := cme.NewAnalyzer(prog.Nest, box, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact := an.ExhaustiveStats()
	sim := cachesim.SimulateNest(prog.Nest, cfg)
	if exact != sim {
		t.Fatalf("analyzer %+v != simulator %+v", exact, sim)
	}
}

func TestAffineSubscripts(t *testing.T) {
	src := `
array a(200) real8
do i = 1, 50
  do j = 1, 2
    read a(2*i - 1)
    read a(101-i)
    write a(i+j)
  end
end
`
	prog, err := ParseString(src, "affine")
	if err != nil {
		t.Fatal(err)
	}
	refs := prog.Nest.Refs
	pt := []int64{10, 2}
	base := prog.Arrays[0].Base
	if got := refs[0].Address(pt); got != base+(2*10-1-1)*8 {
		t.Fatalf("2*i-1: %d", got)
	}
	if got := refs[1].Address(pt); got != base+(101-10-1)*8 {
		t.Fatalf("101-i: %d", got)
	}
	if got := refs[2].Address(pt); got != base+(10+2-1)*8 {
		t.Fatalf("i+j: %d", got)
	}
}

func TestArrayAttributes(t *testing.T) {
	src := `
array a(10,10) real4 pad(3,0)
array b(10) real8 base 12345
do i = 1, 10
  read a(i, i)
  read b(i)
end
`
	prog, err := ParseString(src, "attrs")
	if err != nil {
		t.Fatal(err)
	}
	a, b := prog.Arrays[0], prog.Arrays[1]
	if a.Elem != 4 || a.Pad[0] != 3 {
		t.Fatalf("a attrs: %+v", a)
	}
	if b.Base != 12345 {
		t.Fatalf("b base: %d", b.Base)
	}
	// a(1,2) stride uses padded leading dim 13.
	if got := a.Address([]int64{1, 2}); got != a.Base+13*4 {
		t.Fatalf("padded a(1,2): %d", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown stmt":      "foo bar",
		"end without do":    "end",
		"ref outside loops": "array a(4) real8\nread a(1)",
		"unknown array":     "do i = 1, 4\n read z(i)\nend",
		"rank mismatch":     "array a(4,4) real8\ndo i = 1, 4\n read a(i)\nend",
		"unknown variable":  "array a(9) real8\ndo i = 1, 3\n read a(q)\nend",
		"unclosed do":       "array a(9) real8\ndo i = 1, 3\n read a(i)",
		"empty body":        "do i = 1, 3\nend",
		"imperfect nest":    "array a(9) real8\ndo i = 1, 3\n read a(i)\n do j = 1, 3\n  read a(j)\n end\nend",
		"reused variable":   "array a(9) real8\ndo i = 1, 3\n do i = 1, 2\n  read a(i)\n end\nend",
		"empty loop":        "array a(9) real8\ndo i = 5, 3\n read a(i)\nend",
		"bad dimension":     "array a(0) real8\ndo i = 1, 2\n read a(i)\nend",
		"redeclared":        "array a(4) real8\narray a(4) real8\ndo i = 1, 2\n read a(i)\nend",
		"bad align":         "array a(4) real8 align 33\ndo i = 1, 2\n read a(i)\nend",
		"two nests":         "array a(4) real8\ndo i = 1, 2\n read a(i)\nend\ndo j = 1, 2\n read a(j)\nend",
		"trailing":          "array a(4) real8\ndo i = 1, 2\n read a(i) junk\nend",
		"bad bound":         "array a(4) real8\ndo i = 1, x\n read a(i)\nend",
		"unbalanced parens": "array a(4 real8\ndo i = 1, 2\n read a(i)\nend",
		"unknown attribute": "array a(4) real8 huge\ndo i = 1, 2\n read a(i)\nend",
		"subscript outside": "array a(5,28) real8 base 4096\ndo i = 3, 7\n do j = 1, 28\n  read a(2, i-4)\n  read a(j, 1)\n end\nend",
	}
	for name, src := range cases {
		if _, err := ParseString(src, name); err == nil {
			t.Errorf("%s: accepted:\n%s", name, src)
		}
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	src := "# header\n\narray a(8) real8  # trailing\n\ndo i = 1, 8  # loop\n  read a(i)\nend\n"
	if _, err := ParseString(src, "c"); err != nil {
		t.Fatal(err)
	}
	_ = strings.TrimSpace
}

// TestParserNeverPanics: randomly corrupted variants of a valid source
// must produce errors, never panics.
func TestParserNeverPanics(t *testing.T) {
	base := "array a(16,16) real8\narray b(16,16) real8\ndo i = 1, 16\n do j = 1, 16\n  read b(i, j)\n  write a(j, i)\n end\nend\n"
	r := rand.New(rand.NewPCG(7, 11))
	junk := []byte("()=,*+-#xz09 \n")
	for iter := 0; iter < 3000; iter++ {
		bs := []byte(base)
		for m := 0; m < 1+int(r.Int64N(5)); m++ {
			pos := int(r.Int64N(int64(len(bs))))
			switch r.Int64N(3) {
			case 0: // mutate
				bs[pos] = junk[r.Int64N(int64(len(junk)))]
			case 1: // delete
				bs = append(bs[:pos], bs[pos+1:]...)
			case 2: // insert
				c := junk[r.Int64N(int64(len(junk)))]
				bs = append(bs[:pos], append([]byte{c}, bs[pos:]...)...)
			}
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("panic on input:\n%s\n%v", bs, rec)
				}
			}()
			prog, err := ParseString(string(bs), "fuzz")
			if err == nil {
				// A still-valid program must at least validate.
				if verr := prog.Nest.Validate(); verr != nil {
					t.Fatalf("parser accepted invalid nest: %v\n%s", verr, bs)
				}
			}
		}()
	}
}
