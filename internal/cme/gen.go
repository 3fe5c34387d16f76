package cme

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/expr"
	"repro/internal/ir"
	"repro/internal/iterspace"
	"repro/internal/polyhedra"
	"repro/internal/reuse"
)

// EquationKind distinguishes the two CME families of §2.1.
type EquationKind int

const (
	// Compulsory equations describe the first time a memory line is
	// brought into the cache (the reuse source falls outside the
	// iteration space).
	Compulsory EquationKind = iota
	// Replacement equations describe interference: another reference
	// touches the same cache set between the reuse source and the reuse.
	Replacement
)

func (k EquationKind) String() string {
	if k == Replacement {
		return "replacement"
	}
	return "compulsory"
}

// Equation is one Cache Miss Equation: a polyhedron whose integer points
// are potential misses of reference Ref along reuse vector Vector.
//
// Variable layout of the system, with the names String prints:
//   - compulsory: the iteration-point variables ī (space coordinates):
//     the loop variables, preceded on a tiled space by one tile variable
//     per loop (ii_i for loop i, as tiling.Apply names it). A
//     line-boundary equation appends the boundary line m.
//   - replacement: ī, then the interfering point j (same count, primed
//     names: i', ii_i'), then one trailing "wrap" variable n from the
//     modulo-cache-size linearisation
//     Mem_B(j) − Mem_A(ī) = n·CacheSize + b, |b| < LineSize.
//
// m and n take a trailing underscore while a loop variable has the name.
//
// The lexicographic "j between ī−r and ī" condition is relaxed
// componentwise: dimensions before r's leading nonzero component are pinned
// to ī's, the leading one spans [ī−r, ī] and inner ones their full extent.
// The equations serve display and counting (cmereport, §2.4's region
// accounting). On tiled spaces the relaxation is not a superset of the miss
// set: between the reuse source and ī the tiled order also visits points
// whose outer element coordinates differ from ī's. No miss is decided from
// the equations; only the point solver (Analyzer.Classify) decides misses.
type Equation struct {
	Kind       EquationKind
	Ref        int
	Vector     reuse.Vector
	Interferer int // replacement only; -1 otherwise
	// RegionA is the convex region of ī; RegionB the region of j
	// (replacement only, -1 otherwise). Untiled spaces have one region.
	RegionA, RegionB int
	System           *polyhedra.System
	vars             []string // the system's variable names, for String
}

func (e Equation) String() string {
	sys := e.System.StringVars(e.vars)
	switch e.Kind {
	case Replacement:
		return fmt.Sprintf("replacement ref%d (vec %v) vs ref%d regions(%d,%d): %s",
			e.Ref, e.Vector.R, e.Interferer, e.RegionA, e.RegionB, sys)
	default:
		return fmt.Sprintf("compulsory ref%d (vec %v) region %d: %s",
			e.Ref, e.Vector.R, e.RegionA, sys)
	}
}

// Set is the full system of CMEs generated for a nest under one cache
// configuration and traversal space.
type Set struct {
	Vectors     []reuse.Vector
	Compulsory  []Equation
	Replacement []Equation
	NumRegions  int
}

// Generate produces the CMEs of an untiled rectangular nest: a single
// convex region (§2.1).
func Generate(nest *ir.Nest, cfg cache.Config) (*Set, error) {
	box, err := rectBox(nest)
	if err != nil {
		return nil, err
	}
	return generate(nest, cfg, box, nil)
}

// GenerateTiled produces the CMEs of the nest tiled with the given tile
// sizes: equations are emitted per convex region, so compulsory equations
// multiply by the region count n and replacement equations by n² (§2.4).
func GenerateTiled(nest *ir.Nest, cfg cache.Config, tile []int64) (*Set, error) {
	box, err := rectBox(nest)
	if err != nil {
		return nil, err
	}
	return generate(nest, cfg, box, iterspace.NewTiled(box, tile))
}

// rectBox extracts the rectangular bounds of an original nest.
func rectBox(nest *ir.Nest) (*iterspace.Box, error) {
	if !nest.IsRectangular() {
		return nil, fmt.Errorf("cme: nest %s is not rectangular", nest.Name)
	}
	lo := make([]int64, nest.Depth())
	hi := make([]int64, nest.Depth())
	for d, l := range nest.Loops {
		lo[d] = l.Lower.Eval(nil)
		hi[d] = l.Upper.Eval(nil)
	}
	return iterspace.NewBox(lo, hi), nil
}

func generate(nest *ir.Nest, cfg cache.Config, box *iterspace.Box, tiled *iterspace.Tiled) (*Set, error) {
	vectors := reuse.Compute(nest, cfg)
	k := nest.Depth()

	// Convex regions and their constraint builders.
	type regionCons struct {
		// add appends the region's constraints on a point whose
		// coordinates start at variable offset off in the system.
		add func(s *polyhedra.System, off int)
		n   int // number of point coordinates (k or 2k)
	}
	var regions []regionCons
	if tiled == nil {
		regions = []regionCons{{
			n: k,
			add: func(s *polyhedra.System, off int) {
				for d := 0; d < k; d++ {
					s.AddRange(off+d, box.Lo[d], box.Hi[d])
				}
			},
		}}
	} else {
		for _, reg := range tiled.Regions() {
			reg := reg
			regions = append(regions, regionCons{
				n: 2 * k,
				add: func(s *polyhedra.System, off int) {
					for d := 0; d < k; d++ {
						// Tile loop within the region's tile range.
						s.AddRange(off+d, reg.TileLo[d], reg.TileHi[d])
						// Element loop within its tile: ii ≤ i, and
						// i ≤ ii+T−1 for full tiles or i ≤ Hi for the
						// remainder tile.
						s.AddGE(expr.Var(off + k + d).Sub(expr.Var(off + d)))
						if reg.Remainder[d] {
							s.AddGE(expr.Term(off+k+d, -1, box.Hi[d]))
						} else {
							s.AddGE(expr.Var(off + d).Sub(expr.Var(off + k + d)).AddConst(tiled.Tile[d] - 1))
						}
					}
				},
			})
		}
	}

	set := &Set{Vectors: vectors, NumRegions: len(regions)}
	coords := k
	if tiled != nil {
		coords = 2 * k
	}
	origOff := func(base int) int { // offset of original vars within a point block
		if tiled != nil {
			return base + k
		}
		return base
	}
	pointVars, lineVars, replVars := varNames(nest, tiled != nil)

	refInfos := make([]refInfo, len(nest.Refs))
	for i := range nest.Refs {
		ri, err := buildRefInfo(&nest.Refs[i], k)
		if err != nil {
			return nil, err
		}
		refInfos[i] = ri
	}
	// addrExpr builds the byte-address affine expression of ref at the
	// point block starting at variable offset base.
	addrExpr := func(ref int, base int) expr.Affine {
		e := expr.Const(refInfos[ref].base)
		for v, c := range refInfos[ref].coef {
			if c != 0 {
				e = e.Add(expr.Term(origOff(base)+v, c, 0))
			}
		}
		return e
	}

	// addrDelta returns the constant address distance between the access
	// of vec.Ref at ī and its reuse source at ī−r. It is constant because
	// group vectors require identical subscript linear parts.
	addrDelta := func(vec reuse.Vector) int64 {
		d := refInfos[vec.Ref].base - refInfos[vec.Source].base
		for v, c := range refInfos[vec.Source].coef {
			d += c * vec.R[v]
		}
		return d
	}

	for _, vec := range vectors {
		// --- Line-boundary equations (spatial vectors only): the source
		// access touches the previous/next memory line when a line
		// boundary falls between the two addresses. Folded into the
		// compulsory family — they describe reuse that is cold along
		// this vector. -----------------------------------------------------
		if vec.Kind == reuse.SelfSpatial || vec.Kind == reuse.GroupSpatial {
			delta := addrDelta(vec)
			if delta != 0 {
				for ra, reg := range regions {
					s := polyhedra.NewSystem(coords + 1)
					reg.add(s, 0)
					m := coords // boundary line index variable
					addr := addrExpr(vec.Ref, 0)
					if delta > 0 {
						// m·LS ∈ [addr−δ+1, addr]
						s.AddGE(expr.Term(m, cfg.LineSize, 0).Sub(addr).AddConst(delta - 1))
						s.AddGE(addr.Sub(expr.Term(m, cfg.LineSize, 0)))
					} else {
						// m·LS ∈ [addr+1, addr−δ]
						s.AddGE(expr.Term(m, cfg.LineSize, 0).Sub(addr).AddConst(-1))
						s.AddGE(addr.Sub(expr.Term(m, cfg.LineSize, 0)).AddConst(-delta))
					}
					set.Compulsory = append(set.Compulsory, Equation{
						Kind: Compulsory, Ref: vec.Ref, Vector: vec,
						Interferer: -1, RegionA: ra, RegionB: -1,
						System: s, vars: lineVars,
					})
				}
			}
		}

		// --- Compulsory equations: source point outside the space -------
		for ra, reg := range regions {
			for d := 0; d < k; d++ {
				if vec.R[d] == 0 {
					continue
				}
				s := polyhedra.NewSystem(coords)
				reg.add(s, 0)
				o := origOff(0)
				if vec.R[d] > 0 {
					// ī_d − r_d ≤ lo_d − 1
					s.AddGE(expr.Term(o+d, -1, box.Lo[d]-1+vec.R[d]))
				} else {
					// ī_d − r_d ≥ hi_d + 1
					s.AddGE(expr.Term(o+d, 1, -box.Hi[d]-1-vec.R[d]))
				}
				set.Compulsory = append(set.Compulsory, Equation{
					Kind: Compulsory, Ref: vec.Ref, Vector: vec,
					Interferer: -1, RegionA: ra, RegionB: -1,
					System: s, vars: pointVars,
				})
			}
		}

		// --- Replacement equations: per interfering reference, per
		// region pair ----------------------------------------------------
		for rb := range nest.Refs {
			for ra, regA := range regions {
				for rbg, regB := range regions {
					// A different memory line mapping to the same cache
					// set lies exactly n·CacheSize (n ≠ 0) away, up to the
					// intra-line offset b, |b| < LineSize. "n ≠ 0" is not
					// convex, so each pair expands into two equations:
					// n ≥ 1 and n ≤ −1.
					for _, nSign := range []int64{1, -1} {
						s := polyhedra.NewSystem(2*coords + 1)
						regA.add(s, 0)
						regB.add(s, coords)
						oi := origOff(0)
						oj := origOff(coords)
						nVar := 2 * coords
						// j within the convex hull of the lexicographic
						// segment (ī−r, ī]: dimensions before the leading
						// nonzero component of r are pinned to ī, the
						// leading dimension spans [ī_l − r_l, ī_l], and
						// inner dimensions sweep their full extent (their
						// box/region bounds are already present).
						lead := leadingDim(vec.R)
						for d := 0; d < k; d++ {
							switch {
							case lead < 0 || d < lead:
								s.AddEQ(expr.Var(oj + d).Sub(expr.Var(oi + d)))
							case d == lead:
								lo := expr.Var(oi + d).AddConst(-vec.R[d])
								s.AddGE(expr.Var(oj + d).Sub(lo))               // j ≥ ī−r
								s.AddGE(expr.Var(oi + d).Sub(expr.Var(oj + d))) // j ≤ ī
							}
						}
						// Same-set linearisation:
						// −(LS−1) ≤ addr_B(j) − addr_A(ī) − n·CacheSize ≤ LS−1.
						diff := addrExpr(rb, coords).Sub(addrExpr(vec.Ref, 0)).
							Sub(expr.Term(nVar, cfg.Size, 0))
						s.AddGE(diff.AddConst(cfg.LineSize - 1))
						s.AddGE(diff.Scale(-1).AddConst(cfg.LineSize - 1))
						if nSign > 0 {
							s.AddGE(expr.VarPlus(nVar, -1)) // n ≥ 1
						} else {
							s.AddGE(expr.Term(nVar, -1, -1)) // n ≤ −1
						}
						set.Replacement = append(set.Replacement, Equation{
							Kind: Replacement, Ref: vec.Ref, Vector: vec,
							Interferer: rb, RegionA: ra, RegionB: rbg,
							System: s, vars: replVars,
						})
					}
				}
			}
		}
	}
	return set, nil
}

// varNames returns the variable names of the three system layouts (see
// Equation): a point ī, a point plus the boundary line m, and ī, the
// interfering point and the wrap variable n.
func varNames(nest *ir.Nest, tiled bool) (point, line, repl []string) {
	loops := nest.VarNames()
	if tiled {
		for _, v := range loops {
			point = append(point, "ii_"+v)
		}
	}
	point = append(point, loops...)
	aux := func(name string) string {
		for slices.Contains(loops, name) {
			name += "_"
		}
		return name
	}
	line = append(slices.Clip(point), aux("m"))
	repl = slices.Clone(point)
	for _, v := range point {
		repl = append(repl, v+"'")
	}
	return point, line, append(repl, aux("n"))
}

// leadingDim returns the index of the first nonzero component of r, or -1
// for the zero vector (same-iteration group reuse).
func leadingDim(r []int64) int {
	for d, v := range r {
		if v != 0 {
			return d
		}
	}
	return -1
}
