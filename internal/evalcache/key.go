// Canonical hashing for shared-cache keys. Every key the cache sees is
// derived from content, never from pointers: two requests that describe
// the same loop nest, cache geometry and sample set map to the same
// scope no matter which process lifetime or goroutine built them.
package evalcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"

	"repro/internal/cache"
	"repro/internal/expr"
	"repro/internal/ir"
)

// hashWriter serializes primitives into a running hash with unambiguous
// framing: every variable-length field is preceded by its length, and
// strings are length-prefixed bytes, so no two distinct structures share
// an encoding.
type hashWriter struct {
	h   hash.Hash
	buf [8]byte
}

func newHashWriter() *hashWriter { return &hashWriter{h: sha256.New()} }

func (w *hashWriter) i64(v int64) {
	binary.LittleEndian.PutUint64(w.buf[:], uint64(v))
	w.h.Write(w.buf[:])
}

func (w *hashWriter) str(s string) {
	w.i64(int64(len(s)))
	io.WriteString(w.h, s)
}

func (w *hashWriter) i64s(vs []int64) {
	w.i64(int64(len(vs)))
	for _, v := range vs {
		w.i64(v)
	}
}

func (w *hashWriter) affine(a expr.Affine) {
	w.i64(a.Const)
	w.i64s(a.Coeffs)
}

func (w *hashWriter) sum() string { return hex.EncodeToString(w.h.Sum(nil)) }

// NestKey returns a canonical content hash of a loop nest: name, loop
// bounds and steps, every referenced array's geometry (including padding
// and base address, which change the address stream), and every
// reference's subscripts and access kind. Arrays are identified by their
// first-use order, so structurally equal nests built independently hash
// identically.
func NestKey(n *ir.Nest) string {
	w := newHashWriter()
	w.str(n.Name)
	w.i64(int64(len(n.Loops)))
	for _, l := range n.Loops {
		w.str(l.Var)
		w.affine(l.Lower)
		w.i64(int64(len(l.Upper.Exprs)))
		for _, e := range l.Upper.Exprs {
			w.affine(e)
		}
		w.i64(l.Step)
	}
	arrays := n.Arrays()
	index := make(map[*ir.Array]int, len(arrays))
	w.i64(int64(len(arrays)))
	for i, a := range arrays {
		index[a] = i
		w.str(a.Name)
		w.i64s(a.Dims)
		w.i64(a.Elem)
		w.i64(a.Base)
		w.i64(int64(a.Layout))
		w.i64s(a.Pad)
		w.i64(a.BasePad)
	}
	w.i64(int64(len(n.Refs)))
	for i := range n.Refs {
		r := &n.Refs[i]
		w.i64(int64(index[r.Array]))
		w.i64(int64(len(r.Subs)))
		for _, s := range r.Subs {
			w.affine(s)
		}
		if r.Write {
			w.i64(1)
		} else {
			w.i64(0)
		}
	}
	return w.sum()
}

// ConfigKey returns a canonical hash of one cache geometry.
func ConfigKey(c cache.Config) string {
	w := newHashWriter()
	w.i64(c.Size)
	w.i64(c.LineSize)
	w.i64(int64(c.Assoc))
	return w.sum()
}

// Scope condenses the parts of an evaluation context — nest hash,
// geometry hash, sample fingerprint, iteration-space shape and any range —
// into one fixed-width key. Every part is length-prefixed, so distinct
// part lists never share a key.
func Scope(parts ...string) string {
	w := newHashWriter()
	w.i64(int64(len(parts)))
	for _, p := range parts {
		w.str(p)
	}
	return w.sum()
}
