package rlz

import (
	"errors"
	"fmt"
	"slices"
)

// Factor is one element of an RLZ factorization. When Len > 0 it denotes
// the dictionary substring d[Pos : Pos+Len]. When Len == 0 it is a literal:
// Pos holds a single byte that does not occur in the dictionary (§3 of the
// paper: "if l_j = 0, p_j contains a character c that does not occur in d").
type Factor struct {
	Pos uint32
	Len uint32
}

// IsLiteral reports whether the factor carries a literal byte.
func (f Factor) IsLiteral() bool { return f.Len == 0 }

// Literal returns the literal byte of a zero-length factor.
func (f Factor) Literal() byte { return byte(f.Pos) }

// String renders the factor in the paper's (p, l) notation.
func (f Factor) String() string {
	if f.IsLiteral() {
		return fmt.Sprintf("(%q, 0)", f.Literal())
	}
	return fmt.Sprintf("(%d, %d)", f.Pos, f.Len)
}

// ErrBadFactor is returned when decoding factors that reference outside
// the dictionary.
var ErrBadFactor = errors.New("rlz: factor references outside dictionary")

// Factorize appends the RLZ factorization of doc relative to the
// dictionary to factors and returns the extended slice (pass nil to start
// fresh; pass a reused buffer to avoid allocation across documents).
//
// This is the Encode/Factor pair of the paper's Figure 1: at each position
// the longest prefix of the remaining input that occurs in the dictionary
// becomes a factor; if even the first byte is absent, the byte is emitted
// as a literal. Documents are factorized whole — the paper's "stop at a
// document boundary" rule is realized by calling Factorize once per
// document. Factors are located by the fast engine (a default-tuned
// Factorizer drawn from a per-dictionary pool); output is byte-identical
// to the pure binary-search path, which survives as factorizeNoFastPath
// and is held equal by differential and fuzz tests.
func (d *Dictionary) Factorize(doc []byte, factors []Factor) []Factor {
	f, _ := d.fzPool.Get().(*Factorizer)
	if f == nil {
		f = NewFactorizer(d, FactorizerOptions{})
	}
	factors = f.Factorize(doc, factors)
	d.fzPool.Put(f)
	return factors
}

// Decode appends the text reconstructed from factors to dst and returns
// the extended slice (the paper's Figure 2). Factors referencing outside
// the dictionary return ErrBadFactor, making Decode safe on untrusted
// archives. Every factor is checked before dst grows, once, to the exact
// output length, so a rejected record costs no allocation and dst is
// returned unchanged.
//
//rlz:hotpath
func (d *Dictionary) Decode(dst []byte, factors []Factor) ([]byte, error) {
	text := d.data
	m := uint32(len(text))
	n := 0
	for _, f := range factors {
		if f.Len == 0 {
			if f.Pos > 255 {
				return dst, fmt.Errorf("%w: literal value %d", ErrBadFactor, f.Pos)
			}
			n++
			continue
		}
		if f.Pos >= m || f.Len > m-f.Pos {
			return dst, fmt.Errorf("%w: (%d, %d) in dictionary of %d", ErrBadFactor, f.Pos, f.Len, m)
		}
		n += int(f.Len)
	}
	dst = slices.Grow(dst, n)
	for _, f := range factors {
		if f.Len == 0 {
			dst = append(dst, byte(f.Pos))
			continue
		}
		dst = append(dst, text[f.Pos:f.Pos+f.Len]...)
	}
	return dst, nil
}

// DecodedLen returns the number of bytes Decode would produce.
func DecodedLen(factors []Factor) int {
	n := 0
	for _, f := range factors {
		if f.Len == 0 {
			n++
		} else {
			n += int(f.Len)
		}
	}
	return n
}

// factorizeNoFastPath is the paper's Figure 1 verbatim: no jump table, no
// single-suffix direct extension — every character of every factor is
// matched by binary search from the full interval. It is the reference
// implementation the fast engine is held byte-identical to (differential
// tests and FuzzFactorizeEquivalence), and the Refine ablation baseline.
func (d *Dictionary) factorizeNoFastPath(doc []byte, factors []Factor) []Factor {
	sa := d.index()
	n := len(doc)
	for i := 0; i < n; {
		iv := sa.All()
		depth := 0
		for i+depth < n {
			next := sa.Refine(iv, int32(depth), doc[i+depth])
			if next.Empty() {
				break
			}
			iv = next
			depth++
		}
		if depth == 0 {
			factors = append(factors, Factor{Pos: uint32(doc[i]), Len: 0})
			i++
			continue
		}
		factors = append(factors, Factor{Pos: uint32(sa.SA()[iv.Lo]), Len: uint32(depth)})
		i += depth
	}
	return factors
}

// FactorizeNaive computes the same factorization as Factorize by scanning
// the dictionary directly for each factor. It is quadratic and exists only
// to cross-check Factorize in tests.
func (d *Dictionary) FactorizeNaive(doc []byte) []Factor {
	text := d.data
	var factors []Factor
	for i := 0; i < len(doc); {
		bestLen, bestPos := 0, 0
		for p := range text {
			l := 0
			for i+l < len(doc) && p+l < len(text) && text[p+l] == doc[i+l] {
				l++
			}
			if l > bestLen {
				bestLen, bestPos = l, p
			}
		}
		if bestLen == 0 {
			factors = append(factors, Factor{Pos: uint32(doc[i]), Len: 0})
			i++
			continue
		}
		factors = append(factors, Factor{Pos: uint32(bestPos), Len: uint32(bestLen)})
		i += bestLen
	}
	return factors
}
