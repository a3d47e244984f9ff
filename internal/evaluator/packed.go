package evaluator

import (
	"fmt"
	"math/bits"

	"github.com/easeml/ci/internal/parallel"
)

// This file is the packed (columnar) measurement core. Per-example booleans
// — "did the two models disagree here?", "is this prediction correct?",
// "has this label been revealed?" — are stored as bitmaps of 64 examples
// per uint64 word, so measuring a commit is a handful of XOR/AND +
// popcount passes over n/64 words instead of n branchy int comparisons,
// and the counts {n, o, d} fall out of math/bits.OnesCount64. The
// element-wise Measure in measure.go is the definition these counts are
// held to: TestMeasurePackedVsScalar here and the engine's reference suite
// assert identical estimates and verdicts.

// Bitmap is a fixed-length bit vector over example indices, packed 64 per
// word. The tail bits of the last word (indices >= Len) are always zero,
// so popcounts never need masking.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns an all-zero bitmap over n examples.
func NewBitmap(n int) Bitmap {
	b := Bitmap{}
	b.Reset(n)
	return b
}

// Reset resizes the bitmap to n examples and clears every bit, reusing the
// existing word storage when it is large enough.
func (b *Bitmap) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("evaluator: negative bitmap length %d", n))
	}
	w := (n + 63) / 64
	if cap(b.words) < w {
		b.words = make([]uint64, w)
	} else {
		b.words = b.words[:w]
		for i := range b.words {
			b.words[i] = 0
		}
	}
	b.n = n
}

// Len returns the number of examples the bitmap covers.
func (b Bitmap) Len() int { return b.n }

// Get reports whether bit i is set.
func (b Bitmap) Get(i int) bool {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("evaluator: bitmap index %d out of range [0,%d)", i, b.n))
	}
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Set sets bit i.
func (b *Bitmap) Set(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("evaluator: bitmap index %d out of range [0,%d)", i, b.n))
	}
	b.words[i>>6] |= 1 << uint(i&63)
}

// Clear clears bit i.
func (b *Bitmap) Clear(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("evaluator: bitmap index %d out of range [0,%d)", i, b.n))
	}
	b.words[i>>6] &^= 1 << uint(i&63)
}

// SetAll sets every bit in [0, Len), keeping the tail invariant.
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.maskTail()
}

// maskTail zeroes the bits at indices >= n in the final word.
func (b *Bitmap) maskTail() {
	if r := b.n & 63; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(r)) - 1
	}
}

// Count returns the number of set bits (population count).
func (b Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Words exposes the packed words. Callers must not write through it.
func (b Bitmap) Words() []uint64 { return b.words }

// AndCount returns popcount(a AND b). The bitmaps must cover the same
// number of examples.
func AndCount(a, b Bitmap) int {
	if a.n != b.n {
		panic(fmt.Sprintf("evaluator: bitmap length mismatch %d vs %d", a.n, b.n))
	}
	c := 0
	for i, w := range a.words {
		c += bits.OnesCount64(w & b.words[i])
	}
	return c
}

// AndNotCount returns popcount(a AND NOT b): the bits set in a but not b.
func AndNotCount(a, b Bitmap) int {
	if a.n != b.n {
		panic(fmt.Sprintf("evaluator: bitmap length mismatch %d vs %d", a.n, b.n))
	}
	c := 0
	for i, w := range a.words {
		c += bits.OnesCount64(w &^ b.words[i])
	}
	return c
}

// PackBools packs a bool-per-example vector into a bitmap.
func PackBools(v []bool) Bitmap {
	b := NewBitmap(len(v))
	for i, set := range v {
		if set {
			b.Set(i)
		}
	}
	return b
}

// Unpack expands the bitmap back into a bool-per-example vector.
func (b Bitmap) Unpack() []bool {
	out := make([]bool, b.n)
	for i := range out {
		out[i] = b.words[i>>6]&(1<<uint(i&63)) != 0
	}
	return out
}

// commitBitmapsParallelMin is the testset size above which CommitBitmaps
// fans the fused pass across internal/parallel. Below it the goroutine
// spawn costs more than it saves — and the serial path allocates nothing,
// which is what keeps steady-state commit evaluation at 0 allocs/op at the
// benchmark sizes. A var so tests can force the parallel path.
var commitBitmapsParallelMin = 1 << 18

// commitBitmapsChunkWords is the per-worker word granule of the parallel
// fused pass (1024 words = 65536 examples).
const commitBitmapsChunkWords = 1024

// CommitBitmaps runs the fused per-commit pass: in one sweep over the
// three int columns it fills diff (pred[i] != base[i] — the agreement
// column, which needs no labels) and match (labels[i] >= 0 &&
// pred[i] == labels[i] — correctness over the revealed subset). The three
// slices must have equal length; labels uses -1 for unrevealed entries.
// Above commitBitmapsParallelMin examples the word chunks are fanned
// across internal/parallel.
func CommitBitmaps(base, pred, labels []int, diff, match *Bitmap) {
	n := len(pred)
	if len(base) != n || len(labels) != n {
		panic(fmt.Sprintf("evaluator: CommitBitmaps column lengths differ: base=%d pred=%d labels=%d",
			len(base), len(pred), n))
	}
	diff.Reset(n)
	match.Reset(n)
	words := len(diff.words)
	if n < commitBitmapsParallelMin {
		// Kept as a plain call (no closure) so the steady-state commit
		// path stays allocation-free.
		fillCommitWords(base, pred, labels, diff.words, match.words, n, 0, words)
		return
	}
	chunks := (words + commitBitmapsChunkWords - 1) / commitBitmapsChunkWords
	parallel.For(chunks, func(c int) {
		lo := c * commitBitmapsChunkWords
		hi := lo + commitBitmapsChunkWords
		if hi > words {
			hi = words
		}
		fillCommitWords(base, pred, labels, diff.words, match.words, n, lo, hi)
	})
}

// fillCommitWords packs the word range [wLo, wHi) of the fused per-commit
// pass. The bit computations are branchless — the diff and match bits are
// data-dependent coin flips (d is often 5-30%), so per-element branches
// would mispredict constantly; extracting the sign bits of x|-x instead
// keeps the loop at a few cycles per element:
//
//	x := a ^ b          // 0 iff a == b
//	uint64(x|-x) >> 63  // 1 iff x != 0 (sign bit; int->uint64 sign-extends)
//	^uint64(y) >> 63    // 1 iff y >= 0 (labels use -1 for unrevealed)
func fillCommitWords(base, pred, labels []int, diffW, matchW []uint64, n, wLo, wHi int) {
	base = base[:n]
	pred = pred[:n]
	labels = labels[:n]
	for w := wLo; w < wHi; w++ {
		lo := w << 6
		hi := lo + 64
		if hi > n {
			hi = n
		}
		var dw, mw uint64
		for i := lo; i < hi; i++ {
			s := uint(i - lo)
			d := base[i] ^ pred[i]
			dw |= (uint64(d|-d) >> 63) << s
			y := labels[i]
			m := pred[i] ^ y
			eq := ^(uint64(m|-m) >> 63) & 1
			lab := ^(uint64(y) >> 63) & 1
			mw |= (eq & lab) << s
		}
		diffW[w] = dw
		matchW[w] = mw
	}
}

// SWAR constants for the byte-column fused pass: detect zero bytes in a
// word of eight lane-wise XORs and gather the per-byte answers into eight
// adjacent bitmap bits.
const (
	swarLo     = 0x0101010101010101 // 1 in every byte
	swarHi     = 0x8080808080808080 // high bit of every byte
	swarGather = 0x0102040810204080 // moves byte k's high bit to bit k
)

// zeroByteMask returns a word whose byte high bits mark the zero bytes of
// x. Unlike the textbook (x-lo)&^x&hi trick this form is exact per byte:
// (x|hi)-lo cannot borrow across byte lanes, so a zero byte in one lane
// never contaminates its neighbor.
func zeroByteMask(x uint64) uint64 {
	return ^(x | ((x | swarHi) - swarLo)) & swarHi
}

// byteMovemask compresses the byte high bits of m into the low 8 bits
// (byte k's high bit becomes bit k).
func byteMovemask(m uint64) uint64 {
	return ((m >> 7) * swarGather) >> 56
}

// CommitBitmapsBytes is the narrow-column variant of CommitBitmaps for
// testsets whose label alphabet fits a byte (classes <= 255): the
// engine-owned baseline and label columns are uint8, with 255 as the
// "unrevealed" sentinel — a sentinel no valid prediction can equal, so
// correctness over the revealed subset needs no separate labeled mask.
// Eight examples are compared per 64-bit word (XOR + zero-byte SWAR). The
// candidate column is generic over its width: a []uint8 candidate (the
// served path, where the wire decoder writes one byte per example) is
// loaded eight examples per word like the engine's own columns, and an
// []int one, whose values must be in [0, 255), is narrowed as it is
// read. Same contract otherwise: equal lengths, diff = pred != base,
// match = revealed && pred == label.
func CommitBitmapsBytes[P uint8 | int](pred []P, base8, labels8 []uint8, diff, match *Bitmap) {
	n := len(pred)
	if len(base8) != n || len(labels8) != n {
		panic(fmt.Sprintf("evaluator: CommitBitmapsBytes column lengths differ: pred=%d base=%d labels=%d",
			n, len(base8), len(labels8)))
	}
	diff.Reset(n)
	match.Reset(n)
	words := len(diff.words)
	if n < commitBitmapsParallelMin {
		fillCommitWordsBytes(pred, base8, labels8, diff.words, match.words, n, 0, words)
		return
	}
	chunks := (words + commitBitmapsChunkWords - 1) / commitBitmapsChunkWords
	parallel.For(chunks, func(c int) {
		lo := c * commitBitmapsChunkWords
		hi := lo + commitBitmapsChunkWords
		if hi > words {
			hi = words
		}
		fillCommitWordsBytes(pred, base8, labels8, diff.words, match.words, n, lo, hi)
	})
}

// loadByteWord packs p[0..7], each narrowed to a byte, into one
// little-endian word. For a []uint8 the compiler merges the eight loads
// into one, as it does for binary.LittleEndian.Uint64 — which, called
// from a generic function, is not inlined.
func loadByteWord[P uint8 | int](p []P) uint64 {
	_ = p[7]
	return uint64(uint8(p[0])) |
		uint64(uint8(p[1]))<<8 |
		uint64(uint8(p[2]))<<16 |
		uint64(uint8(p[3]))<<24 |
		uint64(uint8(p[4]))<<32 |
		uint64(uint8(p[5]))<<40 |
		uint64(uint8(p[6]))<<48 |
		uint64(uint8(p[7]))<<56
}

// fillCommitWordsBytes packs the word range [wLo, wHi) of the byte-column
// fused pass: 8 predictions are loaded as one word and compared against 8
// baseline and 8 label bytes with two XOR + zero-byte-mask sequences.
func fillCommitWordsBytes[P uint8 | int](pred []P, base8, labels8 []uint8, diffW, matchW []uint64, n, wLo, wHi int) {
	pred = pred[:n]
	base8 = base8[:n]
	labels8 = labels8[:n]
	for w := wLo; w < wHi; w++ {
		lo := w << 6
		hi := lo + 64
		if hi > n {
			hi = n
		}
		var dw, mw uint64
		i := lo
		for ; i+8 <= hi; i += 8 {
			p := loadByteWord(pred[i : i+8])
			b := loadByteWord(base8[i : i+8])
			l := loadByteWord(labels8[i : i+8])
			s := uint(i - lo)
			eqBase := zeroByteMask(p ^ b)
			dw |= byteMovemask(^eqBase&swarHi) << s
			mw |= byteMovemask(zeroByteMask(p^l)) << s
		}
		for ; i < hi; i++ {
			bit := uint64(1) << uint(i-lo)
			if uint8(pred[i]) != base8[i] {
				dw |= bit
			}
			if uint8(pred[i]) == labels8[i] {
				mw |= bit
			}
		}
		diffW[w] = dw
		matchW[w] = mw
	}
}

// MatchBitmap fills match with the correctness column of a single
// prediction vector: pred[i] == labels[i] over the revealed (labels[i] >=
// 0) subset. Used to (re)build the promoted baseline's cached correctness
// bitmap on rotation; the per-commit path uses the fused CommitBitmaps.
func MatchBitmap(pred, labels []int, match *Bitmap) {
	n := len(pred)
	if len(labels) != n {
		panic(fmt.Sprintf("evaluator: MatchBitmap column lengths differ: pred=%d labels=%d", n, len(labels)))
	}
	match.Reset(n)
	for i := 0; i < n; i++ {
		if y := labels[i]; y >= 0 && pred[i] == y {
			match.words[i>>6] |= 1 << uint(i&63)
		}
	}
}
