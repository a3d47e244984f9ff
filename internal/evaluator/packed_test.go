package evaluator

import (
	"math/rand"
	"testing"

	"github.com/easeml/ci/internal/condlang"
)

// randVectors draws an (old, new, labels) column triple: predictions over
// `classes` classes, labels hidden (-1) with probability unlabeledFrac.
func randVectors(rng *rand.Rand, n, classes int, unlabeledFrac float64) (oldPred, newPred, labels []int) {
	oldPred = make([]int, n)
	newPred = make([]int, n)
	labels = make([]int, n)
	for i := 0; i < n; i++ {
		oldPred[i] = rng.Intn(classes)
		newPred[i] = rng.Intn(classes)
		if rng.Float64() < unlabeledFrac {
			labels[i] = -1
		} else {
			labels[i] = rng.Intn(classes)
		}
	}
	return
}

// packedEstimates measures the triple through the packed core, the way
// the engine does: fused commit pass for diff + new-model correctness,
// MatchBitmap for the old model, and the three ratios as popcounts over
// the labeled count.
func packedEstimates(oldPred, newPred, labels []int) VarEstimates {
	var diff, newMatch, oldMatch Bitmap
	CommitBitmaps(oldPred, newPred, labels, &diff, &newMatch)
	MatchBitmap(oldPred, labels, &oldMatch)
	est := VarEstimates{Values: map[condlang.Var]float64{
		condlang.VarD: float64(diff.Count()) / float64(len(oldPred)),
	}}
	labeled := 0
	for _, y := range labels {
		if y >= 0 {
			labeled++
		}
	}
	if labeled > 0 {
		est.Values[condlang.VarN] = float64(newMatch.Count()) / float64(labeled)
		est.Values[condlang.VarO] = float64(oldMatch.Count()) / float64(labeled)
	}
	return est
}

// TestMeasurePackedVsScalar is the core equivalence property: on random
// prediction/label columns — including unlabeled (-1) entries, word-
// boundary sizes, and n up to 1e5 — the packed popcount measurement and
// the scalar element-wise Measure produce identical VarEstimates, and a
// two-clause condition evaluated from either set of estimates reaches the
// identical verdict.
func TestMeasurePackedVsScalar(t *testing.T) {
	f, err := condlang.Parse("d < 0.5 +/- 0.02 /\\ n - o > 0.01 +/- 0.05")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	sizes := []int{1, 2, 63, 64, 65, 127, 128, 129, 1000, 4096, 100000}
	for _, n := range sizes {
		cases := 40
		if n >= 4096 {
			cases = 4 // the big sizes are about word-chunk coverage, not case count
		}
		for c := 0; c < cases; c++ {
			classes := 2 + rng.Intn(5)
			unlabeled := []float64{0, 1, rng.Float64()}[rng.Intn(3)]
			oldPred, newPred, labels := randVectors(rng, n, classes, unlabeled)

			scalar, err := Measure(oldPred, newPred, labels)
			if err != nil {
				t.Fatalf("n=%d: Measure: %v", n, err)
			}
			packed := packedEstimates(oldPred, newPred, labels)

			if len(scalar.Values) != len(packed.Values) {
				t.Fatalf("n=%d classes=%d unlabeled=%v: estimate keys differ: scalar=%v packed=%v",
					n, classes, unlabeled, scalar.Values, packed.Values)
			}
			for v, want := range scalar.Values {
				if got, ok := packed.Values[v]; !ok || got != want {
					t.Fatalf("n=%d classes=%d unlabeled=%v: %s: packed=%v scalar=%v",
						n, classes, unlabeled, v, got, want)
				}
			}

			// Verdict equivalence: generic map-backed evaluation vs the
			// compiled form on the same estimates (skip when accuracies are
			// unobservable — the formula references n and o).
			if _, ok := scalar.Values[condlang.VarN]; !ok {
				continue
			}
			want, err := EvalFormula(f, scalar)
			if err != nil {
				t.Fatalf("EvalFormula: %v", err)
			}
			got, err := compiled.Eval(packed)
			if err != nil {
				t.Fatalf("compiled.Eval: %v", err)
			}
			if got != want {
				t.Fatalf("n=%d: verdict differs: packed=%v scalar=%v (est %v)", n, got, want, scalar.Values)
			}
		}
	}
}

// TestCommitBitmapsParallelPath forces the fan-out path (normally reserved
// for testsets above commitBitmapsParallelMin) and checks it is identical
// to the serial fill.
func TestCommitBitmapsParallelPath(t *testing.T) {
	saved := commitBitmapsParallelMin
	defer func() { commitBitmapsParallelMin = saved }()

	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 64, 65, 70000, 66000} {
		oldPred, newPred, labels := randVectors(rng, n, 4, 0.3)
		var dSerial, mSerial, dPar, mPar Bitmap
		commitBitmapsParallelMin = 1 << 62
		CommitBitmaps(oldPred, newPred, labels, &dSerial, &mSerial)
		commitBitmapsParallelMin = 0
		CommitBitmaps(oldPred, newPred, labels, &dPar, &mPar)
		for i := 0; i < n; i++ {
			if dSerial.Get(i) != dPar.Get(i) || mSerial.Get(i) != mPar.Get(i) {
				t.Fatalf("n=%d: parallel fused pass differs at %d", n, i)
			}
		}
		if dSerial.Count() != dPar.Count() || mSerial.Count() != mPar.Count() {
			t.Fatalf("n=%d: counts differ", n)
		}
	}
}

func TestBitmapBasics(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 129} {
		b := NewBitmap(n)
		if b.Len() != n || b.Count() != 0 {
			t.Fatalf("n=%d: fresh bitmap len=%d count=%d", n, b.Len(), b.Count())
		}
		b.SetAll()
		if b.Count() != n {
			t.Fatalf("n=%d: SetAll count=%d", n, b.Count())
		}
		if n == 0 {
			continue
		}
		b.Clear(n - 1)
		if b.Count() != n-1 || b.Get(n-1) {
			t.Fatalf("n=%d: Clear failed", n)
		}
		b.Set(n - 1)
		if b.Count() != n || !b.Get(n-1) {
			t.Fatalf("n=%d: Set failed", n)
		}
		// Reset reuses storage and clears.
		b.Reset(n)
		if b.Count() != 0 {
			t.Fatalf("n=%d: Reset left bits", n)
		}
	}
}

func TestBitmapOutOfRangePanics(t *testing.T) {
	b := NewBitmap(10)
	for _, fn := range []func(){
		func() { b.Get(10) },
		func() { b.Get(-1) },
		func() { b.Set(10) },
		func() { b.Clear(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 63, 64, 65, 1000} {
		a := NewBitmap(n)
		b := NewBitmap(n)
		wantAnd, wantAndNot := 0, 0
		for i := 0; i < n; i++ {
			sa, sb := rng.Intn(2) == 0, rng.Intn(2) == 0
			if sa {
				a.Set(i)
			}
			if sb {
				b.Set(i)
			}
			if sa && sb {
				wantAnd++
			}
			if sa && !sb {
				wantAndNot++
			}
		}
		if got := AndCount(a, b); got != wantAnd {
			t.Fatalf("n=%d: AndCount=%d want %d", n, got, wantAnd)
		}
		if got := AndNotCount(a, b); got != wantAndNot {
			t.Fatalf("n=%d: AndNotCount=%d want %d", n, got, wantAndNot)
		}
	}
}

// TestCompiledEvalMatchesEvalFormula checks the compiled form against the
// generic evaluator across clause shapes and estimate values, including
// the per-variable Eps mode.
func TestCompiledEvalMatchesEvalFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, src := range []string{
		"d < 0.1 +/- 0.01",
		"n > 0.6 +/- 0.05",
		"n - o > 0.02 +/- 0.03",
		"n - 1.1 * o > -0.1 +/- 0.05",
		"d < 0.1 +/- 0.01 /\\ n - o > 0.02 +/- 0.03",
	} {
		f, err := condlang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 200; c++ {
			est := VarEstimates{Values: map[condlang.Var]float64{
				condlang.VarN: rng.Float64(),
				condlang.VarO: rng.Float64(),
				condlang.VarD: rng.Float64(),
			}}
			if c%2 == 1 {
				est.Eps = map[condlang.Var]float64{
					condlang.VarN: rng.Float64() * 0.1,
					condlang.VarO: rng.Float64() * 0.1,
					condlang.VarD: rng.Float64() * 0.1,
				}
			}
			want, err := EvalFormula(f, est)
			if err != nil {
				t.Fatal(err)
			}
			got, err := compiled.Eval(est)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: compiled=%v generic=%v on %v", src, got, want, est.Values)
			}
		}
	}
	// Error parity: missing estimate.
	f, _ := condlang.Parse("n > 0.5 +/- 0.1")
	compiled, _ := Compile(f)
	empty := VarEstimates{Values: map[condlang.Var]float64{}}
	if _, err := compiled.Eval(empty); err == nil {
		t.Error("missing estimate should fail")
	}
	if _, err := (CompiledFormula{}).Eval(empty); err == nil {
		t.Error("empty formula should fail")
	}
}

func TestCompiledClauseShapes(t *testing.T) {
	shapes := []struct {
		src            string
		dOnly, nMinusO bool
	}{
		{"d < 0.1 +/- 0.01", true, false},
		{"n - o > 0.02 +/- 0.03", false, true},
		{"n > 0.5 +/- 0.1", false, false},
		{"n - 1.1 * o > 0.01 +/- 0.01", false, false},
		{"2 * d < 0.2 +/- 0.01", false, false},
	}
	for _, s := range shapes {
		f, err := condlang.Parse(s.src)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		cc := compiled.Clauses[0]
		if cc.DOnly() != s.dOnly || cc.NMinusO() != s.nMinusO {
			t.Errorf("%s: DOnly=%v NMinusO=%v, want %v %v", s.src, cc.DOnly(), cc.NMinusO(), s.dOnly, s.nMinusO)
		}
	}
}

// FuzzBitmapRoundTrip fuzzes the pack/unpack round trip: any bool vector
// must survive PackBools -> Unpack unchanged, with Count matching the
// naive tally and the tail-word invariant intact.
func FuzzBitmapRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0x01})
	f.Add([]byte{0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0x01})
	f.Fuzz(func(t *testing.T, raw []byte) {
		// One bool per bit of the input, so boundary lengths (63/64/65...)
		// appear naturally as the corpus grows.
		v := make([]bool, len(raw)*8)
		want := 0
		for i := range v {
			v[i] = raw[i/8]&(1<<uint(i%8)) != 0
			if v[i] {
				want++
			}
		}
		b := PackBools(v)
		if b.Len() != len(v) {
			t.Fatalf("Len=%d want %d", b.Len(), len(v))
		}
		if got := b.Count(); got != want {
			t.Fatalf("Count=%d want %d", got, want)
		}
		back := b.Unpack()
		for i := range v {
			if back[i] != v[i] {
				t.Fatalf("round trip differs at %d", i)
			}
		}
		// Tail invariant: bits past Len are zero in the last word.
		if r := len(v) & 63; r != 0 {
			last := b.Words()[len(b.Words())-1]
			if last&^((1<<uint(r))-1) != 0 {
				t.Fatalf("tail bits set: %x (len %d)", last, len(v))
			}
		}
	})
}

// TestCommitBitmapsBytesVsInt: the narrow-column SWAR pass, with an int
// and with a byte candidate column, is bit-for-bit identical to the int
// fused pass on random columns, including tails that are not multiples of
// 8 and unlabeled entries.
func TestCommitBitmapsBytesVsInt(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 200, 1021, 70000} {
		for _, classes := range []int{2, 5, 255} {
			base, pred, labels := randVectors(rng, n, classes, 0.3)
			var dInt, mInt, dByte, mByte, d8, m8 Bitmap
			CommitBitmaps(base, pred, labels, &dInt, &mInt)
			base8 := make([]uint8, n)
			labels8 := make([]uint8, n)
			pred8 := make([]uint8, n)
			for i := 0; i < n; i++ {
				base8[i] = uint8(base[i])
				pred8[i] = uint8(pred[i])
				if labels[i] < 0 {
					labels8[i] = 255
				} else {
					labels8[i] = uint8(labels[i])
				}
			}
			CommitBitmapsBytes(pred, base8, labels8, &dByte, &mByte)
			CommitBitmapsBytes(pred8, base8, labels8, &d8, &m8)
			for i := 0; i < n; i++ {
				if dInt.Get(i) != dByte.Get(i) || mInt.Get(i) != mByte.Get(i) {
					t.Fatalf("n=%d classes=%d: byte pass differs at %d (diff %v/%v match %v/%v)",
						n, classes, i, dInt.Get(i), dByte.Get(i), mInt.Get(i), mByte.Get(i))
				}
				if dInt.Get(i) != d8.Get(i) || mInt.Get(i) != m8.Get(i) {
					t.Fatalf("n=%d classes=%d: byte pass on a byte candidate differs at %d (diff %v/%v match %v/%v)",
						n, classes, i, dInt.Get(i), d8.Get(i), mInt.Get(i), m8.Get(i))
				}
			}
		}
	}
}

// TestZeroByteMaskExhaustive checks the SWAR zero-byte detector and the
// movemask gather over all 256 zero/nonzero byte patterns with random
// nonzero filler — the lane-independence property the byte pass rests on.
func TestZeroByteMaskExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for pattern := 0; pattern < 256; pattern++ {
		for trial := 0; trial < 8; trial++ {
			var x uint64
			for k := 0; k < 8; k++ {
				if pattern&(1<<k) != 0 {
					continue // zero byte in lane k
				}
				x |= uint64(1+rng.Intn(255)) << (8 * k)
			}
			if got := int(byteMovemask(zeroByteMask(x))); got != pattern {
				t.Fatalf("x=%016x: mask=%08b want %08b", x, got, pattern)
			}
		}
	}
}
