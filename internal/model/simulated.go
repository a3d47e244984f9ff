package model

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/easeml/ci/internal/data"
)

// Simulated models produce prediction vectors with exactly controlled
// statistics, substituting for the paper's real workloads (GoogLeNet on
// infinite MNIST, the SemEval submissions) in the statistical experiments:
// the bounds only ever observe per-example correctness and agreement bits,
// so a controlled synthetic joint distribution exercises the identical code
// path.

// SimulatedPredictions draws a single model's prediction vector over the
// true labels: each prediction is correct with probability accuracy,
// otherwise a uniformly random wrong class. Deterministic given the seed.
func SimulatedPredictions(labels []int, classes int, accuracy float64, seed int64) ([]int, error) {
	if classes < 2 {
		return nil, fmt.Errorf("model: need >= 2 classes, got %d", classes)
	}
	if accuracy < 0 || accuracy > 1 {
		return nil, fmt.Errorf("model: accuracy %v outside [0,1]", accuracy)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, len(labels))
	for i, y := range labels {
		if y < 0 || y >= classes {
			return nil, fmt.Errorf("model: label %d out of range at %d", y, i)
		}
		if rng.Float64() < accuracy {
			out[i] = y
		} else {
			out[i] = wrongClass(y, classes, rng)
		}
	}
	return out, nil
}

// PairSpec describes the joint distribution of an (old, new) model pair on
// a single example:
//
//	a: both correct (always agree)
//	b: old correct, new wrong        (disagree)
//	c: old wrong,  new correct       (disagree)
//	e: both wrong, same wrong class  (agree)
//	f: both wrong, different classes (disagree)
//
// so that accuracy(old) = a+b, accuracy(new) = a+c, disagreement = b+c+f.
type PairSpec struct {
	A, B, C, E, F float64
}

// SolvePairSpec finds a joint distribution matching the requested marginal
// accuracies and disagreement rate. Disagreement mass is placed on the
// asymmetric cells first (b, c) and overflows into the both-wrong-differ
// cell f only when the correct mass cannot absorb it. Binary problems
// cannot realize f (> 0 both-wrong predictions always coincide), which is
// reported as infeasible.
func SolvePairSpec(accOld, accNew, disagree float64, classes int) (PairSpec, error) {
	if classes < 2 {
		return PairSpec{}, fmt.Errorf("model: need >= 2 classes, got %d", classes)
	}
	for _, v := range []float64{accOld, accNew, disagree} {
		if v < 0 || v > 1 {
			return PairSpec{}, fmt.Errorf("model: probability %v outside [0,1]", v)
		}
	}
	base := accOld - accNew
	if base < 0 {
		base = -base
	}
	if disagree < base-1e-12 {
		return PairSpec{}, fmt.Errorf("model: disagreement %v below |accOld-accNew| = %v", disagree, base)
	}
	var spec PairSpec
	// Start with the minimum asymmetric disagreement.
	if accOld >= accNew {
		spec.B = base
	} else {
		spec.C = base
	}
	remaining := disagree - base
	// Symmetric swaps: push equal mass into b and c, limited by the
	// remaining correct mass of each model.
	bCap := accOld - spec.B // additional b requires old-correct mass
	cCap := accNew - spec.C // additional c requires new-correct mass
	s := remaining / 2
	if s > bCap {
		s = bCap
	}
	if s > cCap {
		s = cCap
	}
	if s < 0 {
		s = 0
	}
	spec.B += s
	spec.C += s
	remaining -= 2 * s
	// Whatever is left must be both-wrong-disagreeing.
	if remaining > 1e-12 {
		if classes < 3 {
			return PairSpec{}, fmt.Errorf("model: disagreement %v infeasible with 2 classes (both-wrong predictions always agree)", disagree)
		}
		spec.F = remaining
	}
	spec.A = accOld - spec.B
	if aAlt := accNew - spec.C; aAlt < spec.A {
		spec.A = aAlt
	}
	// A is pinned by both marginals; they must agree.
	if d := (accOld - spec.B) - (accNew - spec.C); d > 1e-9 || d < -1e-9 {
		return PairSpec{}, fmt.Errorf("model: internal inconsistency solving pair spec")
	}
	spec.E = 1 - spec.A - spec.B - spec.C - spec.F
	if spec.A < -1e-12 || spec.E < -1e-12 {
		return PairSpec{}, fmt.Errorf("model: infeasible pair (accOld=%v accNew=%v d=%v): a=%v e=%v",
			accOld, accNew, disagree, spec.A, spec.E)
	}
	if spec.A < 0 {
		spec.A = 0
	}
	if spec.E < 0 {
		spec.E = 0
	}
	return spec, nil
}

// SimulatedPair draws prediction vectors for an (old, new) model pair with
// the requested marginal accuracies and disagreement, deterministic given
// the seed. It needs the true labels and the class count.
func SimulatedPair(labels []int, classes int, accOld, accNew, disagree float64, seed int64) (oldPred, newPred []int, err error) {
	spec, err := SolvePairSpec(accOld, accNew, disagree, classes)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	oldPred = make([]int, len(labels))
	newPred = make([]int, len(labels))
	for i, y := range labels {
		if y < 0 || y >= classes {
			return nil, nil, fmt.Errorf("model: label %d out of range at %d", y, i)
		}
		u := rng.Float64()
		switch {
		case u < spec.A:
			oldPred[i], newPred[i] = y, y
		case u < spec.A+spec.B:
			oldPred[i], newPred[i] = y, wrongClass(y, classes, rng)
		case u < spec.A+spec.B+spec.C:
			oldPred[i], newPred[i] = wrongClass(y, classes, rng), y
		case u < spec.A+spec.B+spec.C+spec.E:
			w := wrongClass(y, classes, rng)
			oldPred[i], newPred[i] = w, w
		default:
			w1 := wrongClass(y, classes, rng)
			w2 := wrongClassExcept(y, w1, classes, rng)
			oldPred[i], newPred[i] = w1, w2
		}
	}
	return oldPred, newPred, nil
}

// FixedPredictions wraps a precomputed prediction vector as a Predictor
// keyed by example index. The feature vector's first component is the
// example index; this is how simulated models plug into the engine, which
// otherwise works with real feature-based predictors.
//
// The vector is an int vector (NewFixedPredictions) or a byte column
// (NewFixedBytes, the serving path, where the wire decoder writes it).
// The engine borrows either in place: a byte column through ByteColumn,
// an int vector through StaticPredictions; both reach the same
// width-generic kernel. The wrapped slice must not be mutated after
// construction (the range scan is cached).
type FixedPredictions struct {
	name  string
	n     int
	preds []int // the int vector; nil when built from bytes

	preds8 []uint8 // the byte column; nil when built from ints

	// minPred and maxPred are the vector's range, so per-call validation
	// is an O(1) comparison instead of an O(n) rescan. An int vector's is
	// scanned once, on first use; a byte column's is set at construction.
	scanOnce         sync.Once
	minPred, maxPred int
}

// NewFixedPredictions builds the wrapper around an int vector.
func NewFixedPredictions(name string, preds []int) *FixedPredictions {
	return &FixedPredictions{name: name, n: len(preds), preds: preds}
}

// NewFixedBytes builds the wrapper around a byte column whose largest
// entry is largest: the decoder that filled the column tracks it, so the
// range check needs no pass over the column.
func NewFixedBytes(name string, preds []uint8, largest uint8) *FixedPredictions {
	return &FixedPredictions{name: name, n: len(preds), preds8: preds, maxPred: int(largest)}
}

// Name implements Predictor.
func (f *FixedPredictions) Name() string { return f.name }

// at returns the prediction for example i < f.n.
func (f *FixedPredictions) at(i int) int {
	if f.preds != nil {
		return f.preds[i]
	}
	return int(f.preds8[i])
}

// Predict implements Predictor: x[0] must be the example index.
func (f *FixedPredictions) Predict(x []float64) int {
	idx := int(x[0])
	if idx < 0 || idx >= f.n {
		return -1
	}
	return f.at(idx)
}

// Predictions returns the vector as ints: the wrapped slice itself, or a
// widened copy of a byte column. Callers must not mutate it.
func (f *FixedPredictions) Predictions() []int {
	if f.preds8 == nil {
		return f.preds
	}
	out := make([]int, f.n)
	for i, y := range f.preds8 {
		out[i] = int(y)
	}
	return out
}

// ByteColumn implements BytePredictor: a byte column is handed out
// without copying when it covers the dataset and its largest entry is
// inside the label alphabet. An int vector has no byte column to lend,
// and out-of-range or undersized columns report false so the copying
// path can produce its precise error.
func (f *FixedPredictions) ByteColumn(ds *data.Dataset) ([]uint8, bool) {
	if f.preds8 == nil || f.n < ds.Len() || f.maxPred >= ds.Classes {
		return nil, false
	}
	return f.preds8[:ds.Len()], true
}

// StaticPredictions implements StaticPredictor for an int vector, handed
// out without copying when it covers the dataset and every entry is
// inside the label alphabet (checked against the cached range scan). A
// byte column has no int form to lend and reports false.
func (f *FixedPredictions) StaticPredictions(ds *data.Dataset) ([]int, bool) {
	if f.preds == nil || f.n < ds.Len() {
		return nil, false
	}
	f.scanRange()
	if f.minPred < 0 || f.maxPred >= ds.Classes {
		return nil, false
	}
	return f.preds[:ds.Len()], true
}

// PredictAllInto implements BulkPredictor: predictions are positional, so
// the bulk path is a range-checked copy — no per-example interface call,
// no float64 round trip through the feature vector. It is kept
// allocation-free after the first call.
func (f *FixedPredictions) PredictAllInto(ds *data.Dataset, dst []int) error {
	if len(dst) > f.n {
		// Mirror what element-wise PredictAllInto reports when it walks past
		// the end of the vector (Predict returns -1 there).
		return fmt.Errorf("model: %s predicted -1 for example %d, outside [0,%d)",
			f.name, f.n, ds.Classes)
	}
	f.scanRange()
	if f.minPred < 0 || f.maxPred >= ds.Classes {
		// The vector holds a prediction outside this dataset's alphabet
		// somewhere; find the first one inside dst's range (the global
		// min/max may sit past it, in which case the prefix is fine).
		for i := range dst {
			if y := f.at(i); y < 0 || y >= ds.Classes {
				return fmt.Errorf("model: %s predicted %d for example %d, outside [0,%d)",
					f.name, y, i, ds.Classes)
			}
		}
	}
	if f.preds != nil {
		copy(dst, f.preds)
		return nil
	}
	for i := range dst {
		dst[i] = int(f.preds8[i])
	}
	return nil
}

// scanRange caches an int vector's range. A byte column's was set at
// construction.
func (f *FixedPredictions) scanRange() {
	if f.preds == nil {
		return
	}
	f.scanOnce.Do(func() {
		f.minPred, f.maxPred = 0, -1
		for k, y := range f.preds {
			if k == 0 || y < f.minPred {
				f.minPred = y
			}
			if k == 0 || y > f.maxPred {
				f.maxPred = y
			}
		}
	})
}

func wrongClass(y, classes int, rng *rand.Rand) int {
	w := rng.Intn(classes - 1)
	if w >= y {
		w++
	}
	return w
}

func wrongClassExcept(y, other, classes int, rng *rand.Rand) int {
	// Uniform over classes excluding y and other (requires classes >= 3).
	for {
		w := wrongClass(y, classes, rng)
		if w != other {
			return w
		}
	}
}
