package testset

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/evaluator"
	"github.com/easeml/ci/internal/labeling"
)

// recordingOracle answers from the ground truth and keeps a copy of
// every batch it was asked for.
type recordingOracle struct {
	y       []int
	batches [][]int
}

func (o *recordingOracle) LabelBatch(idx []int) ([]int, error) {
	o.batches = append(o.batches, append([]int(nil), idx...))
	out := make([]int, len(idx))
	for k, i := range idx {
		out[k] = o.y[i]
	}
	return out, nil
}

// indexDataset is an n-example, 3-class dataset with feature [i] at i.
func indexDataset(n int) *data.Dataset {
	ds := &data.Dataset{Name: "index", Classes: 3, X: make([][]float64, n), Y: make([]int, n)}
	for i := range ds.Y {
		ds.X[i] = []float64{float64(i)}
		ds.Y[i] = i % 3
	}
	return ds
}

// refReveal is the bit-at-a-time scan the reveal methods replace: the
// ascending indices i with want[i] (every i when want is nil) and not
// revealed[i], stopping after limit of them.
func refReveal(want, revealed []bool, limit int) []int {
	var idx []int
	for i := 0; i < len(revealed) && len(idx) < limit; i++ {
		if (want == nil || want[i]) && !revealed[i] {
			idx = append(idx, i)
		}
	}
	return idx
}

func randomBools(rng *rand.Rand, n int, density float64) []bool {
	v := make([]bool, n)
	for i := range v {
		v[i] = rng.Float64() < density
	}
	return v
}

func countCandidates(want, revealed []bool) int {
	return len(refReveal(want, revealed, len(revealed)))
}

// TestRevealScanMatchesReference checks RevealFirst and RevealChunk
// against the bit-at-a-time reference on random want and revealed
// bitmaps, at limits from unbounded through the exact remainder: the
// returned indices, the revealed count and every batch the oracle saw
// must match exactly.
func TestRevealScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 63, 64, 65, 1000, 100000} {
		ds := indexDataset(n)
		for _, wantDensity := range []float64{0, 0.02, 0.5, 1} {
			for _, revDensity := range []float64{0, 0.3, 0.97, 1} {
				want := randomBools(rng, n, wantDensity)
				revealed := randomBools(rng, n, revDensity)
				var revIdx []int
				for i, r := range revealed {
					if r {
						revIdx = append(revIdx, i)
					}
				}
				wantBits := evaluator.PackBools(want)
				name := fmt.Sprintf("n=%d/want=%v/revealed=%v", n, wantDensity, revDensity)

				// check runs one reveal on a fresh copy of the state and
				// compares it with the reference's indices.
				check := func(t *testing.T, method string, ref []int, reveal func(*Testset, *recordingOracle) ([]int, error)) {
					t.Helper()
					ts, err := Restore(1, ds, revIdx)
					if err != nil {
						t.Fatal(err)
					}
					o := &recordingOracle{y: ds.Y}
					got, err := reveal(ts, o)
					if err != nil {
						t.Fatalf("%s: %v", method, err)
					}
					if !reflect.DeepEqual(got, ref) {
						t.Fatalf("%s: revealed %v, reference %v", method, head(got), head(ref))
					}
					if c := ts.RevealedCount(); c != len(revIdx)+len(ref) {
						t.Fatalf("%s: revealed count %d, want %d", method, c, len(revIdx)+len(ref))
					}
					var batches [][]int
					if len(ref) > 0 {
						batches = [][]int{ref}
					}
					if !reflect.DeepEqual(o.batches, batches) {
						t.Fatalf("%s: oracle saw %d batches, want %d", method, len(o.batches), len(batches))
					}
				}

				t.Run(name, func(t *testing.T) {
					missingWhere := countCandidates(want, revealed)
					missingFirst := n - len(revIdx)
					for _, limit := range []int{-1, 0, 1, missingFirst - 1, missingFirst, missingFirst + 1} {
						ref := refReveal(nil, revealed, max(limit, 0))
						check(t, fmt.Sprintf("RevealFirst(%d)", limit), ref, func(ts *Testset, o *recordingOracle) ([]int, error) {
							return ts.RevealFirst(limit, o)
						})
					}
					for _, limit := range []int{-1, 0, 1, missingWhere - 1, missingWhere, missingWhere + 1} {
						bound := limit
						if bound <= 0 {
							bound = missingWhere
						}
						ref := refReveal(want, revealed, bound)
						check(t, fmt.Sprintf("RevealChunk(%d)", limit), ref, func(ts *Testset, o *recordingOracle) ([]int, error) {
							return ts.RevealChunk(wantBits, limit, o)
						})
					}
				})
			}
		}
	}
}

// head shortens an index list for a failure message.
func head(v []int) []int {
	if len(v) > 20 {
		return v[:20]
	}
	return v
}

// BenchmarkRevealChunk times one chunked reveal at n = 100k in the shape
// active labeling drives it: a 10% disagreement set, half of the testset
// already revealed, and a chunk of 2000 labels.
func BenchmarkRevealChunk(b *testing.B) {
	const n, chunk = 100000, 2000
	rng := rand.New(rand.NewSource(1))
	ds := indexDataset(n)
	want := evaluator.PackBools(randomBools(rng, n, 0.1))
	var revIdx []int
	for i, r := range randomBools(rng, n, 0.5) {
		if r {
			revIdx = append(revIdx, i)
		}
	}
	ts, err := Restore(1, ds, revIdx)
	if err != nil {
		b.Fatal(err)
	}
	o := labeling.NewTruthOracle(ds.Y)
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			idx, err := ts.RevealChunk(want, chunk, o)
			if err != nil || len(idx) != chunk {
				b.Fatalf("revealed %d labels: %v", len(idx), err)
			}
			b.StopTimer()
			ts.Unreveal(idx)
			b.StartTimer()
		}
	})
}
