package model

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/easeml/ci/internal/data"
)

func blobTask(t *testing.T) (train, test *data.Dataset) {
	t.Helper()
	ds, err := data.Blobs(2000, 3, 6, 0.6, 21)
	if err != nil {
		t.Fatal(err)
	}
	// Blob features can be negative; shift into non-negative range so the
	// same task also feeds naive Bayes (count-like features).
	for _, x := range ds.X {
		for j := range x {
			x[j] = x[j] + 10
			if x[j] < 0 {
				x[j] = 0
			}
		}
	}
	train, test, err = ds.Split(0.7, 3)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func emotionTask(t *testing.T) (train, test *data.Dataset) {
	t.Helper()
	ds, err := data.EmotionCorpus(4000, data.DefaultEmotionConfig(), 17)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err = ds.Split(0.7, 5)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func TestNaiveBayesLearnsEmotion(t *testing.T) {
	train, test := emotionTask(t)
	nb, err := TrainNaiveBayes("nb", train, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := accuracy(nb, test)
	if err != nil {
		t.Fatal(err)
	}
	maj, err := TrainMajority("maj", train)
	if err != nil {
		t.Fatal(err)
	}
	majAcc, err := accuracy(maj, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < majAcc+0.15 {
		t.Errorf("naive Bayes acc %.3f should clearly beat majority %.3f", acc, majAcc)
	}
}

func TestSoftmaxLearnsBlobs(t *testing.T) {
	train, test := blobTask(t)
	m, err := TrainSoftmax("lr", train, SoftmaxConfig{Epochs: 5, LearnRate: 0.05, L2: 1e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := accuracy(m, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Errorf("softmax accuracy %.3f too low on easy blobs", acc)
	}
}

func TestPerceptronLearnsBlobs(t *testing.T) {
	train, test := blobTask(t)
	m, err := TrainPerceptron("ap", train, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := accuracy(m, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Errorf("perceptron accuracy %.3f too low on easy blobs", acc)
	}
}

func TestMoreDataHelpsNaiveBayes(t *testing.T) {
	// Incremental-commit realism: training on more data should not hurt
	// much and typically helps. We assert a weak monotonicity (within 2%).
	train, test := emotionTask(t)
	small, err := train.Subset(train.Len() / 8)
	if err != nil {
		t.Fatal(err)
	}
	nbSmall, err := TrainNaiveBayes("nb-small", small, 1)
	if err != nil {
		t.Fatal(err)
	}
	nbFull, err := TrainNaiveBayes("nb-full", train, 1)
	if err != nil {
		t.Fatal(err)
	}
	accSmall, _ := accuracy(nbSmall, test)
	accFull, _ := accuracy(nbFull, test)
	if accFull < accSmall-0.02 {
		t.Errorf("more data hurt: %.3f -> %.3f", accSmall, accFull)
	}
}

func TestTrainingErrors(t *testing.T) {
	ds, _ := data.Blobs(50, 2, 3, 0.5, 0)
	if _, err := TrainNaiveBayes("x", ds, 0); err == nil {
		t.Error("smoothing 0 should fail")
	}
	neg := &data.Dataset{X: [][]float64{{-1}, {1}}, Y: []int{0, 1}, Classes: 2}
	if _, err := TrainNaiveBayes("x", neg, 1); err == nil {
		t.Error("negative counts should fail for naive Bayes")
	}
	if _, err := TrainSoftmax("x", ds, SoftmaxConfig{Epochs: 0, LearnRate: 0.1}); err == nil {
		t.Error("epochs 0 should fail")
	}
	if _, err := TrainSoftmax("x", ds, SoftmaxConfig{Epochs: 1, LearnRate: 0}); err == nil {
		t.Error("lr 0 should fail")
	}
	if _, err := TrainPerceptron("x", ds, 0, 1); err == nil {
		t.Error("epochs 0 should fail")
	}
	var empty data.Dataset
	if _, err := TrainMajority("x", &empty); err == nil {
		t.Error("empty dataset should fail")
	}
	if _, err := PredictAllInto(nil, ds, nil); err == nil {
		t.Error("nil predictor should fail")
	}
}

func TestSimulatedPredictionsAccuracy(t *testing.T) {
	labels := make([]int, 50000)
	for i := range labels {
		labels[i] = i % 4
	}
	preds, err := SimulatedPredictions(labels, 4, 0.9, 123)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range labels {
		if preds[i] == labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(labels))
	if math.Abs(acc-0.9) > 0.01 {
		t.Errorf("simulated accuracy = %.4f, want ~0.9", acc)
	}
	// Wrong predictions are never the true label and stay in range.
	for i, p := range preds {
		if p < 0 || p >= 4 {
			t.Fatalf("prediction %d out of range at %d", p, i)
		}
	}
}

func TestSimulatedPredictionsErrors(t *testing.T) {
	if _, err := SimulatedPredictions([]int{0}, 1, 0.9, 0); err == nil {
		t.Error("classes < 2 should fail")
	}
	if _, err := SimulatedPredictions([]int{0}, 2, 1.5, 0); err == nil {
		t.Error("accuracy > 1 should fail")
	}
	if _, err := SimulatedPredictions([]int{7}, 2, 0.9, 0); err == nil {
		t.Error("out-of-range label should fail")
	}
}

func TestSolvePairSpec(t *testing.T) {
	spec, err := SolvePairSpec(0.85, 0.88, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum := spec.A + spec.B + spec.C + spec.E + spec.F
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("spec sums to %v", sum)
	}
	if math.Abs(spec.A+spec.B-0.85) > 1e-9 {
		t.Errorf("old accuracy = %v", spec.A+spec.B)
	}
	if math.Abs(spec.A+spec.C-0.88) > 1e-9 {
		t.Errorf("new accuracy = %v", spec.A+spec.C)
	}
	if math.Abs(spec.B+spec.C+spec.F-0.1) > 1e-9 {
		t.Errorf("disagreement = %v", spec.B+spec.C+spec.F)
	}
}

func TestSolvePairSpecInfeasible(t *testing.T) {
	// Disagreement below the accuracy gap is impossible.
	if _, err := SolvePairSpec(0.95, 0.5, 0.1, 4); err == nil {
		t.Error("d < |gap| should fail")
	}
	// Binary task cannot have both-wrong disagreement: high d with high
	// accuracies is fine (b+c covers it), but d=1 with low accuracy needs f.
	if _, err := SolvePairSpec(0.1, 0.1, 1.0, 2); err == nil {
		t.Error("binary both-wrong disagreement should fail")
	}
	if _, err := SolvePairSpec(1.2, 0.5, 0.1, 3); err == nil {
		t.Error("accuracy > 1 should fail")
	}
}

func TestSimulatedPairStatistics(t *testing.T) {
	labels := make([]int, 80000)
	for i := range labels {
		labels[i] = i % 4
	}
	oldPred, newPred, err := SimulatedPair(labels, 4, 0.87, 0.9, 0.08, 99)
	if err != nil {
		t.Fatal(err)
	}
	var oldC, newC, diff int
	for i := range labels {
		if oldPred[i] == labels[i] {
			oldC++
		}
		if newPred[i] == labels[i] {
			newC++
		}
		if oldPred[i] != newPred[i] {
			diff++
		}
	}
	n := float64(len(labels))
	if math.Abs(float64(oldC)/n-0.87) > 0.01 {
		t.Errorf("old accuracy = %.4f, want ~0.87", float64(oldC)/n)
	}
	if math.Abs(float64(newC)/n-0.90) > 0.01 {
		t.Errorf("new accuracy = %.4f, want ~0.90", float64(newC)/n)
	}
	if math.Abs(float64(diff)/n-0.08) > 0.01 {
		t.Errorf("disagreement = %.4f, want ~0.08", float64(diff)/n)
	}
}

func TestSimulatedPairBothWrongDisagree(t *testing.T) {
	// Force the f cell: low accuracies, high disagreement, >= 3 classes.
	labels := make([]int, 60000)
	for i := range labels {
		labels[i] = i % 5
	}
	oldPred, newPred, err := SimulatedPair(labels, 5, 0.3, 0.3, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range labels {
		if oldPred[i] != newPred[i] {
			diff++
		}
	}
	if math.Abs(float64(diff)/float64(len(labels))-0.9) > 0.01 {
		t.Errorf("disagreement = %.4f, want ~0.9", float64(diff)/float64(len(labels)))
	}
}

func TestFixedPredictions(t *testing.T) {
	fp := NewFixedPredictions("m1", []int{3, 1, 2})
	if fp.Name() != "m1" {
		t.Error("name wrong")
	}
	if fp.Predict([]float64{1}) != 1 {
		t.Error("index lookup wrong")
	}
	if fp.Predict([]float64{99}) != -1 {
		t.Error("out of range must return -1")
	}
	if len(fp.Predictions()) != 3 {
		t.Error("Predictions accessor wrong")
	}
}

func TestPredictAllIntoBufferReuse(t *testing.T) {
	ds := &data.Dataset{Name: "idx", Classes: 3}
	for i := 0; i < 100; i++ {
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Y = append(ds.Y, i%3)
	}
	preds := make([]int, 100)
	for i := range preds {
		preds[i] = (i + 1) % 3
	}
	m := NewFixedPredictions("m", preds)

	// Reference: the unbuffered path.
	want, err := PredictAllInto(m, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Buffered path reuses the caller's slice when capacity suffices.
	buf := make([]int, 100)
	got, err := PredictAllInto(m, ds, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[0] {
		t.Error("PredictAllInto must reuse the buffer")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bulk path differs at %d: %d vs %d", i, got[i], want[i])
		}
	}
	// Undersized buffer grows.
	got, err = PredictAllInto(m, ds, make([]int, 0, 10))
	if err != nil || len(got) != 100 {
		t.Fatalf("grow path: len=%d err=%v", len(got), err)
	}
	// Steady-state buffered predictions allocate nothing.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := PredictAllInto(m, ds, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("buffered PredictAllInto allocates %v per run, want 0", allocs)
	}
}

func TestPredictAllBulkErrorParity(t *testing.T) {
	ds := &data.Dataset{Name: "idx", Classes: 2}
	for i := 0; i < 5; i++ {
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Y = append(ds.Y, i%2)
	}
	// A prediction outside the alphabet is rejected with the same error
	// the element-wise path produces.
	bad := NewFixedPredictions("bad", []int{0, 1, 2, 0, 1})
	_, errBulk := PredictAllInto(bad, ds, nil)
	if errBulk == nil {
		t.Fatal("out-of-alphabet prediction must fail")
	}
	wantMsg := "model: bad predicted 2 for example 2, outside [0,2)"
	if errBulk.Error() != wantMsg {
		t.Errorf("bulk error = %q, want %q", errBulk, wantMsg)
	}
	// A short prediction vector mirrors the element-wise -1 error.
	short := NewFixedPredictions("short", []int{0, 1, 0})
	if _, err := PredictAllInto(short, ds, nil); err == nil {
		t.Error("short prediction vector must fail")
	}
	// A bad prediction beyond the dataset's length does not fail the
	// prefix (element-wise never saw it either).
	longer := NewFixedPredictions("longer", []int{0, 1, 0, 1, 0, 99})
	if _, err := PredictAllInto(longer, ds, nil); err != nil {
		t.Errorf("bad prediction past the dataset must not fail the prefix: %v", err)
	}
	if _, err := PredictAllInto(nil, ds, nil); err == nil {
		t.Error("nil predictor should fail")
	}
}

// TestFixedBytesMatchesInts: a byte column and the same vector as ints
// lend the same column, each in its own width and on the same conditions
// (the byte wrapper through ByteColumn only, the int one through
// StaticPredictions only), and answer PredictAllInto identically, down to
// its range error, which names the first offending example whatever the
// width.
func TestFixedBytesMatchesInts(t *testing.T) {
	ds := &data.Dataset{Name: "idx", Classes: 4}
	for i := 0; i < 6; i++ {
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Y = append(ds.Y, i%4)
	}
	for _, preds := range [][]int{
		{0, 1, 2, 3, 0, 1},
		{0, 1, 2, 7, 0, 255},
		{0, 1, 2, 255, 0, 1},
		{0, 1, 2, 3, 0, 1, 200}, // out of range past the dataset only
		{0, 1, 2},               // short
	} {
		col := make([]uint8, len(preds))
		var max uint8
		for i, y := range preds {
			col[i] = uint8(y)
			if col[i] > max {
				max = col[i]
			}
		}
		wide, narrow := NewFixedPredictions("m", preds), NewFixedBytes("m", col, max)
		i1, ok1 := wide.StaticPredictions(ds)
		b2, ok2 := narrow.ByteColumn(ds)
		if ok1 != ok2 || len(i1) != len(b2) {
			t.Errorf("%v: StaticPredictions %v/%v vs ByteColumn %v/%v", preds, i1, ok1, b2, ok2)
		}
		for i := range b2 {
			if i1[i] != int(b2[i]) {
				t.Errorf("%v: lent columns differ at %d", preds, i)
			}
		}
		if _, ok := narrow.StaticPredictions(ds); ok {
			t.Errorf("%v: a byte vector lent an int vector", preds)
		}
		if _, ok := wide.ByteColumn(ds); ok {
			t.Errorf("%v: an int vector lent a byte column", preds)
		}
		got1, err1 := PredictAllInto(wide, ds, nil)
		got2, err2 := PredictAllInto(narrow, ds, nil)
		if fmt.Sprint(err1) != fmt.Sprint(err2) || !reflect.DeepEqual(got1, got2) {
			t.Errorf("%v: PredictAllInto %v/%v vs %v/%v", preds, got1, err1, got2, err2)
		}
		if !reflect.DeepEqual(wide.Predictions(), narrow.Predictions()) {
			t.Errorf("%v: Predictions differ", preds)
		}
		if narrow.Predict([]float64{1}) != preds[1] || narrow.Predict([]float64{float64(len(preds))}) != -1 {
			t.Errorf("%v: Predict lookup wrong", preds)
		}
	}
	if _, err := PredictAllInto(NewFixedBytes("m", []uint8{0, 1, 2, 7, 0, 255}, 255), ds, nil); err == nil ||
		err.Error() != "model: m predicted 7 for example 3, outside [0,4)" {
		t.Errorf("byte range error = %v", err)
	}
}

// accuracy is a predictor's accuracy on a labeled dataset.
func accuracy(p Predictor, ds *data.Dataset) (float64, error) {
	preds, err := PredictAllInto(p, ds, nil)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, y := range ds.Y {
		if preds[i] == y {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len()), nil
}
