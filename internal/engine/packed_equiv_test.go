package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/easeml/ci/internal/condlang"
	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/script"
)

// The packed bitmap measurement core must be observationally identical to
// the element-wise definitions of the evaluation. These tests drive the
// engine and the scalar reference evaluator (reference_test.go) through
// identical commit sequences and require, commit by commit, the same
// three-valued truths, verdicts, estimates, label accounting, promotions
// and reveal sets.

// fixedDataset wraps a label vector as an index-featured dataset.
func fixedDataset(labels []int, classes int) *data.Dataset {
	ds := &data.Dataset{Name: "equiv", Classes: classes}
	for i, y := range labels {
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Y = append(ds.Y, y)
	}
	return ds
}

// TestEnginePackedVsScalarVerdicts is the engine half of the
// TestMeasurePackedVsScalar property: random candidate streams (passing,
// failing, and near-threshold models; random label vectors; word-boundary
// testset sizes 63/64/65 up to 2000) through fully-labeled and
// active-labeling plans match the scalar reference on every commit.
func TestEnginePackedVsScalarVerdicts(t *testing.T) {
	type scenario struct {
		cond  string
		rel   float64
		steps int
		sizes []int
	}
	scenarios := []scenario{
		// Fully-labeled baseline plan, lenient enough for word-boundary
		// testset sizes (LabeledN = 33 at rel 0.6, steps 2).
		{"n - 1.1 * o > -0.5 +/- 0.45", 0.6, 2, []int{63, 64, 65, 127}},
		// Active labeling (pattern 1), same boundary sizes (LabeledN = 38).
		{"d < 0.9 +/- 0.4 /\\ n - o > -0.5 +/- 0.45", 0.6, 2, []int{63, 64, 65, 127}},
		// Realistic reliabilities at realistic sizes.
		{"n - 1.1 * o > -0.1 +/- 0.1", 0.99, 2, []int{2000}},
		{"d < 0.12 +/- 0.01 /\\ n - o > 0.01 +/- 0.03", 0.99, 2, []int{2200}},
	}
	rng := rand.New(rand.NewSource(17))
	const classes = 4
	for _, sc := range scenarios {
		for _, n := range sc.sizes {
			t.Run(fmt.Sprintf("%s/n=%d", sc.cond, n), func(t *testing.T) {
				labels := make([]int, n)
				for i := range labels {
					labels[i] = rng.Intn(classes)
				}
				h0, err := model.SimulatedPredictions(labels, classes, 0.75, rng.Int63())
				if err != nil {
					t.Fatal(err)
				}
				rig := newRefRig(t, sc.cond, sc.rel, sc.steps, labels, h0, classes, EarlyDecision{})

				for commit := 0; commit < 12; commit++ {
					// Mix clear passes, clear fails, and near-threshold
					// candidates so Unknown truths appear too.
					acc := []float64{0.95, 0.4, 0.74, 0.76}[commit%4]
					preds, err := model.SimulatedPredictions(labels, classes, acc, rng.Int63())
					if err != nil {
						t.Fatal(err)
					}
					_, err = rig.commit(t, fmt.Sprintf("c%d", commit), fmt.Sprintf("m%d", commit), preds)
					if err == ErrNeedNewTestset {
						next := make([]int, n)
						for i := range next {
							next[i] = rng.Intn(classes)
						}
						carry, err := model.SimulatedPredictions(next, classes, 0.8, 99)
						if err != nil {
							t.Fatal(err)
						}
						rig.rotate(t, next, carry, classes)
						labels = next
						continue
					}
					if err != nil {
						t.Fatalf("commit %d: %v", commit, err)
					}
				}
			})
		}
	}
}

// TestEnginePackedVsScalarAcrossRotations checks the incremental packed
// state (label scratch, baseline correctness bitmap) survives rotation —
// the state must be rebuilt per generation exactly as the reference
// re-derives it from scratch.
func TestEnginePackedVsScalarAcrossRotations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, classes = 640, 4
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	h0, err := model.SimulatedPredictions(labels, classes, 0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	rig := newRefRig(t, "d < 0.9 +/- 0.4 /\\ n - o > -0.5 +/- 0.45", 0.6, 2, labels, h0, classes, EarlyDecision{})

	for gen := 0; gen < 3; gen++ {
		for c := 0; c < 2; c++ {
			acc := []float64{0.9, 0.5}[c]
			preds, err := model.SimulatedPredictions(labels, classes, acc, rng.Int63())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rig.commit(t, fmt.Sprintf("gen %d commit %d", gen, c), fmt.Sprintf("g%dc%d", gen, c), preds); err != nil {
				t.Fatalf("gen %d commit %d: %v", gen, c, err)
			}
		}
		next := make([]int, n)
		for i := range next {
			next[i] = rng.Intn(classes)
		}
		carry, err := model.SimulatedPredictions(next, classes, 0.8, int64(gen))
		if err != nil {
			t.Fatal(err)
		}
		rig.rotate(t, next, carry, classes)
		labels = next
	}
}

// TestEvaluateDryRun: Evaluate measures without consuming budget,
// recording history, charging the ledger, or promoting — and its verdict
// matches what Commit then reports for the same candidate.
func TestEvaluateDryRun(t *testing.T) {
	ds := indexDataset(600, 4)
	cfg := mustConfig(t, "n > 0.6 +/- 0.1", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 3)
	eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
		InitialModel: simModel(t, "h0", ds, 0.5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := simModel(t, "candidate", ds, 0.9, 2)
	ev, err := eng.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Pass || ev.Truth != interval.True {
		t.Errorf("dry run: %+v", ev)
	}
	if ev.FreshLabels+ev.LabelsSaved != ds.Len() {
		t.Errorf("labels %d + saved %d != %d", ev.FreshLabels, ev.LabelsSaved, ds.Len())
	}
	if ev.FreshLabels == 0 {
		t.Error("first evaluation must reveal some labels")
	}
	if !ev.HasAccuracy || ev.N < 0.8 {
		t.Errorf("accuracy estimates missing or wrong: %+v", ev)
	}
	// Nothing was recorded.
	if len(eng.History()) != 0 || eng.Repository().Len() != 0 {
		t.Error("dry run must not record history")
	}
	if eng.LabelCost().Total() != 0 {
		t.Error("dry run must not charge the ledger")
	}
	if got := eng.Testsets().Remaining(); got != 3 {
		t.Errorf("dry run consumed budget: remaining=%d", got)
	}
	if eng.ActiveModelName() != "h0" {
		t.Error("dry run must not promote")
	}
	// A second evaluation is steady-state: no fresh labels.
	ev2, err := eng.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.FreshLabels != 0 {
		t.Errorf("steady-state evaluation revealed %d labels", ev2.FreshLabels)
	}
	// Commit agrees with the dry run.
	res, err := eng.Commit(m, "dev", "for real")
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass != ev.Pass || res.Truth != ev.Truth {
		t.Errorf("Commit diverges from Evaluate: %+v vs %+v", res, ev)
	}
	if res.Estimates[condlang.VarN] != ev.N {
		t.Errorf("estimate mismatch: %v vs %v", res.Estimates, ev.N)
	}
	if _, err := eng.Evaluate(nil); err == nil {
		t.Error("nil model should fail")
	}
}

// TestEvaluateZeroAllocSteadyState pins the tentpole's allocation goal in
// a unit test (the tracked benchmark asserts it at n=1e5): steady-state
// packed evaluation — labels all revealed, buffers warm — allocates
// nothing.
func TestEvaluateZeroAllocSteadyState(t *testing.T) {
	ds := indexDataset(4096, 4)
	cfg := mustConfig(t, "n - 1.1 * o > -0.5 +/- 0.2", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 16)
	eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
		InitialModel: simModel(t, "h0", ds, 0.8, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := simModel(t, "candidate", ds, 0.85, 2)
	if _, err := eng.Evaluate(m); err != nil { // warm-up: reveals labels
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := eng.Evaluate(m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Evaluate allocates %v per run, want 0", allocs)
	}
}

// TestEnginePackedVsScalarWideAlphabet covers the wide-column fused pass:
// a label alphabet too big for the byte mirrors (classes > 255) must take
// the []int path and still match the reference exactly.
func TestEnginePackedVsScalarWideAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, classes = 300, 300
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	h0, err := model.SimulatedPredictions(labels, classes, 0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	rig := newRefRig(t, "n - 1.1 * o > -0.5 +/- 0.45", 0.6, 8, labels, h0, classes, EarlyDecision{})
	for c := 0; c < 6; c++ {
		acc := []float64{0.9, 0.5, 0.72}[c%3]
		preds, err := model.SimulatedPredictions(labels, classes, acc, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rig.commit(t, fmt.Sprintf("commit %d", c), fmt.Sprintf("m%d", c), preds); err != nil {
			t.Fatalf("commit %d: %v", c, err)
		}
	}
}
