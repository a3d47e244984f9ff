package evaluator

import (
	"math"
	"testing"

	"github.com/easeml/ci/internal/condlang"
	"github.com/easeml/ci/internal/interval"
)

func clause(t *testing.T, src string) condlang.Clause {
	t.Helper()
	c, err := condlang.ParseClause(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func formula(t *testing.T, src string) condlang.Formula {
	t.Helper()
	f, err := condlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func est(vals map[condlang.Var]float64, eps map[condlang.Var]float64) VarEstimates {
	return VarEstimates{Values: vals, Eps: eps}
}

func TestEvalClausePaperSemantics(t *testing.T) {
	// Appendix A.2's worked example: x < 0.1 +/- 0.01 (x is d here).
	c := clause(t, "d < 0.1 +/- 0.01")
	cases := []struct {
		dHat float64
		want interval.Truth
	}{
		{0.12, interval.False},
		{0.111, interval.False},
		{0.089, interval.True},
		{0.05, interval.True},
		{0.10, interval.Unknown},
		{0.095, interval.Unknown},
		{0.105, interval.Unknown},
	}
	for _, tc := range cases {
		got, err := EvalClause(c, est(map[condlang.Var]float64{condlang.VarD: tc.dHat}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("d̂=%v: %v, want %v", tc.dHat, got, tc.want)
		}
	}
}

func TestEvalClausePerVariableEps(t *testing.T) {
	// n - o > 0.02 with per-variable eps 0.005 each: total half-width 0.01.
	c := clause(t, "n - o > 0.02 +/- 0.01")
	eps := map[condlang.Var]float64{condlang.VarN: 0.005, condlang.VarO: 0.005}
	cases := []struct {
		n, o float64
		want interval.Truth
	}{
		{0.95, 0.90, interval.True},     // gap 0.05 > 0.02 + 0.01
		{0.925, 0.90, interval.Unknown}, // gap 0.025, straddles
		{0.905, 0.90, interval.False},   // gap 0.005 <= 0.02 - 0.01
		{0.921, 0.90, interval.Unknown}, // gap 0.021 in (0.01, 0.03)
	}
	for _, tc := range cases {
		got, err := EvalClause(c, est(map[condlang.Var]float64{
			condlang.VarN: tc.n, condlang.VarO: tc.o,
		}, eps))
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("n=%v o=%v: %v, want %v", tc.n, tc.o, got, tc.want)
		}
	}
}

func TestClauseIntervalNegativeCoefficient(t *testing.T) {
	// Interval width must use |coef|: n - 1.1*o with eps_o = 0.01 adds 0.011.
	c := clause(t, "n - 1.1 * o > 0 +/- 0.1")
	iv, err := ClauseInterval(c, est(
		map[condlang.Var]float64{condlang.VarN: 0.9, condlang.VarO: 0.8},
		map[condlang.Var]float64{condlang.VarN: 0.01, condlang.VarO: 0.01},
	))
	if err != nil {
		t.Fatal(err)
	}
	wantMid := 0.9 - 1.1*0.8
	wantHW := 0.01 + 0.011
	if math.Abs(iv.Mid()-wantMid) > 1e-12 || math.Abs(iv.Width()/2-wantHW) > 1e-12 {
		t.Errorf("interval = %v, want mid %v hw %v", iv, wantMid, wantHW)
	}
}

func TestEvalFormulaConjunction(t *testing.T) {
	f := formula(t, "n - o > 0.02 +/- 0.01 /\\ d < 0.1 +/- 0.01")
	// First clause True, second Unknown -> Unknown.
	got, err := EvalFormula(f, est(map[condlang.Var]float64{
		condlang.VarN: 0.95, condlang.VarO: 0.90, condlang.VarD: 0.10,
	}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got != interval.Unknown {
		t.Errorf("True AND Unknown = %v, want Unknown", got)
	}
	// First False dominates.
	got, err = EvalFormula(f, est(map[condlang.Var]float64{
		condlang.VarN: 0.90, condlang.VarO: 0.90, condlang.VarD: 0.10,
	}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got != interval.False {
		t.Errorf("False AND Unknown = %v, want False", got)
	}
}

func TestDecideModes(t *testing.T) {
	f := formula(t, "d < 0.1 +/- 0.01")
	unknownEst := est(map[condlang.Var]float64{condlang.VarD: 0.10}, nil)
	truth, err := EvalFormula(f, unknownEst)
	if err != nil {
		t.Fatal(err)
	}
	if truth != interval.Unknown || interval.FPFree.Collapse(truth) {
		t.Errorf("fp-free on %v: want Unknown, rejected", truth)
	}
	if !interval.FNFree.Collapse(truth) {
		t.Errorf("fn-free on %v: want accepted", truth)
	}
}

func TestEvalErrors(t *testing.T) {
	c := clause(t, "n - o > 0.02 +/- 0.01")
	if _, err := EvalClause(c, est(map[condlang.Var]float64{condlang.VarN: 0.9}, nil)); err == nil {
		t.Error("missing variable should fail")
	}
	if _, err := EvalClause(c, est(
		map[condlang.Var]float64{condlang.VarN: 0.9, condlang.VarO: 0.8},
		map[condlang.Var]float64{condlang.VarN: 0.01},
	)); err == nil {
		t.Error("missing per-variable eps should fail")
	}
	if _, err := EvalClause(c, est(
		map[condlang.Var]float64{condlang.VarN: 0.9, condlang.VarO: 0.8},
		map[condlang.Var]float64{condlang.VarN: 0.01, condlang.VarO: -0.01},
	)); err == nil {
		t.Error("negative eps should fail")
	}
	if _, err := EvalFormula(condlang.Formula{}, est(nil, nil)); err == nil {
		t.Error("empty formula should fail")
	}
}

func TestMeasure(t *testing.T) {
	oldPred := []int{0, 1, 2, 0, 1}
	newPred := []int{0, 1, 1, 0, 0}
	labels := []int{0, 1, 1, 1, 1}
	got, err := Measure(oldPred, newPred, labels)
	if err != nil {
		t.Fatal(err)
	}
	// d: positions 2 and 4 differ -> 2/5.
	if got.Values[condlang.VarD] != 0.4 {
		t.Errorf("d = %v, want 0.4", got.Values[condlang.VarD])
	}
	// old correct: 0,1,4 -> wait: old=[0,1,2,0,1] vs labels=[0,1,1,1,1]:
	// correct at 0,1,4 -> 3/5; new=[0,1,1,0,0]: correct at 0,1,2 -> 3/5.
	if got.Values[condlang.VarO] != 0.6 {
		t.Errorf("o = %v, want 0.6", got.Values[condlang.VarO])
	}
	if got.Values[condlang.VarN] != 0.6 {
		t.Errorf("n = %v, want 0.6", got.Values[condlang.VarN])
	}
}

func TestMeasurePartialLabels(t *testing.T) {
	// Unlabeled examples (-1) count for d but not for accuracy.
	oldPred := []int{0, 0, 0, 0}
	newPred := []int{0, 1, 0, 1}
	labels := []int{0, 1, -1, -1}
	got, err := Measure(oldPred, newPred, labels)
	if err != nil {
		t.Fatal(err)
	}
	if got.Values[condlang.VarD] != 0.5 {
		t.Errorf("d = %v, want 0.5", got.Values[condlang.VarD])
	}
	if got.Values[condlang.VarO] != 0.5 || got.Values[condlang.VarN] != 1.0 {
		t.Errorf("o=%v n=%v, want 0.5, 1.0", got.Values[condlang.VarO], got.Values[condlang.VarN])
	}
}

func TestMeasureAllUnlabeled(t *testing.T) {
	got, err := Measure([]int{0, 1}, []int{1, 1}, []int{-1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Values[condlang.VarN]; ok {
		t.Error("accuracy must be absent with no labels")
	}
	if got.Values[condlang.VarD] != 0.5 {
		t.Errorf("d = %v", got.Values[condlang.VarD])
	}
}

func TestMeasureErrors(t *testing.T) {
	if _, err := Measure([]int{1}, []int{1, 2}, []int{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Measure([]int{1}, []int{1}, []int{}); err == nil {
		t.Error("label length mismatch should fail")
	}
	if _, err := Measure(nil, nil, nil); err == nil {
		t.Error("empty testset should fail")
	}
}

func TestDecisionConsistency(t *testing.T) {
	f := formula(t, "n - o > 0.02 +/- 0.01")
	for gap := -0.05; gap <= 0.08; gap += 0.001 {
		v := est(map[condlang.Var]float64{condlang.VarN: 0.8 + gap, condlang.VarO: 0.8}, nil)
		truth, err := EvalFormula(f, v)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case gap > 0.0301:
			if truth != interval.True {
				t.Fatalf("gap %v: %v, want True", gap, truth)
			}
		case gap < 0.0099:
			if truth != interval.False {
				t.Fatalf("gap %v: %v, want False", gap, truth)
			}
		}
	}
}
