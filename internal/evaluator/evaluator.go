// Package evaluator implements condition evaluation (Section 3.5 of the
// paper): point estimates of the variables {n, o, d} are widened into
// confidence intervals, combined through the interval algebra, compared in
// three-valued logic, and collapsed to a pass/fail signal by the script's
// fp-free / fn-free mode.
//
// # Packed measurement
//
// Measuring {n, o, d} is one pass over the testset per commit, and with
// exact-binomial plans asking for 30k-300k examples that pass dominates
// per-commit latency. The hot path is therefore columnar and bit-packed
// (packed.go): per-example booleans — "do the models disagree here?", "is
// this prediction correct?", "is this label revealed?" — live in Bitmap
// values, 64 examples per uint64 word, so the three variables are
// XOR/AND + math/bits.OnesCount64 over n/64 words instead of n branchy
// int comparisons. CommitBitmaps fuses the disagreement and correctness
// columns into one sweep (fanned across internal/parallel above
// ~256k examples); CommitBitmapsBytes is the narrow-column variant for
// label alphabets that fit a byte (classes <= 255, with 255 as the
// unrevealed sentinel), comparing eight examples per 64-bit word via a
// zero-byte SWAR mask — the configuration the engine runs when it can,
// since it moves an eighth of the memory traffic per column. Its
// candidate column is generic over width: the served path hands it the
// byte column the wire decoder wrote, and an int vector is narrowed as it
// is read, so there is one kernel for both.
// Compiled formulas (compiled.go) hoist clause linearization out of the
// per-commit path, so steady-state evaluation allocates nothing.
//
// The element-wise Measure and EvalFormula are the definitions the packed
// core is held to: TestMeasurePackedVsScalar and the engine's reference
// evaluator (a test-only, element-wise re-implementation of a commit's
// evaluation) check bit-identical estimates and verdicts against them,
// including unlabeled entries and word-boundary testset sizes.
package evaluator

import (
	"fmt"

	"github.com/easeml/ci/internal/condlang"
	"github.com/easeml/ci/internal/interval"
)

// VarEstimates carries the measured values of the condition variables on
// the current testset, with optional per-variable confidence half-widths.
type VarEstimates struct {
	// Values maps each variable to its point estimate.
	Values map[condlang.Var]float64
	// Eps maps each variable to the half-width of its confidence interval.
	// When nil, clause evaluation widens the whole left-hand side by the
	// clause's own tolerance instead (the composite-range strategy).
	Eps map[condlang.Var]float64
}

// ClauseInterval returns the confidence interval of the clause's left-hand
// expression under the estimates.
func ClauseInterval(c condlang.Clause, est VarEstimates) (interval.Interval, error) {
	lf, err := condlang.Linearize(c.Expr)
	if err != nil {
		return interval.Interval{}, err
	}
	point := lf.Const
	halfWidth := 0.0
	for v, coef := range lf.Coef {
		val, ok := est.Values[v]
		if !ok {
			return interval.Interval{}, fmt.Errorf("evaluator: no estimate for variable %s", v)
		}
		point += coef * val
		if est.Eps != nil {
			eps, ok := est.Eps[v]
			if !ok {
				return interval.Interval{}, fmt.Errorf("evaluator: no tolerance for variable %s", v)
			}
			if eps < 0 {
				return interval.Interval{}, fmt.Errorf("evaluator: negative tolerance for variable %s", v)
			}
			if coef < 0 {
				halfWidth += -coef * eps
			} else {
				halfWidth += coef * eps
			}
		}
	}
	if est.Eps == nil {
		halfWidth = c.Tolerance
	}
	return interval.Around(point, halfWidth), nil
}

// EvalClauseLHS evaluates a clause directly from a point estimate of its
// left-hand expression and a half-width. Active labeling measures n - o as
// one quantity (only disagreements are labeled, so the individual
// accuracies are unobservable); this entry point lets the engine evaluate
// the clause from that composite estimate.
func EvalClauseLHS(c condlang.Clause, lhs, halfWidth float64) (interval.Truth, error) {
	if halfWidth < 0 {
		return interval.Unknown, fmt.Errorf("evaluator: negative half-width %v", halfWidth)
	}
	iv := interval.Around(lhs, halfWidth)
	if c.Cmp == condlang.CmpGreater {
		return iv.GreaterThan(c.Threshold), nil
	}
	return iv.LessThan(c.Threshold), nil
}

// EvalClause evaluates one clause to three-valued logic.
func EvalClause(c condlang.Clause, est VarEstimates) (interval.Truth, error) {
	iv, err := ClauseInterval(c, est)
	if err != nil {
		return interval.Unknown, err
	}
	if c.Cmp == condlang.CmpGreater {
		return iv.GreaterThan(c.Threshold), nil
	}
	return iv.LessThan(c.Threshold), nil
}

// EvalFormula evaluates a conjunction of clauses in three-valued logic.
func EvalFormula(f condlang.Formula, est VarEstimates) (interval.Truth, error) {
	if len(f.Clauses) == 0 {
		return interval.Unknown, fmt.Errorf("evaluator: empty formula")
	}
	result := interval.True
	for _, c := range f.Clauses {
		t, err := EvalClause(c, est)
		if err != nil {
			return interval.Unknown, err
		}
		result = result.And(t)
	}
	return result, nil
}
