package engine

import (
	"fmt"

	"github.com/easeml/ci/internal/bounds"
	"github.com/easeml/ci/internal/condlang"
	"github.com/easeml/ci/internal/evaluator"
	"github.com/easeml/ci/internal/interval"
)

// Sequential evaluation: instead of revealing a commit's labels in one
// shot, the engine reveals them in geometrically growing chunks
// (planner.NextLook) and re-measures after every look. It stops as soon
// as the verdict is forced — when even the worst-case assignment of every
// still-unrevealed label cannot change the three-valued truth the full
// reveal would produce. The check is exact (a popcount-derived interval
// per clause, no probability), so an early exit yields the byte-identical
// verdict of the static plan at a fraction of the label cost; a commit
// that stays borderline falls through to the full reveal, so the worst
// case is identical to the static plan.
//
// The decision functions below take plain integer counts. The engine
// feeds them popcounts; the reference evaluator in the tests feeds them
// element-wise counts from the same definitions, so the two make
// bit-identical look decisions — and durable replay reproduces the label
// charges the live loop made.

// EarlyDecision configures the sequential evaluation loop. The zero value
// is the production default: the deterministic no-regret early exit on a
// 64-doubling look schedule (planner.NextLook), no probabilistic bound.
type EarlyDecision struct {
	// Disable turns the loop into the static plan: no forced-verdict
	// checks, one look that reveals everything the static plan reveals;
	// the equivalence suites use it as the baseline oracle.
	Disable bool
	// SequentialDelta, when positive, additionally stops at a look where
	// an anytime-valid without-replacement bound (bounds.SerflingEpsilon,
	// spending SequentialDelta across looks via bounds.GeometricDelta)
	// pins the verdict. This trades a <= SequentialDelta chance of
	// deciding differently from the full reveal for larger label savings;
	// the worst-case label cost stays identical to the static plan. Off
	// (0) by default: the deterministic exit alone keeps verdicts
	// byte-identical.
	SequentialDelta float64
}

func (d EarlyDecision) validate() error {
	if d.SequentialDelta < 0 || d.SequentialDelta >= 1 {
		return fmt.Errorf("engine: sequential delta must be in [0,1), got %v", d.SequentialDelta)
	}
	return nil
}

// earlyMargin pads every forced-verdict comparison. The final evaluation
// computes its clause intervals in float64 from slightly different
// expressions than the worst-case hull below; the margin absorbs that
// rounding difference, so "forced" is only ever claimed when the full
// reveal provably lands on the same truth value. Erring the other way is
// safe but costs labels: an estimate within the margin of a threshold
// just keeps revealing.
const earlyMargin = 1e-9

// lookCounts are the integer measurements one look decision is made from.
// The engine produces them via popcounts and the reference evaluator in
// the tests via element-wise walks; both must fill every field from the
// same definitions, or their decisions drift.
type lookCounts struct {
	// total is the testset size.
	total int
	// revealed is how many labels are revealed (across all commits).
	revealed int
	// matchN / matchO count revealed examples the candidate / baseline
	// predicts correctly.
	matchN, matchO int
	// diffCount is the disagreement count (label-free, always exact).
	diffCount int
	// unrevealedDis counts unrevealed examples inside the disagreement
	// set; unrevealed agreements are total-revealed-unrevealedDis.
	unrevealedDis int
}

// clausePossible classifies which truth values a clause can still take
// when its final left-hand side is known to lie in [lo, hi], returning
// the smallest and largest reachable truth in the False < Unknown < True
// order that three-valued And minimizes over. The margins make the
// classification conservative: a value is only excluded when no float
// rounding of the final evaluation could produce it.
func clausePossible(cc *evaluator.CompiledClause, lo, hi float64) (tMin, tMax interval.Truth) {
	c := cc.Clause.Threshold
	eps := cc.Clause.Tolerance
	var canTrue, canFalse, canUnknown bool
	if cc.Clause.Cmp == condlang.CmpGreater {
		// truth(p) for p-eps > c: True above c+eps, False at or below
		// c-eps, Unknown on the straddle.
		canTrue = hi-eps > c-earlyMargin
		canFalse = lo+eps <= c+earlyMargin
		canUnknown = hi > c-eps-earlyMargin && lo <= c+eps+earlyMargin
	} else {
		canTrue = lo+eps < c+earlyMargin
		canFalse = hi-eps >= c-earlyMargin
		canUnknown = lo < c+eps+earlyMargin && hi >= c-eps-earlyMargin
	}
	tMin = interval.True
	switch {
	case canFalse:
		tMin = interval.False
	case canUnknown:
		tMin = interval.Unknown
	}
	tMax = interval.False
	switch {
	case canTrue:
		tMax = interval.True
	case canUnknown:
		tMax = interval.Unknown
	}
	return tMin, tMax
}

// decideFullyLabeled runs the forced-verdict check for the fully-labeled
// path at one look. For every clause it bounds the left-hand side the
// full reveal would compute: the revealed labels fix their contribution
// exactly; each unrevealed agreement can only move n and o together, each
// unrevealed disagreement moves at most one of them. The formula's truth
// is forced when the smallest and largest reachable conjunction agree.
// look is the 1-based index of this check, for sequential delta spending.
func (e *Engine) decideFullyLabeled(c lookCounts, look int) (interval.Truth, bool) {
	n := float64(c.total)
	d := float64(c.diffCount) / n
	unrevAgree := c.total - c.revealed - c.unrevealedDis
	fMin, fMax := interval.True, interval.True
	for i := range e.compiled.Clauses {
		cc := &e.compiled.Clauses[i]
		var cn, co, cd float64
		for _, t := range cc.Terms {
			switch t.Var {
			case condlang.VarN:
				cn = t.Coef
			case condlang.VarO:
				co = t.Coef
			case condlang.VarD:
				cd = t.Coef
			}
		}
		if cn == 0 && co == 0 {
			// Label-free clause: its value is final, so evaluate it
			// exactly (no margin) — this is what lets a definitively
			// failed d-clause force the verdict before any reveal.
			t, err := evaluator.EvalClauseLHS(cc.Clause, cc.Const+cd*d, cc.Clause.Tolerance)
			if err != nil {
				return interval.Unknown, false
			}
			fMin = fMin.And(t)
			fMax = fMax.And(t)
			continue
		}
		base := cc.Const + cd*d + (cn*float64(c.matchN)+co*float64(c.matchO))/n
		ag := cn + co
		lo := base + (float64(unrevAgree)*min(0, ag)+float64(c.unrevealedDis)*min(0, cn, co))/n
		hi := base + (float64(unrevAgree)*max(0, ag)+float64(c.unrevealedDis)*max(0, cn, co))/n
		if e.early.SequentialDelta > 0 && c.revealed > 0 && c.revealed < c.total {
			// Anytime-valid shrink: the revealed prefix is a
			// without-replacement sample of the per-example contribution
			// w_i = cn*a_i + co*b_i, so its mean pins the population mean
			// within a Serfling band at this look's delta share.
			wlo := min(0, ag, cn, co)
			whi := max(0, ag, cn, co)
			dl, err1 := bounds.GeometricDelta(e.early.SequentialDelta, look)
			sEps, err2 := bounds.SerflingEpsilon(c.revealed, c.total, dl)
			if err1 == nil && err2 == nil {
				wbar := (cn*float64(c.matchN) + co*float64(c.matchO)) / float64(c.revealed)
				sLo := cc.Const + cd*d + wbar - (whi-wlo)*sEps
				sHi := cc.Const + cd*d + wbar + (whi-wlo)*sEps
				// Intersect with the deterministic hull; if the band has
				// drifted off it (the bound's failure event), trust the
				// hull.
				if max(lo, sLo) <= min(hi, sHi) {
					lo, hi = max(lo, sLo), min(hi, sHi)
				}
			}
		}
		tMin, tMax := clausePossible(cc, lo, hi)
		fMin = fMin.And(tMin)
		fMax = fMax.And(tMax)
	}
	return fMin, fMin == fMax
}

// decideActive is the forced-verdict check for the active-labeling path:
// d-only clauses are exact (no labels), and the n-o clause's final value
// (sum over disagreements of a_i-b_i, divided by the testset size) is
// bracketed by letting every unrevealed disagreement swing its full
// [-1, +1]. The bracket endpoints are the exact floats the full reveal
// would compute for those assignments.
func (e *Engine) decideActive(dHat float64, total, sumRevealed, revealedDis, diffCount, look int) (interval.Truth, bool, error) {
	fMin, fMax := interval.True, interval.True
	unrevealed := diffCount - revealedDis
	for i := range e.compiled.Clauses {
		cc := &e.compiled.Clauses[i]
		switch {
		case cc.DOnly():
			t, err := evaluator.EvalClauseLHS(cc.Clause, dHat, cc.Clause.Tolerance)
			if err != nil {
				return interval.Unknown, false, err
			}
			fMin = fMin.And(t)
			fMax = fMax.And(t)
		case cc.NMinusO():
			lo := float64(sumRevealed-unrevealed) / float64(total)
			hi := float64(sumRevealed+unrevealed) / float64(total)
			if e.early.SequentialDelta > 0 && revealedDis > 0 && revealedDis < diffCount {
				dl, err1 := bounds.GeometricDelta(e.early.SequentialDelta, look)
				sEps, err2 := bounds.SerflingEpsilon(revealedDis, diffCount, dl)
				if err1 == nil && err2 == nil {
					// a_i-b_i ranges over [-1, +1] (width 2); the band on
					// the disagreement-set mean scales to the LHS by
					// diffCount/total.
					wbar := float64(sumRevealed) / float64(revealedDis)
					sLo := float64(diffCount) * (wbar - 2*sEps) / float64(total)
					sHi := float64(diffCount) * (wbar + 2*sEps) / float64(total)
					if max(lo, sLo) <= min(hi, sHi) {
						lo, hi = max(lo, sLo), min(hi, sHi)
					}
				}
			}
			tMin, tMax := clausePossible(cc, lo, hi)
			fMin = fMin.And(tMin)
			fMax = fMax.And(tMax)
		default:
			return interval.Unknown, false, fmt.Errorf("engine: pattern plan cannot evaluate clause %q", cc.Clause)
		}
	}
	return fMin, fMin == fMax, nil
}

// finishPartialFull shapes an early-exited fully-labeled evaluation: the
// forced truth plus the estimates observable from the revealed subset.
// LabelsSaved is against the static plan's cost for this commit — every
// label that was still unrevealed when the commit arrived.
func finishPartialFull(truth interval.Truth, c lookCounts, fresh, looks, startUnrevealed int) Evaluation {
	ev := Evaluation{
		Truth:       truth,
		D:           float64(c.diffCount) / float64(c.total),
		FreshLabels: fresh,
		Looks:       looks,
		EarlyExit:   true,
		LabelsSaved: startUnrevealed - fresh,
	}
	if c.revealed > 0 {
		ev.N = float64(c.matchN) / float64(c.revealed)
		ev.O = float64(c.matchO) / float64(c.revealed)
		ev.HasAccuracy = true
	}
	return ev
}

// activeStaticCost is the label cost the static plan pays for this
// commit: the unrevealed disagreements, unless a definitively failed
// label-free clause precedes the n-o clause (then the static plan
// short-circuits and pays nothing). Early-exit savings are measured
// against this, so they never overstate; with early decision disabled,
// a zero cost is what skips the single look.
func (e *Engine) activeStaticCost(dHat float64, unrevealedDis int) int {
	truth := interval.True
	for i := range e.compiled.Clauses {
		cc := &e.compiled.Clauses[i]
		if cc.DOnly() {
			if t, err := evaluator.EvalClauseLHS(cc.Clause, dHat, cc.Clause.Tolerance); err == nil {
				truth = truth.And(t)
			}
			continue
		}
		if cc.NMinusO() && truth != interval.False {
			return unrevealedDis
		}
	}
	return 0
}
