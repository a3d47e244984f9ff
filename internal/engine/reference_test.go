package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/easeml/ci/internal/condlang"
	"github.com/easeml/ci/internal/core"
	"github.com/easeml/ci/internal/evaluator"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/planner"
	"github.com/easeml/ci/internal/script"
)

// reference is a pure re-implementation of one commit's evaluation,
// written from the definitions rather than from the engine's packed
// state. Every count is an element-wise walk over the labels, the
// candidate and the baseline; the revealed set is a []bool; a reveal
// marks unrevealed indices in ascending order up to the look target; the
// full evaluation is evaluator.Measure + EvalFormula. Only the look
// schedule (planner.NextLook) and the forced-verdict checks
// (decideFullyLabeled / decideActive, which take plain integer counts)
// are shared with the engine. The engine suites drive an engine and a
// reference through the same commits and require identical verdicts,
// estimates, label accounting and reveal sets.
type reference struct {
	cfg    *script.Config
	active bool // the plan is a pattern (active-labeling) plan
	early  EarlyDecision
	// decide carries the compiled condition and early config the shared
	// decision functions read; nothing else of it is used.
	decide *Engine

	labels   []int
	revealed []bool
	base     []int
	// batches counts reveal steps that paid for at least one label: each
	// is one oracle round trip.
	batches int
}

// newReference builds a reference for the given script, plan kind and
// early config over a first testset and baseline.
func newReference(t *testing.T, cfg *script.Config, kind core.PlanKind, early EarlyDecision, labels, base []int) *reference {
	t.Helper()
	compiled, err := evaluator.Compile(cfg.Condition)
	if err != nil {
		t.Fatal(err)
	}
	r := &reference{
		cfg:    cfg,
		active: kind == core.Pattern1 || kind == core.Pattern2,
		early:  early,
		decide: &Engine{compiled: compiled, early: early},
	}
	r.rotate(labels, base)
	return r
}

// rotate installs a fresh testset (nothing revealed) and its baseline.
func (r *reference) rotate(labels, base []int) {
	r.labels = append([]int(nil), labels...)
	r.revealed = make([]bool, len(labels))
	r.base = append([]int(nil), base...)
}

// revealedIndices lists the revealed examples in ascending order.
func (r *reference) revealedIndices() []int {
	out := []int{}
	for i, rev := range r.revealed {
		if rev {
			out = append(out, i)
		}
	}
	return out
}

// reveal marks up to want unrevealed examples (in the disagreement set
// only, when disOnly) in ascending index order and returns how many it
// marked.
func (r *reference) reveal(cand []int, disOnly bool, want int) int {
	got := 0
	for i := range r.labels {
		if got == want {
			break
		}
		if r.revealed[i] || (disOnly && r.base[i] == cand[i]) {
			continue
		}
		r.revealed[i] = true
		got++
	}
	if got > 0 {
		r.batches++
	}
	return got
}

// evaluate runs one commit of cand against the current baseline, updating
// the revealed set and (on a pass) the baseline.
func (r *reference) evaluate(cand []int) (Evaluation, error) {
	var ev Evaluation
	var err error
	if r.active {
		ev, err = r.activeLabeling(cand)
	} else {
		ev, err = r.fullyLabeled(cand)
	}
	if err != nil {
		return Evaluation{}, err
	}
	ev.Pass = r.cfg.Mode.Collapse(ev.Truth)
	if ev.Pass {
		r.base = append([]int(nil), cand...)
	}
	return ev, nil
}

// fullCounts walks the testset once for the fully-labeled look counts.
func (r *reference) fullCounts(cand []int) lookCounts {
	c := lookCounts{total: len(r.labels)}
	for i, y := range r.labels {
		dis := r.base[i] != cand[i]
		if dis {
			c.diffCount++
		}
		switch {
		case r.revealed[i]:
			c.revealed++
			if cand[i] == y {
				c.matchN++
			}
			if r.base[i] == y {
				c.matchO++
			}
		case dis:
			c.unrevealedDis++
		}
	}
	return c
}

func (r *reference) fullyLabeled(cand []int) (Evaluation, error) {
	n := len(r.labels)
	startUnrevealed := n - r.fullCounts(cand).revealed
	fresh, looks := 0, 0
	for {
		c := r.fullCounts(cand)
		if c.revealed == n {
			break
		}
		target := n
		if !r.early.Disable {
			truth, forced := r.decide.decideFullyLabeled(c, looks+1)
			if forced {
				ev := Evaluation{
					Truth:       truth,
					D:           float64(c.diffCount) / float64(n),
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
				return ev, nil
			}
			target = planner.NextLook(c.revealed, n)
		}
		fresh += r.reveal(cand, false, target-c.revealed)
		looks++
	}
	est, err := evaluator.Measure(r.base, cand, r.labels)
	if err != nil {
		return Evaluation{}, err
	}
	truth, err := evaluator.EvalFormula(r.cfg.Condition, est)
	if err != nil {
		return Evaluation{}, err
	}
	ev := Evaluation{
		Truth:       truth,
		D:           est.Values[condlang.VarD],
		N:           est.Values[condlang.VarN],
		O:           est.Values[condlang.VarO],
		HasAccuracy: true,
		FreshLabels: fresh,
	}
	if !r.early.Disable {
		ev.Looks = looks
	}
	return ev, nil
}

// dOnlyClause classifies a pattern-plan clause: d alone (true), or
// n - o (false).
func dOnlyClause(c condlang.Clause) (bool, error) {
	lf, err := condlang.Linearize(c.Expr)
	if err != nil {
		return false, err
	}
	switch {
	case len(lf.Coef) == 1 && lf.Coef[condlang.VarD] == 1:
		return true, nil
	case len(lf.Coef) == 2 && lf.Coef[condlang.VarN] == 1 && lf.Coef[condlang.VarO] == -1:
		return false, nil
	}
	return false, fmt.Errorf("pattern plan cannot evaluate clause %q", c)
}

// activeCounts walks the disagreement set: its size, how many of it are
// revealed, and sum over revealed disagreements of [cand right] - [base
// right].
func (r *reference) activeCounts(cand []int) (diffCount, revealedDis, sumR int) {
	for i, y := range r.labels {
		if r.base[i] == cand[i] {
			continue
		}
		diffCount++
		if !r.revealed[i] {
			continue
		}
		revealedDis++
		if cand[i] == y {
			sumR++
		}
		if r.base[i] == y {
			sumR--
		}
	}
	return diffCount, revealedDis, sumR
}

func (r *reference) activeLabeling(cand []int) (Evaluation, error) {
	n := len(r.labels)
	diffCount, revealedDis, _ := r.activeCounts(cand)
	dHat := float64(diffCount) / float64(n)
	// The static plan's cost: the unrevealed disagreements, unless a d
	// clause before the n-o clause is already False (then it pays none).
	staticCost := 0
	truth := interval.True
	for _, c := range r.cfg.Condition.Clauses {
		if truth == interval.False {
			break
		}
		dOnly, err := dOnlyClause(c)
		if err != nil {
			return Evaluation{}, err
		}
		if !dOnly {
			staticCost = diffCount - revealedDis
			break
		}
		t, err := evaluator.EvalClauseLHS(c, dHat, c.Tolerance)
		if err != nil {
			return Evaluation{}, err
		}
		truth = truth.And(t)
	}

	fresh, looks := 0, 0
	for {
		_, revealedDis, sumR := r.activeCounts(cand)
		if revealedDis == diffCount || (r.early.Disable && staticCost == 0) {
			break
		}
		target := diffCount
		if !r.early.Disable {
			truth, forced, err := r.decide.decideActive(dHat, n, sumR, revealedDis, diffCount, looks+1)
			if err != nil {
				return Evaluation{}, err
			}
			if forced {
				return Evaluation{
					Truth:       truth,
					D:           dHat,
					FreshLabels: fresh,
					Looks:       looks,
					EarlyExit:   true,
					LabelsSaved: staticCost - fresh,
				}, nil
			}
			target = planner.NextLook(revealedDis, diffCount)
		}
		fresh += r.reveal(cand, true, target-revealedDis)
		looks++
	}

	ev := Evaluation{D: dHat, FreshLabels: fresh}
	if !r.early.Disable {
		ev.Looks = looks
	}
	truth = interval.True
	for _, c := range r.cfg.Condition.Clauses {
		if truth == interval.False {
			// And is monotone: a False clause fixes the conjunction.
			break
		}
		dOnly, err := dOnlyClause(c)
		if err != nil {
			return Evaluation{}, err
		}
		lhs := dHat
		if !dOnly {
			_, _, sum := r.activeCounts(cand)
			lhs = float64(sum) / float64(n)
		}
		t, err := evaluator.EvalClauseLHS(c, lhs, c.Tolerance)
		if err != nil {
			return Evaluation{}, err
		}
		truth = truth.And(t)
	}
	ev.Truth = truth
	return ev, nil
}

// countingOracle counts the oracle round trips an engine makes.
type countingOracle struct {
	*labeling.TruthOracle
	calls int
}

func (c *countingOracle) LabelBatch(idx []int) ([]int, error) {
	c.calls++
	return c.TruthOracle.LabelBatch(idx)
}

// refRig drives an engine and a reference through the same commits.
type refRig struct {
	eng    *Engine
	ref    *reference
	oracle *countingOracle
	// commits counts commit calls, to alternate candidate widths.
	commits int
}

// newRefRig builds an engine (full adaptivity, fp-free) over labels and
// the h0 baseline, and its reference.
func newRefRig(t *testing.T, cond string, rel float64, steps int, labels, h0Preds []int, classes int, early EarlyDecision) *refRig {
	t.Helper()
	cfg := mustConfig(t, cond, rel, interval.FPFree, script.Adaptivity{Kind: script.AdaptivityFull}, steps)
	ds := fixedDataset(labels, classes)
	oracle := &countingOracle{TruthOracle: labeling.NewTruthOracle(ds.Y)}
	eng, err := New(cfg, ds, oracle, Options{
		InitialModel:  model.NewFixedPredictions("h0", h0Preds),
		EarlyDecision: early,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &refRig{eng: eng, ref: newReference(t, cfg, eng.Plan().Kind, early, labels, h0Preds), oracle: oracle}
}

// commit runs one commit on the engine and, unless the engine refused it,
// on the reference, and fails the test on any divergence in the verdict,
// the estimates, the label accounting, the oracle round trips, promotion
// or the reveal set.
func (r *refRig) commit(t *testing.T, tag string, name string, preds []int) (Result, error) {
	t.Helper()
	res, err := r.eng.Commit(r.candidate(name, preds), "dev", tag)
	if err != nil {
		return res, err
	}
	ev, err := r.ref.evaluate(preds)
	if err != nil {
		t.Fatalf("%s: reference: %v", tag, err)
	}
	got := Evaluation{
		Truth:       res.Truth,
		Pass:        res.Pass,
		FreshLabels: res.FreshLabels,
		Looks:       res.Looks,
		EarlyExit:   res.EarlyExit,
		LabelsSaved: res.LabelsSaved,
	}
	want := ev
	want.D, want.N, want.O, want.HasAccuracy = 0, 0, 0, false
	if got != want || res.Promoted != ev.Pass {
		t.Fatalf("%s: engine diverges from the reference:\nengine:    %+v promoted=%v\nreference: %+v", tag, res, res.Promoted, ev)
	}
	if !reflect.DeepEqual(res.Estimates, ev.estimatesMap()) {
		t.Fatalf("%s: estimates diverge: engine %v, reference %v", tag, res.Estimates, ev.estimatesMap())
	}
	if got, want := r.eng.Testsets().Current().RevealedIndices(), r.ref.revealedIndices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: reveal sets diverge: engine %d labels, reference %d", tag, len(got), len(want))
	}
	if !reflect.DeepEqual(r.eng.active, r.ref.base) {
		t.Fatalf("%s: baselines diverge after the commit", tag)
	}
	if r.oracle.calls != r.ref.batches {
		t.Fatalf("%s: engine made %d oracle round trips so far, reference %d", tag, r.oracle.calls, r.ref.batches)
	}
	return res, nil
}

// candidate wraps preds as an int vector on odd calls and, on even ones,
// as the byte column the served path builds whenever every prediction
// fits a byte, so both candidate widths meet the reference.
func (r *refRig) candidate(name string, preds []int) model.Predictor {
	r.commits++
	if r.commits%2 == 1 {
		return model.NewFixedPredictions(name, preds)
	}
	col := make([]uint8, len(preds))
	var mx uint8
	for i, y := range preds {
		if y < 0 || y > 255 {
			return model.NewFixedPredictions(name, preds)
		}
		col[i] = uint8(y)
		mx = max(mx, col[i])
	}
	return model.NewFixedBytes(name, col, mx)
}

// rotate installs the same fresh testset and carried baseline on both.
func (r *refRig) rotate(t *testing.T, labels, carry []int, classes int) {
	t.Helper()
	ds := fixedDataset(labels, classes)
	r.oracle.TruthOracle = labeling.NewTruthOracle(ds.Y)
	if err := r.eng.RotateTestset(ds, r.oracle, model.NewFixedPredictions("carry", carry)); err != nil {
		t.Fatal(err)
	}
	r.ref.rotate(labels, carry)
}

// TestEngineMatchesReference runs the engine against the reference over
// random commit streams across every evaluation configuration: early
// decision on, off, and with the sequential bound armed; fully-labeled and
// active-labeling plans (a label-free clause before and after the n-o
// clause); byte-column and int-column alphabets; with rotations.
func TestEngineMatchesReference(t *testing.T) {
	conds := []struct {
		name, cond string
		rel        float64
		n          int
		active     bool
	}{
		{"fully", "n - 1.1 * o > -0.5 +/- 0.45", 0.6, 300, false},
		{"active-d-first", "d < 0.3 +/- 0.2 /\\ n - o > 0 +/- 0.1", 0.6, 700, true},
		{"active-d-last", "n - o > 0 +/- 0.1 /\\ d < 0.3 +/- 0.2", 0.6, 700, true},
	}
	earlies := []struct {
		name  string
		early EarlyDecision
	}{
		{"early", EarlyDecision{}},
		{"static", EarlyDecision{Disable: true}},
		{"sequential", EarlyDecision{SequentialDelta: 0.1}},
	}
	rng := rand.New(rand.NewSource(97))
	// What the matrix exercised, so a reshuffled seed cannot quietly turn
	// it into a suite of trivial commits.
	var paid, earlyExits, shortCircuits int
	for _, c := range conds {
		for _, e := range earlies {
			for _, classes := range []int{4, 300} {
				t.Run(fmt.Sprintf("%s/%s/classes=%d", c.name, e.name, classes), func(t *testing.T) {
					labels := randomLabels(rng, c.n, classes)
					h0, err := model.SimulatedPredictions(labels, classes, 0.75, rng.Int63())
					if err != nil {
						t.Fatal(err)
					}
					rig := newRefRig(t, c.cond, c.rel, 4, labels, h0, classes, e.early)
					if got := rig.ref.active; got != c.active {
						t.Fatalf("plan %v: active labeling = %v, want %v", rig.eng.Plan().Kind, got, c.active)
					}
					for commit := 0; commit < 14; commit++ {
						preds := perturbed(rng, h0, labels, classes, commit)
						res, err := rig.commit(t, fmt.Sprintf("commit %d", commit), fmt.Sprintf("m%d", commit), preds)
						if err == nil {
							switch {
							case res.EarlyExit:
								earlyExits++
							case res.FreshLabels > 0:
								paid++
							case e.early.Disable && c.active && res.Truth == interval.False:
								// The static plan skipped the n-o clause's labels.
								shortCircuits++
							}
						}
						if err == ErrNeedNewTestset {
							labels = randomLabels(rng, c.n, classes)
							h0, err = model.SimulatedPredictions(labels, classes, 0.75, rng.Int63())
							if err != nil {
								t.Fatal(err)
							}
							rig.rotate(t, labels, h0, classes)
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
	if paid == 0 || earlyExits == 0 || shortCircuits == 0 {
		t.Fatalf("matrix too tame: %d paid, %d early exits, %d static short-circuits", paid, earlyExits, shortCircuits)
	}
}

// randomLabels draws n labels over classes.
func randomLabels(rng *rand.Rand, n, classes int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(classes)
	}
	return out
}

// perturbed derives a candidate from base: a share of examples fixed to
// the true label and a share broken to a wrong one, cycling from small
// edits (near-threshold, small disagreement) to rewrites (disagreement
// large enough that a d clause alone is False).
func perturbed(rng *rand.Rand, base, labels []int, classes, commit int) []int {
	shares := [][2]float64{{0.3, 0}, {0, 0.3}, {0.05, 0.05}, {0, 0.95}, {0.15, 0.02}, {0.02, 0.15}, {0.6, 0}}
	s := shares[commit%len(shares)]
	out := append([]int(nil), base...)
	for i := range out {
		switch u := rng.Float64(); {
		case u < s[0]:
			out[i] = labels[i]
		case u < s[0]+s[1]:
			out[i] = (labels[i] + 1 + rng.Intn(classes-1)) % classes
		}
	}
	return out
}
