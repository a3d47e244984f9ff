package engine

import (
	"errors"
	"fmt"

	"github.com/easeml/ci/internal/condlang"
	"github.com/easeml/ci/internal/core"
	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/evaluator"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/planner"
	"github.com/easeml/ci/internal/script"
)

// ErrNeedNewTestset is returned by Commit when the installed testset's
// statistical budget is spent; install a fresh one with RotateTestset.
var ErrNeedNewTestset = errors.New("engine: testset budget exhausted; rotate in a new testset")

// Evaluation is the measurement outcome of evaluating one candidate model
// against the current baseline: the three-valued truth of the condition,
// its mode-collapsed pass signal, the point estimates that were
// observable, and how many fresh oracle labels the measurement needed. It
// is a plain value (no maps), so the steady-state evaluation path
// allocates nothing.
type Evaluation struct {
	// Truth is the three-valued evaluation of the condition.
	Truth interval.Truth
	// Pass is the outcome after mode collapse.
	Pass bool
	// D is the measured disagreement fraction (always observable).
	D float64
	// N and O are the measured accuracies; only meaningful when
	// HasAccuracy is true (active labeling cannot observe them).
	N, O float64
	// HasAccuracy reports whether N and O were measured.
	HasAccuracy bool
	// FreshLabels is the number of new oracle labels the measurement
	// revealed.
	FreshLabels int
	// Looks is how many reveal chunks the sequential loop took before
	// deciding (0 on a pre-reveal exit or with early decision disabled).
	Looks int
	// EarlyExit reports that the verdict was forced before the static
	// plan's full reveal.
	EarlyExit bool
	// LabelsSaved is the static plan's label cost for this commit minus
	// what was actually revealed.
	LabelsSaved int
}

// estimatesMap shapes the observable point estimates the way Result (and
// the wire API) reports them.
func (ev Evaluation) estimatesMap() map[condlang.Var]float64 {
	est := map[condlang.Var]float64{condlang.VarD: ev.D}
	if ev.HasAccuracy {
		est[condlang.VarN] = ev.N
		est[condlang.VarO] = ev.O
	}
	return est
}

// Evaluate measures the condition for a candidate model without recording
// a commit: no budget is consumed, nothing is appended to history, and no
// promotion happens. Labels the measurement reveals are spent for real on
// the testset (they stay revealed) but are not booked to the per-commit
// cost ledger — only Commit records cost. This is the dry-run surface
// ("what would this commit's verdict be?") and the benchmark target for
// the packed measurement core.
func (e *Engine) Evaluate(m model.Predictor) (Evaluation, error) {
	if m == nil {
		return Evaluation{}, fmt.Errorf("engine: nil model")
	}
	_, ev, _, err := e.evaluateModel(m)
	return ev, err
}

// Commit evaluates a newly committed model and returns the result. The
// evaluation consumes one unit of the testset's statistical budget.
func (e *Engine) Commit(m model.Predictor, author, message string) (Result, error) {
	if m == nil {
		return Result{}, fmt.Errorf("engine: nil model")
	}
	if !e.tsm.CanEvaluate() {
		return Result{}, ErrNeedNewTestset
	}
	ts := e.tsm.Current()
	cand, ev, borrowed, err := e.evaluateModel(m)
	if err != nil {
		return Result{}, err
	}
	if e.journal != nil && !e.early.Disable {
		// Journal the look decision before the reveal it explains, so a
		// replayed log can audit that recovery reproduced the exact same
		// label charges the sequential loop made live.
		if err := e.journal.JournalLooks(ev.Looks, ev.LabelsSaved, ev.EarlyExit); err != nil {
			return Result{}, err
		}
	}
	if e.journal != nil && ev.FreshLabels > 0 {
		if err := e.journal.JournalReveal(ev.FreshLabels); err != nil {
			return Result{}, err
		}
	}
	e.costs.Charge(ev.FreshLabels)
	if e.journal != nil {
		if err := e.journal.JournalCharge(ev.FreshLabels); err != nil {
			return Result{}, err
		}
	}
	pass := ev.Pass

	event, err := e.tsm.Record(pass)
	if err != nil {
		return Result{}, err
	}

	commit, err := e.repo.Append(author, message, m.Name(), map[string]string{
		"testset-generation": fmt.Sprint(ts.Generation),
	})
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Commit:         commit,
		Step:           event.Step,
		Generation:     ts.Generation,
		Estimates:      ev.estimatesMap(),
		Truth:          ev.Truth,
		Pass:           pass,
		Promoted:       pass,
		NeedNewTestset: event.NeedNewTestset,
		FreshLabels:    ev.FreshLabels,
		Looks:          ev.Looks,
		EarlyExit:      ev.EarlyExit,
		LabelsSaved:    ev.LabelsSaved,
	}

	// Signal routing per adaptivity mode (Section 2.2).
	switch e.cfg.Adaptivity.Kind {
	case script.AdaptivityNone:
		// The developer always sees "accepted"; the truth goes to the
		// third-party address.
		res.Signal = true
		if err := e.notifier.Send(notify.Notification{
			Kind:    notify.KindResult,
			To:      e.cfg.Adaptivity.Email,
			Subject: fmt.Sprintf("ease.ml/ci result for commit %s", commit.ID),
			Body:    fmt.Sprintf("model %q step %d: truth=%s pass=%v", m.Name(), res.Step, ev.Truth, pass),
		}); err != nil {
			return Result{}, err
		}
	default: // full, firstChange: release the real signal.
		res.Signal = pass
	}

	if event.NeedNewTestset {
		if err := e.notifier.Send(notify.Notification{
			Kind:    notify.KindAlarm,
			To:      "integration-team",
			Subject: "ease.ml/ci: new testset required",
			Body:    event.Reason,
		}); err != nil {
			return Result{}, err
		}
	}

	// Promotion: a commit whose true outcome is pass becomes the baseline
	// the next commit is compared against.
	if pass {
		switch {
		case !borrowed:
			// The candidate is the engine's own predBuf: swap it with the
			// retired baseline so both slices keep cycling with zero
			// allocation.
			e.active, e.predBuf = cand.ints, e.active
		case cand.bytes != nil:
			// The evaluation read the model's own column in place; the
			// baseline must be engine-owned, so promotion pays the copy
			// the evaluation skipped.
			for i, y := range cand.bytes {
				e.predBuf[i] = int(y)
			}
			e.active, e.predBuf = e.predBuf, e.active
		default:
			copy(e.predBuf, cand.ints)
			e.active, e.predBuf = e.predBuf, e.active
		}
		e.activeMatch, e.newMatch = e.newMatch, e.activeMatch
		if e.byteCols {
			// The narrow baseline mirror follows the promotion.
			if cand.bytes != nil {
				copy(e.active8, cand.bytes)
			} else {
				for i, y := range e.active {
					e.active8[i] = uint8(y)
				}
			}
		}
		e.activeName = m.Name()
		if e.journal != nil {
			if err := e.journal.JournalPromote(m.Name()); err != nil {
				return Result{}, err
			}
		}
	}
	e.history = append(e.history, res)
	return res, nil
}

// RotateTestset installs fresh data as the next-generation testset together
// with its oracle and recomputes the baseline predictions on it.
func (e *Engine) RotateTestset(next *data.Dataset, oracle labeling.Oracle, activeModel model.Predictor) error {
	if oracle == nil {
		return fmt.Errorf("engine: nil oracle")
	}
	if activeModel == nil {
		return fmt.Errorf("engine: the active model must be re-supplied to rotate (its predictions are testset-specific)")
	}
	if e.plan.LabeledN > 0 && next.Len() < e.plan.LabeledN {
		return fmt.Errorf("engine: new testset has %d examples but the plan requires %d", next.Len(), e.plan.LabeledN)
	}
	if err := e.tsm.Rotate(next); err != nil {
		return err
	}
	e.batch = labeling.AsBatch(oracle)
	return e.setActive(activeModel)
}

// candidate is the prediction column a commit is measured on: a byte
// column when the model lends one and the alphabet fits a byte, an int
// column otherwise. Exactly one of bytes and ints is set.
type candidate struct {
	bytes []uint8
	ints  []int
}

// at returns the candidate's prediction for example i.
func (c candidate) at(i int) int {
	if c.bytes != nil {
		return int(c.bytes[i])
	}
	return c.ints[i]
}

// evaluateModel produces the candidate's predictions and measures the
// condition through the packed bitmap core. The returned borrowed flag
// reports that the candidate column is the model's own (zero-copy fast
// path): it is only read during this evaluation, and a caller that wants
// to keep it (promotion) must copy it into engine-owned storage first.
func (e *Engine) evaluateModel(m model.Predictor) (cand candidate, ev Evaluation, borrowed bool, err error) {
	ts := e.tsm.Current()
	cand, borrowed = lendColumn(m, ts.Data, e.byteCols)
	if !borrowed {
		preds, err := model.PredictAllInto(m, ts.Data, e.predBuf)
		if err != nil {
			return candidate{}, Evaluation{}, false, err
		}
		e.predBuf = preds
		cand = candidate{ints: preds}
	}
	e.evalReveals = e.evalReveals[:0]
	switch e.plan.Kind {
	case core.Pattern1, core.Pattern2:
		ev, err = e.evaluateActiveLabeling(cand)
	default:
		ev, err = e.evaluateFullyLabeled(cand)
	}
	if err != nil {
		e.rollbackReveals()
		return candidate{}, Evaluation{}, false, err
	}
	e.evalReveals = e.evalReveals[:0]
	ev.Pass = e.cfg.Mode.Collapse(ev.Truth)
	return cand, ev, borrowed, nil
}

// lendColumn is the zero-copy tier: a prediction-vector model (the
// serving wire format) is measured in place — the fused pass only reads
// it, so a defensive copy would be pure memory traffic. Its byte column
// comes first when the alphabet fits a byte, then its int vector. False
// means the model lends nothing valid for ds.
func lendColumn(m model.Predictor, ds *data.Dataset, byteCols bool) (candidate, bool) {
	if bp, ok := m.(model.BytePredictor); ok && byteCols {
		if col, ok := bp.ByteColumn(ds); ok {
			return candidate{bytes: col}, true
		}
	}
	if sp, ok := m.(model.StaticPredictor); ok {
		if col, ok := sp.StaticPredictions(ds); ok {
			return candidate{ints: col}, true
		}
	}
	return candidate{}, false
}

// rollbackReveals un-reveals every label the failed evaluation paid for:
// the testset marks (testset.Unreveal), the packed label columns, and
// both incremental correctness bitmaps. Each reveal batch is atomic on
// its own (verify-all-then-mark), but a sequential evaluation spans
// several batches — a remote-oracle outage at look k would otherwise
// strand looks 1..k-1 revealed, and the re-run after recovery would pay
// fewer fresh labels and take a different look path than a run that
// never failed. With the rollback (and the provider client's
// verified-label cache making the re-request free), the re-run is
// byte-identical to the fault-free run: same looks, same fresh-label
// charge, same verdict.
func (e *Engine) rollbackReveals() {
	if len(e.evalReveals) == 0 {
		return
	}
	e.tsm.Current().Unreveal(e.evalReveals)
	for _, i := range e.evalReveals {
		if i < len(e.labels) {
			e.labels[i] = -1
		}
		if e.byteCols && i < len(e.labels8) {
			e.labels8[i] = 255
		}
		e.activeMatch.Clear(i)
		e.newMatch.Clear(i)
	}
	e.evalReveals = e.evalReveals[:0]
}

// fusedPass fills the diff and new-model correctness bitmaps for the
// candidate, through the narrow byte columns when the alphabet allows.
func (e *Engine) fusedPass(cand candidate) {
	switch {
	case cand.bytes != nil:
		evaluator.CommitBitmapsBytes(cand.bytes, e.active8, e.labels8, &e.diff, &e.newMatch)
	case e.byteCols:
		evaluator.CommitBitmapsBytes(cand.ints, e.active8, e.labels8, &e.diff, &e.newMatch)
	default:
		evaluator.CommitBitmaps(e.active, cand.ints, e.labels, &e.diff, &e.newMatch)
	}
}

// evaluateFullyLabeled is the baseline plan, evaluated sequentially: the
// fused pass builds the disagreement and candidate-correctness bitmaps up
// front (correctness only lights up on revealed labels — the sentinel in
// the label column never matches a prediction), then labels come in
// prefix chunks along the geometric look schedule, with a forced-verdict
// check between chunks. A commit that is not borderline exits after a
// fraction of the testset; one that is falls through to the full reveal
// and the exact evaluation. With early decision disabled there are no
// checks and a single look reveals the whole testset — the static plan's
// one oracle batch.
func (e *Engine) evaluateFullyLabeled(cand candidate) (Evaluation, error) {
	ts := e.tsm.Current()
	n := ts.Len()
	startUnrevealed := n - ts.RevealedCount()
	e.fusedPass(cand)
	fresh, looks := 0, 0
	for {
		revealed := ts.RevealedCount()
		if revealed == n {
			break
		}
		target := n
		if !e.early.Disable {
			c := lookCounts{
				total:         n,
				revealed:      revealed,
				matchN:        e.newMatch.Count(),
				matchO:        e.activeMatch.Count(),
				diffCount:     e.diff.Count(),
				unrevealedDis: evaluator.AndNotCount(e.diff, ts.RevealedBitmap()),
			}
			truth, forced := e.decideFullyLabeled(c, looks+1)
			if forced {
				ev := finishPartialFull(truth, c, fresh, looks, startUnrevealed)
				e.setEstVals(ev)
				return ev, nil
			}
			target = planner.NextLook(revealed, n)
		}
		freshIdx, err := ts.RevealFirst(target-revealed, e.batch)
		if err != nil {
			return Evaluation{}, err
		}
		e.patchRevealed(cand, freshIdx)
		fresh += len(freshIdx)
		looks++
	}
	// Fully revealed: the exact evaluation.
	ev := Evaluation{
		D:           float64(e.diff.Count()) / float64(n),
		N:           float64(e.newMatch.Count()) / float64(n),
		O:           float64(e.activeMatch.Count()) / float64(n),
		HasAccuracy: true,
		FreshLabels: fresh,
	}
	if !e.early.Disable {
		ev.Looks = looks
	}
	e.setEstVals(ev)
	truth, err := e.compiled.Eval(evaluator.VarEstimates{Values: e.estVals})
	if err != nil {
		return Evaluation{}, err
	}
	ev.Truth = truth
	return ev, nil
}

// patchRevealed folds freshly revealed labels into the packed measurement
// state: the label scratch columns and both correctness bitmaps, exactly
// the bits a full fused pass over the now-revealed labels would set.
func (e *Engine) patchRevealed(cand candidate, freshIdx []int) {
	ts := e.tsm.Current()
	e.evalReveals = append(e.evalReveals, freshIdx...)
	for _, idx := range freshIdx {
		y := ts.Data.Y[idx]
		e.labels[idx] = y
		if e.byteCols {
			e.labels8[idx] = uint8(y)
		}
		if e.active[idx] == y {
			e.activeMatch.Set(idx)
		}
		if cand.at(idx) == y {
			e.newMatch.Set(idx)
		}
	}
}

// setEstVals refreshes the engine's reusable estimates map from one
// evaluation, deleting what the evaluation could not observe so stale
// values from a previous commit never leak to estimator consumers.
func (e *Engine) setEstVals(ev Evaluation) {
	e.estVals[condlang.VarD] = ev.D
	if ev.HasAccuracy {
		e.estVals[condlang.VarN] = ev.N
		e.estVals[condlang.VarO] = ev.O
	} else {
		delete(e.estVals, condlang.VarN)
		delete(e.estVals, condlang.VarO)
	}
}

// evaluateActiveLabeling is the optimized plan (Sections 4.1.2 / 4.2) on
// packed columns, evaluated sequentially: d is the popcount of the
// disagreement bitmap (no labels), and the n-o clause's disagreement-set
// labels come in chunks along the geometric look schedule, each followed
// by a forced-verdict check over the two masked popcounts. The commit
// exits the moment the unrevealed disagreements can no longer flip the
// verdict — including before any reveal, when a label-free clause already
// collapsed the conjunction. With early decision disabled a single look
// reveals the whole disagreement set, unless a label-free clause before
// the n-o clause is already False: then the static plan pays nothing.
func (e *Engine) evaluateActiveLabeling(cand candidate) (Evaluation, error) {
	ts := e.tsm.Current()
	n := ts.Len()
	e.fusedPass(cand)
	diffCount := e.diff.Count()
	dHat := float64(diffCount) / float64(n)
	staticCost := e.activeStaticCost(dHat, evaluator.AndNotCount(e.diff, ts.RevealedBitmap()))
	fresh, looks := 0, 0
	for {
		revealedDis := diffCount - evaluator.AndNotCount(e.diff, ts.RevealedBitmap())
		if revealedDis == diffCount || (e.early.Disable && staticCost == 0) {
			break
		}
		target := diffCount
		if !e.early.Disable {
			sumR := evaluator.AndCount(e.newMatch, e.diff) - evaluator.AndCount(e.activeMatch, e.diff)
			truth, forced, err := e.decideActive(dHat, n, sumR, revealedDis, diffCount, looks+1)
			if err != nil {
				return Evaluation{}, err
			}
			if forced {
				ev := Evaluation{
					Truth:       truth,
					D:           dHat,
					FreshLabels: fresh,
					Looks:       looks,
					EarlyExit:   true,
					LabelsSaved: staticCost - fresh,
				}
				e.setEstVals(ev)
				return ev, nil
			}
			target = planner.NextLook(revealedDis, diffCount)
		}
		freshIdx, err := ts.RevealChunk(e.diff, target-revealedDis, e.batch)
		if err != nil {
			return Evaluation{}, err
		}
		e.patchRevealed(cand, freshIdx)
		fresh += len(freshIdx)
		looks++
	}
	// The exact clause loop. Every disagreement is labeled here, except on
	// the static short-circuit, where a False clause fixes the conjunction
	// before the n-o clause is reached.
	ev := Evaluation{D: dHat, FreshLabels: fresh}
	if !e.early.Disable {
		ev.Looks = looks
	}
	truth := interval.True
	for i := range e.compiled.Clauses {
		if truth == interval.False {
			break
		}
		cc := &e.compiled.Clauses[i]
		var (
			t   interval.Truth
			err error
		)
		switch {
		case cc.DOnly():
			t, err = evaluator.EvalClauseLHS(cc.Clause, dHat, cc.Clause.Tolerance)
		case cc.NMinusO():
			// n - o over disagreements only: agreements contribute 0, so
			// the sum is two masked popcounts.
			sum := evaluator.AndCount(e.newMatch, e.diff) - evaluator.AndCount(e.activeMatch, e.diff)
			t, err = evaluator.EvalClauseLHS(cc.Clause, float64(sum)/float64(n), cc.Clause.Tolerance)
		default:
			return Evaluation{}, fmt.Errorf("engine: pattern plan cannot evaluate clause %q", cc.Clause)
		}
		if err != nil {
			return Evaluation{}, err
		}
		truth = truth.And(t)
	}
	ev.Truth = truth
	e.setEstVals(ev)
	return ev, nil
}
