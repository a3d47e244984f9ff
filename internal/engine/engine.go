// Package engine is the continuous-integration loop of ease.ml/ci
// (Figure 1 of the paper): it accepts model commits, evaluates the script's
// condition on the managed testset at the planned reliability, routes the
// pass/fail signal according to the adaptivity mode, spends labeling budget
// through the oracle (actively, when a pattern plan allows it), fires the
// new-testset alarm, and promotes passing models to be the new baseline.
package engine

import (
	"fmt"

	"github.com/easeml/ci/internal/adaptivity"
	"github.com/easeml/ci/internal/condlang"
	"github.com/easeml/ci/internal/core"
	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/evaluator"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/planner"
	"github.com/easeml/ci/internal/repository"
	"github.com/easeml/ci/internal/script"
	"github.com/easeml/ci/internal/testset"
)

// Result is the outcome of one commit's evaluation.
type Result struct {
	// Commit records the repository entry for the model.
	Commit repository.Commit
	// Step is the 1-based evaluation index on the current testset.
	Step int
	// Generation is the testset generation the commit was tested on.
	Generation int
	// Estimates holds the measured n/o/d point estimates that were
	// available (n and o are absent under active labeling).
	Estimates map[condlang.Var]float64
	// Truth is the three-valued evaluation of the condition.
	Truth interval.Truth
	// Pass is the true outcome after mode collapse.
	Pass bool
	// Signal is what the developer sees. In the non-adaptive mode every
	// commit signals accepted; the truth goes to the third-party address.
	Signal bool
	// Promoted reports whether the model became the new baseline.
	Promoted bool
	// NeedNewTestset mirrors the ledger alarm.
	NeedNewTestset bool
	// FreshLabels is the number of new oracle labels paid for by this
	// commit.
	FreshLabels int
	// Looks is how many reveal chunks the sequential evaluation took
	// (0 when the verdict was forced before any reveal, or when early
	// decision is disabled).
	Looks int
	// EarlyExit reports that the evaluation stopped before the static
	// plan's full reveal because the verdict was already forced.
	EarlyExit bool
	// LabelsSaved is how many labels the static plan would have revealed
	// for this commit beyond what the sequential evaluation paid.
	LabelsSaved int
}

// Engine drives the CI loop for one script.
type Engine struct {
	cfg         *script.Config
	plan        *core.Plan
	plannerOpts core.Options
	tsm         *testset.Manager
	batch       labeling.BatchOracle
	costs       *labeling.Ledger
	notifier    notify.Notifier
	repo        *repository.Store

	// compiled is the script condition with every clause pre-linearized,
	// so per-commit evaluation does not re-derive (and re-allocate) the
	// linear forms.
	compiled evaluator.CompiledFormula
	// early is the sequential early-exit configuration.
	early EarlyDecision

	// active holds the current baseline ("old") model's predictions on the
	// current testset.
	active     []int
	activeName string

	// Packed measurement state. labels mirrors the testset's revealed
	// labels (-1 where unrevealed); activeMatch is the baseline's packed
	// correctness column over the revealed subset, maintained
	// incrementally on reveal/promotion and rebuilt on rotation; predBuf,
	// diff, and newMatch are per-commit scratch reused across commits so
	// steady-state evaluation allocates nothing. estVals is the reusable
	// estimates map behind compiled-formula evaluation.
	predBuf     []int
	labels      []int
	diff        evaluator.Bitmap
	newMatch    evaluator.Bitmap
	activeMatch evaluator.Bitmap
	estVals     map[condlang.Var]float64
	// Narrow-column mirrors, used when the label alphabet fits a byte
	// (the overwhelmingly common case): active8 mirrors active and
	// labels8 mirrors labels with 255 as the unrevealed sentinel, so the
	// fused pass streams 1/8th the bytes per engine-owned column.
	byteCols bool
	active8  []uint8
	labels8  []uint8

	// evalReveals records the testset indices freshly revealed by the
	// evaluation in flight. On any evaluation error the engine rolls
	// every one of them back (testset marks, label columns, correctness
	// bits), so a failed commit — a remote oracle outage at look 3 of 5,
	// say — leaves the revealed set exactly as it found it and the
	// eventual re-run is byte-identical to a run that never failed.
	evalReveals []int

	history []Result

	// journal, when set, receives the durable side effects of each
	// commit as it is applied; see SetJournal.
	journal Journal
}

// Options configures engine construction.
type Options struct {
	// Planner tunes the core planner.
	Planner core.Options
	// InitialModel is H0, the deployed baseline the first commit is
	// compared against.
	InitialModel model.Predictor
	// Notifier receives third-party results and alarms; defaults to an
	// in-memory outbox when nil.
	Notifier notify.Notifier
	// EarlyDecision tunes (or disables) the sequential early-exit
	// evaluation loop; the zero value is the production default.
	EarlyDecision EarlyDecision
}

// New builds an engine for a validated script over the given first testset.
// The oracle answers label queries against that testset's examples.
func New(cfg *script.Config, first *data.Dataset, oracle labeling.Oracle, opts Options) (*Engine, error) {
	if opts.InitialModel == nil {
		return nil, fmt.Errorf("engine: an initial (old) model is required")
	}
	eng, err := newEngine(cfg, first, opts, func(kind adaptivity.Kind) (*testset.Manager, error) {
		return testset.NewManager(kind, cfg.Steps, first)
	})
	if err != nil {
		return nil, err
	}
	if err := eng.SetOracle(oracle); err != nil {
		return nil, err
	}
	eng.costs = &labeling.Ledger{}
	eng.repo = repository.NewStore()
	if err := eng.setActive(opts.InitialModel); err != nil {
		return nil, err
	}
	return eng, nil
}

// newEngine is the construction New and Restore share: it validates the
// config, looks up the plan and checks the testset can carry it, builds
// the testset manager (mkTestsets, under the script's adaptivity kind),
// compiles the condition, and validates the early-decision settings. The
// caller installs the oracle, ledger, repository and baseline.
func newEngine(cfg *script.Config, ds *data.Dataset, opts Options, mkTestsets func(adaptivity.Kind) (*testset.Manager, error)) (*Engine, error) {
	if cfg == nil {
		return nil, fmt.Errorf("engine: nil config")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plan, err := planner.Default.PlanForConfig(cfg, opts.Planner)
	if err != nil {
		return nil, err
	}
	if plan.LabeledN > 0 && ds.Len() < plan.LabeledN {
		return nil, fmt.Errorf("engine: testset has %d examples but the plan requires %d", ds.Len(), plan.LabeledN)
	}
	kind, err := adaptivity.FromScript(cfg.Adaptivity.Kind)
	if err != nil {
		return nil, err
	}
	tsm, err := mkTestsets(kind)
	if err != nil {
		return nil, err
	}
	compiled, err := evaluator.Compile(cfg.Condition)
	if err != nil {
		return nil, err
	}
	if err := opts.EarlyDecision.validate(); err != nil {
		return nil, err
	}
	notifier := opts.Notifier
	if notifier == nil {
		notifier = notify.NewOutbox()
	}
	return &Engine{
		cfg:         cfg,
		plan:        plan,
		plannerOpts: opts.Planner,
		tsm:         tsm,
		notifier:    notifier,
		compiled:    compiled,
		early:       opts.EarlyDecision,
		estVals:     make(map[condlang.Var]float64, 3),
	}, nil
}

// Plan exposes the labeling plan the engine runs under.
func (e *Engine) Plan() *core.Plan { return e.plan }

// PlannerOptions exposes the planner options that plan was computed with,
// so a serving layer can answer plan queries consistently with the plan
// the engine actually enforces.
func (e *Engine) PlannerOptions() core.Options { return e.plannerOpts }

// Config exposes the script configuration.
func (e *Engine) Config() *script.Config { return e.cfg }

// Testsets exposes the testset manager.
func (e *Engine) Testsets() *testset.Manager { return e.tsm }

// Repository exposes the commit store.
func (e *Engine) Repository() *repository.Store { return e.repo }

// History returns all evaluation results so far.
func (e *Engine) History() []Result {
	out := make([]Result, len(e.history))
	copy(out, e.history)
	return out
}

// LabelCost returns the cumulative labeling ledger.
func (e *Engine) LabelCost() *labeling.Ledger { return e.costs }

// ActiveModelName returns the name of the current baseline model.
func (e *Engine) ActiveModelName() string { return e.activeName }

// setActive computes and installs the baseline predictions for the current
// testset, then rebuilds the packed measurement state (the label scratch
// column and the baseline's correctness bitmap) against it. The testset
// was validated when it was installed, so the buffered predict path is
// safe here.
func (e *Engine) setActive(p model.Predictor) error {
	preds, err := model.PredictAllInto(p, e.tsm.Current().Data, e.active)
	if err != nil {
		return err
	}
	e.active = preds
	e.activeName = p.Name()
	e.syncPackedState()
	return nil
}

// syncPackedState resizes the per-commit scratch to the current testset
// and rebuilds the label scratch column (revealed label or -1) and the
// baseline correctness bitmap from the testset's revealed bookkeeping.
// Called on construction and rotation; the commit paths afterwards keep
// the state consistent incrementally.
func (e *Engine) syncPackedState() {
	ts := e.tsm.Current()
	n := ts.Len()
	if cap(e.predBuf) < n {
		e.predBuf = make([]int, n)
	} else {
		e.predBuf = e.predBuf[:n]
	}
	if cap(e.labels) < n {
		e.labels = make([]int, n)
	} else {
		e.labels = e.labels[:n]
	}
	switch ts.RevealedCount() {
	case 0:
		for i := range e.labels {
			e.labels[i] = -1
		}
	case n:
		copy(e.labels, ts.Data.Y)
	default:
		for i := range e.labels {
			if ts.Revealed(i) {
				e.labels[i] = ts.Data.Y[i]
			} else {
				e.labels[i] = -1
			}
		}
	}
	evaluator.MatchBitmap(e.active, e.labels, &e.activeMatch)
	e.diff.Reset(n)
	e.newMatch.Reset(n)

	// Byte mirrors: only when every class id (and the 255 sentinel) fits.
	e.byteCols = ts.Data.Classes <= 255
	if e.byteCols {
		if cap(e.active8) < n {
			e.active8 = make([]uint8, n)
			e.labels8 = make([]uint8, n)
		} else {
			e.active8 = e.active8[:n]
			e.labels8 = e.labels8[:n]
		}
		e.syncByteCols()
	}
}

// syncByteCols rebuilds both narrow mirrors from the wide columns.
func (e *Engine) syncByteCols() {
	for i, y := range e.active {
		e.active8[i] = uint8(y)
	}
	copyLabelBytes(e.labels8, e.labels)
}

// copyLabelBytes narrows a revealed-label column (-1 = unrevealed) into
// bytes with the 255 sentinel.
func copyLabelBytes(dst []uint8, labels []int) {
	for i, y := range labels {
		if y < 0 {
			dst[i] = 255
		} else {
			dst[i] = uint8(y)
		}
	}
}
