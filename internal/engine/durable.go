package engine

import (
	"fmt"

	"github.com/easeml/ci/internal/adaptivity"
	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/repository"
	"github.com/easeml/ci/internal/script"
	"github.com/easeml/ci/internal/testset"
)

// Journal receives the engine's durable side effects while a commit is
// being applied, before it lands in history. A durability layer appends
// each callback to its write-ahead log; returning an error aborts the
// commit mid-application, leaving the engine in an undefined state — the
// caller must treat the whole engine as poisoned and recover by replay.
// The callbacks double as the replay audit trail: re-executing the same
// commits emits the same sequence, so recovery can cross-check the log.
type Journal interface {
	// JournalReveal records that the evaluation paid for count fresh
	// oracle labels.
	JournalReveal(count int) error
	// JournalCharge records the labeling-ledger charge for the commit
	// (possibly 0).
	JournalCharge(labels int) error
	// JournalPromote records that model became the new baseline.
	JournalPromote(model string) error
	// JournalLooks records the sequential evaluation's look decision for
	// the commit: how many reveal chunks it took, how many labels it
	// saved against the static plan, and whether it exited early. Emitted
	// for every commit while early decision is enabled (never when
	// disabled, so disabled-mode logs match the pre-sequential format).
	JournalLooks(looks, saved int, early bool) error
}

// SetJournal installs (or, with nil, removes) the durability journal.
func (e *Engine) SetJournal(j Journal) { e.journal = j }

// SetNotifier swaps the notifier. Recovery replays commits against a
// discard notifier (the notifications already happened before the
// crash), then installs the real one before serving resumes.
func (e *Engine) SetNotifier(n notify.Notifier) {
	if n == nil {
		n = notify.Discard{}
	}
	e.notifier = n
}

// SetOracle swaps the label source. Recovery replays commits against
// the snapshot's ground-truth oracle (the labels were already paid for
// before the crash — replay must never touch the remote provider), then
// installs the real remote-backed oracle before serving resumes. It is
// also how a testset rotation hands the engine a provider client whose
// verified-label cache was cleared for the new generation.
func (e *Engine) SetOracle(o labeling.Oracle) error {
	if o == nil {
		return fmt.Errorf("engine: nil oracle")
	}
	e.batch = labeling.AsBatch(o)
	return nil
}

// State is the engine's complete durable state: everything needed to
// rebuild an engine that is byte-identical — history, ledgers, revealed
// labels, baseline — to the one that snapshotted it. It is the payload
// a durability layer stores in its snapshot file.
type State struct {
	// Generation and Testset describe the installed testset; Revealed
	// lists the example indices whose labels were already paid for.
	Generation int           `json:"generation"`
	Testset    *data.Dataset `json:"testset"`
	Revealed   []int         `json:"revealed,omitempty"`
	// BudgetUsed and Retired are the adaptivity ledger position.
	BudgetUsed int  `json:"budget_used"`
	Retired    bool `json:"retired,omitempty"`
	// ActiveName and ActivePreds are the current baseline and its
	// predictions on the installed testset.
	ActiveName  string `json:"active_name"`
	ActivePreds []int  `json:"active_preds"`
	// Charges is the labeling ledger's per-commit label spend.
	Charges []int `json:"charges,omitempty"`
	// Commits is the full hash-chained commit history.
	Commits []repository.Commit `json:"commits,omitempty"`
	// History is the evaluation result per commit, in order.
	History []Result `json:"history,omitempty"`
}

// Snapshot captures the engine's durable state. The caller must hold
// whatever lock serializes commits; the returned value shares nothing
// with the engine.
func (e *Engine) Snapshot() State {
	ts := e.tsm.Current()
	return State{
		Generation:  ts.Generation,
		Testset:     cloneDataset(ts.Data),
		Revealed:    ts.RevealedIndices(),
		BudgetUsed:  e.tsm.Used(),
		Retired:     e.tsm.Retired(),
		ActiveName:  e.activeName,
		ActivePreds: append([]int(nil), e.active...),
		Charges:     e.costs.PerCommit(),
		Commits:     e.repo.History(),
		History:     e.History(),
	}
}

// Restore rebuilds an engine from a snapshot taken by Snapshot. The
// label oracle is re-derived from the testset's ground truth (the
// simulation oracle is stateless), the commit chain is re-verified
// hash by hash, and the packed measurement state is rebuilt from the
// restored revealed set — so a restored engine evaluates subsequent
// commits exactly as the snapshotted one would have.
func Restore(cfg *script.Config, st State, opts Options) (*Engine, error) {
	if st.Testset == nil {
		return nil, fmt.Errorf("engine: snapshot has no testset")
	}
	eng, err := newEngine(cfg, st.Testset, opts, func(kind adaptivity.Kind) (*testset.Manager, error) {
		ts, err := testset.Restore(st.Generation, st.Testset, st.Revealed)
		if err != nil {
			return nil, err
		}
		return testset.RestoreManager(kind, cfg.Steps, ts, st.BudgetUsed, st.Retired)
	})
	if err != nil {
		return nil, err
	}
	repo, err := repository.Restore(st.Commits)
	if err != nil {
		return nil, err
	}
	if len(st.History) != len(st.Commits) {
		return nil, fmt.Errorf("engine: snapshot has %d results for %d commits", len(st.History), len(st.Commits))
	}
	if len(st.Charges) != len(st.Commits) {
		return nil, fmt.Errorf("engine: snapshot has %d charges for %d commits", len(st.Charges), len(st.Commits))
	}
	if len(st.ActivePreds) != st.Testset.Len() {
		return nil, fmt.Errorf("engine: snapshot baseline has %d predictions for %d examples", len(st.ActivePreds), st.Testset.Len())
	}
	for i, y := range st.ActivePreds {
		if y < 0 || y >= st.Testset.Classes {
			return nil, fmt.Errorf("engine: snapshot baseline prediction %d out of range at %d", y, i)
		}
	}
	eng.batch = labeling.NewTruthOracle(st.Testset.Y)
	eng.costs = labeling.RestoreLedger(st.Charges)
	eng.repo = repo
	eng.activeName = st.ActiveName
	eng.active = append([]int(nil), st.ActivePreds...)
	eng.history = append([]Result(nil), st.History...)
	eng.syncPackedState()
	return eng, nil
}

// cloneDataset deep-copies the per-example slices so the snapshot stays
// stable if a rotation later replaces the testset.
func cloneDataset(d *data.Dataset) *data.Dataset {
	out := &data.Dataset{Name: d.Name, Classes: d.Classes}
	out.Y = append([]int(nil), d.Y...)
	out.X = make([][]float64, len(d.X))
	for i, x := range d.X {
		out.X[i] = append([]float64(nil), x...)
	}
	return out
}
