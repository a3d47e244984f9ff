// Package testset manages the integration team's test data over its life
// cycle (Section 2.3 of the paper): a testset is installed with a budget of
// H evaluations, its statistical power is consumed commit by commit, the
// "new testset alarm" fires when it can no longer support the next model,
// and the retired testset is released to the development team as a
// validation set.
package testset

import (
	"fmt"
	"math/bits"

	"github.com/easeml/ci/internal/adaptivity"
	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/evaluator"
	"github.com/easeml/ci/internal/labeling"
)

// Testset is one installed testset: ground-truth data owned by the
// integration team plus the bookkeeping of which labels have been revealed
// to the measurement process (active labeling reveals them lazily).
type Testset struct {
	// Generation numbers testsets from 1 as they rotate in.
	Generation int
	// Data holds features and ground-truth labels.
	Data *data.Dataset
	// revealed marks examples whose labels were already paid for, packed
	// 64 examples per word so the measurement core can mask and popcount
	// it directly.
	revealed evaluator.Bitmap
	// revealedCount caches popcount(revealed) so the steady-state "is
	// everything already revealed?" check is O(1).
	revealedCount int
}

// New wraps a dataset as a fresh testset.
func New(generation int, ds *data.Dataset) (*Testset, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if generation < 1 {
		return nil, fmt.Errorf("testset: generation must be >= 1, got %d", generation)
	}
	return &Testset{
		Generation: generation,
		Data:       ds,
		revealed:   evaluator.NewBitmap(ds.Len()),
	}, nil
}

// Restore rebuilds a testset at a recovered generation with the given
// labels already revealed, for crash recovery from a durable log.
func Restore(generation int, ds *data.Dataset, revealed []int) (*Testset, error) {
	t, err := New(generation, ds)
	if err != nil {
		return nil, err
	}
	for _, i := range revealed {
		if i < 0 || i >= t.Len() {
			return nil, fmt.Errorf("testset: restored revealed index %d out of range [0,%d)", i, t.Len())
		}
		if !t.revealed.Get(i) {
			t.revealed.Set(i)
			t.revealedCount++
		}
	}
	return t, nil
}

// RevealedIndices returns the revealed example indices in ascending
// order — the snapshot-friendly form of the revealed bitmap.
func (t *Testset) RevealedIndices() []int {
	out := make([]int, 0, t.revealedCount)
	for i := 0; i < t.Len(); i++ {
		if t.revealed.Get(i) {
			out = append(out, i)
		}
	}
	return out
}

// Len returns the number of examples.
func (t *Testset) Len() int { return t.Data.Len() }

// Revealed reports whether example i's label has been revealed.
func (t *Testset) Revealed(i int) bool { return t.revealed.Get(i) }

// RevealedBitmap exposes the packed revealed column. Callers must treat it
// as read-only; it stays live as further labels are revealed.
func (t *Testset) RevealedBitmap() evaluator.Bitmap { return t.revealed }

// RevealedCount returns how many labels have been revealed so far.
func (t *Testset) RevealedCount() int { return t.revealedCount }

// RevealFirst reveals up to limit not-yet-revealed labels in ascending
// index order, through one bulk oracle request, and returns the freshly
// revealed indices (nil when nothing was unrevealed). It is the prefix-
// reveal primitive of sequential evaluation: revealing chunk by chunk
// toward a look target instead of the whole testset at once.
func (t *Testset) RevealFirst(limit int, o labeling.BatchOracle) ([]int, error) {
	if limit <= 0 {
		return nil, nil
	}
	missing := t.Len() - t.revealedCount
	if missing == 0 {
		return nil, nil
	}
	if limit > missing {
		limit = missing
	}
	idx := t.unrevealed(nil, limit)
	if _, err := t.revealBatch(idx, o); err != nil {
		return nil, err
	}
	return idx, nil
}

// RevealChunk reveals the labels of the first limit examples whose bit is
// set in want and that are not yet revealed, in ascending index order,
// through one bulk oracle request: the form active labeling reveals its
// disagreement set through. limit <= 0 means no bound. It returns the
// freshly revealed indices (nil when nothing new was needed), so callers
// maintaining incremental per-example state know exactly which entries
// changed.
func (t *Testset) RevealChunk(want evaluator.Bitmap, limit int, o labeling.BatchOracle) ([]int, error) {
	if want.Len() != t.Len() {
		return nil, fmt.Errorf("testset: reveal bitmap covers %d examples, testset has %d", want.Len(), t.Len())
	}
	missing := evaluator.AndNotCount(want, t.revealed)
	if missing == 0 {
		return nil, nil
	}
	if limit <= 0 || limit > missing {
		limit = missing
	}
	idx := t.unrevealed(want.Words(), limit)
	if _, err := t.revealBatch(idx, o); err != nil {
		return nil, err
	}
	return idx, nil
}

// unrevealed returns, in ascending order, the first limit unrevealed
// examples whose bit is set in want, or the first limit unrevealed
// examples when want is nil. It scans a word at a time: the candidates of
// a word are want &^ revealed, walked lowest bit first. limit must not
// exceed the number of candidates.
func (t *Testset) unrevealed(want []uint64, limit int) []int {
	idx := make([]int, 0, limit)
	rev := t.revealed.Words()
	for w := 0; len(idx) < limit; w++ {
		var c uint64
		if want != nil {
			c = want[w] &^ rev[w]
		} else {
			c = ^rev[w]
			if r := t.Len() & 63; r != 0 && w == len(rev)-1 {
				c &= 1<<uint(r) - 1
			}
		}
		for ; c != 0 && len(idx) < limit; c &= c - 1 {
			idx = append(idx, w<<6|bits.TrailingZeros64(c))
		}
	}
	return idx
}

// Unreveal clears the revealed mark of the given examples (already-
// hidden indices are ignored). It is the rollback primitive behind the
// engine's fault recovery: when a multi-look evaluation dies between
// looks, the looks already paid for are un-revealed so the eventual
// re-run reveals — and charges for — exactly the same fresh labels as a
// run that never failed.
func (t *Testset) Unreveal(indices []int) {
	for _, i := range indices {
		if i >= 0 && i < t.Len() && t.revealed.Get(i) {
			t.revealed.Clear(i)
			t.revealedCount--
		}
	}
}

// revealBatch queries the oracle for the given indices, verifies every
// label against the stored ground truth, and only then marks the batch
// revealed. The all-then-mark order makes a failed batch atomic: callers
// mirroring the revealed set incrementally (the engine's packed label
// columns) never see indices marked revealed that they were not told
// about, so an oracle mismatch cannot desync their state.
func (t *Testset) revealBatch(indices []int, o labeling.BatchOracle) (int, error) {
	if o == nil {
		return 0, fmt.Errorf("testset: nil oracle")
	}
	if len(indices) == 0 {
		return 0, nil
	}
	got, err := o.LabelBatch(indices)
	if err != nil {
		return 0, err
	}
	if len(got) != len(indices) {
		return 0, fmt.Errorf("testset: oracle returned %d labels for %d indices", len(got), len(indices))
	}
	for k, i := range indices {
		if got[k] != t.Data.Y[i] {
			return 0, fmt.Errorf("testset: oracle label %d disagrees with ground truth %d at example %d",
				got[k], t.Data.Y[i], i)
		}
	}
	fresh := 0
	for _, i := range indices {
		if !t.revealed.Get(i) {
			t.revealed.Set(i)
			t.revealedCount++
			fresh++
		}
	}
	return fresh, nil
}

// Manager rotates testsets under an adaptivity ledger and fires the
// new-testset alarm.
type Manager struct {
	kind    adaptivity.Kind
	budget  int
	ledger  *adaptivity.Ledger
	current *Testset
}

// NewManager installs the first testset with the given adaptivity mode and
// per-testset budget (steps).
func NewManager(kind adaptivity.Kind, budget int, first *data.Dataset) (*Manager, error) {
	ledger, err := adaptivity.NewLedger(kind, budget)
	if err != nil {
		return nil, err
	}
	ts, err := New(1, first)
	if err != nil {
		return nil, err
	}
	return &Manager{kind: kind, budget: budget, ledger: ledger, current: ts}, nil
}

// RestoreManager rebuilds a manager around a recovered testset and
// ledger position, for crash recovery from a durable log.
func RestoreManager(kind adaptivity.Kind, budget int, current *Testset, used int, retired bool) (*Manager, error) {
	if current == nil {
		return nil, fmt.Errorf("testset: nil restored testset")
	}
	ledger, err := adaptivity.RestoreLedger(kind, budget, used, retired)
	if err != nil {
		return nil, err
	}
	return &Manager{kind: kind, budget: budget, ledger: ledger, current: current}, nil
}

// Current returns the installed testset.
func (m *Manager) Current() *Testset { return m.current }

// Budget returns H, the per-testset evaluation budget.
func (m *Manager) Budget() int { return m.budget }

// Used returns how many evaluations the current testset has recorded.
func (m *Manager) Used() int { return m.ledger.Used() }

// Retired reports whether the current testset was retired early by a
// firstChange pass (it then refuses evaluations with budget remaining).
func (m *Manager) Retired() bool { return m.ledger.Retired() }

// CanEvaluate reports whether the installed testset still has budget.
func (m *Manager) CanEvaluate() bool { return m.ledger.CanEvaluate() }

// Remaining returns the number of evaluations the current testset still
// supports.
func (m *Manager) Remaining() int { return m.ledger.Remaining() }

// Record consumes one evaluation with the given true outcome, returning the
// ledger event (whose NeedNewTestset flag is the paper's alarm).
func (m *Manager) Record(pass bool) (adaptivity.Event, error) {
	return m.ledger.Record(pass)
}

// Rotate installs a fresh dataset as the next-generation testset. The
// manager drops the retired one: its statistical role ends here, and
// whoever supplied its data may release it to the developers as a
// validation set.
func (m *Manager) Rotate(next *data.Dataset) error {
	ts, err := New(m.current.Generation+1, next)
	if err != nil {
		return err
	}
	m.current = ts
	m.ledger.Reset()
	return nil
}
