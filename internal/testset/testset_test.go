package testset

import (
	"testing"

	"github.com/easeml/ci/internal/adaptivity"
	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/evaluator"
	"github.com/easeml/ci/internal/labeling"
)

func dataset(t *testing.T, n int, seed int64) *data.Dataset {
	t.Helper()
	ds, err := data.Blobs(n, 2, 3, 0.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewTestset(t *testing.T) {
	ts, err := New(1, dataset(t, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ts.Len() != 10 || ts.Generation != 1 || ts.RevealedCount() != 0 {
		t.Errorf("fresh testset state wrong: %+v", ts)
	}
	if _, err := New(0, dataset(t, 10, 1)); err == nil {
		t.Error("generation 0 should fail")
	}
	var empty data.Dataset
	if _, err := New(1, &empty); err == nil {
		t.Error("invalid dataset should fail")
	}
}

// preReveal marks the given examples as already paid for, the way an
// earlier commit's reveal leaves them.
func preReveal(t *testing.T, ts *Testset, idx ...int) {
	t.Helper()
	want := evaluator.NewBitmap(ts.Len())
	for _, i := range idx {
		want.Set(i)
	}
	if _, err := ts.RevealChunk(want, 0, labeling.NewTruthOracle(ts.Data.Y)); err != nil {
		t.Fatal(err)
	}
}

// TestReveal: a label is paid for once — revealing an already-paid
// example again is not fresh and is not re-counted.
func TestReveal(t *testing.T) {
	ts, _ := New(1, dataset(t, 10, 1))
	want := evaluator.NewBitmap(10)
	want.Set(3)
	idx, err := ts.RevealChunk(want, 0, labeling.NewTruthOracle(ts.Data.Y))
	if err != nil || len(idx) != 1 || idx[0] != 3 {
		t.Fatalf("first reveal: %v %v", idx, err)
	}
	idx, err = ts.RevealChunk(want, 0, labeling.NewTruthOracle(ts.Data.Y))
	if err != nil || idx != nil {
		t.Errorf("second reveal must not be fresh: %v %v", idx, err)
	}
	if ts.RevealedCount() != 1 {
		t.Errorf("revealed count = %d", ts.RevealedCount())
	}
	if !ts.Revealed(3) || ts.Revealed(4) {
		t.Error("Revealed() bookkeeping wrong")
	}
}

func TestManagerLifecycle(t *testing.T) {
	m, err := NewManager(adaptivity.None, 2, dataset(t, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !m.CanEvaluate() || m.Remaining() != 2 {
		t.Error("fresh manager state wrong")
	}
	if _, err := m.Record(false); err != nil {
		t.Fatal(err)
	}
	ev, err := m.Record(true)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.NeedNewTestset {
		t.Error("alarm must fire at budget exhaustion")
	}
	if m.CanEvaluate() {
		t.Error("exhausted manager must refuse evaluation")
	}

	if err := m.Rotate(dataset(t, 12, 2)); err != nil {
		t.Fatal(err)
	}
	if m.Current().Generation != 2 || m.Current().Len() != 12 {
		t.Errorf("current = gen %d len %d", m.Current().Generation, m.Current().Len())
	}
	if !m.CanEvaluate() || m.Remaining() != 2 {
		t.Error("rotation must re-arm the budget")
	}
}

func TestManagerFirstChange(t *testing.T) {
	m, err := NewManager(adaptivity.FirstChange, 5, dataset(t, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := m.Record(true) // first pass retires immediately
	if err != nil {
		t.Fatal(err)
	}
	if !ev.NeedNewTestset {
		t.Error("hybrid pass must fire the alarm")
	}
	if m.CanEvaluate() {
		t.Error("hybrid pass must retire the testset")
	}
}

func TestManagerErrors(t *testing.T) {
	if _, err := NewManager(adaptivity.None, 0, dataset(t, 10, 1)); err == nil {
		t.Error("budget 0 should fail")
	}
	var empty data.Dataset
	if _, err := NewManager(adaptivity.None, 2, &empty); err == nil {
		t.Error("invalid dataset should fail")
	}
	m, _ := NewManager(adaptivity.None, 1, dataset(t, 10, 1))
	if err := m.Rotate(&empty); err == nil {
		t.Error("rotating in invalid data should fail")
	}
}

// TestRevealAllBatch: revealing the whole testset in one batch (a
// RevealFirst whose limit covers every example) pays only for the labels
// not already paid for, and in steady state needs no oracle at all.
func TestRevealAllBatch(t *testing.T) {
	ds := dataset(t, 130, 1) // crosses two bitmap words
	ts, _ := New(1, ds)
	oracle := labeling.NewTruthOracle(ds.Y)
	// Pre-reveal a couple so the batch mixes fresh and already-paid.
	preReveal(t, ts, 3, 64)
	idx, err := ts.RevealFirst(ts.Len(), oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 128 {
		t.Errorf("fresh = %d, want 128", len(idx))
	}
	if ts.RevealedCount() != 130 {
		t.Errorf("revealed = %d", ts.RevealedCount())
	}
	// Steady state: no oracle needed at all.
	idx, err = ts.RevealFirst(ts.Len(), nil)
	if err != nil || len(idx) != 0 {
		t.Errorf("steady-state reveal: fresh=%d err=%v", len(idx), err)
	}
	if got := ts.RevealedBitmap().Count(); got != 130 {
		t.Errorf("revealed bitmap count = %d", got)
	}
}

// TestRevealWhereBatch: an unbounded RevealChunk reveals every wanted
// example in one batch, without re-counting already-paid ones.
func TestRevealWhereBatch(t *testing.T) {
	ds := dataset(t, 100, 2)
	ts, _ := New(1, ds)
	oracle := labeling.NewTruthOracle(ds.Y)
	want := evaluator.NewBitmap(100)
	for _, i := range []int{0, 5, 63, 64, 99} {
		want.Set(i)
	}
	preReveal(t, ts, 5) // already paid: must not be re-counted
	idx, err := ts.RevealChunk(want, 0, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 4 {
		t.Fatalf("fresh indices = %v, want 4 entries", idx)
	}
	for _, i := range idx {
		if !ts.Revealed(i) {
			t.Errorf("index %d not marked revealed", i)
		}
	}
	if ts.RevealedCount() != 5 {
		t.Errorf("revealed = %d, want 5", ts.RevealedCount())
	}
	// Second call with the same mask: nothing fresh, no allocation path.
	idx, err = ts.RevealChunk(want, 0, nil)
	if err != nil || idx != nil {
		t.Errorf("steady-state reveal: idx=%v err=%v", idx, err)
	}
	// Mismatched bitmap length is rejected.
	if _, err := ts.RevealChunk(evaluator.NewBitmap(99), 0, oracle); err == nil {
		t.Error("length mismatch should fail")
	}
}

// lyingOracle returns wrong labels, and shortOracle returns the wrong
// count: both must be caught by the batch reveal verification.
type lyingOracle struct{ y []int }

func (o lyingOracle) LabelBatch(idx []int) ([]int, error) {
	out := make([]int, len(idx))
	for k, i := range idx {
		out[k] = o.y[i] + 1
	}
	return out, nil
}

type shortOracle struct{}

func (shortOracle) LabelBatch(idx []int) ([]int, error) { return nil, nil }

// halfLyingOracle answers truthfully below index 5 and lies above, so a
// mismatch surfaces mid-batch.
type halfLyingOracle struct{ y []int }

func (o halfLyingOracle) LabelBatch(idx []int) ([]int, error) {
	out := make([]int, len(idx))
	for k, i := range idx {
		out[k] = o.y[i]
		if i >= 5 {
			out[k]++
		}
	}
	return out, nil
}

func TestRevealBatchVerification(t *testing.T) {
	ds := dataset(t, 10, 3)
	want := evaluator.NewBitmap(10)
	want.SetAll()
	for name, reveal := range map[string]func(*Testset, labeling.BatchOracle) ([]int, error){
		"RevealFirst": func(ts *Testset, o labeling.BatchOracle) ([]int, error) { return ts.RevealFirst(10, o) },
		"RevealChunk": func(ts *Testset, o labeling.BatchOracle) ([]int, error) { return ts.RevealChunk(want, 0, o) },
	} {
		ts, _ := New(1, ds)
		if _, err := reveal(ts, lyingOracle{y: ds.Y}); err == nil {
			t.Errorf("%s: oracle/ground-truth mismatch must be detected", name)
		}
		ts2, _ := New(1, ds)
		if _, err := reveal(ts2, shortOracle{}); err == nil {
			t.Errorf("%s: short oracle response must be detected", name)
		}
		ts3, _ := New(1, ds)
		if _, err := reveal(ts3, nil); err == nil {
			t.Errorf("%s: nil oracle with work to do must fail", name)
		}
	}
}

// TestRevealBatchAtomicOnMismatch: a batch that fails verification
// mid-way must reveal nothing at all — callers mirroring the revealed set
// incrementally rely on never seeing a partially applied batch.
func TestRevealBatchAtomicOnMismatch(t *testing.T) {
	ds := dataset(t, 10, 3)
	ts, _ := New(1, ds)
	if _, err := ts.RevealFirst(10, halfLyingOracle{y: ds.Y}); err == nil {
		t.Fatal("mid-batch mismatch must be detected")
	}
	if got := ts.RevealedCount(); got != 0 {
		t.Errorf("failed batch revealed %d labels, want 0 (atomic)", got)
	}
	for i := 0; i < ts.Len(); i++ {
		if ts.Revealed(i) {
			t.Fatalf("index %d marked revealed by a failed batch", i)
		}
	}
	// The verified-good prefix is re-revealable once the oracle is honest.
	idx, err := ts.RevealFirst(10, labeling.NewTruthOracle(ds.Y))
	if err != nil || len(idx) != 10 {
		t.Fatalf("recovery reveal: fresh=%d err=%v", len(idx), err)
	}
}

func TestRevealFirst(t *testing.T) {
	ds := dataset(t, 130, 4) // crosses two bitmap words
	ts, _ := New(1, ds)
	oracle := labeling.NewTruthOracle(ds.Y)
	// Pre-reveal a couple mid-prefix: RevealFirst must skip them and still
	// deliver exactly `limit` fresh labels in ascending order.
	preReveal(t, ts, 2, 64)
	idx, err := ts.RevealFirst(10, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 10 {
		t.Fatalf("fresh = %v, want 10 entries", idx)
	}
	want := []int{0, 1, 3, 4, 5, 6, 7, 8, 9, 10}
	for k, i := range idx {
		if i != want[k] {
			t.Fatalf("fresh indices = %v, want %v", idx, want)
		}
	}
	if ts.RevealedCount() != 12 {
		t.Errorf("revealed = %d, want 12", ts.RevealedCount())
	}
	// A limit past the end reveals everything that is left in one batch,
	// the static plan's reveal: the already-paid labels are not re-counted.
	idx, err = ts.RevealFirst(1000, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 118 || ts.RevealedCount() != 130 || ts.RevealedBitmap().Count() != 130 {
		t.Errorf("fresh = %d revealed = %d", len(idx), ts.RevealedCount())
	}
	// Steady state and degenerate limits reveal nothing.
	if idx, err := ts.RevealFirst(5, nil); err != nil || idx != nil {
		t.Errorf("steady state: idx=%v err=%v", idx, err)
	}
	ts2, _ := New(1, ds)
	if idx, err := ts2.RevealFirst(0, oracle); err != nil || idx != nil {
		t.Errorf("limit 0: idx=%v err=%v", idx, err)
	}
	if idx, err := ts2.RevealFirst(-3, oracle); err != nil || idx != nil {
		t.Errorf("negative limit: idx=%v err=%v", idx, err)
	}
}

func TestRevealChunk(t *testing.T) {
	ds := dataset(t, 100, 5)
	ts, _ := New(1, ds)
	oracle := labeling.NewTruthOracle(ds.Y)
	want := evaluator.NewBitmap(100)
	for _, i := range []int{1, 5, 40, 63, 64, 65, 99} {
		want.Set(i)
	}
	preReveal(t, ts, 5) // already paid: not part of the chunk budget
	idx, err := ts.RevealChunk(want, 3, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 3 || idx[0] != 1 || idx[1] != 40 || idx[2] != 63 {
		t.Fatalf("fresh indices = %v, want [1 40 63]", idx)
	}
	// The next chunk resumes where the last stopped.
	idx, err = ts.RevealChunk(want, 2, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 || idx[0] != 64 || idx[1] != 65 {
		t.Fatalf("fresh indices = %v, want [64 65]", idx)
	}
	// A limit at or past the remainder reveals the rest of the mask.
	idx, err = ts.RevealChunk(want, 100, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || idx[0] != 99 {
		t.Fatalf("fresh indices = %v, want [99]", idx)
	}
	if ts.RevealedCount() != 7 {
		t.Errorf("revealed = %d, want 7", ts.RevealedCount())
	}
	// Exhausted mask: nothing fresh regardless of limit.
	if idx, err := ts.RevealChunk(want, 5, nil); err != nil || idx != nil {
		t.Errorf("steady state: idx=%v err=%v", idx, err)
	}
	if _, err := ts.RevealChunk(evaluator.NewBitmap(99), 5, oracle); err == nil {
		t.Error("length mismatch should fail")
	}
	// limit <= 0 means unbounded: the whole mask in one call, without
	// re-counting the already-paid example.
	ts2, _ := New(1, ds)
	preReveal(t, ts2, 5)
	idx, err = ts2.RevealChunk(want, 0, oracle)
	if err != nil || len(idx) != 6 || ts2.RevealedCount() != 7 {
		t.Errorf("unbounded chunk: idx=%v revealed=%d err=%v", idx, ts2.RevealedCount(), err)
	}
}

// failingOracle errors after a scripted number of successful batch
// calls — the shape of a remote provider dying mid-evaluation.
type failingOracle struct {
	y     []int
	after int
	calls int
}

func (o *failingOracle) LabelBatch(idx []int) ([]int, error) {
	o.calls++
	if o.calls > o.after {
		return nil, labeling.ErrUnavailable
	}
	out := make([]int, len(idx))
	for k, i := range idx {
		out[k] = o.y[i]
	}
	return out, nil
}

// TestRevealChunkAtomicOnOracleFailure: a chunk whose oracle round trip
// fails outright must leave the reveal mask and cached count untouched at
// EVERY look boundary — the testset half of the engine's byte-identical
// re-run guarantee.
func TestRevealChunkAtomicOnOracleFailure(t *testing.T) {
	ds := dataset(t, 60, 7)
	want := evaluator.NewBitmap(60)
	for i := 0; i < 50; i++ {
		want.Set(i)
	}
	const chunk = 10
	// Fail at every possible look boundary: after 0, 1, ..., 4 good chunks.
	for failAt := 0; failAt <= 4; failAt++ {
		ts, _ := New(1, ds)
		oracle := &failingOracle{y: ds.Y, after: failAt}
		for look := 0; ; look++ {
			idx, err := ts.RevealChunk(want, chunk, oracle)
			if look < failAt {
				if err != nil {
					t.Fatalf("failAt=%d look=%d: unexpected error %v", failAt, look, err)
				}
				if len(idx) != chunk {
					t.Fatalf("failAt=%d look=%d: fresh=%d, want %d", failAt, look, len(idx), chunk)
				}
				continue
			}
			// The failing look: nothing may change.
			before := ts.RevealedCount()
			if before != failAt*chunk {
				t.Fatalf("failAt=%d: revealed=%d before the failing look, want %d", failAt, before, failAt*chunk)
			}
			if err == nil {
				t.Fatalf("failAt=%d look=%d: expected oracle failure", failAt, look)
			}
			if got := ts.RevealedCount(); got != before {
				t.Fatalf("failAt=%d: failed look changed revealed count %d -> %d", failAt, before, got)
			}
			for i := failAt * chunk; i < 60; i++ {
				if ts.Revealed(i) {
					t.Fatalf("failAt=%d: index %d marked revealed by a failed look", failAt, i)
				}
			}
			break
		}
		// Recovery: an honest oracle completes the mask from where the good
		// looks stopped, exactly as if the failure never happened.
		truth := labeling.NewTruthOracle(ds.Y)
		total := failAt * chunk
		for total < 50 {
			idx, err := ts.RevealChunk(want, chunk, truth)
			if err != nil {
				t.Fatalf("failAt=%d recovery: %v", failAt, err)
			}
			total += len(idx)
		}
		if ts.RevealedCount() != 50 {
			t.Fatalf("failAt=%d: recovered to %d revealed, want 50", failAt, ts.RevealedCount())
		}
	}
}

// TestRevealWhereAtomicOnOracleFailure covers the unchunked batch path
// (an unbounded RevealChunk, the static plan's one batch): a mid-batch
// transport failure (not just a verification mismatch) reveals nothing.
func TestRevealWhereAtomicOnOracleFailure(t *testing.T) {
	ds := dataset(t, 20, 9)
	ts, _ := New(1, ds)
	want := evaluator.NewBitmap(20)
	for i := 0; i < 20; i++ {
		want.Set(i)
	}
	if _, err := ts.RevealChunk(want, 0, &failingOracle{y: ds.Y, after: 0}); err == nil {
		t.Fatal("expected transport failure")
	}
	if ts.RevealedCount() != 0 {
		t.Fatalf("failed unbounded chunk revealed %d labels, want 0", ts.RevealedCount())
	}
}

func TestUnreveal(t *testing.T) {
	ds := dataset(t, 12, 11)
	ts, _ := New(1, ds)
	oracle := labeling.NewTruthOracle(ds.Y)
	idx, err := ts.RevealFirst(5, oracle)
	if err != nil || len(idx) != 5 {
		t.Fatalf("setup reveal: %v %v", idx, err)
	}
	ts.Unreveal(idx[1:3]) // roll back indices 1 and 2
	if ts.RevealedCount() != 3 {
		t.Fatalf("revealed = %d after Unreveal, want 3", ts.RevealedCount())
	}
	if ts.Revealed(idx[1]) || ts.Revealed(idx[2]) {
		t.Fatal("unrevealed indices still marked")
	}
	if !ts.Revealed(idx[0]) || !ts.Revealed(idx[3]) || !ts.Revealed(idx[4]) {
		t.Fatal("Unreveal touched indices it was not given")
	}
	// Idempotent, and safely ignores out-of-range / never-revealed indices.
	ts.Unreveal(idx[1:3])
	ts.Unreveal([]int{-1, 100, 11})
	if ts.RevealedCount() != 3 {
		t.Fatalf("revealed = %d after redundant Unreveal, want 3", ts.RevealedCount())
	}
	// Re-revealing rolled-back indices is fresh again — the re-run pays
	// through the oracle interface (where the resilient client's cache
	// makes it free), not through stale testset state.
	again, err := ts.RevealFirst(1, oracle)
	if err != nil || len(again) != 1 || again[0] != idx[1] {
		t.Fatalf("re-reveal after Unreveal: %v err=%v", again, err)
	}
}
