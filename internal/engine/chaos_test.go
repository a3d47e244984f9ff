package engine

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/resilience"
	"github.com/easeml/ci/internal/script"
)

// The chaos suite proves the tentpole guarantee at the engine layer: for
// ANY fault schedule that eventually succeeds, the verdict history, label
// ledger, and reveal state are byte-identical to the fault-free run. The
// resilient client retries inside a LabelBatch call; when it gives up
// (ErrUnavailable) the engine rolls the evaluation back and the commit is
// simply re-submitted — exactly what a parked queue job does on release.

// chaosTime is the injectable clock shared by the resilient client's
// Clock/Sleep and the fault oracle's latency injection.
type chaosTime struct{ t time.Time }

func (c *chaosTime) now() time.Time               { return c.t }
func (c *chaosTime) advance(d time.Duration)      { c.t = c.t.Add(d) }
func newChaosTime() *chaosTime                    { return &chaosTime{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)} }
func zeroJitter() float64                         { return 0 }
func chaosSleep(c *chaosTime) func(time.Duration) { return c.advance }

const chaosMaxAttempts = 3

// chaosRig is one engine wired through Resilient(FaultOracle(truth)).
type chaosRig struct {
	eng    *Engine
	faults *labeling.FaultOracle
	clock  *chaosTime
	ds     *data.Dataset
}

func newChaosRig(t *testing.T, static bool, schedule []labeling.Fault) *chaosRig {
	t.Helper()
	ds := indexDataset(600, 4)
	cfg := mustConfig(t, "n > 0.6 +/- 0.1", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 3)
	clock := newChaosTime()
	faults := labeling.NewFaultOracle(labeling.NewTruthOracle(ds.Y), schedule, clock.advance)
	oracle := labeling.NewResilient(faults, labeling.ResilientOptions{
		MaxAttempts: chaosMaxAttempts,
		Backoff:     time.Millisecond,
		Breaker:     resilience.BreakerOptions{FailureThreshold: 4, Cooldown: time.Second},
		Clock:       clock.now,
		Sleep:       chaosSleep(clock),
		Jitter:      zeroJitter,
	})
	eng, err := New(cfg, ds, oracle, Options{
		InitialModel:  simModel(t, "h0", ds, 0.5, 1),
		Notifier:      notify.Discard{},
		EarlyDecision: EarlyDecision{Disable: static},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &chaosRig{eng: eng, faults: faults, clock: clock, ds: ds}
}

// commitUntilAccepted re-submits a commit for as long as the resilient
// client reports the provider unavailable — the engine-level equivalent
// of a parked job being released. Any other error is a test failure.
func (r *chaosRig) commitUntilAccepted(t *testing.T, name string, acc float64, seed int64) Result {
	t.Helper()
	m := simModel(t, name, r.ds, acc, seed)
	for attempt := 0; ; attempt++ {
		if attempt > 200 {
			t.Fatalf("commit %s: fault schedule never drained", name)
		}
		res, err := r.eng.Commit(m, "dev", "chaos")
		if err == nil {
			return res
		}
		if !errors.Is(err, labeling.ErrUnavailable) {
			t.Fatalf("commit %s: non-outage error %v", name, err)
		}
		// Wait out any provider hint (breaker cooldown, Retry-After)
		// before the release, like the server's park timer does.
		if d, ok := resilience.RetryAfterFromError(err); ok && d > 0 {
			r.clock.advance(d + time.Millisecond)
		} else {
			r.clock.advance(time.Second)
		}
	}
}

// runChaosScenario pushes the fixed three-commit traffic through the rig.
func runChaosScenario(t *testing.T, static bool, schedule []labeling.Fault) *chaosRig {
	t.Helper()
	r := newChaosRig(t, static, schedule)
	r.commitUntilAccepted(t, "m1", 0.9, 2)
	r.commitUntilAccepted(t, "m2", 0.55, 3)
	r.commitUntilAccepted(t, "m3", 0.92, 4)
	return r
}

// fingerprint captures everything the guarantee covers: verdict history,
// per-commit label charges, budget accounting, and the exact reveal set.
func fingerprint(t *testing.T, e *Engine) string {
	t.Helper()
	blob, err := json.Marshal(struct {
		History   []Result
		PerCommit []int
		Total     int
		Used      int
		Remaining int
		Revealed  []int
		Active    string
	}{
		History:   e.History(),
		PerCommit: e.LabelCost().PerCommit(),
		Total:     e.LabelCost().Total(),
		Used:      e.Testsets().Used(),
		Remaining: e.Testsets().Remaining(),
		Revealed:  e.Testsets().Current().RevealedIndices(),
		Active:    e.ActiveModelName(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// baseline runs the scenario with a direct in-process truth oracle — no
// remote client at all — and returns its fingerprint plus the number of
// provider round trips the fault-free remote run needs.
func chaosBaseline(t *testing.T, static bool) (string, int) {
	t.Helper()
	ds := indexDataset(600, 4)
	cfg := mustConfig(t, "n > 0.6 +/- 0.1", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 3)
	eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
		InitialModel:  simModel(t, "h0", ds, 0.5, 1),
		Notifier:      notify.Discard{},
		EarlyDecision: EarlyDecision{Disable: static},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		name string
		acc  float64
		seed int64
	}{{"m1", 0.9, 2}, {"m2", 0.55, 3}, {"m3", 0.92, 4}} {
		if _, err := eng.Commit(simModel(t, c.name, ds, c.acc, c.seed), "dev", "chaos"); err != nil {
			t.Fatalf("baseline commit %d: %v", i, err)
		}
	}
	want := fingerprint(t, eng)

	remote := runChaosScenario(t, static, nil)
	if got := fingerprint(t, remote.eng); got != want {
		t.Fatalf("fault-free remote run diverged from the direct oracle:\n got %s\nwant %s", got, want)
	}
	return want, remote.faults.Calls()
}

// chaosModes are the engine configurations the position sweeps run
// under: the default sequential evaluation ("packed"), and early decision
// disabled, where the whole testset comes in as one batch and the fault
// lands on the static plan's single reveal.
var chaosModes = []struct {
	name     string
	static   bool
	minCalls int
}{{"packed", false, 3}, {"static", true, 1}}

func TestChaosSingleTransientFaultAnywhere(t *testing.T) {
	for _, mode := range chaosModes {
		static := mode.static
		t.Run(mode.name, func(t *testing.T) {
			want, calls := chaosBaseline(t, static)
			if calls < mode.minCalls {
				t.Fatalf("scenario too small to be interesting: %d provider calls", calls)
			}
			for k := 0; k < calls; k++ {
				schedule := make([]labeling.Fault, k, k+1)
				schedule = append(schedule, labeling.Fault{Fail: true, Latency: 5 * time.Millisecond})
				r := runChaosScenario(t, static, schedule)
				if got := fingerprint(t, r.eng); got != want {
					t.Fatalf("transient fault at call %d diverged:\n got %s\nwant %s", k, got, want)
				}
			}
		})
	}
}

func TestChaosOutageBurstAnywhere(t *testing.T) {
	// A burst long enough to exhaust the retry budget surfaces
	// ErrUnavailable from Commit (the park trigger). The rollback plus
	// re-submit must reconverge to the byte-identical state, at every
	// possible call position — look boundaries and mid-batch included.
	for _, mode := range chaosModes {
		static := mode.static
		t.Run(mode.name, func(t *testing.T) {
			want, calls := chaosBaseline(t, static)
			for k := 0; k < calls; k++ {
				schedule := make([]labeling.Fault, k, k+chaosMaxAttempts)
				for i := 0; i < chaosMaxAttempts; i++ {
					schedule = append(schedule, labeling.Fault{Fail: true})
				}
				r := runChaosScenario(t, static, schedule)
				if got := fingerprint(t, r.eng); got != want {
					t.Fatalf("outage burst at call %d diverged:\n got %s\nwant %s", k, got, want)
				}
			}
		})
	}
}

func TestChaosPartialAnswersAnywhere(t *testing.T) {
	want, calls := chaosBaseline(t, false)
	for k := 0; k < calls; k++ {
		schedule := make([]labeling.Fault, k, k+2)
		schedule = append(schedule,
			labeling.Fault{Partial: 1},                    // one label, budget resets
			labeling.Fault{Partial: labeling.PartialNone}, // empty 200, budget spent
		)
		r := runChaosScenario(t, false, schedule)
		if got := fingerprint(t, r.eng); got != want {
			t.Fatalf("partial answers at call %d diverged:\n got %s\nwant %s", k, got, want)
		}
	}
}

func TestChaosNastyMixedSchedule(t *testing.T) {
	want, _ := chaosBaseline(t, false)
	schedule := []labeling.Fault{
		{Fail: true, RetryIn: 2 * time.Second, HasRetryIn: true},
		{Partial: 2, Latency: 30 * time.Millisecond},
		{Fail: true},
		{Fail: true},
		{Fail: true}, // budget gone -> ErrUnavailable -> rollback
		{Fail: true}, // breaker trips during the re-run
		{Partial: labeling.PartialNone},
		{Partial: 3},
		{Fail: true, RetryIn: 500 * time.Millisecond, HasRetryIn: true},
	}
	r := runChaosScenario(t, false, schedule)
	if got := fingerprint(t, r.eng); got != want {
		t.Fatalf("mixed schedule diverged:\n got %s\nwant %s", got, want)
	}
	if r.faults.Calls() <= len(schedule) {
		t.Fatalf("schedule not drained: %d calls", r.faults.Calls())
	}
}

func TestChaosSnapshotRestoreWhileUnavailable(t *testing.T) {
	// Crash while a commit is stuck on an outage (the parked state),
	// restore, and finish against a recovered provider: byte-identical.
	want, _ := chaosBaseline(t, false)
	ds := indexDataset(600, 4)
	cfg := mustConfig(t, "n > 0.6 +/- 0.1", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 3)

	rig := newChaosRig(t, false, nil)
	rig.commitUntilAccepted(t, "m1", 0.9, 2)

	// m2 hits an outage and gives up — this is the moment the server
	// parks the job and may get SIGKILLed.
	outage := labeling.NewFaultOracle(labeling.NewTruthOracle(ds.Y),
		[]labeling.Fault{{Fail: true}, {Fail: true}, {Fail: true}}, rig.clock.advance)
	if err := rig.eng.SetOracle(labeling.NewResilient(outage, labeling.ResilientOptions{
		MaxAttempts: chaosMaxAttempts,
		Backoff:     time.Millisecond,
		Clock:       rig.clock.now,
		Sleep:       chaosSleep(rig.clock),
		Jitter:      zeroJitter,
	})); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.eng.Commit(simModel(t, "m2", rig.ds, 0.55, 3), "dev", "chaos"); !errors.Is(err, labeling.ErrUnavailable) {
		t.Fatalf("expected outage, got %v", err)
	}

	// "SIGKILL": serialize, restore into a fresh process image.
	blob, err := json.Marshal(rig.eng.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(cfg, st, Options{Notifier: notify.Discard{}})
	if err != nil {
		t.Fatal(err)
	}
	// The provider comes back; the released job re-runs m2, then m3.
	clock := newChaosTime()
	healthy := labeling.NewFaultOracle(labeling.NewTruthOracle(ds.Y), nil, clock.advance)
	if err := restored.SetOracle(labeling.NewResilient(healthy, labeling.ResilientOptions{
		MaxAttempts: chaosMaxAttempts,
		Backoff:     time.Millisecond,
		Clock:       clock.now,
		Sleep:       chaosSleep(clock),
		Jitter:      zeroJitter,
	})); err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		name string
		acc  float64
		seed int64
	}{{"m2", 0.55, 3}, {"m3", 0.92, 4}} {
		if _, err := restored.Commit(simModel(t, c.name, ds, c.acc, c.seed), "dev", "chaos"); err != nil {
			t.Fatalf("post-restore commit %d: %v", i, err)
		}
	}
	if got := fingerprint(t, restored); got != want {
		t.Fatalf("restore-during-outage diverged:\n got %s\nwant %s", got, want)
	}
}

func TestChaosNoDoubleChargeAcrossRetries(t *testing.T) {
	// The ledger must never bill a label twice even when the evaluation
	// is torn down and re-run: compare total charges against fault-free.
	want, calls := chaosBaseline(t, false)
	var wantTotal int
	{
		var fp struct{ Total int }
		if err := json.Unmarshal([]byte(want), &fp); err != nil {
			t.Fatal(err)
		}
		wantTotal = fp.Total
	}
	// Outage bursts at two separate points in the run.
	mid := calls / 2
	schedule := make([]labeling.Fault, 0, mid+2*chaosMaxAttempts)
	for i := 0; i < chaosMaxAttempts; i++ {
		schedule = append(schedule, labeling.Fault{Fail: true})
	}
	for len(schedule) < mid {
		schedule = append(schedule, labeling.Fault{})
	}
	for i := 0; i < chaosMaxAttempts; i++ {
		schedule = append(schedule, labeling.Fault{Fail: true})
	}
	r := runChaosScenario(t, false, schedule)
	if got := r.eng.LabelCost().Total(); got != wantTotal {
		t.Fatalf("label charges diverged under faults: %d, want %d", got, wantTotal)
	}
}
