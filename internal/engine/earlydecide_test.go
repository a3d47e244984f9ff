package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/script"
)

// The early-decision sequential evaluation must be an observational no-op
// on everything except label cost: verdicts, signals, promotions, commit
// hashes, alarms, and rotation points are byte-identical to the static
// full-reveal plan, while the labels charged per commit never exceed the
// static plan's cumulative spend. These property tests drive an early and
// a static engine — each checked against its scalar reference
// (reference_test.go) on every commit — through identical commit
// sequences and assert exactly that.

// stripCost zeroes the fields that legitimately differ between an early
// and a static engine: label accounting and the point estimates (a forced
// verdict is measured on a prefix of the testset, so n/o estimates are
// computed over fewer examples).
func stripCost(r Result) Result {
	r.Estimates = nil
	r.FreshLabels = 0
	r.Looks = 0
	r.EarlyExit = false
	r.LabelsSaved = 0
	return r
}

// earlyStaticPair builds an early and a static engine, each with its
// reference, over the same dataset, condition, and initial model.
// seqDelta > 0 additionally arms the anytime-valid sequential bound on the
// early engine.
func earlyStaticPair(t *testing.T, cond string, rel float64, steps int, labels, h0Preds []int, classes int, seqDelta float64) (early, static *refRig) {
	t.Helper()
	early = newRefRig(t, cond, rel, steps, labels, h0Preds, classes, EarlyDecision{SequentialDelta: seqDelta})
	static = newRefRig(t, cond, rel, steps, labels, h0Preds, classes, EarlyDecision{Disable: true, SequentialDelta: seqDelta})
	return early, static
}

// TestEarlyVsStaticEquivalence is the headline property of this change:
// over random commit streams (clear passes, clear fails, near-threshold
// candidates) with mid-stream rotations, the early-decision engine
// produces the same verdict stream as the static engine, each engine
// agrees bit for bit with its reference, and the early engine's
// cumulative label spend never exceeds the static plan's.
func TestEarlyVsStaticEquivalence(t *testing.T) {
	type scenario struct {
		name     string
		cond     string
		rel      float64
		n        int
		seqDelta float64
	}
	scenarios := []scenario{
		{"baseline", "n > 0.6 +/- 0.1", 0.99, 600, 0},
		{"baseline-word-boundary", "n - 1.1 * o > -0.5 +/- 0.45", 0.6, 127, 0},
		{"baseline-sequential", "n > 0.6 +/- 0.1", 0.99, 600, 0.05},
		{"active", "d < 0.9 +/- 0.4 /\\ n - o > -0.5 +/- 0.45", 0.6, 640, 0},
		{"active-tight", "d < 0.45 +/- 0.02 /\\ n - o > 0.01 +/- 0.04", 0.95, 3400, 0},
		{"active-sequential", "d < 0.9 +/- 0.4 /\\ n - o > -0.5 +/- 0.45", 0.6, 640, 0.1},
	}
	const classes = 4
	rng := rand.New(rand.NewSource(41))
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			labels := make([]int, sc.n)
			for i := range labels {
				labels[i] = rng.Intn(classes)
			}
			h0, err := model.SimulatedPredictions(labels, classes, 0.75, rng.Int63())
			if err != nil {
				t.Fatal(err)
			}
			early, static := earlyStaticPair(t, sc.cond, sc.rel, 2, labels, h0, classes, sc.seqDelta)
			rigs := []*refRig{early, static}

			cumEarly, cumStatic := 0, 0
			for commit := 0; commit < 12; commit++ {
				acc := []float64{0.95, 0.4, 0.74, 0.76}[commit%4]
				preds, err := model.SimulatedPredictions(labels, classes, acc, rng.Int63())
				if err != nil {
					t.Fatal(err)
				}
				results := make([]Result, len(rigs))
				errs := make([]error, len(rigs))
				for i, rig := range rigs {
					results[i], errs[i] = rig.commit(t, fmt.Sprintf("c%d", commit), fmt.Sprintf("m%d", commit), preds)
				}
				if (errs[0] == nil) != (errs[1] == nil) {
					t.Fatalf("commit %d: error divergence: %v vs %v", commit, errs[0], errs[1])
				}
				if errs[0] != nil {
					if errs[0] != ErrNeedNewTestset {
						continue
					}
					// Budget exhausted on both engines at the same commit:
					// rotate both identically and carry on.
					next := make([]int, sc.n)
					for i := range next {
						next[i] = rng.Intn(classes)
					}
					carry, err := model.SimulatedPredictions(next, classes, 0.8, 7)
					if err != nil {
						t.Fatal(err)
					}
					for _, rig := range rigs {
						rig.rotate(t, next, carry, classes)
					}
					labels = next
					continue
				}

				// Early vs static: identical modulo label accounting and
				// the (prefix-measured) point estimates.
				if got, want := stripCost(results[0]), stripCost(results[1]); !reflect.DeepEqual(got, want) {
					t.Fatalf("commit %d: early vs static verdicts diverge:\nearly:  %+v\nstatic: %+v", commit, got, want)
				}
				if results[1].EarlyExit || results[1].LabelsSaved != 0 || results[1].Looks != 0 {
					t.Fatalf("commit %d: static engine reported early-exit fields: %+v", commit, results[1])
				}
				if results[0].LabelsSaved < 0 {
					t.Fatalf("commit %d: negative savings: %+v", commit, results[0])
				}
				cumEarly += results[0].FreshLabels
				cumStatic += results[1].FreshLabels
				// The early engine's revealed set is always a subset of the
				// static engine's, so its cumulative spend can never lead.
				if cumEarly > cumStatic {
					t.Fatalf("commit %d: early spent %d labels, static only %d", commit, cumEarly, cumStatic)
				}
			}
			if early.eng.LabelCost().Total() > static.eng.LabelCost().Total() {
				t.Fatalf("early ledger %d exceeds static ledger %d",
					early.eng.LabelCost().Total(), static.eng.LabelCost().Total())
			}
			if early.eng.ActiveModelName() != static.eng.ActiveModelName() {
				t.Fatalf("promoted baselines diverge: %q vs %q",
					early.eng.ActiveModelName(), static.eng.ActiveModelName())
			}
		})
	}
}

// TestEarlyExitLabelReduction pins the headline saving on a non-borderline
// workload: commits far from the threshold (clear passes, broken builds)
// must cost at least 30% fewer labels at the median than the static plan.
// Each commit runs on a fresh engine so every evaluation pays its own
// labels (the steady-state cost of re-evaluating an already-labeled
// testset is zero for both plans and would mask the effect).
func TestEarlyExitLabelReduction(t *testing.T) {
	const n, classes = 1200, 4
	rng := rand.New(rand.NewSource(59))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	h0, err := model.SimulatedPredictions(labels, classes, 0.75, 3)
	if err != nil {
		t.Fatal(err)
	}
	var earlyCosts, staticCosts []int
	for commit := 0; commit < 10; commit++ {
		// Alternate clear passes and catastrophically broken candidates.
		acc := []float64{0.98, 0.05}[commit%2]
		preds, err := model.SimulatedPredictions(labels, classes, acc, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		early, static := earlyStaticPair(t, "n > 0.7 +/- 0.05", 0.99, 2, labels, h0, classes, 0)
		re, err := early.commit(t, "x", "m", preds)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := static.commit(t, "x", "m", preds)
		if err != nil {
			t.Fatal(err)
		}
		if re.Truth != rs.Truth {
			t.Fatalf("commit %d: verdicts diverge: %v vs %v", commit, re.Truth, rs.Truth)
		}
		if !re.EarlyExit {
			t.Fatalf("commit %d (acc %.2f) should be forced early, spent %d labels", commit, acc, re.FreshLabels)
		}
		earlyCosts = append(earlyCosts, re.FreshLabels)
		staticCosts = append(staticCosts, rs.FreshLabels)
	}
	med := func(xs []int) float64 {
		s := append([]int(nil), xs...)
		sort.Ints(s)
		if len(s)%2 == 1 {
			return float64(s[len(s)/2])
		}
		return float64(s[len(s)/2-1]+s[len(s)/2]) / 2
	}
	e, s := med(earlyCosts), med(staticCosts)
	if e > 0.7*s {
		t.Fatalf("median labels/commit: early %.0f vs static %.0f — less than 30%% saved", e, s)
	}
}

// TestLedgerConservation is the bookkeeping property the savings counters
// hang off: at every point in an engine's life — across commits, early
// exits, and testset rotations — the ledger's total equals the sum of
// FreshLabels over history, and the per-commit ledger entries match the
// history entry for entry.
func TestLedgerConservation(t *testing.T) {
	scenarios := []struct {
		name string
		cond string
		rel  float64
		n    int
	}{
		{"baseline", "n > 0.6 +/- 0.1", 0.99, 600},
		{"active", "d < 0.9 +/- 0.4 /\\ n - o > -0.5 +/- 0.45", 0.6, 640},
	}
	const classes = 4
	rng := rand.New(rand.NewSource(71))
	check := func(t *testing.T, eng *Engine) {
		t.Helper()
		sum := 0
		for _, r := range eng.History() {
			sum += r.FreshLabels
		}
		if got := eng.LabelCost().Total(); got != sum {
			t.Fatalf("ledger total %d != sum of history FreshLabels %d", got, sum)
		}
		per := eng.LabelCost().PerCommit()
		hist := eng.History()
		if len(per) != len(hist) {
			t.Fatalf("per-commit entries %d != history %d", len(per), len(hist))
		}
		for i := range per {
			if per[i] != hist[i].FreshLabels {
				t.Fatalf("entry %d: ledger %d != history %d", i, per[i], hist[i].FreshLabels)
			}
		}
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			labels := make([]int, sc.n)
			for i := range labels {
				labels[i] = rng.Intn(classes)
			}
			h0, err := model.SimulatedPredictions(labels, classes, 0.75, 5)
			if err != nil {
				t.Fatal(err)
			}
			ds := fixedDataset(labels, classes)
			cfg := mustConfig(t, sc.cond, sc.rel, interval.FPFree,
				script.Adaptivity{Kind: script.AdaptivityFull}, 2)
			eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
				InitialModel: model.NewFixedPredictions("h0", h0),
			})
			if err != nil {
				t.Fatal(err)
			}
			for commit := 0; commit < 8; commit++ {
				acc := []float64{0.95, 0.4, 0.74}[commit%3]
				preds, err := model.SimulatedPredictions(labels, classes, acc, rng.Int63())
				if err != nil {
					t.Fatal(err)
				}
				_, err = eng.Commit(model.NewFixedPredictions(fmt.Sprintf("m%d", commit), preds), "dev", "x")
				if err == ErrNeedNewTestset {
					next := make([]int, sc.n)
					for i := range next {
						next[i] = rng.Intn(classes)
					}
					carryPreds, err := model.SimulatedPredictions(next, classes, 0.8, 9)
					if err != nil {
						t.Fatal(err)
					}
					nd := fixedDataset(next, classes)
					if err := eng.RotateTestset(nd, labeling.NewTruthOracle(nd.Y), model.NewFixedPredictions("carry", carryPreds)); err != nil {
						t.Fatal(err)
					}
					labels = next
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				check(t, eng)
			}
			// Conservation survives a snapshot/restore round trip.
			restored, err := Restore(eng.Config(), eng.Snapshot(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			check(t, restored)
		})
	}
}
