package engine

import (
	"runtime"
	"testing"
	"time"

	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/script"
)

// TestEngineMultiGenerationLifecycle drives the engine across three testset
// generations, checking every piece of bookkeeping the paper's workflow
// depends on: budget consumption, alarm timing, fully labeled testsets at
// retirement, label-cost accounting across rotations, and history
// integrity.
func TestEngineMultiGenerationLifecycle(t *testing.T) {
	cfg := mustConfig(t, "n > 0.6 +/- 0.1", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 2)
	ds := indexDataset(600, 4)
	outbox := notify.NewOutbox()
	// Early decision disabled: the assertions below pin the static plan's
	// exact label totals (600 per generation, retired testsets fully
	// labeled), which early exits deliberately undercut.
	eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
		InitialModel:  simModel(t, "h0", ds, 0.5, 1),
		Notifier:      outbox,
		EarlyDecision: EarlyDecision{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}

	totalCommits := 0
	for generation := 1; generation <= 3; generation++ {
		for step := 1; step <= 2; step++ {
			acc := 0.9
			if step == 2 {
				acc = 0.3 // alternate pass/fail
			}
			res, err := eng.Commit(simModel(t, "m", ds, acc, int64(generation*10+step)), "dev", "x")
			if err != nil {
				t.Fatalf("gen %d step %d: %v", generation, step, err)
			}
			totalCommits++
			if res.Generation != generation || res.Step != step {
				t.Errorf("gen/step = %d/%d, want %d/%d", res.Generation, res.Step, generation, step)
			}
			wantAlarm := step == 2
			if res.NeedNewTestset != wantAlarm {
				t.Errorf("gen %d step %d: alarm = %v", generation, step, res.NeedNewTestset)
			}
		}
		// The retiring baseline-path testset is fully labeled: released to
		// the developers, it is a fully usable validation set.
		if cur := eng.Testsets().Current(); cur.Generation != generation || cur.RevealedCount() != cur.Len() {
			t.Errorf("retiring generation %d: gen %d labeled %d of %d", generation, cur.Generation, cur.RevealedCount(), cur.Len())
		}
		if generation < 3 {
			next := indexDataset(600, 4)
			if err := eng.RotateTestset(next, labeling.NewTruthOracle(next.Y), simModel(t, "carry", next, 0.9, int64(generation))); err != nil {
				t.Fatal(err)
			}
			ds = next
		}
	}

	if eng.Repository().Len() != totalCommits {
		t.Errorf("repo commits = %d, want %d", eng.Repository().Len(), totalCommits)
	}
	if len(eng.History()) != totalCommits {
		t.Errorf("history = %d, want %d", len(eng.History()), totalCommits)
	}
	// One alarm per generation.
	if got := len(outbox.ByKind(notify.KindAlarm)); got != 3 {
		t.Errorf("alarms = %d, want 3", got)
	}
	// Label cost: each generation labels its 600 examples once (first
	// commit), second commit reuses them.
	if got := eng.LabelCost().Total(); got != 3*600 {
		t.Errorf("total labels = %d, want 1800", got)
	}
	if got := len(eng.LabelCost().PerCommit()); got != totalCommits {
		t.Errorf("per-commit entries = %d, want %d", got, totalCommits)
	}
	// Commit chain integrity across generations.
	hist := eng.Repository().History()
	for i := 1; i < len(hist); i++ {
		if hist[i].Parent != hist[i-1].ID {
			t.Fatalf("broken commit chain at %d", i)
		}
	}
}

// TestEngineHistoryIsolation: History returns a copy.
func TestEngineHistoryIsolation(t *testing.T) {
	cfg := mustConfig(t, "n > 0.6 +/- 0.1", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 3)
	ds := indexDataset(600, 4)
	eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
		InitialModel: simModel(t, "h0", ds, 0.5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit(simModel(t, "m", ds, 0.9, 2), "dev", "x"); err != nil {
		t.Fatal(err)
	}
	h := eng.History()
	h[0].Pass = !h[0].Pass
	if eng.History()[0].Pass == h[0].Pass {
		t.Error("History leaked internal state")
	}
}

// TestRotationDropsRetiredTestset: once rotated out, a testset is garbage.
// Neither the engine nor its testset manager keeps a reference to it, so
// a long-lived server does not grow by one testset (features, labels and
// reveal bitmap) per rotation.
func TestRotationDropsRetiredTestset(t *testing.T) {
	cfg := mustConfig(t, "n > 0.6 +/- 0.1", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 2)
	collected := make(chan struct{})
	eng := func() *Engine {
		first := indexDataset(600, 4)
		runtime.SetFinalizer(first, func(*data.Dataset) { close(collected) })
		eng, err := New(cfg, first, labeling.NewTruthOracle(first.Y), Options{
			InitialModel: simModel(t, "h0", first, 0.5, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Commit(simModel(t, "m", first, 0.9, 2), "dev", "x"); err != nil {
			t.Fatal(err)
		}
		return eng
	}()
	next := indexDataset(600, 4)
	if err := eng.RotateTestset(next, labeling.NewTruthOracle(next.Y), simModel(t, "carry", next, 0.9, 3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(eng)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the retired testset is still reachable after rotation")
}
