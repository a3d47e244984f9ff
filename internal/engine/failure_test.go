package engine

import (
	"fmt"
	"testing"

	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/script"
)

// failingOracle errors after a fixed number of labels: the labeling team
// walked away mid-testset.
type failingOracle struct {
	inner   labeling.Oracle
	granted int
	limit   int
}

func (o *failingOracle) Label(i int) (int, error) {
	if o.granted >= o.limit {
		return 0, fmt.Errorf("labeling team unavailable after %d labels", o.limit)
	}
	o.granted++
	return o.inner.Label(i)
}

// badPredictor emits an out-of-range class.
type badPredictor struct{}

func (badPredictor) Name() string            { return "bad" }
func (badPredictor) Predict(x []float64) int { return 99 }

func TestEngineSurfacesOracleFailure(t *testing.T) {
	ds := indexDataset(600, 4)
	cfg := mustConfig(t, "n > 0.6 +/- 0.1", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 3)
	oracle := &failingOracle{inner: labeling.NewTruthOracle(ds.Y), limit: 100}
	eng, err := New(cfg, ds, oracle, Options{
		InitialModel: simModel(t, "h0", ds, 0.5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit(simModel(t, "m", ds, 0.9, 2), "dev", "x"); err == nil {
		t.Fatal("oracle failure must abort the commit")
	}
	// The failed evaluation must not have consumed testset budget: the
	// statistical guarantee was never delivered.
	if eng.Testsets().Remaining() != 3 {
		t.Errorf("failed commit consumed budget: remaining = %d", eng.Testsets().Remaining())
	}
	if eng.Repository().Len() != 0 {
		t.Error("failed commit must not enter the repository")
	}
}

func TestEngineRejectsOutOfRangePredictions(t *testing.T) {
	ds := indexDataset(600, 4)
	cfg := mustConfig(t, "n > 0.6 +/- 0.1", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 3)
	eng, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
		InitialModel: simModel(t, "h0", ds, 0.5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit(badPredictor{}, "dev", "broken build"); err == nil {
		t.Fatal("out-of-range predictions must abort the commit")
	}
	if eng.Testsets().Remaining() != 3 {
		t.Error("broken commit consumed budget")
	}
	// The engine keeps working after the broken commit.
	if _, err := eng.Commit(simModel(t, "ok", ds, 0.9, 2), "dev", "fixed"); err != nil {
		t.Fatalf("engine wedged after broken commit: %v", err)
	}
}

func TestEngineRejectsBadInitialModel(t *testing.T) {
	ds := indexDataset(600, 4)
	cfg := mustConfig(t, "n > 0.6 +/- 0.1", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 3)
	if _, err := New(cfg, ds, labeling.NewTruthOracle(ds.Y), Options{
		InitialModel: badPredictor{},
	}); err == nil {
		t.Fatal("out-of-range initial model must fail construction")
	}
}

func TestModelPredictAllRangeValidation(t *testing.T) {
	ds := indexDataset(10, 4)
	if _, err := model.PredictAllInto(badPredictor{}, ds, nil); err == nil {
		t.Error("PredictAllInto must reject out-of-range predictions")
	}
}
