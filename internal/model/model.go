// Package model provides the model substrate: a minimal predictor
// interface, trained-in-Go learners (multinomial naive Bayes, softmax
// regression, averaged perceptron, majority class), and simulated models
// with exactly controlled accuracy and pairwise disagreement for the
// statistical experiments.
package model

import (
	"fmt"

	"github.com/easeml/ci/internal/data"
)

// Predictor is anything that can classify a feature vector.
type Predictor interface {
	// Name identifies the model in commit history and reports.
	Name() string
	// Predict returns the class label for one example.
	Predict(x []float64) int
}

// BulkPredictor is an optional fast path for predictors whose outputs are
// precomputed (or vectorizable): instead of one Predict interface call per
// example, the whole prediction vector is produced at once. dst has
// exactly ds.Len() entries; implementations must fill every entry with a
// class in [0, ds.Classes) or return an error, and must produce exactly
// what element-wise Predict would.
type BulkPredictor interface {
	PredictAllInto(ds *data.Dataset, dst []int) error
}

// StaticPredictor is the zero-copy tier above BulkPredictor: predictors
// whose prediction vector for the dataset already exists in memory (the
// serving path, where a commit request IS a prediction vector) hand it
// out directly. StaticPredictions returns (nil, false) when no valid
// precomputed vector is available, in which case callers fall back to
// PredictAllInto. A returned vector is owned by the predictor: callers
// must treat it as read-only and must not retain it past the predictor's
// own lifetime — the engine reads it during one evaluation and copies it
// only if the model is promoted.
type StaticPredictor interface {
	StaticPredictions(ds *data.Dataset) ([]int, bool)
}

// BytePredictor is the narrow tier of StaticPredictor: a predictor whose
// prediction vector for the dataset exists in memory one byte per example
// (the serving path, where the wire decoder writes the column) hands that
// column out. ByteColumn returns (nil, false) unless the column covers the
// dataset and every entry is inside [0, ds.Classes); callers then fall
// back to StaticPredictions or PredictAllInto, which report the precise
// error. The ownership contract is StaticPredictor's.
type BytePredictor interface {
	ByteColumn(ds *data.Dataset) ([]uint8, bool)
}

// PredictAllInto evaluates a predictor over an entire dataset. Predictions
// outside the dataset's label alphabet are rejected: a silent out-of-range
// prediction would skew every downstream estimate, so the failure is
// surfaced at the boundary. When buf has enough capacity the predictions
// are written in place and no allocation happens, so a caller evaluating
// commit after commit (the engine) reuses one buffer instead of
// allocating ds.Len() ints per commit; a nil buf allocates. The (possibly
// re-sliced) buffer is returned. It assumes ds has already been validated
// — the engine's testsets are validated once at installation, not per
// commit.
func PredictAllInto(p Predictor, ds *data.Dataset, buf []int) ([]int, error) {
	if p == nil {
		return nil, fmt.Errorf("model: nil predictor")
	}
	n := ds.Len()
	out := buf
	if cap(out) < n {
		out = make([]int, n)
	} else {
		out = out[:n]
	}
	if bp, ok := p.(BulkPredictor); ok {
		if err := bp.PredictAllInto(ds, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	for i, x := range ds.X {
		y := p.Predict(x)
		if y < 0 || y >= ds.Classes {
			return nil, fmt.Errorf("model: %s predicted %d for example %d, outside [0,%d)",
				p.Name(), y, i, ds.Classes)
		}
		out[i] = y
	}
	return out, nil
}
