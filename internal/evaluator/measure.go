package evaluator

import (
	"fmt"

	"github.com/easeml/ci/internal/condlang"
)

// Measure computes the point estimates of the three condition variables
// from prediction vectors on a shared testset:
//
//	n = accuracy of the new model,
//	o = accuracy of the old model,
//	d = fraction of examples where the two models' predictions differ.
//
// Labels may be shorter than the prediction vectors only in the sense of
// being absent (-1) for unlabeled examples; accuracy is then computed over
// the labeled subset while d still uses every example (the paper's
// observation that d needs no labels, Section 4, Technical Observation 2).
func Measure(oldPred, newPred, labels []int) (VarEstimates, error) {
	if len(oldPred) != len(newPred) {
		return VarEstimates{}, fmt.Errorf("evaluator: prediction lengths differ: %d vs %d", len(oldPred), len(newPred))
	}
	if len(labels) != len(oldPred) {
		return VarEstimates{}, fmt.Errorf("evaluator: labels length %d != predictions %d", len(labels), len(oldPred))
	}
	if len(oldPred) == 0 {
		return VarEstimates{}, fmt.Errorf("evaluator: empty testset")
	}
	var diff, labeled, oldCorrect, newCorrect int
	for i := range oldPred {
		if oldPred[i] != newPred[i] {
			diff++
		}
		if labels[i] < 0 {
			continue
		}
		labeled++
		if oldPred[i] == labels[i] {
			oldCorrect++
		}
		if newPred[i] == labels[i] {
			newCorrect++
		}
	}
	est := VarEstimates{Values: map[condlang.Var]float64{
		condlang.VarD: float64(diff) / float64(len(oldPred)),
	}}
	if labeled > 0 {
		est.Values[condlang.VarN] = float64(newCorrect) / float64(labeled)
		est.Values[condlang.VarO] = float64(oldCorrect) / float64(labeled)
	}
	return est, nil
}
