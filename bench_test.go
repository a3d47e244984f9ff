package ci_test

// One benchmark per table/figure of the paper (see DESIGN.md's
// per-experiment index) plus ablation benches for the design choices the
// planner makes and micro-benchmarks for the hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// Each figure bench reports a characteristic output of its artifact as a
// custom metric so regressions in the *numbers* (not just the speed) are
// visible in benchmark logs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/easeml/ci/internal/adaptivity"
	"github.com/easeml/ci/internal/bounds"
	"github.com/easeml/ci/internal/condlang"
	"github.com/easeml/ci/internal/core"
	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/engine"
	"github.com/easeml/ci/internal/estimator"
	"github.com/easeml/ci/internal/experiments"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/lru"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/patterns"
	"github.com/easeml/ci/internal/planner"
	"github.com/easeml/ci/internal/script"
	"github.com/easeml/ci/internal/server"
	"github.com/easeml/ci/internal/stats"
	"github.com/easeml/ci/internal/wal"
)

// BenchmarkFigure2SampleSizeTable regenerates the Figure 2 practicality
// table (64 sample sizes, H = 32).
func BenchmarkFigure2SampleSizeTable(b *testing.B) {
	var last int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure2(32)
		if err != nil {
			b.Fatal(err)
		}
		last = rows[len(rows)-1].F2F3Full
	}
	b.ReportMetric(float64(last), "cell_0.99999_0.01_f2f3full")
}

// BenchmarkFigure3LabelComplexity regenerates the label-complexity sweep.
func BenchmarkFigure3LabelComplexity(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure3(
			[]float64{0.01, 0.02, 0.05},
			[]float64{0.01, 0.001, 0.0001},
			experiments.DefaultFigure3Ps)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range series[0].Points {
			if p.P == 0.1 {
				improvement = p.Improvement
			}
		}
	}
	b.ReportMetric(improvement, "improvement_at_p0.1")
}

// BenchmarkFigure4EmpiricalError regenerates the estimated-vs-empirical
// error comparison (Monte-Carlo heavy).
func BenchmarkFigure4EmpiricalError(b *testing.B) {
	cfg := experiments.DefaultFigure4Config()
	cfg.Ns = []int{500, 2000, 8000}
	cfg.Trials = 200
	var ratio float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ratio = pts[0].BaselineEps / pts[0].OptimizedEps
	}
	b.ReportMetric(ratio, "baseline_over_optimized_eps")
}

// BenchmarkFigure5SemEvalScenario runs the full 3-query, 8-commit CI
// scenario through the engine.
func BenchmarkFigure5SemEvalScenario(b *testing.B) {
	var size int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(2019)
		if err != nil {
			b.Fatal(err)
		}
		size = res.Queries[2].SampleSize
	}
	b.ReportMetric(float64(size), "adaptive_sample_size")
}

// BenchmarkFigure6AccuracyEvolution reports the accuracy trajectories of
// the same scenario (kept separate so the figure has its own target).
func BenchmarkFigure6AccuracyEvolution(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(2019)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range res.TestAccuracy {
			if a > peak {
				peak = a
			}
		}
	}
	b.ReportMetric(peak, "peak_test_accuracy")
}

// BenchmarkInTextNumbers recomputes every sample size quoted in the
// paper's prose.
func BenchmarkInTextNumbers(b *testing.B) {
	var active int
	for i := 0; i < b.N; i++ {
		n, err := experiments.ComputeInTextNumbers()
		if err != nil {
			b.Fatal(err)
		}
		active = n.ActiveLabelsPerCommit
	}
	b.ReportMetric(float64(active), "active_labels_per_commit")
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationEpsilonSplit compares the optimal epsilon split against
// the naive even split on an uneven-coefficient clause.
func BenchmarkAblationEpsilonSplit(b *testing.B) {
	f, err := condlang.Parse("n - 1.1 * o > 0.01 +/- 0.01")
	if err != nil {
		b.Fatal(err)
	}
	var even, opt int
	for i := 0; i < b.N; i++ {
		pe, err := estimator.SampleSize(f, 0.001, estimator.Options{
			Steps: 32, Adaptivity: adaptivity.None,
			Strategy: estimator.PerVariable, Split: estimator.SplitEven,
		})
		if err != nil {
			b.Fatal(err)
		}
		po, err := estimator.SampleSize(f, 0.001, estimator.Options{
			Steps: 32, Adaptivity: adaptivity.None,
			Strategy: estimator.PerVariable, Split: estimator.SplitOptimal,
		})
		if err != nil {
			b.Fatal(err)
		}
		even, opt = pe.N, po.N
	}
	b.ReportMetric(float64(even)/float64(opt), "even_over_optimal")
}

// BenchmarkAblationDeltaBudget compares the split budget (Section 4.1.1)
// against the test-only budget (Section 5.2) for Pattern 1.
func BenchmarkAblationDeltaBudget(b *testing.B) {
	f, err := condlang.Parse("d < 0.1 +/- 0.01 /\\ n - o > 0.02 +/- 0.01")
	if err != nil {
		b.Fatal(err)
	}
	var split, testOnly int
	for i := 0; i < b.N; i++ {
		ps, err := patterns.PlanPattern1(f, 0.0001, patterns.Options{
			Steps: 32, Adaptivity: adaptivity.None, Budget: patterns.BudgetSplit,
		})
		if err != nil {
			b.Fatal(err)
		}
		pt, err := patterns.PlanPattern1(f, 0.0001, patterns.Options{
			Steps: 32, Adaptivity: adaptivity.None, Budget: patterns.BudgetTestOnly,
		})
		if err != nil {
			b.Fatal(err)
		}
		split, testOnly = ps.TestN, pt.TestN
	}
	b.ReportMetric(float64(split)-float64(testOnly), "split_minus_testonly_labels")
}

// BenchmarkAblationStrategy compares per-variable and composite-range
// estimation on an uneven-coefficient clause.
func BenchmarkAblationStrategy(b *testing.B) {
	f, err := condlang.Parse("n - 1.1 * o > 0.01 +/- 0.01")
	if err != nil {
		b.Fatal(err)
	}
	var pv, cr int
	for i := 0; i < b.N; i++ {
		a, err := estimator.SampleSize(f, 0.001, estimator.Options{
			Steps: 16, Adaptivity: adaptivity.Full, Strategy: estimator.PerVariable,
		})
		if err != nil {
			b.Fatal(err)
		}
		c, err := estimator.SampleSize(f, 0.001, estimator.Options{
			Steps: 16, Adaptivity: adaptivity.Full, Strategy: estimator.CompositeRange,
		})
		if err != nil {
			b.Fatal(err)
		}
		pv, cr = a.N, c.N
	}
	b.ReportMetric(float64(pv)/float64(cr), "pervariable_over_composite")
}

// BenchmarkAblationTightBinomial compares the exact binomial sample size
// (Section 4.3) against two-sided Hoeffding. Repeated iterations hit the
// worst-case memo, so this measures the steady-state (served) latency; see
// BenchmarkAblationTightBinomialCold for the uncached search.
func BenchmarkAblationTightBinomial(b *testing.B) {
	var exact, hoeff int
	for i := 0; i < b.N; i++ {
		var err error
		exact, err = bounds.ExactSampleSize(0.05, 0.01, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		hoeff, err = bounds.HoeffdingSampleSizeTwoSided(1, 0.05, 0.01)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(hoeff)/float64(exact), "hoeffding_over_exact")
}

// BenchmarkAblationTightBinomialCold is the same search with the memo
// emptied every iteration: the honest cost of one full exact-bound
// binary search plus stabilization.
func BenchmarkAblationTightBinomialCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bounds.ResetExactCache()
		if _, err := bounds.ExactSampleSize(0.05, 0.01, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// worstCaseBenchCases are the representative (n, epsilon) points for the
// event-driven sweep vs grid ablation pair: epsilon shrinks with n so the
// worst-case failure stays near practical delta levels (the regime every
// real sample-size search probes).
var worstCaseBenchCases = []struct {
	n   int
	eps float64
}{
	{1000, 0.05},
	{30000, 0.01},
	{300000, 0.003},
}

// benchWorstCase drives one worst-case implementation with memoization
// bypassed (both entry points are the raw searches; only
// bounds.ExactWorstCaseFailure carries the memo).
func benchWorstCase(b *testing.B, impl func(int, float64, float64, float64) (float64, error)) {
	for _, c := range worstCaseBenchCases {
		b.Run(fmt.Sprintf("n=%d", c.n), func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				var err error
				worst, err = impl(c.n, c.eps, 0, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(worst, "worst_case_failure")
		})
	}
}

// BenchmarkExactWorstCaseSweep is the shipped event-driven sweep: lattice
// event families localized by coarse bisection plus a medium-tolerance
// ascent, full precision only at the located peaks.
func BenchmarkExactWorstCaseSweep(b *testing.B) {
	benchWorstCase(b, bounds.ExactWorstCaseFailureSweep)
}

// BenchmarkExactWorstCaseGrid is the ablation baseline the sweep replaced:
// 64-point coarse grid plus up-to-512-point local refinement.
func BenchmarkExactWorstCaseGrid(b *testing.B) {
	benchWorstCase(b, bounds.ExactWorstCaseFailureGrid)
}

// benchColdProbes times a cold exact-bound search under the given bracket
// seed and reports how many uncached worst-case probes one search costs —
// the number the normal-approximation seed exists to cut.
func benchColdProbes(b *testing.B, seed bounds.BracketSeed) {
	for i := 0; i < b.N; i++ {
		bounds.ResetExactCache()
		if _, err := bounds.ExactSampleSizeSeeded(0.05, 0.01, 0, 1, seed); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	bounds.ResetExactCache()
	if _, err := bounds.ExactSampleSizeSeeded(0.05, 0.01, 0, 1, seed); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(bounds.ExactProbeEvals()), "probes/search")
}

// BenchmarkExactColdProbesNormalSeed is the shipped configuration:
// bracket seeded by the inverse-normal estimate.
func BenchmarkExactColdProbesNormalSeed(b *testing.B) {
	benchColdProbes(b, bounds.SeedNormal)
}

// BenchmarkExactColdProbesHoeffdingSeed is the ablation baseline: bracket
// seeded at the two-sided Hoeffding size (the pre-seed behavior).
func BenchmarkExactColdProbesHoeffdingSeed(b *testing.B) {
	benchColdProbes(b, bounds.SeedHoeffding)
}

// --- Micro-benchmarks ----------------------------------------------------

func BenchmarkParseCondition(b *testing.B) {
	src := "n - 1.1 * o > 0.01 +/- 0.01 /\\ d < 0.1 +/- 0.01"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := condlang.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleSizeEstimator(b *testing.B) {
	f, err := condlang.Parse("n - o > 0.02 +/- 0.01 /\\ d < 0.1 +/- 0.01")
	if err != nil {
		b.Fatal(err)
	}
	opts := estimator.Options{Steps: 32, Adaptivity: adaptivity.Full, Strategy: estimator.PerVariable}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := estimator.SampleSize(f, 0.0001, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCacheHit measures the server hot path: a plan request that
// the LRU plan cache absorbs.
func BenchmarkPlanCacheHit(b *testing.B) {
	cfg, err := script.New("d < 0.1 +/- 0.01 /\\ n - o > 0.02 +/- 0.01", 0.9999, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityNone, Email: "a@b.c"}, 32)
	if err != nil {
		b.Fatal(err)
	}
	cache := planner.New(64)
	if _, err := cache.PlanForConfig(cfg, core.DefaultOptions()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cache.PlanForConfig(cfg, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlannerDispatch(b *testing.B) {
	cfg, err := script.New("d < 0.1 +/- 0.01 /\\ n - o > 0.02 +/- 0.01", 0.9999, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityNone, Email: "a@b.c"}, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanForConfig(cfg, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- plan-cache contention ----------------------------------------------

// kvCache is the Get/Put surface the single-mutex and sharded LRUs share.
type kvCache interface {
	Get(int) (int, bool)
	Put(int, int)
}

// benchLRUContention hammers a cache with a mixed read-heavy workload
// (3 Gets : 1 Put over 1024 keys) from at least 8 concurrent goroutines.
// GOMAXPROCS is raised to 8 for the duration so the contention is real
// even on small CI hosts: this is the serving profile of a plan-query
// fleet, not a single-threaded microbenchmark.
func benchLRUContention(b *testing.B, c kvCache) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for k := 0; k < 1024; k++ {
		c.Put(k, k)
	}
	var goroutine atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine walks its own deterministic key sequence.
		x := uint64(goroutine.Add(1)) * 0x9e3779b97f4a7c15
		for pb.Next() {
			x = x*6364136223846793005 + 1442695040888963407
			k := int(x>>32) & 1023
			if x&3 == 0 {
				c.Put(k, k)
			} else {
				c.Get(k)
			}
		}
	})
	// The -N name suffix reflects the harness's original GOMAXPROCS, not
	// the contention level this benchmark actually ran at; record the
	// truth alongside the timings.
	b.ReportMetric(float64(goroutine.Load()), "goroutines")
}

// BenchmarkLRUContentionSingle is the pre-sharding baseline: every
// Get/Put serializes on one mutex.
func BenchmarkLRUContentionSingle(b *testing.B) {
	benchLRUContention(b, lru.New[int, int](2048))
}

// BenchmarkLRUContentionSharded is the shipped plan-cache configuration:
// 16-way sharded, per-shard mutex.
func BenchmarkLRUContentionSharded(b *testing.B) {
	benchLRUContention(b, lru.NewSharded[int, int](2048, func(k int) uint64 {
		return lru.Mix64(uint64(k))
	}))
}

func BenchmarkBinomialCDF(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stats.BinomialCDF(4900, 10000, 0.49)
	}
}

func BenchmarkBennettSampleSize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bounds.BennettSampleSize(0.1, 0.01, 0.0001); err != nil {
			b.Fatal(err)
		}
	}
}

// --- commit evaluation ---------------------------------------------------

// commitEvalEngine builds an engine over an n-example index dataset with a
// fully-labeled (baseline-plan) condition, plus a candidate model, for the
// commit-evaluation benchmarks.
func commitEvalEngine(b *testing.B, n int) (*engine.Engine, model.Predictor) {
	b.Helper()
	ds := &data.Dataset{Name: "commit-eval", Classes: 4}
	for i := 0; i < n; i++ {
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Y = append(ds.Y, i%4)
	}
	// The 1.1 coefficient keeps the planner off the active-labeling
	// patterns, so this measures the fully-labeled path: the one that
	// walks the whole testset every commit. Tolerance 0.3 keeps the
	// planned sample size within the benchmark testset.
	cfg, err := script.New("n - 1.1 * o > -0.3 +/- 0.3", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 4096)
	if err != nil {
		b.Fatal(err)
	}
	oldPreds, err := model.SimulatedPredictions(ds.Y, 4, 0.8, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.New(cfg, ds, labeling.NewTruthOracle(ds.Y), engine.Options{
		InitialModel: model.NewFixedPredictions("h0", oldPreds),
	})
	if err != nil {
		b.Fatal(err)
	}
	newPreds, err := model.SimulatedPredictions(ds.Y, 4, 0.85, 2)
	if err != nil {
		b.Fatal(err)
	}
	return eng, model.NewFixedPredictions("candidate", newPreds)
}

// BenchmarkCommitEval measures steady-state commit evaluation — candidate
// predictions, label access, {n, o, d} measurement, condition verdict — at
// n=1e5 via engine.Evaluate (the measurement core without per-commit
// bookkeeping), on the bit-packed columnar path (target: 0 allocs/op
// steady-state, which tools/benchdiff gates).
func BenchmarkCommitEval(b *testing.B) {
	const n = 100000
	b.Run(fmt.Sprintf("packed/n=%d", n), func(b *testing.B) {
		eng, m := commitEvalEngine(b, n)
		// Warm up: first evaluation reveals every label.
		ev, err := eng.Evaluate(m)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev, err = eng.Evaluate(m)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(ev.D, "d_hat")
	})
}

// BenchmarkCommitThroughput drives full commits (evaluation plus budget,
// repository, history, and promotion bookkeeping) through the packed
// engine at n=1e5 and reports the commits/sec the serving queue can drain.
func BenchmarkCommitThroughput(b *testing.B) {
	const n = 100000
	eng, m := commitEvalEngine(b, n)
	ds := eng.Testsets().Current().Data
	h0 := model.NewFixedPredictions("h0", mustSimPreds(b, ds.Y, 0.8, 1))
	oracle := labeling.NewTruthOracle(ds.Y)
	if _, err := eng.Commit(m, "bench", "warmup"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := eng.Commit(m, "bench", "commit")
		if err == engine.ErrNeedNewTestset {
			if err := eng.RotateTestset(ds, oracle, h0); err != nil {
				b.Fatal(err)
			}
			_, err = eng.Commit(m, "bench", "commit")
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "commits/s")
	}
}

func mustSimPreds(b *testing.B, labels []int, acc float64, seed int64) []int {
	b.Helper()
	preds, err := model.SimulatedPredictions(labels, 4, acc, seed)
	if err != nil {
		b.Fatal(err)
	}
	return preds
}

// BenchmarkEngineCommit measures one full commit evaluation (predictions,
// active labeling, decision, bookkeeping) on a 5k testset.
func BenchmarkEngineCommit(b *testing.B) {
	ds := &data.Dataset{Name: "bench", Classes: 4}
	for i := 0; i < 5000; i++ {
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Y = append(ds.Y, i%4)
	}
	cfg, err := script.New("n - o > 0.02 +/- 0.03", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 4096)
	if err != nil {
		b.Fatal(err)
	}
	oldPreds, err := model.SimulatedPredictions(ds.Y, 4, 0.8, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.New(cfg, ds, labeling.NewTruthOracle(ds.Y), engine.Options{
		InitialModel: model.NewFixedPredictions("h0", oldPreds),
	})
	if err != nil {
		b.Fatal(err)
	}
	newPreds, err := model.SimulatedPredictions(ds.Y, 4, 0.85, 2)
	if err != nil {
		b.Fatal(err)
	}
	m := model.NewFixedPredictions("candidate", newPreds)
	h0 := model.NewFixedPredictions("h0", oldPreds)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := eng.Commit(m, "bench", "commit")
		if err == engine.ErrNeedNewTestset {
			// The 4096-evaluation budget ran out mid-benchmark; rotate a
			// fresh testset and keep going.
			if err := eng.RotateTestset(ds, labeling.NewTruthOracle(ds.Y), h0); err != nil {
				b.Fatal(err)
			}
			_, err = eng.Commit(m, "bench", "commit")
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- early-decision label cost -------------------------------------------

// BenchmarkEarlyExitLabelCost drives the non-borderline workload — ten
// fresh-engine commits alternating a clear pass (accuracy 0.98) and a
// broken build (0.05) on a 1200-example testset — under the sequential
// early-decision plan ("early") and the static one-shot reveal
// ("static"), and reports the median fresh labels one commit paid. The
// labels/commit pair is the early-decision headline (>= 30% median
// saving off the bar); tools/benchdiff gates the metric alongside ns/op
// so the saving cannot silently erode. Each commit runs on a fresh
// engine because re-evaluating an already-labeled testset is free under
// both plans and would mask the effect.
func BenchmarkEarlyExitLabelCost(b *testing.B) {
	const n, commits = 1200, 10
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 4
	}
	cfg, err := script.New("n > 0.7 +/- 0.05", 0.99, interval.FPFree,
		script.Adaptivity{Kind: script.AdaptivityFull}, 2)
	if err != nil {
		b.Fatal(err)
	}
	h0 := mustSimPreds(b, labels, 0.75, 3)
	cands := make([]model.Predictor, commits)
	for i := range cands {
		acc := []float64{0.98, 0.05}[i%2]
		cands[i] = model.NewFixedPredictions("candidate", mustSimPreds(b, labels, acc, int64(i)+10))
	}
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"early", false},
		{"static", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var median float64
			for i := 0; i < b.N; i++ {
				costs := make([]int, 0, commits)
				for _, m := range cands {
					ds := &data.Dataset{Name: "early-exit", Classes: 4}
					for j := 0; j < n; j++ {
						ds.X = append(ds.X, []float64{float64(j)})
						ds.Y = append(ds.Y, labels[j])
					}
					eng, err := engine.New(cfg, ds, labeling.NewTruthOracle(ds.Y), engine.Options{
						InitialModel:  model.NewFixedPredictions("h0", h0),
						EarlyDecision: engine.EarlyDecision{Disable: mode.disable},
					})
					if err != nil {
						b.Fatal(err)
					}
					res, err := eng.Commit(m, "bench", "commit")
					if err != nil {
						b.Fatal(err)
					}
					costs = append(costs, res.FreshLabels)
				}
				sort.Ints(costs)
				median = float64(costs[commits/2-1]+costs[commits/2]) / 2
			}
			b.ReportMetric(median, "labels/commit")
		})
	}
}

// --- write-ahead log (internal/wal) -------------------------------------

// walBenchPayload is shaped like the server's commit record: the payload
// class the durable server appends most often.
type walBenchPayload struct {
	Job string          `json:"job"`
	Res json.RawMessage `json:"res"`
}

var walBenchRes = json.RawMessage(`{"commit_id":"0123456789abcdef","step":3,"signal":true,"truth":"True","pass":true,"estimates":{"n":0.91},"fresh_labels":128,"need_new_testset":false}`)

// BenchmarkWALAppend measures one unsynced record append (encode + CRC +
// write): the cost each engine audit record adds to a durable commit.
func BenchmarkWALAppend(b *testing.B) {
	log, _, _, err := wal.Open(b.TempDir(), wal.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	p := walBenchPayload{Job: "job-42", Res: walBenchRes}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := log.Append("job.commit", p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendSync measures append+fsync: the durable commit point
// a client's 200/202 waits behind.
func BenchmarkWALAppendSync(b *testing.B) {
	log, _, _, err := wal.Open(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	p := walBenchPayload{Job: "job-42", Res: walBenchRes}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := log.Append("job.commit", p); err != nil {
			b.Fatal(err)
		}
		if err := log.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALReplay measures opening a 1000-record log: decode + CRC
// verification for every record — the fixed cost of a crash restart
// before the engine re-executes anything.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	log, _, _, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	p := walBenchPayload{Job: "job-42", Res: walBenchRes}
	for i := 0; i < 1000; i++ {
		if _, err := log.Append("job.commit", p); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, _, recs, err := wal.Open(dir, wal.Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != 1000 {
			b.Fatalf("replayed %d records, want 1000", len(recs))
		}
		_ = l.Close()
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*1000/secs, "records/s")
	}
}

// BenchmarkMultiTenantThroughput drives synchronous commits across eight
// projects of one control plane — every request routed, quota-checked,
// queued on its tenant, scheduled by the shared weighted-round-robin
// pool, and evaluated on the tenant's own engine — and reports the
// aggregate commits/sec the multi-tenant serving stack sustains.
func BenchmarkMultiTenantThroughput(b *testing.B) {
	const tenants = 8
	const n = 5000
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 4
	}
	h0 := mustSimPreds(b, labels, 0.8, 1)
	m, err := server.NewMulti(server.Genesis{
		Condition:   "n - o > 0.02 +/- 0.03",
		Reliability: 0.99,
		Mode:        interval.FPFree,
		Adaptivity:  script.Adaptivity{Kind: script.AdaptivityFull},
		Steps:       4096,
		Labels:      labels, Classes: 4,
		ModelName: "h0", ModelPredictions: h0,
	}, server.MultiOptions{PoolWorkers: runtime.GOMAXPROCS(0)})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	bases := []string{"/api/v1"}
	for t := 1; t < tenants; t++ {
		id := fmt.Sprintf("bench-%d", t)
		body, _ := json.Marshal(server.CreateProjectRequest{
			ID: id,
			ProjectSpec: server.ProjectSpec{
				Condition: "n - o > 0.02 +/- 0.03", Reliability: 0.99, Steps: 4096,
				Labels: labels, Classes: 4, ModelName: "h0", ModelPredictions: h0,
			},
		})
		rec := httptest.NewRecorder()
		m.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/projects", bytes.NewReader(body)))
		if rec.Code != http.StatusCreated {
			b.Fatalf("create %s = %d: %s", id, rec.Code, rec.Body.String())
		}
		bases = append(bases, "/api/v1/projects/"+id)
	}
	commitBody, _ := json.Marshal(server.CommitRequest{
		Model: "candidate", Author: "bench", Predictions: mustSimPreds(b, labels, 0.8, 2),
	})
	// The candidate never beats h0, so the active model stays the genesis
	// baseline and this rotation is always valid when a budget runs dry.
	rotateBody, _ := json.Marshal(server.RotateRequest{Labels: labels, ActivePredictions: h0})
	var rr atomic.Uint64
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			base := bases[int(rr.Add(1))%tenants]
			ok := false
			for attempt := 0; attempt < 3 && !ok; attempt++ {
				rec := httptest.NewRecorder()
				m.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, base+"/commit", bytes.NewReader(commitBody)))
				if rec.Code == http.StatusOK {
					ok = true
					break
				}
				// Testset budget exhausted: rotate a fresh one in and retry.
				rot := httptest.NewRecorder()
				m.ServeHTTP(rot, httptest.NewRequest(http.MethodPost, base+"/testset", bytes.NewReader(rotateBody)))
			}
			if !ok {
				b.Fatalf("commit on %s kept failing", base)
			}
		}
	})
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "commits/s")
	}
}
