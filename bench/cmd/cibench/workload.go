package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/url"
	"slices"
	"strconv"
	"time"

	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/engine"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/script"
	"github.com/easeml/ci/internal/server"
)

// workload is one traffic mix. Every field is fixed by the workload's
// name; the seed changes only the generated labels, models and schedule.
type workload struct {
	name string
	why  string

	projects    int
	n           int // testset size
	condition   string
	reliability float64
	steps       int // H: commits a testset supports before rotation
	// generations is how many distinct testsets one project cycles
	// through. After the last one the sender rotates back to the first,
	// so a run re-sends a bounded set of pre-encoded bodies while the
	// server sees an ever-growing history.
	generations int

	durable bool // data dir on local disk, fsync on
	async   bool // commits go through /commit/async with a webhook

	commitRate   float64 // open-loop commits/s over all projects
	readRate     float64 // open-loop dashboard reads/s (status, history, plan)
	historyShare float64 // share of dashboard reads that fetch history
	planShare    float64 // share of dashboard reads that are ad-hoc plan queries

	// openShare is the share of --seconds spent in the open loop; the
	// closed loop gets the rest.
	openShare float64
}

const (
	classes      = 4
	baseAccuracy = 0.8
	// pollEvery is how often an async client polls its job, as the
	// easeml-ci CLI does.
	pollEvery = 50 * time.Millisecond
)

// condition5k and condition100k are the two scripts: a plain accuracy
// gain (Pattern 2 plan, active labelling) and the paper's Pattern-1
// condition that also bounds disagreement.
const (
	condition5k   = "n - o > 0.02 +/- 0.03"
	condition100k = "d < 0.1 +/- 0.02 /\\ n - o > 0.02 +/- 0.02"
)

// workloads is the benchmark's contract: names, inputs and rates do not
// change once a baseline has been recorded against them. Each open-loop
// commit rate sits at a sixth to a tenth of the workload's closed-loop
// capacity on a 2-core machine: at half capacity, queueing turned the
// host's own speed drift into tail-latency swings wider than any bound.
var workloads = []workload{
	{
		name: "ci-5k-mem", why: "fixed per-request cost dominates: socket, HTTP and the JSON decode of a 10 KB body; the engine is ~6% of a commit and there is no WAL",
		projects: 4, n: 5000, condition: condition5k, reliability: 0.99, steps: 32, generations: 4,
		commitRate: 400, readRate: 50,
		openShare: 0.6,
	},
	{
		name: "ci-5k-durable", why: "same inputs as ci-5k-mem plus two serial fsyncs per commit and auto-compaction; ci-5k-mem is its no-WAL control",
		projects: 4, n: 5000, condition: condition5k, reliability: 0.99, steps: 32, generations: 4,
		durable:    true,
		commitRate: 200, readRate: 50,
		openShare: 0.6,
	},
	{
		name: "ci-100k-mem", why: "per-byte cost dominates: 200 KB decodes, packed kernels over 100k examples, ~1.9k fresh labels per commit; fixed per-request cost is negligible",
		projects: 2, n: 100000, condition: condition100k, reliability: 0.99, steps: 32, generations: 2,
		commitRate: 15, readRate: 100,
		// At 15 commits/s the open loop needs most of the run to collect a
		// few hundred latency samples; 4 s of closed loop still completes
		// about 600 commits.
		openShare: 0.8,
	},
	{
		name: "async-reads", why: "reads beside async writes: job polls, status, history and Zipf plan queries; the only workload where planner, bounds and notify work",
		projects: 4, n: 5000, condition: condition5k, reliability: 0.99, steps: 32, generations: 4,
		async:      true,
		commitRate: 200, readRate: 400, historyShare: 0.05, planShare: 0.5,
		openShare: 0.6,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one request a project's sender issues, in order: a commit of a
// candidate model, or a testset rotation.
type op struct {
	rotate bool
	gen    int     // testset generation index the op installs or runs on
	model  string  // candidate name (commits)
	preds  []uint8 // candidate predictions, or the active model's on the new testset
	want   verdict // the reference engine's answer (commits)
	body   []byte  // pre-encoded request body
}

// verdict is the part of a commit response the correctness gate checks.
type verdict struct {
	Step           int   `json:"step"`
	Signal         bool  `json:"signal"`
	Pass           *bool `json:"pass"`
	FreshLabels    int   `json:"fresh_labels"`
	NeedNewTestset bool  `json:"need_new_testset"`
	Looks          int   `json:"looks"`
	EarlyExit      bool  `json:"early_exit"`
	LabelsSaved    int   `json:"labels_saved"`
}

func (v verdict) passed() bool { return v.Pass != nil && *v.Pass }

func (v verdict) equal(o verdict) bool {
	return v.Step == o.Step && v.Signal == o.Signal && v.passed() == o.passed() && (v.Pass == nil) == (o.Pass == nil) &&
		v.FreshLabels == o.FreshLabels && v.NeedNewTestset == o.NeedNewTestset &&
		v.Looks == o.Looks && v.EarlyExit == o.EarlyExit && v.LabelsSaved == o.LabelsSaved
}

func (v verdict) String() string {
	return fmt.Sprintf("step=%d signal=%v pass=%v fresh=%d need=%v looks=%d early=%v saved=%d",
		v.Step, v.Signal, v.passed(), v.FreshLabels, v.NeedNewTestset, v.Looks, v.EarlyExit, v.LabelsSaved)
}

// projectInput is everything one project sends: its testsets, the
// baseline model on each, and one cycle of ops. The sender walks the
// cycle round and round; the cycle ends with a rotation back to
// generation 0, which restores the state the cycle started from.
type projectInput struct {
	id     string
	labels [][]int // per generation
	h0     [][]int // the baseline model's predictions per generation
	cycle  []op
	create []byte // POST /api/v1/projects body
}

// opAt returns the k-th op the project sends.
func (p *projectInput) opAt(k int) *op { return &p.cycle[k%len(p.cycle)] }

// candidate classes: accuracy change against the active model, and the
// range of the share of examples changed. With the two conditions above
// a +6 point candidate passes, +3 is undecided (fails under fp-free),
// and both regressions fail; the first three need labels to decide.
type candidateClass struct {
	delta      float64 // accuracy change, as a share of n
	fMin, fMax float64 // share of examples whose prediction changes
	weight     int
}

var candidateClasses = []candidateClass{
	{delta: +0.06, fMin: 0.065, fMax: 0.075, weight: 2},
	{delta: +0.03, fMin: 0.035, fMax: 0.050, weight: 6},
	{delta: -0.02, fMin: 0.025, fMax: 0.040, weight: 4},
	{delta: -0.10, fMin: 0.105, fMax: 0.120, weight: 4},
}

// mix folds values into one well-spread seed (splitmix64 finaliser).
func mix(vals ...int64) int64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		h ^= uint64(v)
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 31
		h *= 0x94D049BB133111EB
		h ^= h >> 29
	}
	return int64(h >> 1)
}

func (w workload) config() (*script.Config, error) {
	return script.New(w.condition, w.reliability, interval.FPFree, script.Adaptivity{Kind: script.AdaptivityFull}, w.steps)
}

// genTestset draws a seeded label vector and a baseline model about
// baseAccuracy accurate on it.
func genTestset(rng *rand.Rand, n int) (labels, h0 []int) {
	labels = make([]int, n)
	h0 = make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
		h0[i] = labels[i]
		if rng.Float64() >= baseAccuracy {
			h0[i] = (labels[i] + 1 + rng.Intn(classes-1)) % classes
		}
	}
	return labels, h0
}

// classPlan lays out the candidate classes of one testset's steps
// commits: the classes repeated in proportion to their weights (exactly,
// when steps is a multiple of the weights' sum, as H=32 is), in a seeded
// order. Drawing every class independently would let the mix of passes
// and regressions, and with it labels_per_commit, wander from seed to
// seed.
func classPlan(rng *rand.Rand, steps int) []int {
	var pattern []int
	for ci, c := range candidateClasses {
		for k := 0; k < c.weight; k++ {
			pattern = append(pattern, ci)
		}
	}
	plan := make([]int, steps)
	for i := range plan {
		plan[i] = pattern[i%len(pattern)]
	}
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}

// genCandidate changes a seeded share of the active model's predictions
// so its accuracy moves by class ci's delta. A class the active model
// cannot reach (too few wrong examples left to fix) falls through to the
// next one, so every candidate is well defined.
func genCandidate(rng *rand.Rand, active, labels []int, ci int) []int {
	n := len(active)
	var wrong, right []int
	for i := range active {
		if active[i] == labels[i] {
			right = append(right, i)
		} else {
			wrong = append(wrong, i)
		}
	}
	var fixes, breaks int
	for ; ci < len(candidateClasses); ci++ {
		c := candidateClasses[ci]
		f := c.fMin + rng.Float64()*(c.fMax-c.fMin)
		fixes = int((f + c.delta) / 2 * float64(n))
		breaks = int((f - c.delta) / 2 * float64(n))
		if fixes <= len(wrong) {
			break
		}
	}
	// Regressions are never promoted, so the active model is at least
	// baseAccuracy accurate and breaks always fit; only the last class can
	// run out of wrong examples to fix.
	fixes = min(fixes, len(wrong))
	out := append([]int(nil), active...)
	for _, i := range sample(rng, wrong, fixes) {
		out[i] = labels[i]
	}
	for _, i := range sample(rng, right, breaks) {
		out[i] = (labels[i] + 1 + rng.Intn(classes-1)) % classes
	}
	return out
}

// sample draws k distinct elements of xs (partial Fisher–Yates; xs is
// reordered).
func sample(rng *rand.Rand, xs []int, k int) []int {
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(xs)-i)
		xs[i], xs[j] = xs[j], xs[i]
	}
	return xs[:k]
}

func toBytes(xs []int) []uint8 {
	out := make([]uint8, len(xs))
	for i, x := range xs {
		out[i] = uint8(x)
	}
	return out
}

func toInts(xs []uint8) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}

// dataset builds the index-featured dataset the HTTP surface trades in.
func dataset(labels []int) *data.Dataset {
	ds := &data.Dataset{Name: "bench", Classes: classes, X: make([][]float64, len(labels)), Y: labels}
	for i := range labels {
		ds.X[i] = []float64{float64(i)}
	}
	return ds
}

// genProject generates one project's testsets and walks one cycle of
// commits through a reference engine, so each candidate is built
// against the model that is active at that point and every commit
// carries the reference verdict.
func genProject(w workload, seed int64, p int) (*projectInput, error) {
	in := &projectInput{id: fmt.Sprintf("p%d", p)}
	for g := 0; g < w.generations; g++ {
		labels, h0 := genTestset(rand.New(rand.NewSource(mix(seed, int64(w.n), int64(p), int64(g)))), w.n)
		in.labels = append(in.labels, labels)
		in.h0 = append(in.h0, h0)
	}
	cfg, err := w.config()
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(cfg, dataset(in.labels[0]), labeling.NewTruthOracle(in.labels[0]),
		engine.Options{InitialModel: model.NewFixedPredictions("deployed-h0", in.h0[0])})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(mix(seed, int64(w.n), int64(p), -1)))
	for g := 0; g < w.generations; g++ {
		if g > 0 {
			if err := rotate(eng, in.labels[g], in.h0[g]); err != nil {
				return nil, err
			}
			in.cycle = append(in.cycle, op{rotate: true, gen: g, preds: toBytes(in.h0[g])})
		}
		active := in.h0[g]
		plan := classPlan(rng, w.steps)
		for step := 1; ; step++ {
			name := fmt.Sprintf("%s-g%d-c%d", in.id, g, step)
			cand := genCandidate(rng, active, in.labels[g], plan[(step-1)%len(plan)])
			res, err := eng.Commit(model.NewFixedPredictions(name, cand), "bench", "candidate")
			if err != nil {
				return nil, fmt.Errorf("%s: reference commit %s: %w", w.name, name, err)
			}
			v := verdictOf(res)
			in.cycle = append(in.cycle, op{gen: g, model: name, preds: toBytes(cand), want: v})
			if v.passed() {
				active = cand
			}
			if v.NeedNewTestset || step >= w.steps {
				break
			}
		}
	}
	in.cycle = append(in.cycle, op{rotate: true, gen: 0, preds: toBytes(in.h0[0])})
	return in, nil
}

func rotate(eng *engine.Engine, labels, active []int) error {
	return eng.RotateTestset(dataset(labels), labeling.NewTruthOracle(labels),
		model.NewFixedPredictions(eng.ActiveModelName(), active))
}

// verdictOf shapes an engine result the way the server's wire response
// reports it under full adaptivity.
func verdictOf(res engine.Result) verdict {
	pass := res.Pass
	return verdict{
		Step: res.Step, Signal: res.Signal, Pass: &pass, FreshLabels: res.FreshLabels,
		NeedNewTestset: res.NeedNewTestset, Looks: res.Looks, EarlyExit: res.EarlyExit, LabelsSaved: res.LabelsSaved,
	}
}

// genInputs generates every project of the workload from the seed.
func genInputs(w workload, seed int64) ([]*projectInput, error) {
	out := make([]*projectInput, w.projects)
	errs := make(chan error, w.projects)
	for p := range out {
		p := p
		go func() {
			in, err := genProject(w, seed, p)
			out[p] = in
			errs <- err
		}()
	}
	var first error
	for range out {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return out, first
}

// encodeBodies pre-encodes every request body of every project. hook is
// the webhook base URL async commits name (empty for sync workloads).
func encodeBodies(w workload, in []*projectInput, hook string) error {
	for _, p := range in {
		spec := server.CreateProjectRequest{ID: p.id, ProjectSpec: server.ProjectSpec{
			Condition: w.condition, Reliability: w.reliability, Steps: w.steps,
			Labels: p.labels[0], Classes: classes, ModelPredictions: p.h0[0],
		}}
		b, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		p.create = b
		for i := range p.cycle {
			o := &p.cycle[i]
			var v any
			if o.rotate {
				v = server.RotateRequest{Labels: p.labels[o.gen], ActivePredictions: toInts(o.preds)}
			} else {
				req := server.AsyncCommitRequest{CommitRequest: server.CommitRequest{
					Model: o.model, Author: "bench", Message: "candidate", Predictions: toInts(o.preds),
				}}
				if hook != "" {
					req.Webhook = hook + "/" + p.id
				}
				v = req
			}
			if o.body, err = json.Marshal(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// schedule is the seeded timetable of one open loop: when each project's
// commits fall due and which dashboard reads fall due when. Both are
// Poisson processes, as independent users are; evenly spaced arrivals
// would fix the phase between commits and reads, and whether the two
// collide would then depend on the seed.
type schedule struct {
	commits [][]time.Duration // per project, offsets from the loop's start
	reads   []read
}

// read is one dashboard read: when it falls due and its request path.
type read struct {
	at   time.Duration
	path string
}

// planTuples is the ad-hoc plan-query universe: 5 thresholds x 5
// tolerances x 4 reliabilities x 64 step budgets = 6400 tuples, more
// than the 4096-entry plan cache holds.
const planTuples = 5 * 5 * 4 * 64

func planPath(project string, k int) string {
	thr := 0.01 * float64(1+k%5)
	tol := 0.01 * float64(1+(k/5)%5)
	rel := []float64{0.9, 0.95, 0.99, 0.999}[(k/25)%4]
	steps := 1 + k/100
	q := url.Values{}
	q.Set("condition", fmt.Sprintf("n - o > %.2f +/- %.2f", thr, tol))
	q.Set("reliability", strconv.FormatFloat(rel, 'g', -1, 64))
	q.Set("steps", strconv.Itoa(steps))
	return "/api/v1/projects/" + project + "/plan?" + q.Encode()
}

// newSchedule draws the timetable of the run's phase-th open loop, of
// length dur.
func newSchedule(w workload, seed int64, phase int, dur time.Duration) schedule {
	name := fnv.New64a()
	name.Write([]byte(w.name))
	rng := rand.New(rand.NewSource(mix(seed, int64(name.Sum64()>>1), int64(phase))))
	gap := func(rate float64) time.Duration {
		return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	}
	// Each project's commit count is fixed: the rate times the duration,
	// rounded up to whole testsets (a Poisson process conditioned on its
	// count: sorted uniform times). The warm-up is one testset too, so
	// every seed measures the same whole testsets of the commit cycle.
	s := schedule{commits: make([][]time.Duration, w.projects)}
	count := w.steps * int(math.Ceil(w.commitRate/float64(w.projects)*dur.Seconds()/float64(w.steps)))
	for p := range s.commits {
		for i := 0; i < count; i++ {
			s.commits[p] = append(s.commits[p], time.Duration(rng.Int63n(int64(dur))))
		}
		slices.Sort(s.commits[p])
	}
	if w.readRate > 0 {
		zipf := rand.NewZipf(rng, 1.1, 1, planTuples-1)
		for t := gap(w.readRate); t < dur; t += gap(w.readRate) {
			project := fmt.Sprintf("p%d", rng.Intn(w.projects))
			x := rng.Float64()
			path := "/api/v1/projects/" + project + "/status"
			switch {
			case x < w.planShare:
				path = planPath(project, int(zipf.Uint64()))
			case x < w.planShare+w.historyShare:
				path = "/api/v1/projects/" + project + "/history"
			}
			s.reads = append(s.reads, read{at: t, path: path})
		}
	}
	return s
}

// window is the part of s due in [from, from+d), its offsets made
// relative to from.
func (s schedule) window(from, d time.Duration) schedule {
	in := func(t time.Duration) bool { return t >= from && t < from+d }
	out := schedule{commits: make([][]time.Duration, len(s.commits))}
	for p, due := range s.commits {
		for _, t := range due {
			if in(t) {
				out.commits[p] = append(out.commits[p], t-from)
			}
		}
	}
	for _, rd := range s.reads {
		if in(rd.at) {
			out.reads = append(out.reads, read{at: rd.at - from, path: rd.path})
		}
	}
	return out
}

// fingerprint hashes a run's generated inputs and timetable: the seed
// determinism test compares these.
func fingerprint(in []*projectInput, s schedule) [32]byte {
	h := sha256.New()
	for _, p := range in {
		h.Write(p.create)
		for _, o := range p.cycle {
			h.Write(o.body)
		}
	}
	for _, due := range s.commits {
		binary.Write(h, binary.LittleEndian, due)
	}
	for _, r := range s.reads {
		binary.Write(h, binary.LittleEndian, r.at)
		h.Write([]byte(r.path))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
