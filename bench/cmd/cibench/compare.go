package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// record is one run as -record appends it: the result line plus what
// produced it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Result   result  `json:"result"`
	// Raw holds the end-to-end values before host-speed normalisation,
	// and Slowdown the set-up, open-loop and closed-loop factors.
	Raw      map[string]float64 `json:"raw,omitempty"`
	Slowdown []float64          `json:"slowdown,omitempty"`
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// benchmarkFile is the part of BENCHMARK.json compare and summarize use.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// values groups the untraced runs' metric values by workload and metric,
// in file order (so run i of one file pairs with run i of another).
func values(recs []record) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// worseBy is how much worse change is than parent, as a share of parent
// (negative when better).
func worseBy(parent, change float64, better string) float64 {
	d := (change - parent) / parent
	if better == "higher" {
		return -d
	}
	return d
}

// judge reads one (workload, metric) pair: regressed when the change's
// median is worse than the parent's by more than the bound, improved
// when better by more than the bound, unresolved when either side's
// quartile spread is wider than the bound (unless every change run beats
// every parent run), unchanged otherwise.
func judge(parent, change []float64, better string, bound float64) (string, float64) {
	if len(parent) < 2 || len(change) < 2 {
		return "unresolved", math.NaN()
	}
	pq1, pm, pq3 := quartiles(parent)
	cq1, cm, cq3 := quartiles(change)
	worse := worseBy(pm, cm, better)
	spread := max((pq3-pq1)/math.Abs(pm), (cq3-cq1)/math.Abs(cm))
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if worseBy(p, c, better) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spread > bound && !allBetter:
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	case worse < -bound:
		return "improved", worse
	default:
		return "unchanged", worse
	}
}

// claimHolds applies the gain rule to one (workload, metric): pairing run
// i of the parent with run i of the change, the change must win at least
// nine tenths of the pairs (ties count for neither), and the medians
// must differ, in the better direction, by more than the distance
// between the parent's quartiles.
func claimHolds(parent, change []float64, better string) (wins, pairs int, ok bool) {
	pairs = min(len(parent), len(change))
	if pairs < 2 {
		return 0, pairs, false
	}
	for i := 0; i < pairs; i++ {
		if worseBy(parent[i], change[i], better) < 0 {
			wins++
		}
	}
	pq1, pm, pq3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	gain := pm - cm
	if better == "higher" {
		gain = -gain
	}
	return wins, pairs, wins*10 >= 9*pairs && gain > pq3-pq1
}

// compareMode prints one row per workload with every end-to-end
// metric's reading, then the named claim's verdict. It exits 1 when a
// pair regressed.
func compareMode(benchPath string, files []string, claim string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: cibench -compare [-claim workload/metric] parent.jsonl change.jsonl")
		return 2
	}
	bf, err := readBenchmark(benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cibench:", err)
		return 2
	}
	var vals [2]map[string]map[string][]float64
	for i, f := range files {
		recs, err := readRecords(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cibench:", err)
			return 2
		}
		vals[i] = values(recs)
	}
	status := 0
	fmt.Println("# metric verdict (change median against parent median, + = worse)")
	for _, w := range bf.Workloads {
		var cells []string
		for _, m := range bf.EndToEnd {
			verdict, worse := judge(vals[0][w.Name][m.Name], vals[1][w.Name][m.Name], m.Better, m.Bound)
			if verdict == "regressed" {
				status = 1
			}
			cells = append(cells, fmt.Sprintf("%s %s (%+.1f%%)", m.Name, verdict, 100*worse))
		}
		fmt.Printf("%-14s %s\n", w.Name, strings.Join(cells, "; "))
	}
	if claim != "" {
		wname, mname, _ := strings.Cut(claim, "/")
		better := ""
		for _, m := range bf.EndToEnd {
			if m.Name == mname {
				better = m.Better
			}
		}
		if better == "" {
			fmt.Fprintf(os.Stderr, "cibench: claim %q names no end-to-end metric\n", claim)
			return 2
		}
		wins, pairs, ok := claimHolds(vals[0][wname][mname], vals[1][wname][mname], better)
		verdict := "not met"
		if ok {
			verdict = "met"
		}
		fmt.Printf("claim %s: change wins %d of %d pairs; %s\n", claim, wins, pairs, verdict)
	}
	return status
}

// spread is one metric's median and quartiles over a set of runs.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summary is the baseline record: each set of untraced runs summarised
// per workload and metric, how far the sets' medians lie apart, and the
// traced runs' per-layer values.
type summary struct {
	Sets   []map[string]map[string]spread `json:"sets"`
	Apart  map[string]map[string]float64  `json:"medians_apart"`
	Traced map[string]map[string]float64  `json:"traced"`
}

// summarizeMode writes the baseline record for the given run files:
// every file's untraced runs form one set, traced runs are listed as
// they are.
func summarizeMode(out string, files []string) int {
	sum := summary{Apart: map[string]map[string]float64{}, Traced: map[string]map[string]float64{}}
	for _, f := range files {
		recs, err := readRecords(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cibench:", err)
			return 2
		}
		for _, r := range recs {
			if r.Trace {
				sum.Traced[r.Workload] = map[string]float64{}
				for name, v := range r.Result.Metrics {
					sum.Traced[r.Workload][name] = v.Value
				}
			}
		}
		set := map[string]map[string]spread{}
		for w, ms := range values(recs) {
			set[w] = map[string]spread{}
			for name, xs := range ms {
				if len(xs) < 2 {
					continue
				}
				q1, med, q3 := quartiles(xs)
				set[w][name] = spread{Median: med, Q1: q1, Q3: q3, N: len(xs)}
			}
		}
		if len(set) > 0 {
			sum.Sets = append(sum.Sets, set)
		}
	}
	if len(sum.Sets) >= 2 {
		a, b := sum.Sets[0], sum.Sets[1]
		for w := range a {
			sum.Apart[w] = map[string]float64{}
			for name, s := range a[w] {
				if t, ok := b[w][name]; ok {
					sum.Apart[w][name] = (t.Median - s.Median) / s.Median
				}
			}
		}
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cibench:", err)
		return 1
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "cibench:", err)
		return 1
	}
	return 0
}
