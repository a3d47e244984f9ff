package main

import (
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/easeml/ci/internal/core"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/planner"
	"github.com/easeml/ci/internal/script"
)

// tiny shrinks a workload so a test can run it in about a second: fewer
// examples (the 100k condition's plan needs 14997 labelled ones) and
// testsets.
func tiny(w workload) workload {
	if w.n > 5000 {
		w.n = 15000
	} else {
		w.n = 1000
	}
	w.generations = 2
	return w
}

func inputsFingerprint(t *testing.T, w workload, seed int64) [32]byte {
	t.Helper()
	in, err := genInputs(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := encodeBodies(w, in, "http://127.0.0.1:1/hook"); err != nil {
		t.Fatal(err)
	}
	return fingerprint(in, newSchedule(w, seed, 0, 2*time.Second))
}

// The same seed must give the same schedule and request bodies, and a
// different seed different ones.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"ci-5k-mem", "async-reads"} {
		w, _ := workloadByName(name)
		w = tiny(w)
		a, b := inputsFingerprint(t, w, 1), inputsFingerprint(t, w, 1)
		if a != b {
			t.Errorf("%s: seed 1 gave two different input sets", name)
		}
		if c := inputsFingerprint(t, w, 2); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

// Cutting a schedule into stretches must keep every due request exactly
// once, in order, each offset relative to its stretch's start.
func TestScheduleWindows(t *testing.T) {
	w, _ := workloadByName("async-reads")
	w = tiny(w)
	const dur, parts = 3 * time.Second, 4
	s := newSchedule(w, 1, 0, dur)
	got := schedule{commits: make([][]time.Duration, len(s.commits))}
	d := dur / parts
	for k := 0; k < parts; k++ {
		from := time.Duration(k) * d
		part := s.window(from, d)
		for p, due := range part.commits {
			for _, at := range due {
				if at < 0 || at >= d {
					t.Fatalf("stretch %d: offset %v outside [0, %v)", k, at, d)
				}
				got.commits[p] = append(got.commits[p], from+at)
			}
		}
		for _, rd := range part.reads {
			got.reads = append(got.reads, read{at: from + rd.at, path: rd.path})
		}
	}
	if !reflect.DeepEqual(got, s) {
		t.Error("the stretches' requests, put back together, differ from the whole schedule")
	}
}

// The reference walk rotates after H commits and ends each cycle on a
// rotation back to the first testset.
func TestCycleShape(t *testing.T) {
	w, _ := workloadByName("ci-5k-mem")
	w = tiny(w)
	p, err := genProject(w, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := p.cycle[len(p.cycle)-1]
	if !last.rotate || last.gen != 0 {
		t.Fatalf("cycle ends with %+v, want a rotation to generation 0", last)
	}
	commits, rotations, passes := 0, 0, 0
	for _, o := range p.cycle {
		if o.rotate {
			rotations++
			continue
		}
		commits++
		if o.want.passed() {
			passes++
		}
		if o.want.Step > w.steps {
			t.Fatalf("step %d beyond H=%d", o.want.Step, w.steps)
		}
	}
	if rotations != w.generations || commits != w.generations*w.steps {
		t.Errorf("%d commits and %d rotations, want %d and %d", commits, rotations, w.generations*w.steps, w.generations)
	}
	if passes == 0 || passes == commits {
		t.Errorf("%d of %d commits pass; want a mix of verdicts", passes, commits)
	}
}

// Every ad-hoc plan query the reads draw from must plan without error,
// or the workload would count failures that are the benchmark's own.
func TestPlanUniverse(t *testing.T) {
	cache := planner.New(planTuples)
	for k := 0; k < planTuples; k++ {
		path := planPath("p0", k)
		q, err := url.ParseQuery(path[strings.IndexByte(path, '?')+1:])
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := strconv.ParseFloat(q.Get("reliability"), 64)
		steps, _ := strconv.Atoi(q.Get("steps"))
		cfg, err := script.New(q.Get("condition"), rel, interval.FPFree, script.Adaptivity{Kind: script.AdaptivityFull}, steps)
		if err == nil {
			_, err = cache.PlanForConfig(cfg, core.DefaultOptions())
		}
		if err != nil {
			t.Fatalf("tuple %d (%s): %v", k, path, err)
		}
	}
}
