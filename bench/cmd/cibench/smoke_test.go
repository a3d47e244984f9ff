package main

import (
	"math"
	"testing"
)

// Every workload, shrunk, must run through the correctness gate with no
// failed request and report every end-to-end metric, none of them zero.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the control plane for several seconds")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		out, err := runWorkload(tiny(w), runConfig{seed: 3, seconds: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !out.correct || out.failed != 0 || out.attempted == 0 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", w.name, out.correct, out.attempted, out.failed, out.problems)
		}
		for _, d := range endToEnd {
			m, ok := out.metrics[d.name]
			if !ok || !(m.value > 0) || math.IsInf(m.value, 0) {
				t.Errorf("%s: %s = %v (present %v), want a positive number", w.name, d.name, m.value, ok)
			}
		}
	}
}

// A traced run reports every per-layer metric; on the durable workload
// the WAL layer must show its two fsyncs per commit.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the control plane for several seconds")
	}
	t.Setenv("TMPDIR", t.TempDir())
	w, _ := workloadByName("ci-5k-durable")
	out, err := runWorkload(tiny(w), runConfig{seed: 3, seconds: 0.8, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.correct || out.failed != 0 {
		t.Fatalf("correct=%v failed=%d: %v", out.correct, out.failed, out.problems)
	}
	for _, d := range perLayer {
		m, ok := out.metrics[d.name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s = %v (present %v), want a number", d.name, m.value, ok)
		}
	}
	if f := out.metrics["wal.fsyncs_per_commit"].value; f < 1.9 {
		t.Errorf("wal.fsyncs_per_commit = %g, want about 2 (submit and commit record)", f)
	}
	if out.ladder == nil || out.ladder.clientUs <= 0 {
		t.Errorf("no commit ladder: %+v", out.ladder)
	}
}
