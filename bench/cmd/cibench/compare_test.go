package main

import "testing"

func TestJudge(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.02, 9.98, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	for _, c := range []struct {
		name        string
		parent, chg []float64
		better      string
		bound       float64
		want        string
	}{
		{"same", parent, parent, "lower", 0.05, "unchanged"},
		{"slower", parent, scale(parent, 1.3), "lower", 0.05, "regressed"},
		{"faster", parent, scale(parent, 0.7), "lower", 0.05, "improved"},
		{"higher is better", parent, scale(parent, 0.7), "higher", 0.05, "regressed"},
		{"spread wider than bound", wide, scale(wide, 1.01), "lower", 0.05, "unresolved"},
		{"every change run better", wide, scale(wide, 0.3), "lower", 0.05, "improved"},
		{"too few runs", parent[:1], parent[:1], "lower", 0.05, "unresolved"},
	} {
		if got, _ := judge(c.parent, c.chg, c.better, c.bound); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestClaimHolds(t *testing.T) {
	parent := []float64{10, 10.4, 9.6, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10}
	better := []float64{9, 9.4, 8.6, 9.2, 8.8, 9.1, 8.9, 9.3, 8.7, 9}
	if wins, pairs, ok := claimHolds(parent, better, "lower"); !ok || wins != 10 || pairs != 10 {
		t.Errorf("a clear gain: wins %d of %d, holds %v", wins, pairs, ok)
	}
	// Two pairs lost: 8 of 10 is below nine tenths.
	mixed := append([]float64(nil), better...)
	mixed[0], mixed[1] = 11, 11
	if wins, _, ok := claimHolds(parent, mixed, "lower"); ok || wins != 8 {
		t.Errorf("8 of 10 wins: wins %d, holds %v", wins, ok)
	}
	// Every pair won, but by less than the parent's own spread.
	tiny := make([]float64, len(parent))
	for i, p := range parent {
		tiny[i] = p - 0.05
	}
	if _, _, ok := claimHolds(parent, tiny, "lower"); ok {
		t.Error("a gain inside the parent's quartile spread must not hold")
	}
}
