package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server stall must count against every commit that fell due during
// it: commits are timed from when they were due, not from when the
// stalled sender finally got them out.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"step":1,"signal":true,"pass":true,"fresh_labels":3}`))
	}))
	defer srv.Close()

	c := newClient(nil)
	defer c.close()
	r := &runner{
		w: workload{projects: 1},
		c: c,
		t: &target{url: srv.URL},
		ps: []*projState{{
			in:  &projectInput{id: "p0", cycle: []op{{model: "m", body: []byte(`{}`)}}},
			got: map[int]verdict{},
		}},
	}
	// Ten commits due every 10 ms: all but the first fall due while the
	// first is stalled.
	var due []time.Duration
	for i := 0; i < 10; i++ {
		due = append(due, time.Duration(i)*10*time.Millisecond)
	}
	rec := r.openLoop(150*time.Millisecond, schedule{commits: [][]time.Duration{due}}, false)
	if c.failed.Load() != 0 || len(rec.commitLat) != 10 {
		t.Fatalf("%d failed, %d samples; want 0 and 10", c.failed.Load(), len(rec.commitLat))
	}
	for i, lat := range rec.commitLat {
		// Commit i fell due at 10i ms and was answered after the stall.
		want := ms(stall) - float64(10*i)
		if lat < want-5 {
			t.Errorf("commit %d: latency %.1f ms, want >= %.1f ms (the stall from its due time)", i, lat, want)
		}
	}
	// Waiting on the project's own previous request is not generator
	// lateness.
	if late := quantile(rec.late, 0.9); late > 50 {
		t.Errorf("generator lateness p90 %.1f ms, want the stall excluded", late)
	}
	if rec.labels != 30 || rec.commits != 10 {
		t.Errorf("recorded %d commits with %d labels, want 10 and 30", rec.commits, rec.labels)
	}
}
