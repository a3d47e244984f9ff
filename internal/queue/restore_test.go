package queue

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestRestoreMixedStates seeds a queue with terminal and pending jobs and
// checks lookups, re-execution, and sequence continuation.
func TestRestoreMixedStates(t *testing.T) {
	var mu sync.Mutex
	var ran []string
	exec := func(req string) (string, error) {
		mu.Lock()
		defer mu.Unlock()
		ran = append(ran, req)
		return "res:" + req, nil
	}
	q, err := New(Options[string, string]{
		Exec: byReq(exec),
		Restore: []Restored[string, string]{
			{ID: "job-3", Seq: 3, State: Queued, Req: "c"},
			{ID: "job-1", Seq: 1, State: Done, Req: "a", Res: "res:a"},
			{ID: "job-2", Seq: 2, State: Failed, Req: "b", Err: ErrCanceled.Error()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	j1, ok := q.Job("job-1")
	if !ok {
		t.Fatal("job-1 not restored")
	}
	st, res, jerr := j1.Peek()
	if st != Done || res != "res:a" || jerr != nil {
		t.Fatalf("job-1 = %v %q %v", st, res, jerr)
	}
	select {
	case <-j1.Done():
	default:
		t.Fatal("restored terminal job's Done channel not closed")
	}

	j2, _ := q.Job("job-2")
	if _, _, jerr := j2.Peek(); !errors.Is(jerr, ErrCanceled) {
		t.Fatalf("job-2 err = %v, want ErrCanceled mapped back", jerr)
	}

	// The pending restored job re-executes.
	if !q.RunNext() {
		t.Fatal("restored pending job not runnable")
	}
	j3, _ := q.Job("job-3")
	if st, res, _ := j3.Peek(); st != Done || res != "res:c" {
		t.Fatalf("job-3 = %v %q", st, res)
	}
	mu.Lock()
	if len(ran) != 1 || ran[0] != "c" {
		t.Fatalf("ran = %v (terminal jobs must not re-execute)", ran)
	}
	mu.Unlock()

	// New submissions continue past the restored sequence numbers.
	j4, err := q.Submit("d")
	if err != nil || j4.Seq != 4 || j4.ID != "job-4" {
		t.Fatalf("post-restore submit: %+v err=%v", j4, err)
	}
}

func TestRestorePendingRunInSeqOrder(t *testing.T) {
	var order []string
	exec := func(req string) (string, error) {
		order = append(order, req)
		return req, nil
	}
	q, err := New(Options[string, string]{
		Exec: byReq(exec),
		Restore: []Restored[string, string]{
			{ID: "job-9", Seq: 9, State: Queued, Req: "ninth"},
			{ID: "job-2", Seq: 2, State: Running, Req: "second"}, // Running at crash: re-enqueued
			{ID: "job-5", Seq: 5, State: Queued, Req: "fifth"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for q.RunNext() {
	}
	want := []string{"second", "fifth", "ninth"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order = %v, want %v", order, want)
	}
}

func TestStartSeqFloorsIDs(t *testing.T) {
	echo := byReq(func(s string) (string, error) { return s, nil })
	q, err := New(Options[string, string]{Exec: echo, StartSeq: 41})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	j, err := q.Submit("x")
	if err != nil || j.ID != "job-42" {
		t.Fatalf("submit with StartSeq: %+v err=%v", j, err)
	}
}

func TestOnSubmitHookAbortsAndRollsBackSeq(t *testing.T) {
	boom := errors.New("log unwritable")
	fail := false
	var hooked []string
	q, err := New(Options[string, string]{
		Exec: byReq(func(s string) (string, error) { return s, nil }),
		OnSubmit: func(j *Job[string, string]) error {
			if fail {
				return boom
			}
			hooked = append(hooked, j.ID)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.Submit("a"); err != nil {
		t.Fatal(err)
	}
	fail = true
	if _, err := q.Submit("b"); !errors.Is(err, boom) {
		t.Fatalf("submit with failing hook: %v", err)
	}
	fail = false
	j, err := q.Submit("c")
	if err != nil || j.Seq != 2 {
		t.Fatalf("aborted submit leaked a seq: %+v err=%v", j, err)
	}
	if len(hooked) != 2 || hooked[0] != "job-1" || hooked[1] != "job-2" {
		t.Fatalf("hooked = %v", hooked)
	}
	if st := q.Stats(); st.Submitted != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOnCancelHookAbortKeepsJobQueued(t *testing.T) {
	boom := errors.New("log unwritable")
	fail := true
	q, err := New(Options[string, string]{
		Exec: byReq(func(s string) (string, error) { return s, nil }),
		OnCancel: func(j *Job[string, string]) error {
			if fail {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	j, _ := q.Submit("a")
	if _, err := q.Cancel(j.ID); !errors.Is(err, boom) {
		t.Fatalf("cancel with failing hook: %v", err)
	}
	if st := j.State(); st != Queued {
		t.Fatalf("job state after aborted cancel = %v, want Queued", st)
	}
	fail = false
	if _, err := q.Cancel(j.ID); err != nil {
		t.Fatalf("cancel after hook recovers: %v", err)
	}
	if _, _, jerr := j.Peek(); !errors.Is(jerr, ErrCanceled) {
		t.Fatalf("err = %v", jerr)
	}
}

func TestExecJobSeesJobIdentity(t *testing.T) {
	var got []string
	q, err := New(Options[string, string]{
		Exec: func(j *Job[string, string]) (string, error) {
			got = append(got, j.ID+"/"+j.Req)
			return j.Req, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	q.Submit("a")
	q.Submit("b")
	for q.RunNext() {
	}
	if fmt.Sprint(got) != "[job-1/a job-2/b]" {
		t.Fatalf("got = %v", got)
	}
}

func TestRestoreRejectsDuplicates(t *testing.T) {
	_, err := New(Options[string, string]{
		Exec: byReq(func(s string) (string, error) { return s, nil }),
		Restore: []Restored[string, string]{
			{ID: "job-1", Seq: 1, State: Done},
			{ID: "job-1", Seq: 2, State: Done},
		},
	})
	if err == nil {
		t.Fatal("duplicate restored IDs accepted")
	}
}
