package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/easeml/ci/internal/engine"
)

// The record shapes as encoding/json wrote them before the hand-written
// appenders: the request as an AsyncCommitRequest. The appenders must
// write the same bytes.
type (
	reflectSubmit struct {
		Job string             `json:"job"`
		Seq int                `json:"seq"`
		Req AsyncCommitRequest `json:"req"`
	}
	reflectJobEntry struct {
		ID          string             `json:"id"`
		Seq         int                `json:"seq"`
		Req         AsyncCommitRequest `json:"req"`
		State       string             `json:"state"`
		Res         json.RawMessage    `json:"res,omitempty"`
		Err         string             `json:"err,omitempty"`
		WebhookDone bool               `json:"webhook_done,omitempty"`
	}
	reflectSnapshot struct {
		Genesis    string             `json:"genesis"`
		Engine     engine.State       `json:"engine"`
		Jobs       []*reflectJobEntry `json:"jobs,omitempty"`
		NextJobSeq int                `json:"next_job_seq"`
	}
)

// TestRecordShapesMatchTypes: the reference shapes above have the fields
// of recSubmit, jobEntry and walSnapshot, in order, with the same names,
// json tags and types, except for the request (a commitJob, journaled as
// the AsyncCommitRequest it was decoded from) and the job table that
// holds it. The request's wire fields are pinned to the ones
// commitJob.appendJSON writes. A field added to any of these types fails
// here until the appender and the reference shape write it.
func TestRecordShapesMatchTypes(t *testing.T) {
	for _, pair := range []struct {
		real, ref any
		retyped   string
	}{
		{recSubmit{}, reflectSubmit{}, "Req"},
		{jobEntry{}, reflectJobEntry{}, "Req"},
		{walSnapshot{}, reflectSnapshot{}, "Jobs"},
	} {
		rt, ft := reflect.TypeOf(pair.real), reflect.TypeOf(pair.ref)
		if rt.NumField() != ft.NumField() {
			t.Errorf("%v has %d fields, its reference shape %d", rt, rt.NumField(), ft.NumField())
			continue
		}
		for i := 0; i < rt.NumField(); i++ {
			a, b := rt.Field(i), ft.Field(i)
			if a.Name != b.Name || a.Tag != b.Tag || (a.Name != pair.retyped && a.Type != b.Type) {
				t.Errorf("%v field %d is %s %v `%s`, reference %s %v `%s`", rt, i, a.Name, a.Type, a.Tag, b.Name, b.Type, b.Tag)
			}
		}
	}
	var tags []string
	var walk func(reflect.Type)
	walk = func(rt reflect.Type) {
		for i := 0; i < rt.NumField(); i++ {
			if f := rt.Field(i); f.Anonymous {
				walk(f.Type)
			} else {
				tags = append(tags, f.Tag.Get("json"))
			}
		}
	}
	walk(reflect.TypeOf(AsyncCommitRequest{}))
	if want := []string{"model", "author", "message", "predictions", "webhook,omitempty"}; !reflect.DeepEqual(tags, want) {
		t.Errorf("AsyncCommitRequest json fields %q, commitJob.appendJSON writes %q", tags, want)
	}
}

// Column kinds the fuzzer picks between.
const (
	colNil = iota
	colEmptyBytes
	colBytes
	colWide
	colEmptyWide
	colKinds
)

// fuzzJob builds a job whose column is of the given kind, from raw.
func fuzzJob(model, author, message, webhook string, kind uint8, raw []byte) commitJob {
	j := commitJob{Model: model, Author: author, Message: message, Webhook: webhook}
	switch kind % colKinds {
	case colEmptyBytes:
		j.preds8 = []uint8{}
	case colBytes:
		j.preds8 = append([]uint8{}, raw...)
		for _, y := range raw {
			j.max8 = max(j.max8, y)
		}
	case colWide:
		j.preds = make([]int, len(raw)+1)
		j.preds[0] = -1 << 40
		for i, y := range raw {
			j.preds[i+1] = (int(y) - 128) * 1009
		}
	case colEmptyWide:
		j.preds = []int{}
	}
	return j
}

func FuzzSubmitRecord(f *testing.F) {
	f.Add("job-1", 1, "m", "dev", "msg", "", uint8(colBytes), []byte{0, 1, 2, 3, 9, 10, 255}, "done", "", true, false)
	f.Add("job-2", 2, `a"b\c`, "<>&", "tab\there\nnl", "http://h/x?a=1&b=<2>", uint8(colWide), []byte{1, 200}, "failed", "model: m predicted 7 for example 3, outside [0,4)", false, true)
	f.Add("job-3", 0, "\xff\xfe", "  ", "\x00\x1f\x7f", "é€😀", uint8(colNil), []byte(nil), "queued", "", false, false)
	f.Add("", -7, "", "", "", "", uint8(colEmptyBytes), []byte{}, "", "�", true, true)
	f.Add("j", 1<<40, "m", "a", "line\u2028sep\u2029", "w", uint8(colEmptyWide), []byte{5}, "done", "e", true, false)
	f.Fuzz(func(t *testing.T, id string, seq int, model, author, message, webhook string, kind uint8, raw []byte, state, errText string, withRes, hookDone bool) {
		job := fuzzJob(model, author, message, webhook, kind, raw)
		req := job.request()

		got, err := recSubmit{Job: id, Seq: seq, Req: job}.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(reflectSubmit{Job: id, Seq: seq, Req: req})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("submit record:\n got  %s\n want %s", got, want)
		}
		// Replay reads the record back as encoding/json reads the old one.
		var back recSubmit
		var ref reflectSubmit
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("decoding %s: %v", got, err)
		}
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if r := back.Req.request(); back.Job != ref.Job || back.Seq != ref.Seq || !reflect.DeepEqual(r, ref.Req) {
			t.Fatalf("replayed %s %d %#v, encoding/json reads %s %d %#v", back.Job, back.Seq, r, ref.Job, ref.Seq, ref.Req)
		}

		e := &jobEntry{ID: id, Seq: seq, Req: job, State: state, Err: errText, WebhookDone: hookDone}
		if withRes {
			pass := seq%2 == 0
			e.Res, err = json.Marshal(CommitResponse{CommitID: model, Step: seq, Truth: author, Pass: &pass, Estimates: map[string]float64{message: float64(seq) / 3}})
			if err != nil {
				t.Fatal(err)
			}
		}
		refEntry := &reflectJobEntry{ID: id, Seq: seq, Req: req, State: state, Res: e.Res, Err: errText, WebhookDone: hookDone}
		for _, jobs := range [][]*jobEntry{nil, {e}, {e, e}} {
			refJobs := make([]*reflectJobEntry, len(jobs))
			for i := range refJobs {
				refJobs[i] = refEntry
			}
			got, err := walSnapshot{Genesis: webhook, Jobs: jobs, NextJobSeq: seq}.AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(reflectSnapshot{Genesis: webhook, Jobs: refJobs, NextJobSeq: seq})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("snapshot with %d jobs:\n got  %s\n want %s", len(jobs), got, want)
			}
		}
	})
}
