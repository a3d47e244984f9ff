package server

// Hand-written JSON for the records that carry a commit's prediction
// vector: the job.submit record and the snapshot's job table. Each
// appender writes exactly the bytes json.Marshal writes for the same
// values, with the request as an AsyncCommitRequest, so logs and
// snapshots are unchanged and replay decodes them with encoding/json.
// Reflection over a 100k-element vector costs more than the commit's
// evaluation; these appenders write a byte column at one or two output
// bytes per example.

import (
	"encoding/json"
	"slices"
	"strconv"
)

// appendJSONString appends s as encoding/json quotes it. Strings that
// need no escaping under its rules (printable ASCII other than '"', '\\'
// and the HTML-escaped '<', '>', '&') are copied; any other string is
// quoted by encoding/json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSON appends the job as json.Marshal writes the
// AsyncCommitRequest it was decoded from.
func (j *commitJob) appendJSON(b []byte) []byte {
	b = append(b, `{"model":`...)
	b = appendJSONString(b, j.Model)
	b = append(b, `,"author":`...)
	b = appendJSONString(b, j.Author)
	b = append(b, `,"message":`...)
	b = appendJSONString(b, j.Message)
	b = append(b, `,"predictions":`...)
	switch {
	case j.preds != nil:
		b = append(b, '[')
		for i, y := range j.preds {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(y), 10)
		}
		b = append(b, ']')
	case j.preds8 != nil:
		// One digit and a comma per example for class ids below 10.
		b = slices.Grow(b, 2*len(j.preds8)+1)
		b = append(b, '[')
		for i, y := range j.preds8 {
			if i > 0 {
				b = append(b, ',')
			}
			if y < 10 {
				b = append(b, '0'+y)
			} else {
				b = strconv.AppendUint(b, uint64(y), 10)
			}
		}
		b = append(b, ']')
	default:
		b = append(b, "null"...)
	}
	if j.Webhook != "" {
		b = append(b, `,"webhook":`...)
		b = appendJSONString(b, j.Webhook)
	}
	return append(b, '}')
}

// AppendJSON implements wal.Encoder.
func (r recSubmit) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"job":`...)
	b = appendJSONString(b, r.Job)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, int64(r.Seq), 10)
	b = append(b, `,"req":`...)
	b = r.Req.appendJSON(b)
	return append(b, '}'), nil
}

// appendJSON appends the entry as a snapshot row. Res is appended as
// stored: it is json.Marshal output, or a logged copy of one, and so
// already in the compact form encoding/json would re-encode it to.
func (e *jobEntry) appendJSON(b []byte) []byte {
	b = append(b, `{"id":`...)
	b = appendJSONString(b, e.ID)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, int64(e.Seq), 10)
	b = append(b, `,"req":`...)
	b = e.Req.appendJSON(b)
	b = append(b, `,"state":`...)
	b = appendJSONString(b, e.State)
	if len(e.Res) > 0 {
		b = append(b, `,"res":`...)
		b = append(b, e.Res...)
	}
	if e.Err != "" {
		b = append(b, `,"err":`...)
		b = appendJSONString(b, e.Err)
	}
	if e.WebhookDone {
		b = append(b, `,"webhook_done":true`...)
	}
	return append(b, '}')
}

// AppendJSON implements wal.Encoder: the engine state goes through
// encoding/json, the job table through jobEntry.appendJSON.
func (ws walSnapshot) AppendJSON(b []byte) ([]byte, error) {
	eng, err := json.Marshal(ws.Engine)
	if err != nil {
		return nil, err
	}
	b = append(b, `{"genesis":`...)
	b = appendJSONString(b, ws.Genesis)
	b = append(b, `,"engine":`...)
	b = append(b, eng...)
	if len(ws.Jobs) > 0 {
		b = append(b, `,"jobs":[`...)
		for i, e := range ws.Jobs {
			if i > 0 {
				b = append(b, ',')
			}
			b = e.appendJSON(b)
		}
		b = append(b, ']')
	}
	b = append(b, `,"next_job_seq":`...)
	b = strconv.AppendInt(b, int64(ws.NextJobSeq), 10)
	return append(b, '}'), nil
}
