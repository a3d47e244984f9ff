package server

// Hand-written JSON for the records that carry a per-example vector: the
// job.submit record and the snapshot's job table, which carry a commit's
// predictions, and a registered project's stored spec, which carries its
// labels and baseline predictions. Each appender writes exactly the bytes
// json.Marshal writes for the same values, with the request as an
// AsyncCommitRequest, so logs, snapshots and the registry are unchanged
// and replay decodes them as encoding/json would. Reflection over a
// 100k-element vector costs more than the commit's evaluation; these
// appenders write a byte column at one or two output bytes per example.

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
		b = appendInts(b, j.preds)
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

// appendInts appends an int array as encoding/json writes it, nil as
// null: one digit and a comma per example for class ids below 10.
func appendInts(b []byte, v []int) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	b = slices.Grow(b, 2*len(v)+1)
	b = append(b, '[')
	for i, y := range v {
		if i > 0 {
			b = append(b, ',')
		}
		if uint(y) < 10 {
			b = append(b, '0'+byte(y))
		} else {
			b = strconv.AppendInt(b, int64(y), 10)
		}
	}
	return append(b, ']')
}

// appendJSON appends the spec as json.Marshal writes it: fields in
// declaration order, the omitempty ones only when set, and reliability
// in encoding/json's own float format. It fails only where json.Marshal
// would, on a reliability that is not finite.
func (sp *ProjectSpec) appendJSON(b []byte) ([]byte, error) {
	rel, err := json.Marshal(sp.Reliability)
	if err != nil {
		return nil, err
	}
	b = slices.Grow(b, 2*len(sp.Labels)+2*len(sp.ModelPredictions)+256)
	b = append(b, `{"condition":`...)
	b = appendJSONString(b, sp.Condition)
	b = append(b, `,"reliability":`...)
	b = append(b, rel...)
	b = append(b, `,"steps":`...)
	b = strconv.AppendInt(b, int64(sp.Steps), 10)
	b = appendOmitString(b, `,"mode":`, sp.Mode)
	b = appendOmitString(b, `,"adaptivity":`, sp.Adaptivity)
	b = appendOmitString(b, `,"email":`, sp.Email)
	b = append(b, `,"labels":`...)
	b = appendInts(b, sp.Labels)
	b = append(b, `,"classes":`...)
	b = strconv.AppendInt(b, int64(sp.Classes), 10)
	b = appendOmitString(b, `,"model":`, sp.ModelName)
	b = append(b, `,"model_predictions":`...)
	b = appendInts(b, sp.ModelPredictions)
	b = appendOmitInt(b, `,"weight":`, sp.Weight)
	b = appendOmitInt(b, `,"queue_capacity":`, sp.QueueCapacity)
	b = appendOmitInt(b, `,"label_quota":`, sp.LabelQuota)
	return append(b, '}'), nil
}

// appendOmitString appends an omitempty string field: its key and value,
// or nothing for "".
func appendOmitString(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendJSONString(append(b, key...), s)
}

// appendOmitInt appends an omitempty int field: its key and value, or
// nothing for 0.
func appendOmitInt(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(v), 10)
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
