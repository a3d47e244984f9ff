package server

// The commit, rotation and project-create bodies' wire decoder. A commit
// carries one prediction per testset example, and a rotation or a
// project create two ints per example, so at large testsets decoding a
// body costs more than acting on it. Bodies in the layout every JSON
// encoder writes are read in one pass over the bytes; everything else
// goes to encoding/json, which stays the specification of what a body
// means. A canonical commit's predictions are read into a byte column
// whenever every value fits one, so from here on such a commit costs one
// byte per example: in the queue, in the engine's fused kernel and in
// the journal.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"strconv"

	"github.com/easeml/ci/internal/model"
)

// commitJob is a commit as the queue carries, retains and journals it:
// the request's text fields and its candidate column. The column is one
// byte per example when the body was canonical and every prediction is in
// [0, 255], with max8 its largest entry, and ints otherwise. At most one
// of preds8 and preds is non-nil; both are nil for a request without
// predictions, and an empty array is an empty non-nil column, so the
// journal keeps encoding/json's distinction between null and [].
type commitJob struct {
	Model, Author, Message, Webhook string

	preds8 []uint8
	max8   uint8
	preds  []int
}

// predictionCount is the length of the candidate column.
func (j *commitJob) predictionCount() int {
	if j.preds != nil {
		return len(j.preds)
	}
	return len(j.preds8)
}

// predictor wraps the candidate column for the engine without copying it.
func (j *commitJob) predictor() *model.FixedPredictions {
	if j.preds != nil {
		return model.NewFixedPredictions(j.Model, j.preds)
	}
	return model.NewFixedBytes(j.Model, j.preds8, j.max8)
}

// UnmarshalJSON decodes a journaled request (a submit record's or a
// snapshot job's "req") exactly as encoding/json decodes an
// AsyncCommitRequest, through the commit body decoder.
func (j *commitJob) UnmarshalJSON(b []byte) error {
	return decodeCommitRequest(b, len(b), j, true)
}

// commitBodyLimit is the largest commit body accepted for a testset of n
// examples: 1 MiB for the text fields, plus 32 bytes a prediction — room
// for any int64 pretty-printed with indentation.
func commitBodyLimit(n int) int64 { return 1<<20 + 32*int64(n) }

// rotateBodyLimit is the largest rotation body accepted while the current
// testset has n examples: room for two commit-sized arrays.
func rotateBodyLimit(n int) int64 { return 2 * commitBodyLimit(n) }

// readBody reads a request body of at most limit bytes, refusing a longer
// one with *http.MaxBytesError.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if r.ContentLength > 0 && r.ContentLength <= limit {
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// readCommitRequest reads a commit body, refusing one over
// commitBodyLimit with *http.MaxBytesError, and decodes it into job.
// withWebhook is true on the async endpoint only; the sync endpoint
// ignores "webhook".
func (s *Server) readCommitRequest(w http.ResponseWriter, r *http.Request, job *commitJob, withWebhook bool) error {
	n := int(s.testsetLen.Load())
	body, err := readBody(w, r, commitBodyLimit(n))
	if err != nil {
		return err
	}
	return decodeCommitRequest(body, n, job, withWebhook)
}

// readRotateRequest reads a rotation body, refusing one over
// rotateBodyLimit with *http.MaxBytesError, and decodes it into req.
func (s *Server) readRotateRequest(w http.ResponseWriter, r *http.Request, req *RotateRequest) error {
	n := int(s.testsetLen.Load())
	body, err := readBody(w, r, rotateBodyLimit(n))
	if err != nil {
		return err
	}
	return decodeRotateRequest(body, n, req)
}

// decodeCommitRequest decodes a commit body into job exactly as
// encoding/json decodes it into an AsyncCommitRequest: same values, same
// error text. n, the testset size, sizes the predictions column.
//
// A canonical body is read in one pass (see decodeCanonicalCommit). On any
// other body encoding/json decodes the same bytes, so a non-canonical body
// keeps its result, its tolerance of trailing data and its error, and its
// predictions stay ints (the engine narrows them to measure them). Without
// withWebhook the fallback decodes into the embedded CommitRequest, which
// ignores "webhook" whatever its value, and the fast path drops the field
// to match.
func decodeCommitRequest(body []byte, n int, job *commitJob, withWebhook bool) error {
	if decodeCanonicalCommit(body, n, job) {
		if !withWebhook {
			job.Webhook = ""
		}
		return nil
	}
	var req AsyncCommitRequest
	var dst any = &req
	if !withWebhook {
		dst = &req.CommitRequest
	}
	err := json.NewDecoder(bytes.NewReader(body)).Decode(dst)
	*job = commitJob{Model: req.Model, Author: req.Author, Message: req.Message, Webhook: req.Webhook, preds: req.Predictions}
	return err
}

// decodeRotateRequest decodes a rotation body into req exactly as
// encoding/json would, reading a canonical body in one pass. n, the
// current testset size, sizes both arrays.
func decodeRotateRequest(body []byte, n int, req *RotateRequest) error {
	if decodeCanonicalRotate(body, n, req) {
		return nil
	}
	*req = RotateRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// createBodyLimit is the largest project-create body accepted.
const createBodyLimit = 8 << 20

// decodeCreateRequest decodes a project-create body into req exactly as
// encoding/json decodes it: same values, same error text. A canonical
// body is read in one pass (see decodeCanonicalSpec); any other goes to
// encoding/json, which keeps its result, its tolerance of trailing data
// and its error.
func decodeCreateRequest(body []byte, req *CreateProjectRequest) error {
	if decodeCanonicalSpec(body, req, true) {
		return nil
	}
	*req = CreateProjectRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// decodeProjectSpec decodes a registered project's stored spec exactly as
// json.Unmarshal decodes it, reading a canonical spec in one pass.
func decodeProjectSpec(b []byte, sp *ProjectSpec) error {
	var req CreateProjectRequest
	if decodeCanonicalSpec(b, &req, false) {
		*sp = req.ProjectSpec
		return nil
	}
	*sp = ProjectSpec{}
	return json.Unmarshal(b, sp)
}

// maxIntDigits keeps every canonical prediction inside int's range: 18
// digits where int has 64 bits, 9 where it has 32.
const maxIntDigits = 9 * (strconv.IntSize / 32)

// Field bits for duplicate-key detection in the canonical decoders.
const (
	fieldModel = 1 << iota
	fieldAuthor
	fieldMessage
	fieldPredictions
	fieldWebhook
)

const (
	fieldLabels = 1 << iota
	fieldActivePredictions
)

const (
	fieldID = 1 << iota
	fieldCondition
	fieldReliability
	fieldSteps
	fieldMode
	fieldAdaptivity
	fieldEmail
	fieldSpecLabels
	fieldClasses
	fieldModelName
	fieldModelPredictions
	fieldWeight
	fieldQueueCapacity
	fieldLabelQuota
)

// decodeCanonicalCommit decodes body into req if it is canonical, and
// reports whether it was. Canonical is a strict subset of JSON that
// encoding/json decodes into exactly the values set here:
//
//   - one object whose keys are the five wire names, each at most once,
//     spelled exactly and with no escapes;
//   - string values of printable ASCII with no backslash;
//   - predictions as an array of plain decimal ints of at most
//     maxIntDigits digits, with no leading zeros, fraction or exponent;
//   - only JSON's four whitespace bytes, and nothing after the object but
//     whitespace.
//
// On false job holds partial values and the caller must not use it.
func decodeCanonicalCommit(b []byte, n int, job *commitJob) bool {
	*job = commitJob{}
	return scanObject(b, func(key []byte, i int) (field uint16, j int, ok bool) {
		switch string(key) {
		case "model":
			job.Model, j, ok = scanStringValue(b, i)
			return fieldModel, j, ok
		case "author":
			job.Author, j, ok = scanStringValue(b, i)
			return fieldAuthor, j, ok
		case "message":
			job.Message, j, ok = scanStringValue(b, i)
			return fieldMessage, j, ok
		case "predictions":
			job.preds8, job.max8, job.preds, j, ok = scanPredictions(b, i, n)
			return fieldPredictions, j, ok
		case "webhook":
			job.Webhook, j, ok = scanStringValue(b, i)
			return fieldWebhook, j, ok
		}
		return 0, i, false
	})
}

// decodeCanonicalRotate is decodeCanonicalCommit for a rotation body: the
// keys are "labels" and "active_predictions", each an int array in the
// canonical form.
func decodeCanonicalRotate(b []byte, n int, req *RotateRequest) bool {
	*req = RotateRequest{}
	return scanObject(b, func(key []byte, i int) (field uint16, j int, ok bool) {
		switch string(key) {
		case "labels":
			req.Labels, j, ok = scanInts(b, i, n)
			return fieldLabels, j, ok
		case "active_predictions":
			req.ActivePredictions, j, ok = scanInts(b, i, n)
			return fieldActivePredictions, j, ok
		}
		return 0, i, false
	})
}

// decodeCanonicalSpec is decodeCanonicalCommit for a project-create body,
// or with withID false for a stored spec, which has no "id". The keys are
// the wire names of CreateProjectRequest; strings are any JSON string
// (see scanJSONString), "reliability" any JSON number, the other numbers
// canonical ints and the two arrays canonical int arrays. The first array
// is sized by counting its commas, the second from the first's length.
func decodeCanonicalSpec(b []byte, req *CreateProjectRequest, withID bool) bool {
	*req = CreateProjectRequest{}
	sp := &req.ProjectSpec
	ints := func(i int) ([]int, int, bool) {
		n := max(len(sp.Labels), len(sp.ModelPredictions))
		if n == 0 {
			// An int array holds no ']', so this is its extent if it is one.
			end := max(bytes.IndexByte(b[i:], ']'), 0)
			n = bytes.Count(b[i:i+end], []byte{','}) + 1
		}
		return scanInts(b, i, n)
	}
	return scanObject(b, func(key []byte, i int) (field uint16, j int, ok bool) {
		switch string(key) {
		case "id":
			if !withID {
				return 0, i, false
			}
			req.ID, j, ok = scanJSONString(b, i)
			return fieldID, j, ok
		case "condition":
			sp.Condition, j, ok = scanJSONString(b, i)
			return fieldCondition, j, ok
		case "reliability":
			sp.Reliability, j, ok = scanFloat(b, i)
			return fieldReliability, j, ok
		case "steps":
			sp.Steps, j, ok = scanInt(b, i)
			return fieldSteps, j, ok
		case "mode":
			sp.Mode, j, ok = scanJSONString(b, i)
			return fieldMode, j, ok
		case "adaptivity":
			sp.Adaptivity, j, ok = scanJSONString(b, i)
			return fieldAdaptivity, j, ok
		case "email":
			sp.Email, j, ok = scanJSONString(b, i)
			return fieldEmail, j, ok
		case "labels":
			sp.Labels, j, ok = ints(i)
			return fieldSpecLabels, j, ok
		case "classes":
			sp.Classes, j, ok = scanInt(b, i)
			return fieldClasses, j, ok
		case "model":
			sp.ModelName, j, ok = scanJSONString(b, i)
			return fieldModelName, j, ok
		case "model_predictions":
			sp.ModelPredictions, j, ok = ints(i)
			return fieldModelPredictions, j, ok
		case "weight":
			sp.Weight, j, ok = scanInt(b, i)
			return fieldWeight, j, ok
		case "queue_capacity":
			sp.QueueCapacity, j, ok = scanInt(b, i)
			return fieldQueueCapacity, j, ok
		case "label_quota":
			sp.LabelQuota, j, ok = scanInt(b, i)
			return fieldLabelQuota, j, ok
		}
		return 0, i, false
	})
}

// scanObject walks a canonical object that is all of b but whitespace.
// For each key it calls value with the key and the index of its value;
// value reads the value and returns the key's field bit and the index
// after the value, or false for an unknown key or a non-canonical value.
// scanObject reports whether the object was canonical with no key twice.
func scanObject(b []byte, value func(key []byte, i int) (field uint16, j int, ok bool)) bool {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1) == len(b)
	}
	var seen uint16
	for {
		key, j, ok := scanString(b, i)
		if !ok {
			return false
		}
		i = skipSpace(b, j)
		if i >= len(b) || b[i] != ':' {
			return false
		}
		field, j, ok := value(key, skipSpace(b, i+1))
		if !ok || seen&field != 0 {
			return false
		}
		seen |= field
		i = skipSpace(b, j)
		if i >= len(b) {
			return false
		}
		if b[i] == '}' {
			return skipSpace(b, i+1) == len(b)
		}
		if b[i] != ',' {
			return false
		}
		i = skipSpace(b, i+1)
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// scanString reads a canonical string starting at b[i] and returns its
// contents and the index after the closing quote.
func scanString(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, j, false
		}
	}
	return nil, len(b), false
}

func scanStringValue(b []byte, i int) (string, int, bool) {
	s, j, ok := scanString(b, i)
	return string(s), j, ok
}

// scanJSONString reads any JSON string starting at b[i] and returns its
// value and the index after the closing quote. A string of printable
// ASCII with no backslash is copied; any other is handed, as one quoted
// token, to encoding/json, so escapes, non-ASCII text and invalid UTF-8
// keep its meaning. A token it refuses, such as one holding a control
// byte, is not canonical.
func scanJSONString(b []byte, i int) (string, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return "", i, false
	}
	plain := true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			if plain {
				return string(b[i+1 : j]), j + 1, true
			}
			var s string
			if json.Unmarshal(b[i:j+1], &s) != nil {
				return "", j, false
			}
			return s, j + 1, true
		case c == '\\':
			plain = false
			j++ // the escaped byte cannot end the string
		case c < 0x20 || c > 0x7e:
			plain = false
		}
	}
	return "", len(b), false
}

// scanInt reads a canonical int starting at b[i]: an optional minus and
// at most maxIntDigits digits with no leading zero. It returns the value
// and the index after it; a fraction or exponent is left for the caller,
// which finds no separator there.
func scanInt(b []byte, i int) (int, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start, v := i, 0
	for i < len(b) && b[i]-'0' <= 9 {
		v = v*10 + int(b[i]-'0')
		i++
	}
	if d := i - start; d == 0 || d > maxIntDigits || (d > 1 && b[start] == '0') {
		return 0, i, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// scanFloat reads a JSON number starting at b[i] as encoding/json reads
// one into a float64: the token's grammar is JSON's, and its value is
// strconv.ParseFloat's. A number ParseFloat refuses, one out of
// float64's range, is not canonical.
func scanFloat(b []byte, i int) (float64, int, bool) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' <= 8:
		i = skipDigits(b, i)
	default:
		return 0, i, false
	}
	if i < len(b) && b[i] == '.' {
		digits := i + 1
		if i = skipDigits(b, digits); i == digits {
			return 0, i, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		digits := i
		if i = skipDigits(b, i); i == digits {
			return 0, i, false
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, i, err == nil
}

// skipDigits returns the index of the first byte at or after i that is
// not an ASCII digit.
func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i
}

// scanInts reads a canonical int array starting at b[i] and returns it and
// the index after the closing bracket.
func scanInts(b []byte, i, n int) ([]int, int, bool) {
	if i >= len(b) || b[i] != '[' {
		return nil, i, false
	}
	// Each element but the last takes at least two bytes, so the body
	// bounds the count too: a short body never allocates a full testset.
	out := make([]int, 0, min(n, (len(b)-i)/2+1))
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return out, i + 1, true
	}
	return scanIntElems(b, i, out)
}

// scanIntElems reads the rest of a canonical int array, from the element
// starting at b[i] to the closing bracket, appending to out. It returns
// out and the index after the bracket.
func scanIntElems(b []byte, i int, out []int) ([]int, int, bool) {
	for {
		// Class labels are mostly one digit: take "d," pairs without the
		// general element scan below.
		for i+1 < len(b) && b[i]-'0' <= 9 && b[i+1] == ',' {
			out = append(out, int(b[i]-'0'))
			i = skipSpace(b, i+2)
		}
		// scanInt's scan, kept inline: a call per element costs a wide
		// array about a tenth more.
		neg := i < len(b) && b[i] == '-'
		if neg {
			i++
		}
		start, v := i, 0
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			v = v*10 + int(b[i]-'0')
			i++
		}
		if d := i - start; d == 0 || d > maxIntDigits || (d > 1 && b[start] == '0') {
			return nil, i, false
		}
		if neg {
			v = -v
		}
		out = append(out, v)
		// A fraction or exponent stops here: '.', 'e' and 'E' are
		// neither a separator nor the closing bracket.
		i = skipSpace(b, i)
		if i >= len(b) {
			return nil, i, false
		}
		if b[i] == ']' {
			return out, i + 1, true
		}
		if b[i] != ',' {
			return nil, i, false
		}
		i = skipSpace(b, i+1)
	}
}

// SWAR constants for scanPredictions's word lane, which reads four "d,"
// pairs (a one-digit value and its comma) per little-endian 8-byte load.
const (
	laneOdd    = 0xff00ff00ff00ff00 // the comma bytes
	laneCommas = 0x2c002c002c002c00 // ',' in every odd byte
	laneZeros  = 0x3000300030003000 // '0' in every odd byte
	laneDigits = 0x000f000f000f000f // the digit values of the even bytes
	nibbleHi   = 0xf0f0f0f0f0f0f0f0
	digitBias  = 0x0606060606060606
	allThrees  = 0x3333333333333333
)

// digitCommaWord reports whether the 8 bytes of w are four "d," pairs.
// With '0' put in the comma bytes, every byte is an ASCII digit exactly
// when its high nibble is 3 and it stays below 0x40 after adding 6. A
// byte whose addition carries into its neighbour has high nibble F and
// fails on its own, so the carry cannot change the answer.
func digitCommaWord(w uint64) bool {
	if w&laneOdd != laneCommas {
		return false
	}
	x := w&^laneOdd | laneZeros
	return x&nibbleHi|((x+digitBias)&nibbleHi)>>4 == allThrees
}

// scanPredictions reads a canonical int array starting at b[i], with the
// values scanInts reads, and returns the index after the closing bracket.
// While every value is in [0, 255] it fills a byte column and tracks the
// column's largest value; at the first value that is not, it widens what
// it has read to ints and finishes the array as scanInts would, returning
// the int column instead. At most one of col and wide is non-nil.
func scanPredictions(b []byte, i, n int) (col []uint8, mx uint8, wide []int, j int, ok bool) {
	if i >= len(b) || b[i] != '[' {
		return nil, 0, nil, i, false
	}
	// As in scanInts, the body bounds the count too.
	out := make([]uint8, 0, min(n, (len(b)-i)/2+1))
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return out, 0, nil, i + 1, true
	}
	for {
		// Class labels are mostly one digit: after a "d," pair, take four
		// more per word while they last. Wider values skip the word load.
		if i+1 < len(b) && b[i]-'0' <= 9 && b[i+1] == ',' {
			d := b[i] - '0'
			out = append(out, d)
			mx = max(mx, d)
			i = skipSpace(b, i+2)
			for i+8 <= len(b) {
				w := binary.LittleEndian.Uint64(b[i:])
				if !digitCommaWord(w) {
					break
				}
				d := w & laneDigits
				d0, d1, d2, d3 := uint8(d), uint8(d>>16), uint8(d>>32), uint8(d>>48)
				out = append(out, d0, d1, d2, d3)
				mx = max(mx, d0, d1, d2, d3)
				i += 8
			}
			i = skipSpace(b, i)
			continue
		}
		start, v := i, 0
		for i < len(b) && b[i]-'0' <= 9 && i-start < 4 {
			v = v*10 + int(b[i]-'0')
			i++
		}
		if d := i - start; d == 0 || d > 3 || v > 255 || (d > 1 && b[start] == '0') {
			// Not a byte value: a sign, a fourth digit, a value over 255,
			// or no canonical value at all, which scanIntElems rejects.
			wide := make([]int, len(out), cap(out))
			for k, c := range out {
				wide[k] = int(c)
			}
			wide, j, ok = scanIntElems(b, start, wide)
			return nil, 0, wide, j, ok
		}
		out = append(out, uint8(v))
		mx = max(mx, uint8(v))
		i = skipSpace(b, i)
		if i >= len(b) {
			return nil, 0, nil, i, false
		}
		if b[i] == ']' {
			return out, mx, nil, i + 1, true
		}
		if b[i] != ',' {
			return nil, 0, nil, i, false
		}
		i = skipSpace(b, i+1)
	}
}
