package server

// The commit and rotation bodies' wire decoder. A commit carries one
// prediction per testset example and a rotation two ints per example, so
// at large testsets decoding a body costs more than acting on it. Bodies
// in the layout every JSON encoder writes are read in one pass over the
// bytes; everything else goes to encoding/json, which stays the
// specification of what a body means.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
)

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
// commitBodyLimit with *http.MaxBytesError, and decodes it into req.
// withWebhook is true on the async endpoint only; the sync endpoint
// ignores "webhook".
func (s *Server) readCommitRequest(w http.ResponseWriter, r *http.Request, req *AsyncCommitRequest, withWebhook bool) error {
	n := int(s.testsetLen.Load())
	body, err := readBody(w, r, commitBodyLimit(n))
	if err != nil {
		return err
	}
	return decodeCommitRequest(body, n, req, withWebhook)
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

// decodeCommitRequest decodes a commit body into req exactly as
// encoding/json would: same struct, same error text. n, the testset size,
// sizes the predictions slice.
//
// A canonical body is read in one pass (see decodeCanonicalCommit). On any
// other body req is reset and encoding/json decodes the same bytes, so a
// non-canonical body keeps its result, its tolerance of trailing data and
// its error. Without withWebhook the fallback decodes into the embedded
// CommitRequest, which ignores "webhook" whatever its value, and the fast
// path drops the field to match.
func decodeCommitRequest(body []byte, n int, req *AsyncCommitRequest, withWebhook bool) error {
	if decodeCanonicalCommit(body, n, req) {
		if !withWebhook {
			req.Webhook = ""
		}
		return nil
	}
	*req = AsyncCommitRequest{}
	var dst any = req
	if !withWebhook {
		dst = &req.CommitRequest
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(dst)
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
// On false req holds partial values and the caller must reset it.
func decodeCanonicalCommit(b []byte, n int, req *AsyncCommitRequest) bool {
	*req = AsyncCommitRequest{}
	return scanObject(b, func(key []byte, i int) (field uint8, j int, ok bool) {
		switch string(key) {
		case "model":
			req.Model, j, ok = scanStringValue(b, i)
			return fieldModel, j, ok
		case "author":
			req.Author, j, ok = scanStringValue(b, i)
			return fieldAuthor, j, ok
		case "message":
			req.Message, j, ok = scanStringValue(b, i)
			return fieldMessage, j, ok
		case "predictions":
			req.Predictions, j, ok = scanInts(b, i, n)
			return fieldPredictions, j, ok
		case "webhook":
			req.Webhook, j, ok = scanStringValue(b, i)
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
	return scanObject(b, func(key []byte, i int) (field uint8, j int, ok bool) {
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

// scanObject walks a canonical object that is all of b but whitespace.
// For each key it calls value with the key and the index of its value;
// value reads the value and returns the key's field bit and the index
// after the value, or false for an unknown key or a non-canonical value.
// scanObject reports whether the object was canonical with no key twice.
func scanObject(b []byte, value func(key []byte, i int) (field uint8, j int, ok bool)) bool {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1) == len(b)
	}
	var seen uint8
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
	for {
		// Class labels are mostly one digit: take "d," pairs without the
		// general element scan below.
		for i+1 < len(b) && b[i]-'0' <= 9 && b[i+1] == ',' {
			out = append(out, int(b[i]-'0'))
			i = skipSpace(b, i+2)
		}
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
