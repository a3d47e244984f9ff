package server

// The commit body's wire decoder. A commit carries one prediction per
// testset example, so at large testsets decoding the body costs more than
// evaluating it. Bodies in the layout every JSON encoder writes are read
// in one pass over the bytes; everything else goes to encoding/json, which
// stays the specification of what a body means.

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

// readCommitRequest reads a commit body, refusing one over
// commitBodyLimit with *http.MaxBytesError, and decodes it into req.
// withWebhook is true on the async endpoint only; the sync endpoint
// ignores "webhook".
func (s *Server) readCommitRequest(w http.ResponseWriter, r *http.Request, req *AsyncCommitRequest, withWebhook bool) error {
	n := int(s.testsetLen.Load())
	limit := commitBodyLimit(n)
	var buf bytes.Buffer
	if r.ContentLength > 0 && r.ContentLength <= limit {
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		return err
	}
	return decodeCommitRequest(buf.Bytes(), n, req, withWebhook)
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

// maxIntDigits keeps every canonical prediction inside int's range: 18
// digits where int has 64 bits, 9 where it has 32.
const maxIntDigits = 9 * (strconv.IntSize / 32)

// Field bits for duplicate-key detection in decodeCanonicalCommit.
const (
	fieldModel = 1 << iota
	fieldAuthor
	fieldMessage
	fieldPredictions
	fieldWebhook
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
		i = skipSpace(b, i+1)
		var field uint8
		switch string(key) {
		case "model":
			field = fieldModel
			req.Model, i, ok = scanStringValue(b, i)
		case "author":
			field = fieldAuthor
			req.Author, i, ok = scanStringValue(b, i)
		case "message":
			field = fieldMessage
			req.Message, i, ok = scanStringValue(b, i)
		case "predictions":
			field = fieldPredictions
			req.Predictions, i, ok = scanInts(b, i, n)
		case "webhook":
			field = fieldWebhook
			req.Webhook, i, ok = scanStringValue(b, i)
		default:
			return false
		}
		if !ok || seen&field != 0 {
			return false
		}
		seen |= field
		i = skipSpace(b, i)
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
