package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/easeml/ci/internal/script"
)

// decodeCases are the bodies the table test checks and the fuzzer starts
// from. canonical says whether the one-pass path must take the body itself
// rather than hand it to encoding/json.
var decodeCases = []struct {
	name      string
	body      string
	canonical bool
}{
	{"compact", `{"model":"m1","author":"dev","message":"better","predictions":[0,1,2,3]}`, true},
	{"encoder newline", "{\"model\":\"m1\",\"predictions\":[3,2,1]}\n", true},
	{"all five keys", `{"model":"m","author":"a","message":"msg","predictions":[1],"webhook":"http://h/x"}`, true},
	{"key order", `{"predictions":[1,2],"webhook":"http://h/x","message":"m","author":"a","model":"z"}`, true},
	{"indented", "{\n  \"model\": \"m\",\n  \"predictions\": [\n    0,\n    -12,\n    3\n  ]\n}", true},
	{"tabs and CRs", "\t\r\n{\t\"model\"\r:\n\"m\" , \"predictions\" : [ 1 , 2 ] }\r\n\t ", true},
	{"empty object", `{}`, true},
	{"empty predictions", `{"model":"m","predictions":[]}`, true},
	{"empty predictions spaced", `{"predictions":[ ]}`, true},
	{"empty strings", `{"model":"","author":"","message":""}`, true},
	{"printable ASCII", `{"model":" !#$%&'()*+,-./:;<=>?@[]^_{|}~"}`, true},
	{"negative zero", `{"predictions":[-0,0]}`, true},
	{"18 digits", `{"predictions":[999999999999999999,-999999999999999999,100000000000000000]}`, true},
	{"19 digits", `{"predictions":[1234567890123456789]}`, false},
	{"19 digits negative", `{"predictions":[-9223372036854775808]}`, false},
	{"20 digits", `{"predictions":[12345678901234567890]}`, false},
	{"leading zero", `{"predictions":[01]}`, false},
	{"leading zeros negative", `{"predictions":[-007]}`, false},
	{"fraction", `{"predictions":[1.0]}`, false},
	{"fraction not int", `{"predictions":[1.5]}`, false},
	{"exponent", `{"predictions":[1e2]}`, false},
	{"exponent upper", `{"predictions":[1E2]}`, false},
	{"plus sign", `{"predictions":[+1]}`, false},
	{"bare minus", `{"predictions":[-]}`, false},
	{"minus space", `{"predictions":[- 1]}`, false},
	{"trailing comma in array", `{"predictions":[1,]}`, false},
	{"leading comma in array", `{"predictions":[,1]}`, false},
	{"trailing comma in object", `{"model":"m",}`, false},
	{"mixed-case key", `{"Model":"m","predictions":[1]}`, false},
	{"upper key", `{"PREDICTIONS":[1,2]}`, false},
	{"duplicate key", `{"model":"a","model":"b"}`, false},
	{"duplicate predictions", `{"predictions":[1,2,3],"predictions":[4]}`, false},
	{"duplicate predictions empty", `{"predictions":[1,2,3],"predictions":[]}`, false},
	{"unknown key", `{"model":"m","extra":1,"predictions":[1]}`, false},
	{"escaped key", `{"mod\u0065l":"m"}`, false},
	{"escaped string", `{"model":"a\"b"}`, false},
	{"unicode escape", `{"model":"\u00e9"}`, false},
	{"non-ASCII UTF-8", `{"model":"é"}`, false},
	{"model null", `{"model":null,"predictions":[1]}`, false},
	{"predictions null", `{"model":"m","predictions":null}`, false},
	{"element null", `{"predictions":[1,null]}`, false},
	{"model number", `{"model":5}`, false},
	{"predictions string", `{"predictions":"1,2"}`, false},
	{"predictions object", `{"predictions":{}}`, false},
	{"element string", `{"predictions":["1"]}`, false},
	{"webhook number", `{"model":"m","predictions":[1],"webhook":5}`, false},
	{"form feed", "{\f\"model\":\"m\"}", false},
	{"vertical tab", "{\"model\":\v\"m\"}", false},
	{"NUL as whitespace", "{\"predictions\":[1,\x002]}", false},
	{"NUL in string", "{\"model\":\"a\x00b\"}", false},
	{"control in string", "{\"model\":\"a\tb\"}", false},
	{"DEL in string", "{\"model\":\"a\x7fb\"}", false},
	{"invalid UTF-8", "{\"model\":\"\xff\xfe\"}", false},
	{"invalid UTF-8 key", "{\"\xffmodel\":\"m\"}", false},
	{"BOM", "\xef\xbb\xbf{\"model\":\"m\"}", false},
	{"truncated array", `{"model":"m","predictions":[1,2`, false},
	{"truncated element", `{"predictions":[1,2,`, false},
	{"truncated string", `{"model":"m`, false},
	{"truncated object", `{"model":"m"`, false},
	{"truncated after colon", `{"model":`, false},
	{"trailing garbage", `{"model":"m","predictions":[1]} garbage`, false},
	{"trailing object", `{"model":"m"}{"model":"n"}`, false},
	{"trailing bracket", `{"model":"m"}]`, false},
	{"missing colon", `{"model" "m"}`, false},
	{"missing comma", `{"model":"m" "author":"a"}`, false},
	{"array top level", `[1,2]`, false},
	{"null top level", `null`, false},
	{"empty body", ``, false},
	{"whitespace body", " \n", false},
	// The byte column and its word lane: four "d," pairs per 8-byte load.
	{"byte range ends", `{"predictions":[255,0,254,9,10,99,100]}`, true},
	{"255 then 256", `{"predictions":[255,256]}`, true},
	{"256 mid word", `{"predictions":[1,2,3,256,4,5,6,7,8,9]}`, true},
	{"negative mid word", `{"predictions":[1,2,3,-1,4,5,6,7,8,9]}`, true},
	{"negative zero mid word", `{"predictions":[1,2,3,-0,4,5,6,7,8]}`, true},
	{"leading zero mid word", `{"predictions":[1,2,01,3,4,5,6,7,8]}`, false},
	{"leading zero 3 digits", `{"predictions":[0255]}`, false},
	{"4 digits", `{"predictions":[1000,1,2]}`, true},
	{"4 digits mid word", `{"predictions":[1,2,3,4,5,6,7,1234,8,9,0,1,2,3,4,5]}`, true},
	{"space after comma in word", `{"predictions":[1,2, 3,4,5,6,7,8,9]}`, true},
	{"space before comma in word", `{"predictions":[1,2 ,3,4,5,6,7,8,9]}`, true},
	{"newline after word", "{\"predictions\":[1,2,3,4,\n5,6,7,8,9]}", true},
	{"letter in word", `{"predictions":[1,2,x,4,5,6,7,8,9]}`, false},
	{"colon in word", `{"predictions":[1,2,:,4,5,6,7,8,9]}`, false},
	{"slash in word", `{"predictions":[1,2,/,4,5,6,7,8,9]}`, false},
	{"semicolons", `{"predictions":[1;2;3;4;5;6;7;8;9]}`, false},
	{"high byte in word", "{\"predictions\":[1,2,\xb3,4,5,6,7,8,9]}", false},
	{"carrying byte in word", "{\"predictions\":[1,\xfa,2,4,5,6,7,8,9]}", false},
	{"comma pair at end", `{"predictions":[1,2,3,4,5,6,7,8,]}`, false},
	{"two and three digits", `{"predictions":[10,99,100,3,4,5,6,7,8,9,42]}`, true},
	{"wide first", `{"predictions":[300,1,2,3,4,5,6,7,8,9]}`, true},
	{"widened after a spaced word", `{"predictions":[1, 2,3,4,5,6,7,8,300 , 4 ]}`, true},
	{"widened then fraction", `{"predictions":[1,2,3,4,5,6,7,8,300,1.5]}`, false},
	{"widened then leading zero", `{"predictions":[1,2,-3,01]}`, false},
	{"byte then negative, non-canonical", `{"predictions":[7,-1],"extra":1}`, false},
	{"bytes, non-canonical", `{"predictions":[7,255],"extra":1}`, false},
}

// wordLaneCases are canonical one-digit arrays of every length from 1 to
// 17, each starting at every offset mod 8 of the body, so the word lane
// meets the closing bracket at every position of its load.
func wordLaneCases() []struct {
	name      string
	body      string
	canonical bool
} {
	var out []struct {
		name      string
		body      string
		canonical bool
	}
	for size := 1; size <= 17; size++ {
		var arr strings.Builder
		for i := 0; i < size; i++ {
			if i > 0 {
				arr.WriteByte(',')
			}
			arr.WriteByte(byte('0' + (i*7)%10))
		}
		for pad := 0; pad < 8; pad++ {
			out = append(out, struct {
				name      string
				body      string
				canonical bool
			}{
				fmt.Sprintf("lane size %d offset %d", size, pad),
				fmt.Sprintf(`{"model":"%s","predictions":[%s]}`, strings.Repeat("m", pad), arr.String()),
				true,
			})
		}
	}
	return out
}

// request widens a job back into the wire type it was decoded from: the
// byte column becomes ints, and a nil column stays nil.
func (j commitJob) request() AsyncCommitRequest {
	r := AsyncCommitRequest{CommitRequest: CommitRequest{Model: j.Model, Author: j.Author, Message: j.Message, Predictions: j.preds}, Webhook: j.Webhook}
	if j.preds8 != nil {
		r.Predictions = make([]int, len(j.preds8))
		for i, y := range j.preds8 {
			r.Predictions[i] = int(y)
		}
	}
	return r
}

// checkJobColumn requires the column invariants: at most one width set,
// and max8 the byte column's largest value.
func checkJobColumn(t *testing.T, body []byte, j commitJob) {
	t.Helper()
	if j.preds != nil && j.preds8 != nil {
		t.Fatalf("%q: both columns set", body)
	}
	var mx uint8
	for _, y := range j.preds8 {
		mx = max(mx, y)
	}
	if mx != j.max8 {
		t.Fatalf("%q: max8 %d, column max %d", body, j.max8, mx)
	}
}

// checkMatchesJSON requires decodeCommitRequest to agree with
// encoding/json on body for both endpoints: the async endpoint against a
// decode into AsyncCommitRequest, the sync one against a decode into
// CommitRequest. Accept or reject, the decoded job widened back to the
// wire type (reflect.DeepEqual, so nil and empty slices differ) and the
// error text must all match.
func checkMatchesJSON(t *testing.T, body []byte, n int) {
	t.Helper()
	var want AsyncCommitRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	// A stale value in the job proves the decoder starts from the zero
	// value.
	got := commitJob{Model: "stale", preds: []int{9}, preds8: []uint8{7}, max8: 7, Webhook: "stale"}
	gotErr := decodeCommitRequest(body, n, &got, true)
	compareDecode(t, "async", body, got, want, gotErr, wantErr)

	var wantSync CommitRequest
	wantSyncErr := json.NewDecoder(bytes.NewReader(body)).Decode(&wantSync)
	got = commitJob{Author: "stale", Webhook: "stale"}
	gotErr = decodeCommitRequest(body, n, &got, false)
	compareDecode(t, "sync", body, got, AsyncCommitRequest{CommitRequest: wantSync}, gotErr, wantSyncErr)
}

func compareDecode(t *testing.T, endpoint string, body []byte, got commitJob, want AsyncCommitRequest, gotErr, wantErr error) {
	t.Helper()
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s %q: error %q, encoding/json says %q", endpoint, body, errText(gotErr), errText(wantErr))
	}
	checkJobColumn(t, body, got)
	if r := got.request(); !reflect.DeepEqual(r, want) {
		t.Fatalf("%s %q: decoded %#v, encoding/json says %#v", endpoint, body, r, want)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestDecodeCommitRequestMatchesJSON(t *testing.T) {
	for _, tc := range append(decodeCases, wordLaneCases()...) {
		t.Run(tc.name, func(t *testing.T) {
			var job commitJob
			if got := decodeCanonicalCommit([]byte(tc.body), 4, &job); got != tc.canonical {
				t.Errorf("canonical = %v, want %v", got, tc.canonical)
			}
			for _, n := range []int{0, 1, 4, 1000} {
				checkMatchesJSON(t, []byte(tc.body), n)
			}
		})
	}
}

// TestDecodeCommitRequestLargeBodies covers the bodies the served path
// sees: thousands of predictions, compact and indented, as wide ints,
// as class ids and across the whole byte range.
func TestDecodeCommitRequestLargeBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, bound := range []int{1 << 20, testClasses, 100, 256, 1000} {
		preds := make([]int, 5000)
		for i := range preds {
			preds[i] = rng.Intn(bound)
			if bound > 256 && i%3 == 0 {
				preds[i] = -preds[i]
			}
		}
		req := AsyncCommitRequest{CommitRequest: CommitRequest{Model: "big", Author: "a", Message: "m", Predictions: preds}}
		compact, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(req, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{compact, indented} {
			var got commitJob
			if !decodeCanonicalCommit(body, len(preds), &got) {
				t.Fatalf("body of %d bytes not canonical", len(body))
			}
			if wide := bound > 256; (got.preds != nil) != wide {
				t.Fatalf("values below %d: int column %v, want %v", bound, got.preds != nil, wide)
			}
			for _, n := range []int{0, 10, len(preds), 2 * len(preds)} {
				checkMatchesJSON(t, body, n)
			}
		}
	}
}

func FuzzDecodeCommitRequest(f *testing.F) {
	for _, tc := range append(decodeCases, wordLaneCases()...) {
		f.Add([]byte(tc.body), uint16(4))
	}
	f.Fuzz(func(t *testing.T, body []byte, n uint16) {
		checkMatchesJSON(t, body, int(n))
	})
}

var (
	decodeSink     commitJob
	decodeJSONSink AsyncCommitRequest
)

// BenchmarkDecodeCommitRequest times the commit-body decode on compact
// bodies, for the one-pass decoder and for encoding/json on the same
// bytes. The served benchmark's shape is 4 classes (one-digit values);
// 100 classes gives two- and three-digit values that still fit a byte,
// and 1000 classes values that do not.
func BenchmarkDecodeCommitRequest(b *testing.B) {
	for _, shape := range []struct{ n, classes int }{
		{5000, testClasses}, {100000, testClasses}, {100000, 100}, {100000, 1000},
	} {
		n := shape.n
		rng := rand.New(rand.NewSource(1))
		preds := make([]int, n)
		for i := range preds {
			preds[i] = rng.Intn(shape.classes)
		}
		body, err := json.Marshal(AsyncCommitRequest{CommitRequest: CommitRequest{
			Model: "bench-model", Author: "bench", Message: "candidate", Predictions: preds,
		}})
		if err != nil {
			b.Fatal(err)
		}
		if !decodeCanonicalCommit(body, n, &decodeSink) {
			b.Fatal("benchmark body is not canonical")
		}
		b.Run(fmt.Sprintf("n=%d/classes=%d/decoder=onepass", n, shape.classes), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := decodeCommitRequest(body, n, &decodeSink, true); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/classes=%d/decoder=encoding_json", n, shape.classes), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				decodeJSONSink = AsyncCommitRequest{}
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&decodeJSONSink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCommitBodyLimitFitsIndentedInt64 pins the limit's per-prediction
// allowance: a commit of the widest ints, pretty-printed with a
// two-space indent, fits the limit with the text fields filling most of
// the 1 MiB left for them.
func TestCommitBodyLimitFitsIndentedInt64(t *testing.T) {
	const n = 1000
	preds := make([]int, n)
	for i := range preds {
		preds[i] = math.MinInt
	}
	fields := strings.Repeat("x", 300<<10)
	body, err := json.MarshalIndent(AsyncCommitRequest{
		CommitRequest: CommitRequest{Model: fields, Author: fields, Message: fields, Predictions: preds},
		Webhook:       "http://127.0.0.1/hook",
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(body)) > commitBodyLimit(n) {
		t.Fatalf("indented body of %d bytes exceeds limit %d", len(body), commitBodyLimit(n))
	}
}

// postRaw sends body verbatim to path.
func postRaw(srv *Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	serveTenant(srv, rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// TestCommitBodyLimit: both commit endpoints take a body up to
// commitBodyLimit of the current testset size, in any JSON layout, and
// refuse one byte more with the project-create endpoint's 400; a rotation
// to a larger testset raises the limit with it.
func TestCommitBodyLimit(t *testing.T) {
	srv, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{}, false)
	// padded returns a valid indented commit padded with trailing
	// whitespace, which encoding/json ignores, to exactly size bytes.
	padded := func(t *testing.T, labels []int, model string, size int64) []byte {
		t.Helper()
		body, err := json.MarshalIndent(CommitRequest{Model: model, Predictions: goodPredictions(t, labels, 0.9, 3)}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(body)) > size {
			t.Fatalf("indented body of %d bytes exceeds %d", len(body), size)
		}
		return append(body, bytes.Repeat([]byte{' '}, int(size)-len(body))...)
	}
	limit := commitBodyLimit(testSize)
	for i, path := range []string{"/api/v1/commit", "/api/v1/commit/async"} {
		want := http.StatusOK
		if path == "/api/v1/commit/async" {
			want = http.StatusAccepted
		}
		rec := postRaw(srv, path, padded(t, labels, fmt.Sprintf("fits-%d", i), limit))
		if rec.Code != want {
			t.Fatalf("%s: body at the limit: status %d, want %d: %s", path, rec.Code, want, rec.Body.String())
		}
		if want == http.StatusAccepted {
			var acc JobAcceptedResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
				t.Fatal(err)
			}
			if st := pollUntilTerminal(t, srv, acc.JobID); st.State != "done" {
				t.Fatalf("async commit at the limit: %+v", st)
			}
		}
		rec = postRaw(srv, path, padded(t, labels, fmt.Sprintf("over-%d", i), limit+1))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "malformed JSON: http: request body too large") {
			t.Fatalf("%s: body one byte over the limit: status %d: %s", path, rec.Code, rec.Body.String())
		}
	}

	bigger := make([]int, 2*testSize)
	for i := range bigger {
		bigger[i] = i % testClasses
	}
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/testset", RotateRequest{
		Labels: bigger, ActivePredictions: goodPredictions(t, bigger, 0.9, 4),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("rotate status = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := postRaw(srv, "/api/v1/commit", padded(t, bigger, "after-rotation", commitBodyLimit(len(bigger)))); rec.Code != http.StatusOK {
		t.Fatalf("body at the rotated testset's limit: status %d: %s", rec.Code, rec.Body.String())
	}
}
