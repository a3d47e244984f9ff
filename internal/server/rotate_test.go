package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/script"
	"github.com/easeml/ci/internal/wal"
)

// rotateDecodeCases are the rotation bodies the table test checks and the
// fuzzer starts from; canonical says whether the one-pass path must take
// the body itself.
var rotateDecodeCases = []struct {
	name      string
	body      string
	canonical bool
}{
	{"compact", `{"labels":[0,1,2,3],"active_predictions":[3,2,1,0]}`, true},
	{"encoder newline", "{\"labels\":[1],\"active_predictions\":[1]}\n", true},
	{"key order", `{"active_predictions":[1,2],"labels":[2,1]}`, true},
	{"indented", "{\n  \"labels\": [\n    0,\n    1\n  ],\n  \"active_predictions\": [\n    1,\n    0\n  ]\n}", true},
	{"empty object", `{}`, true},
	{"labels only", `{"labels":[1,2,3]}`, true},
	{"empty arrays", `{"labels":[],"active_predictions":[ ]}`, true},
	{"negative zero", `{"labels":[-0,0],"active_predictions":[0,-0]}`, true},
	{"negative", `{"labels":[-1],"active_predictions":[-12]}`, true},
	{"18 digits", `{"labels":[999999999999999999],"active_predictions":[-999999999999999999]}`, true},
	{"19 digits", `{"labels":[1234567890123456789],"active_predictions":[1]}`, false},
	{"19 digits negative", `{"labels":[1],"active_predictions":[-9223372036854775808]}`, false},
	{"20 digits", `{"labels":[12345678901234567890]}`, false},
	{"leading zero", `{"labels":[01]}`, false},
	{"leading zero predictions", `{"active_predictions":[00]}`, false},
	{"exponent", `{"labels":[1e2]}`, false},
	{"fraction", `{"active_predictions":[1.0]}`, false},
	{"mixed-case key", `{"Labels":[1,2],"active_predictions":[1,2]}`, false},
	{"upper key", `{"labels":[1],"ACTIVE_PREDICTIONS":[1]}`, false},
	{"camel key", `{"labels":[1],"activePredictions":[1]}`, false},
	{"duplicate labels", `{"labels":[1,2,3],"labels":[4]}`, false},
	{"duplicate predictions empty", `{"active_predictions":[1],"active_predictions":[]}`, false},
	{"unknown key", `{"labels":[1],"generation":2,"active_predictions":[1]}`, false},
	{"escaped key", `{"l\u0061bels":[1]}`, false},
	{"labels null", `{"labels":null,"active_predictions":[1]}`, false},
	{"predictions null", `{"labels":[1],"active_predictions":null}`, false},
	{"element null", `{"labels":[1,null]}`, false},
	{"element string", `{"labels":["1"]}`, false},
	{"labels object", `{"labels":{}}`, false},
	{"labels string", `{"labels":"1"}`, false},
	{"trailing garbage", `{"labels":[1],"active_predictions":[1]} garbage`, false},
	{"trailing object", `{"labels":[1]}{"labels":[2]}`, false},
	{"trailing comma", `{"labels":[1,]}`, false},
	{"truncated array", `{"labels":[1,2`, false},
	{"truncated element", `{"labels":[1],"active_predictions":[1,`, false},
	{"truncated object", `{"labels":[1]`, false},
	{"empty body", ``, false},
	{"whitespace body", "\n", false},
	{"null body", `null`, false},
	{"array body", `[1,2]`, false},
	{"commit-shaped body", `{"model":"m1","author":"dev","message":"better","predictions":[0,1,2,3]}`, false},
}

// checkRotateMatchesJSON requires decodeRotateRequest to agree with
// encoding/json on body: accept or reject, the decoded struct under
// reflect.DeepEqual (nil and empty slices differ) and the error text.
func checkRotateMatchesJSON(t *testing.T, body []byte, n int) {
	t.Helper()
	var want RotateRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	// A stale value in req proves the decoder starts from the zero value.
	got := RotateRequest{Labels: []int{9}, ActivePredictions: []int{}}
	gotErr := decodeRotateRequest(body, n, &got)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%q: error %q, encoding/json says %q", body, errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded %#v, encoding/json says %#v", body, got, want)
	}
}

func TestDecodeRotateRequestMatchesJSON(t *testing.T) {
	for _, tc := range rotateDecodeCases {
		t.Run(tc.name, func(t *testing.T) {
			var req RotateRequest
			if got := decodeCanonicalRotate([]byte(tc.body), 4, &req); got != tc.canonical {
				t.Errorf("canonical = %v, want %v", got, tc.canonical)
			}
			for _, n := range []int{0, 1, 4, 1000} {
				checkRotateMatchesJSON(t, []byte(tc.body), n)
			}
		})
	}
}

// TestDecodeRotateRequestLargeBodies covers the served shape: thousands
// of labels and predictions, compact and indented.
func TestDecodeRotateRequestLargeBodies(t *testing.T) {
	req := benchRotateRequest(5000, 7)
	compact, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{compact, indented} {
		var got RotateRequest
		if !decodeCanonicalRotate(body, len(req.Labels), &got) {
			t.Fatalf("body of %d bytes not canonical", len(body))
		}
		for _, n := range []int{0, 10, len(req.Labels), 2 * len(req.Labels)} {
			checkRotateMatchesJSON(t, body, n)
		}
	}
}

func FuzzDecodeRotateRequest(f *testing.F) {
	for _, tc := range rotateDecodeCases {
		f.Add([]byte(tc.body), uint16(4))
	}
	f.Fuzz(func(t *testing.T, body []byte, n uint16) {
		checkRotateMatchesJSON(t, body, int(n))
	})
}

// TestRotateBodyLimit: a rotation body may be up to rotateBodyLimit of
// the current testset size, in any JSON layout; one byte more answers the
// commit endpoints' 400, and a rotation to a larger testset raises the
// limit with it.
func TestRotateBodyLimit(t *testing.T) {
	srv, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{})
	// padded returns an indented rotation to labels, padded with trailing
	// whitespace, which encoding/json ignores, to exactly size bytes.
	padded := func(t *testing.T, labels []int, size int64) []byte {
		t.Helper()
		body, err := json.MarshalIndent(RotateRequest{Labels: labels, ActivePredictions: goodPredictions(t, labels, 0.9, 5)}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(body)) > size {
			t.Fatalf("indented body of %d bytes exceeds %d", len(body), size)
		}
		return append(body, bytes.Repeat([]byte{' '}, int(size)-len(body))...)
	}
	limit := rotateBodyLimit(testSize)
	if want := int64(2<<20 + 64*testSize); limit != want {
		t.Fatalf("rotation body limit = %d, documented as 2 MiB + 64 B an example = %d", limit, want)
	}
	if rec := postRaw(srv, "/api/v1/testset", padded(t, labels, limit)); rec.Code != http.StatusOK {
		t.Fatalf("body at the limit: status %d: %s", rec.Code, rec.Body.String())
	}
	rec := postRaw(srv, "/api/v1/testset", padded(t, labels, limit+1))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "malformed JSON: http: request body too large") {
		t.Fatalf("body one byte over the limit: status %d: %s", rec.Code, rec.Body.String())
	}

	bigger := make([]int, 2*testSize)
	for i := range bigger {
		bigger[i] = i % testClasses
	}
	if rec := postRaw(srv, "/api/v1/testset", padded(t, bigger, limit)); rec.Code != http.StatusOK {
		t.Fatalf("rotate to the larger testset: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := postRaw(srv, "/api/v1/testset", padded(t, bigger, rotateBodyLimit(len(bigger)))); rec.Code != http.StatusOK {
		t.Fatalf("body at the larger testset's limit: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestDurableRotateAnyLayout: the same rotation sent compact, indented,
// and with a mixed-case key (which only encoding/json reads) leaves
// byte-identical WAL rotate records, status and history.
func TestDurableRotateAnyLayout(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	next := make([]int, testSize)
	for i := range next {
		next[i] = (3*i + 1) % testClasses
	}
	req := RotateRequest{Labels: next, ActivePredictions: goodPredictions(t, next, 0.9, 31)}
	compact, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	mixedCase := bytes.Replace(indented, []byte(`"labels"`), []byte(`"Labels"`), 1)
	bodies := []struct {
		name      string
		body      []byte
		canonical bool
	}{{"compact", compact, true}, {"indented", indented, true}, {"mixed-case", mixedCase, false}}

	var wantRotate [][]byte
	var wantStatus, wantHistory []byte
	for k, tc := range bodies {
		var got RotateRequest
		if decodeCanonicalRotate(tc.body, testSize, &got) != tc.canonical {
			t.Fatalf("%s: canonical = %v, want %v", tc.name, !tc.canonical, tc.canonical)
		}
		dir := t.TempDir()
		srv, err := openTestTenant(g, dir, Options{Webhooks: notify.NewOutbox()})
		if err != nil {
			t.Fatal(err)
		}
		for i, preds := range [][]int{labels, nil} {
			if preds == nil {
				if rec := postRaw(srv, "/api/v1/testset", tc.body); rec.Code != http.StatusOK {
					t.Fatalf("%s: rotate status = %d: %s", tc.name, rec.Code, rec.Body.String())
				}
				preds = next
			}
			rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
				Model: fmt.Sprintf("m%d", i), Predictions: goodPredictions(t, preds, 0.9, int64(40+i)),
			})
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: commit status = %d: %s", tc.name, rec.Code, rec.Body.String())
			}
		}
		waitQuiescent(t, srv, 0)
		status := getBody(t, srv, "/api/v1/status")
		history := getBody(t, srv, "/api/v1/history")
		// Abandon without Close: no compaction, the raw record stream stays.
		log, _, records, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		log.Close()
		var rotate [][]byte
		for _, r := range records {
			if r.Type == recTypeRotate {
				rotate = append(rotate, r.Data)
			}
		}
		if len(rotate) != 1 {
			t.Fatalf("%s: %d rotate records, want 1", tc.name, len(rotate))
		}
		if k == 0 {
			wantRotate, wantStatus, wantHistory = rotate, status, history
			continue
		}
		if !reflect.DeepEqual(rotate, wantRotate) {
			t.Errorf("%s: rotate record differs from the compact body's:\n%s\n%s", tc.name, rotate[0], wantRotate[0])
		}
		if !bytes.Equal(status, wantStatus) {
			t.Errorf("%s: status differs:\n%s\n%s", tc.name, status, wantStatus)
		}
		if !bytes.Equal(history, wantHistory) {
			t.Errorf("%s: history differs:\n%s\n%s", tc.name, history, wantHistory)
		}
	}
}

// benchRotateRequest is a rotation to an n-example, 4-class testset.
func benchRotateRequest(n int, seed int64) RotateRequest {
	rng := rand.New(rand.NewSource(seed))
	req := RotateRequest{Labels: make([]int, n), ActivePredictions: make([]int, n)}
	for i := range req.Labels {
		req.Labels[i] = rng.Intn(testClasses)
		req.ActivePredictions[i] = rng.Intn(testClasses)
	}
	return req
}

// BenchmarkRotate times POST /api/v1/testset through the handler of an
// in-memory server, with the compact body a JSON encoder writes. The
// engine keeps every retired testset, so the server is rebuilt, off the
// clock, every 32 rotations to bound the benchmark's memory.
func BenchmarkRotate(b *testing.B) {
	for _, n := range []int{5000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			req := benchRotateRequest(n, 1)
			body, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			h0, err := model.SimulatedPredictions(req.Labels, testClasses, 0.5, 1)
			if err != nil {
				b.Fatal(err)
			}
			g := Genesis{
				Condition: "n > 0.6 +/- 0.1", Reliability: 0.99, Mode: interval.FPFree,
				Adaptivity: script.Adaptivity{Kind: script.AdaptivityFull}, Steps: 3,
				Labels: req.Labels, Classes: testClasses, ModelName: "h0", ModelPredictions: h0,
			}
			var srv *Server
			defer func() {
				if srv != nil {
					closeTestTenant(srv)
				}
			}()
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%32 == 0 {
					b.StopTimer()
					if srv != nil {
						closeTestTenant(srv)
					}
					if srv, err = openTestTenant(g, "", Options{}); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				rec := httptest.NewRecorder()
				serveTenant(srv, rec, httptest.NewRequest(http.MethodPost, "/api/v1/testset", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("rotate status = %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}

// TestRotateConcurrent: rotations racing each other through the handler
// each install a testset, in some order, with the class count the server
// was built with. Run under -race: the handler builds its dataset before
// it takes the engine lock, so nothing it reads there may be written by a
// rotation holding that lock.
func TestRotateConcurrent(t *testing.T) {
	const n, workers, rotations = 2000, 2, 50
	srv, _ := newServerWith(t, script.AdaptivityFull, 3, n, Options{})
	defer closeTestTenant(srv)
	bodies := make([][]byte, workers)
	for w := range bodies {
		body, err := json.Marshal(benchRotateRequest(n, int64(w)))
		if err != nil {
			t.Fatal(err)
		}
		bodies[w] = body
	}
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(body []byte) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < rotations; i++ {
				if rec := postRaw(srv, "/api/v1/testset", body); rec.Code != http.StatusOK {
					t.Errorf("rotate status = %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(bodies[w])
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	cur := srv.eng.Testsets().Current()
	if want := 1 + workers*rotations; cur.Generation != want {
		t.Fatalf("generation %d after %d rotations, want %d", cur.Generation, workers*rotations, want)
	}
	if cur.Data.Classes != testClasses || cur.Len() != n {
		t.Fatalf("testset has %d classes and %d examples, want %d and %d", cur.Data.Classes, cur.Len(), testClasses, n)
	}
}
