package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/easeml/ci/internal/notify"
)

// pinLabels and pinPreds are the labels and baseline predictions every
// pinned create body carries: 400 examples of four classes, enough for
// the plans of the pinned conditions.
var pinLabels, pinPreds = func() ([]int, []int) {
	labels, preds := make([]int, 400), make([]int, 400)
	for i := range labels {
		labels[i] = i % testClasses
		preds[i] = (i + i/3) % testClasses
	}
	return labels, preds
}()

// pinSpec is the full spec the marshalled pin bodies encode. Its strings
// carry every byte class encoding/json escapes: HTML's '<', '>' and '&',
// a backslash, a quote, a control byte, non-ASCII text and U+2028.
func pinSpec() ProjectSpec {
	return ProjectSpec{
		Condition:        "d < 0.2 +/- 0.15 /\\ n - o > -0.5 +/- 0.45",
		Reliability:      0.99,
		Steps:            4,
		Mode:             "fn-free",
		Adaptivity:       "none",
		Email:            "Dev \"Ops\" <ops&ci@example.com>\t",
		Labels:           pinLabels,
		Classes:          4,
		ModelName:        "modèle-π\u2028h0",
		ModelPredictions: pinPreds,
		Weight:           3,
		QueueCapacity:    5,
		LabelQuota:       1000,
	}
}

func mustMarshal(t testing.TB, v any, indent bool) string {
	t.Helper()
	var b []byte
	var err error
	if indent {
		b, err = json.MarshalIndent(v, "", "  ")
	} else {
		b, err = json.Marshal(v)
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// createPinBodies are the POST /api/v1/projects bodies whose answers
// TestCreateProjectPins pins, in the order they are sent to one
// control plane. $L and $P stand for pinLabels and pinPreds, and $M for
// the elements of pinLabels after its first.
func createPinBodies(t testing.TB) []struct{ name, body string } {
	full := func(id string) CreateProjectRequest { return CreateProjectRequest{ID: id, ProjectSpec: pinSpec()} }
	base := func(id, rest string) string {
		return `{"id":"` + id + `","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":$L,"classes":4,"model_predictions":$P` + rest + `}`
	}
	return []struct{ name, body string }{
		{"marshal compact", mustMarshal(t, full("m-compact"), false)},
		{"marshal indented", mustMarshal(t, full("m-indented"), true)},
		{"marshal minimal", mustMarshal(t, CreateProjectRequest{ID: "m-min", ProjectSpec: ProjectSpec{
			Condition: "n > 0.6 +/- 0.1", Reliability: 0.99, Steps: 4, Classes: 4,
			Labels: pinLabels, ModelPredictions: pinPreds,
		}}, false)},
		{"literal", base("lit", "")},
		{"literal raw <>&", `{"id":"raw","condition":"d < 0.2 +/- 0.15 /\\ n - o > -0.5 +/- 0.45","reliability":0.99,"steps":4,"labels":$L,"classes":4,"model_predictions":$P,"model":"a<b>&c"}`},
		{"literal all keys spaced", "{ \"id\" : \"spaced\" ,\n\t\"condition\" : \"n > 0.6 +/- 0.1\" , \"reliability\" : 0.99 , \"steps\" : 4 ,\r\n \"mode\" : \"fp-free\" , \"adaptivity\" : \"firstChange\" , \"email\" : \"\" , \"labels\" : [ 0 , $M ] , \"classes\" : 4 , \"model\" : \"h0\" , \"model_predictions\" : $P , \"weight\" : 0 , \"queue_capacity\" : 0 , \"label_quota\" : 0 }\n"},
		{"escaped strings", base("esc", `,"model":"h\"0\\\/\b\f\n\r\té😀<"`)},
		{"escaped key", `{"id":"esc-key","condit\u0069on":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"lone surrogate", base("surrogate", `,"model":"\ud800x"`)},
		{"non-ASCII", base("utf8", `,"model":"modèle-π 模型"`)},
		{"invalid UTF-8", base("bad-utf8", ",\"model\":\"h\xff\xfe0\"")},
		{"control byte in string", base("ctl", ",\"model\":\"h\x010\"")},
		{"DEL in string", base("del", ",\"model\":\"h\x7f0\"")},
		{"null labels", `{"id":"null-labels","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":null,"classes":4,"model_predictions":$P}`},
		{"null predictions", `{"id":"null-preds","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":$L,"classes":4,"model_predictions":null}`},
		{"null arrays", `{"id":"null-both","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":null,"classes":4,"model_predictions":null}`},
		{"null strings and numbers", base("nulls", `,"model":null,"mode":null,"weight":null,"label_quota":null`)},
		{"null id", `{"id":null,"condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"empty arrays", `{"id":"empty","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":[],"classes":4,"model_predictions":[]}`},
		{"null element", `{"id":"null-elem","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":[null,$M],"classes":4,"model_predictions":$P}`},
		{"mixed-case keys", `{"ID":"mixed","Condition":"n > 0.6 +/- 0.1","RELIABILITY":0.99,"Steps":4,"Labels":$L,"classes":4,"Model_Predictions":$P,"Label_Quota":7}`},
		{"duplicate id", `{"id":"first","id":"dup-keys","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"duplicate labels", `{"id":"dup-labels","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":[9,9],"labels":$L,"classes":4,"model_predictions":$P}`},
		{"duplicate labels shorter", `{"id":"dup-short","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":$L,"labels":[1],"classes":4,"model_predictions":$P}`},
		{"duplicate mixed case", `{"id":"dup-case","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":$L,"classes":4,"model_predictions":$P,"Weight":2,"weight":4}`},
		{"unknown keys", base("unknown", `,"extra":{"a":[1,2,{"b":null}]},"ProjectSpec":{"steps":9},"tags":["x"]`)},
		{"wrong-typed labels", base("wrong-labels", `,"labels":"0,1"`)},
		{"wrong-typed label element", `{"id":"wrong-elem","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":["0",$M],"classes":4,"model_predictions":$P}`},
		{"fractional label", `{"id":"frac-label","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":[0.5,$M],"classes":4,"model_predictions":$P}`},
		{"exponent label", `{"id":"exp-label","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":[0e0,$M],"classes":4,"model_predictions":$P}`},
		{"wrong-typed predictions", `{"id":"wrong-preds","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":$L,"classes":4,"model_predictions":{"0":1}}`},
		{"wrong-typed steps", `{"id":"wrong-steps","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":"4","labels":$L,"classes":4,"model_predictions":$P}`},
		{"fractional steps", `{"id":"frac-steps","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4.0,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"wrong-typed id", `{"id":7,"condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"wrong-typed condition", `{"id":"wrong-cond","condition":["n"],"reliability":0.99,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"wrong-typed reliability", `{"id":"wrong-rel","condition":"n > 0.6 +/- 0.1","reliability":"0.99","steps":4,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"classes out of range", `{"id":"big-classes","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":$L,"classes":99999999999999999999,"model_predictions":$P}`},
		{"label out of int range", `{"id":"big-label","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":[-9223372036854775809,$M],"classes":4,"model_predictions":$P}`},
		{"19-digit label", `{"id":"wide-label","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":[1000000000000000000,$M],"classes":4,"model_predictions":$P}`},
		{"reliability 1e2", `{"id":"rel-1e2","condition":"n > 0.6 +/- 0.1","reliability":1e2,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"reliability 99e-2", `{"id":"rel-exp","condition":"n > 0.6 +/- 0.1","reliability":99e-2,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"reliability 9.9E-1", `{"id":"rel-exp-upper","condition":"n > 0.6 +/- 0.1","reliability":9.9E-1,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"reliability many digits", `{"id":"rel-digits","condition":"n > 0.6 +/- 0.1","reliability":0.98999999999999999999999999,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"reliability 01", `{"id":"rel-01","condition":"n > 0.6 +/- 0.1","reliability":01,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"reliability -0", `{"id":"rel-neg-zero","condition":"n > 0.6 +/- 0.1","reliability":-0,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"reliability 1e400", `{"id":"rel-huge","condition":"n > 0.6 +/- 0.1","reliability":1e400,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"reliability 1e-400", `{"id":"rel-tiny","condition":"n > 0.6 +/- 0.1","reliability":1e-400,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"reliability .5", `{"id":"rel-dot","condition":"n > 0.6 +/- 0.1","reliability":.5,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"reliability 1.", `{"id":"rel-trailing-dot","condition":"n > 0.6 +/- 0.1","reliability":1.,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`},
		{"trailing data", base("trailing", "") + ` garbage`},
		{"trailing object", base("trailing-obj", "") + base("second", "")},
		{"truncated", `{"id":"trunc","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":[0,1,2`},
		{"empty body", ``},
		{"array body", `[1,2]`},
		{"null body", `null`},
		{"empty object", `{}`},
		{"invalid id", base("Bad ID", "")},
		{"default id", base("default", "")},
		{"duplicate project", base("lit", "")},
		{"bad mode", base("bad-mode", `,"mode":"strict"`)},
		{"length mismatch", `{"id":"mismatch","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":$L,"classes":4,"model_predictions":[0,1]}`},
		{"label out of range", `{"id":"range","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":[4,$M],"classes":4,"model_predictions":$P}`},
		{"negative weight", base("neg-weight", `,"weight":-3`)},
	}
}

// createPinBody substitutes the shared arrays into a pinned body.
func createPinBody(body string) []byte {
	l, _ := json.Marshal(pinLabels)
	p, _ := json.Marshal(pinPreds)
	rest := l[bytes.IndexByte(l, ',')+1 : len(l)-1]
	return []byte(strings.NewReplacer("$L", string(l), "$P", string(p), "$M", string(rest)).Replace(body))
}

// postH sends body verbatim to path on any handler.
func postH(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// transcribe appends one request's answer to a pin transcript.
func transcribe(out *bytes.Buffer, name string, rec *httptest.ResponseRecorder) {
	fmt.Fprintf(out, "%s %d\n%s", name, rec.Code, rec.Body.Bytes())
	if !bytes.HasSuffix(rec.Body.Bytes(), []byte("\n")) {
		out.WriteByte('\n')
	}
}

// createLimitBodies are create bodies around the 8 MiB limit: one of
// exactly 8 MiB and one a byte over, each padded with whitespace inside
// the object, and one a byte over whose object ends long before the
// limit, padded with trailing whitespace.
func createLimitBodies() []struct {
	name string
	body []byte
} {
	const limit = 8 << 20
	inside := func(id string, size int) []byte {
		head := createPinBody(`{"id":"` + id + `",`)
		tail := createPinBody(`"condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`)
		b := append(head, bytes.Repeat([]byte{' '}, size-len(head)-len(tail))...)
		return append(b, tail...)
	}
	after := createPinBody(`{"id":"limit-after","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":$L,"classes":4,"model_predictions":$P}`)
	after = append(after, bytes.Repeat([]byte{'\n'}, limit+1-len(after))...)
	return []struct {
		name string
		body []byte
	}{
		{"8 MiB exactly", inside("limit-exact", limit)},
		{"8 MiB + 1 inside the object", inside("limit-inside", limit+1)},
		{"8 MiB + 1 after the object", after},
	}
}

// TestCreateProjectPins pins POST /api/v1/projects byte for byte: the
// status and body answered to each body of createPinBodies and
// createLimitBodies on an in-memory control plane, then, on a durable
// one, the control log a few creates leave behind and the project
// listing and statuses a restart serves from it. The pins were taken
// with encoding/json's streaming decoder; the one answer since changed
// is the body over the limit whose object ends before it, which that
// decoder accepted without reading to the end and which is now refused.
func TestCreateProjectPins(t *testing.T) {
	m := newTestMulti(t, MultiOptions{})
	defer m.Close()
	var out bytes.Buffer
	for _, tc := range createPinBodies(t) {
		transcribe(&out, tc.name, postH(m, projectsPath, createPinBody(tc.body)))
	}
	for _, tc := range createLimitBodies() {
		if tc.name == "8 MiB exactly" && len(tc.body) != 8<<20 {
			t.Fatalf("%s: body of %d bytes", tc.name, len(tc.body))
		}
		transcribe(&out, tc.name, postH(m, projectsPath, tc.body))
	}
	transcribe(&out, "listing", doH(t, m, http.MethodGet, projectsPath, nil))
	checkGolden(t, filepath.Join("testdata", "create", "responses.txt"), out.Bytes())

	dir := t.TempDir()
	d := newTestMulti(t, MultiOptions{DataDir: dir})
	out.Reset()
	durable := []struct{ name, body string }{
		{"marshal compact", mustMarshal(t, CreateProjectRequest{ID: "team-a", ProjectSpec: pinSpec()}, false)},
		{"marshal indented", mustMarshal(t, CreateProjectRequest{ID: "team-b", ProjectSpec: ProjectSpec{
			Condition: "n - o > 0.02 +/- 0.03", Reliability: 0.9999, Steps: 8, Classes: 4,
			Labels: pinLabels, ModelPredictions: pinPreds,
		}}, true)},
		{"escaped strings", `{"id":"team-c","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":$L,"classes":4,"model_predictions":$P,"model":"h\"0\\\/é\ud800<","email":"x","queue_capacity":2}`},
		{"mixed-case keys", `{"Id":"team-d","CONDITION":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":$L,"classes":4,"model_predictions":$P,"Extra":[1]}`},
		{"invalid UTF-8", "{\"id\":\"team-e\",\"condition\":\"n > 0.6 +/- 0.1\",\"reliability\":0.99,\"steps\":4,\"labels\":$L,\"classes\":4,\"model_predictions\":$P,\"model\":\"h\xff0\"}"},
	}
	for _, tc := range durable {
		transcribe(&out, "create "+tc.name, postH(d, projectsPath, createPinBody(tc.body)))
	}
	// A clean shutdown compacts the control log, so read it first.
	wal, err := os.ReadFile(filepath.Join(dir, controlDirName, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	checkGolden(t, filepath.Join("testdata", "create", "control-wal.log"), wal)

	d = newTestMulti(t, MultiOptions{DataDir: dir})
	defer d.Close()
	transcribe(&out, "listing after restart", doH(t, d, http.MethodGet, projectsPath, nil))
	for _, id := range []string{"team-a", "team-b", "team-c", "team-d", "team-e"} {
		transcribe(&out, id+" status after restart", doH(t, d, http.MethodGet, projectsPath+"/"+id+"/status", nil))
	}
	checkGolden(t, filepath.Join("testdata", "create", "restart.txt"), out.Bytes())
}

// benchCreateBody is a compact create body for an n-example, 4-class
// project under the served benchmark's condition for that size.
func benchCreateBody(b testing.TB, id string, n int) []byte {
	b.Helper()
	cond := "n - o > 0.02 +/- 0.03"
	if n > 5000 {
		cond = "d < 0.1 +/- 0.02 /\\ n - o > 0.02 +/- 0.02"
	}
	rng := rand.New(rand.NewSource(1))
	sp := ProjectSpec{Condition: cond, Reliability: 0.99, Steps: 32, Classes: testClasses,
		Labels: make([]int, n), ModelPredictions: make([]int, n)}
	for i := range sp.Labels {
		sp.Labels[i] = rng.Intn(testClasses)
		sp.ModelPredictions[i] = rng.Intn(testClasses)
	}
	body, err := json.Marshal(CreateProjectRequest{ID: id, ProjectSpec: sp})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkCreateProject times POST /api/v1/projects through the handler
// of an in-memory control plane: decode, validation, the stored spec and
// the tenant's engine. decoder=onepass sends the compact body a JSON
// encoder writes; decoder=encoding_json sends the same body with its
// "id" key spelled "ID", which encoding/json reads alike but the one-pass
// decoder hands to encoding/json. Each project is deleted off the clock.
func BenchmarkCreateProject(b *testing.B) {
	for _, n := range []int{5000, 100000} {
		for _, decoder := range []string{"onepass", "encoding_json"} {
			b.Run(fmt.Sprintf("n=%d/decoder=%s", n, decoder), func(b *testing.B) {
				body := benchCreateBody(b, "bench", n)
				if decoder == "encoding_json" {
					body = bytes.Replace(body, []byte(`{"id":`), []byte(`{"ID":`), 1)
				}
				g, _ := durableGenesis(b, 3, testSize)
				m, err := NewMulti(g, MultiOptions{Tenant: Options{Webhooks: notify.NewOutbox()}})
				if err != nil {
					b.Fatal(err)
				}
				defer m.Close()
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rec := postH(m, projectsPath, body)
					if rec.Code != http.StatusCreated {
						b.Fatalf("create status = %d: %s", rec.Code, rec.Body.String())
					}
					b.StopTimer()
					del := httptest.NewRecorder()
					m.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, projectsPath+"/bench", nil))
					if del.Code != http.StatusOK {
						b.Fatalf("delete status = %d: %s", del.Code, del.Body.String())
					}
					b.StartTimer()
				}
			})
		}
	}
}

// createDecodeCases are the create bodies the table test checks, beside
// the pinned ones, and the fuzzer starts from. canonical says whether the
// one-pass path must take the body itself rather than hand it to
// encoding/json. $L and $P are substituted as in createPinBodies.
var createDecodeCases = []struct {
	name      string
	body      string
	canonical bool
}{
	{"benchmark condition escaped", `{"id":"p","condition":"d < 0.1 +/- 0.02 /\\ n - o > 0.02 +/- 0.02","reliability":0.99,"steps":32,"labels":$L,"classes":4,"model_predictions":$P}`, true},
	{"all fourteen keys", `{"id":"p","condition":"c","reliability":0.5,"steps":1,"mode":"m","adaptivity":"a","email":"e","labels":[1],"classes":2,"model":"h","model_predictions":[0],"weight":1,"queue_capacity":2,"label_quota":3}`, true},
	{"key order", `{"model_predictions":[0],"labels":[1],"label_quota":-3,"id":"p","reliability":1}`, true},
	{"empty object", `{}`, true},
	{"only id", `{"id":"p"}`, true},
	{"empty arrays", `{"labels":[],"model_predictions":[ ]}`, true},
	{"spaced", " \t{ \"id\" : \"p\" ,\r\n \"labels\" : [ 1 , -2 ] }\n ", true},
	{"predictions first", `{"model_predictions":[1,2,3],"labels":[1,2,3,4,5]}`, true},
	{"predictions shorter", `{"labels":[1,2,3],"model_predictions":[1]}`, true},
	{"escaped quote at end", `{"id":"a\\"}`, true},
	{"escaped slash", `{"condition":"a\/b"}`, true},
	{"unicode escape", `{"condition":"\u00e9\u2028"}`, true},
	{"surrogate pair", `{"condition":"\ud83d\ude00"}`, true},
	{"lone low surrogate", `{"condition":"\udc00"}`, true},
	{"raw U+2028", "{\"condition\":\"a\u2028b\"}", true},
	{"invalid UTF-8", "{\"condition\":\"\xff\xfe\"}", true},
	{"truncated UTF-8", "{\"condition\":\"\xe2\x80\"}", true},
	{"DEL", "{\"condition\":\"\x7f\"}", true},
	{"bad unicode escape", `{"condition":"\uzzzz"}`, false},
	{"short unicode escape", `{"condition":"\u12"}`, false},
	{"bad escape", `{"condition":"\q"}`, false},
	{"unterminated escape", `{"condition":"a\"}`, false},
	{"backslash at end", `{"condition":"a\`, false},
	{"control byte", "{\"condition\":\"a\nb\"}", false},
	{"tab in string", "{\"condition\":\"a\tb\"}", false},
	{"escaped key", `{"\u0069d":"p"}`, false},
	{"reliability zero", `{"reliability":0}`, true},
	{"reliability negative zero", `{"reliability":-0}`, true},
	{"reliability negative", `{"reliability":-0.5}`, true},
	{"reliability exponent", `{"reliability":99e-2}`, true},
	{"reliability upper exponent", `{"reliability":9.9E-1}`, true},
	{"reliability plus exponent", `{"reliability":1e+2}`, true},
	{"reliability fraction and exponent", `{"reliability":1.5e3}`, true},
	{"reliability many digits", `{"reliability":0.98999999999999999999999999}`, true},
	{"reliability subnormal", `{"reliability":5e-324}`, true},
	{"reliability underflow", `{"reliability":1e-400}`, true},
	{"reliability max", `{"reliability":1.7976931348623157e308}`, true},
	{"reliability overflow", `{"reliability":1e400}`, false},
	{"reliability overflow negative", `{"reliability":-1e400}`, false},
	{"reliability leading zero", `{"reliability":01}`, false},
	{"reliability leading dot", `{"reliability":.5}`, false},
	{"reliability trailing dot", `{"reliability":1.}`, false},
	{"reliability plus", `{"reliability":+1}`, false},
	{"reliability bare minus", `{"reliability":-}`, false},
	{"reliability bare exponent", `{"reliability":1e}`, false},
	{"reliability signed bare exponent", `{"reliability":1e+}`, false},
	{"reliability hex", `{"reliability":0x1p-2}`, false},
	{"reliability underscore", `{"reliability":1_0}`, false},
	{"reliability Infinity", `{"reliability":Infinity}`, false},
	{"reliability NaN", `{"reliability":NaN}`, false},
	{"reliability string", `{"reliability":"0.5"}`, false},
	{"reliability null", `{"reliability":null}`, false},
	{"steps negative zero", `{"steps":-0}`, true},
	{"steps 18 digits", `{"steps":999999999999999999}`, true},
	{"steps 19 digits", `{"steps":1000000000000000000}`, false},
	{"steps leading zero", `{"steps":04}`, false},
	{"steps fraction", `{"steps":4.0}`, false},
	{"steps exponent", `{"steps":4e0}`, false},
	{"steps string", `{"steps":"4"}`, false},
	{"classes null", `{"classes":null}`, false},
	{"weight true", `{"weight":true}`, false},
	{"labels null", `{"labels":null}`, false},
	{"predictions null", `{"model_predictions":null}`, false},
	{"label leading zero", `{"labels":[01]}`, false},
	{"label fraction", `{"labels":[1.5]}`, false},
	{"labels trailing comma", `{"labels":[1,]}`, false},
	{"labels object", `{"labels":{}}`, false},
	{"id null", `{"id":null}`, false},
	{"id number", `{"id":7}`, false},
	{"mixed-case key", `{"Labels":[1]}`, false},
	{"upper id", `{"ID":"p"}`, false},
	{"duplicate id", `{"id":"a","id":"b"}`, false},
	{"duplicate labels", `{"labels":[1],"labels":[2,3]}`, false},
	{"duplicate reliability", `{"reliability":0.5,"reliability":0.9}`, false},
	{"unknown key", `{"id":"p","tags":[]}`, false},
	{"embedded struct name", `{"ProjectSpec":{"steps":1}}`, false},
	{"trailing data", `{"id":"p"} x`, false},
	{"trailing object", `{"id":"p"}{}`, false},
	{"truncated", `{"id":"p"`, false},
	{"null body", `null`, false},
	{"array body", `[]`, false},
	{"empty body", ``, false},
	{"BOM", "\xef\xbb\xbf{}", false},
}

// checkCreateMatchesJSON requires the create decoder to agree with
// encoding/json on body, accept or reject: the decoded request
// (reflect.DeepEqual, so nil and empty slices differ) and the error text.
// On every accepted body the stored spec appendJSON writes must be
// json.Marshal's bytes, and must decode back to the spec. The stored-spec
// decoder must agree with json.Unmarshal into a ProjectSpec.
func checkCreateMatchesJSON(t *testing.T, body []byte) {
	t.Helper()
	var want CreateProjectRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	// A stale value proves the decoder starts from the zero value.
	got := CreateProjectRequest{ID: "stale", ProjectSpec: ProjectSpec{Labels: []int{9}, Steps: 9, Email: "stale"}}
	gotErr := decodeCreateRequest(body, &got)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%q: error %q, encoding/json says %q", body, errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded %#v, encoding/json says %#v", body, got, want)
	}

	var wantSpec ProjectSpec
	wantSpecErr := json.Unmarshal(body, &wantSpec)
	gotSpec := ProjectSpec{Mode: "stale", ModelPredictions: []int{}}
	gotSpecErr := decodeProjectSpec(body, &gotSpec)
	if errText(gotSpecErr) != errText(wantSpecErr) || !reflect.DeepEqual(gotSpec, wantSpec) {
		t.Fatalf("%q: stored spec decoded %#v, %q; json.Unmarshal says %#v, %q", body, gotSpec, errText(gotSpecErr), wantSpec, errText(wantSpecErr))
	}

	if gotErr != nil {
		return
	}
	spec, err := got.ProjectSpec.appendJSON([]byte("prefix"))
	wantBytes, wantMarshalErr := json.Marshal(got.ProjectSpec)
	if errText(err) != errText(wantMarshalErr) {
		t.Fatalf("%q: appendJSON error %q, json.Marshal says %q", body, errText(err), errText(wantMarshalErr))
	}
	if err != nil {
		return
	}
	if !bytes.Equal(spec, append([]byte("prefix"), wantBytes...)) {
		t.Fatalf("%q: stored spec\n%s\njson.Marshal writes\n%s", body, spec, wantBytes)
	}
	var back ProjectSpec
	if err := decodeProjectSpec(wantBytes, &back); err != nil || !reflect.DeepEqual(back, got.ProjectSpec) {
		t.Fatalf("%q: stored spec %s decodes to %#v, %v; want %#v", body, wantBytes, back, err, got.ProjectSpec)
	}
}

func TestDecodeCreateRequestMatchesJSON(t *testing.T) {
	for _, tc := range createDecodeCases {
		t.Run(tc.name, func(t *testing.T) {
			body := createPinBody(tc.body)
			var req CreateProjectRequest
			if got := decodeCanonicalSpec(body, &req, true); got != tc.canonical {
				t.Errorf("canonical = %v, want %v", got, tc.canonical)
			}
			checkCreateMatchesJSON(t, body)
		})
	}
	for _, tc := range createPinBodies(t) {
		t.Run("pin/"+tc.name, func(t *testing.T) {
			checkCreateMatchesJSON(t, createPinBody(tc.body))
		})
	}
}

// TestDecodeCreateRequestLargeBodies covers the bodies the served path
// sees: compact and indented json.Marshal output of benchmark-sized
// specs, whose condition encoding/json escapes. Both are read in one
// pass, and the stored spec too; the second array is sized from the
// first.
func TestDecodeCreateRequestLargeBodies(t *testing.T) {
	for _, n := range []int{5000, 100000} {
		compact := benchCreateBody(t, "big", n)
		var req CreateProjectRequest
		if err := json.Unmarshal(compact, &req); err != nil {
			t.Fatal(err)
		}
		indented := []byte(mustMarshal(t, req, true))
		for _, body := range [][]byte{compact, indented} {
			var got CreateProjectRequest
			if !decodeCanonicalSpec(body, &got, true) {
				t.Fatalf("n=%d: body of %d bytes not canonical", n, len(body))
			}
			if cap(got.ModelPredictions) != n {
				t.Fatalf("n=%d: predictions column has capacity %d", n, cap(got.ModelPredictions))
			}
			checkCreateMatchesJSON(t, body)
			spec, err := got.ProjectSpec.appendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !decodeCanonicalSpec(spec, &got, false) {
				t.Fatalf("n=%d: stored spec not canonical", n)
			}
		}
	}
}

func FuzzDecodeCreateRequest(f *testing.F) {
	for _, tc := range createDecodeCases {
		f.Add(createPinBody(tc.body))
	}
	for _, tc := range createPinBodies(f) {
		f.Add(createPinBody(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkCreateMatchesJSON(t, body)
	})
}
