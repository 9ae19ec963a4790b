package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// encoding/json is the reference the /v1/run codec is checked against:
// json.Unmarshal decodes every body DecodeRequest accepts to the same
// RunRequest (it also accepts the lenient forms DecodeRequest refuses),
// and json.Encoder.Encode fixes the bytes of every answer.

// apiError is the error body of a refused /v1/run request, the value
// appendError's bytes are checked against.
type apiError struct {
	Error string `json:"error"`
}

// Floats at and around encoding/json's format cutoffs, the extremes and
// the non-finite values it refuses.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 123456789.123, 5e-324,
	math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

// String pieces covering every rendering path: plain ASCII, the HTML
// escapes, quote and backslash, control bytes, DEL, multi-byte UTF-8,
// U+2028/U+2029, invalid UTF-8 and an encoded surrogate.
var stringPieces = []string{
	"", "a", "heat", "tahoe", " ", "/", "<", ">", "&", `"`, `\`, "\n", "\t", "\x00", "\x1f",
	"\x7f", "é", "日本", " ", " ", "\xff", "\xed\xa0\x80", "\U0001F600",
}

func randFloat(rng *rand.Rand, finite bool) float64 {
	for {
		var x float64
		switch rng.Intn(4) {
		case 0:
			x = math.Float64frombits(rng.Uint64())
		case 1:
			x = edgeFloats[rng.Intn(len(edgeFloats))]
		case 2:
			x = float64(rng.Intn(1000)) * rng.Float64()
		default:
			x = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		if !finite || !(math.IsNaN(x) || math.IsInf(x, 0)) {
			return x
		}
	}
}

func randString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(4); n > 0; n-- {
		b.WriteString(stringPieces[rng.Intn(len(stringPieces))])
	}
	return b.String()
}

func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return int64(rng.Intn(64)) - 8
	case 2:
		return []int64{math.MaxInt64, math.MinInt64, 1 << 53, -1 << 53}[rng.Intn(4)]
	}
	return rng.Int63() - rng.Int63()
}

// randRequest draws a request of any field values, with an inline graph
// half the time; its slices are nil, empty or filled.
func randRequest(rng *rand.Rand) RunRequest {
	r := RunRequest{
		Tenant: randString(rng), Workload: randString(rng), Scale: int(randInt(rng)),
		Policy: randString(rng), Scheduler: randString(rng),
		Workers: int(randInt(rng)), Lookahead: int(randInt(rng)),
		Faults: randString(rng), Feedback: randString(rng),
		NoCalibrate: rng.Intn(2) == 0, Trace: rng.Intn(2) == 0,
	}
	r.Machine.NVM, r.Machine.DRAMMB, r.Machine.CXLMB = randString(rng), randInt(rng), randInt(rng)
	if rng.Intn(2) == 0 {
		return r
	}
	g := &GraphSpec{Name: randString(rng)}
	if n := rng.Intn(5) - 1; n >= 0 {
		g.Objects = make([]ObjectSpec, n)
	}
	for i := range g.Objects {
		g.Objects[i] = ObjectSpec{Name: randString(rng), Size: randInt(rng), NoChunk: rng.Intn(2) == 0}
	}
	if n := rng.Intn(6) - 1; n >= 0 {
		g.Tasks = make([]TaskSpec, n)
	}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		t.Kind, t.CPUSec = randString(rng), randFloat(rng, true)
		if n := rng.Intn(4) - 1; n >= 0 {
			t.Accesses = make([]AccessSpec, n)
		}
		for k := range t.Accesses {
			t.Accesses[k] = AccessSpec{
				Obj: int(randInt(rng)), Mode: randString(rng),
				Loads: randInt(rng), Stores: randInt(rng), MLP: randFloat(rng, true),
			}
		}
	}
	r.Graph = g
	return r
}

// TestDecodeRoundTrip: every request json.Marshal writes, inline graphs
// included, decodes exactly as json.Unmarshal decodes it.
func TestDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 5000; i++ {
		req := randRequest(rng)
		b, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		var got, want RunRequest
		if err := DecodeRequest(b, &got); err != nil {
			t.Fatalf("request %d: %v\n%s", i, err, b)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d decoded %+v\nencoding/json decoded %+v\n%s", i, got, want, b)
		}
	}
}

// TestDecodeAgreesOnCanonicalBodies: hand-written bodies, in the forms a
// client writes by hand (whitespace, key order, escapes, exponents, -0,
// empty arrays), decode as encoding/json decodes them.
func TestDecodeAgreesOnCanonicalBodies(t *testing.T) {
	for _, body := range []string{
		`{}`,
		` {"workload":"heat"} `,
		"\n{\t\"workload\" : \"heat\" ,\r\n \"scale\":5}\n",
		`{"tenant":"demo","workload":"heat","scale":5,"policy":"tahoe","machine":{"nvm":"bw:0.5","dram_mb":128},"trace":true}`,
		`{"machine":{},"no_calibrate":false,"trace":false,"scale":-0}`,
		`{"workload":"héat","tenant":"😀 \"q\" \\ \/","policy":"<&>"}`,
		`{"graph":{"name":"g","objects":[{"size":64,"no_chunk":true},{"name":"b","size":1}],` +
			`"tasks":[{"kind":"k","cpu_sec":1e-4,"accesses":[{"obj":0,"mode":"in","loads":1,"mlp":2.5E0}]},` +
			`{"kind":"k","accesses":[]},{"kind":"j","cpu_sec":-0,"accesses":null},{"kind":"j"}]}}`,
		`{"graph":{"objects":[],"tasks":null}}`,
		`{"graph":{}}`,
	} {
		var got, want RunRequest
		if err := DecodeRequest([]byte(body), &got); err != nil {
			t.Errorf("%s: %v", body, err)
			continue
		}
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v\nencoding/json decoded %+v", body, got, want)
		}
	}
}

// TestDecodeRefuses pins the bodies DecodeRequest refuses. The lenient
// ones are accepted by encoding/json; the rest it refuses as well.
func TestDecodeRefuses(t *testing.T) {
	for _, tc := range []struct {
		body    string
		lenient bool // encoding/json accepts it
	}{
		{`{"workload":"heat","bogus":1}`, true},
		{`{"workload":"heat","machine":{"nvm":"optane","gpu":1}}`, true},
		{`{"Workload":"heat"}`, true},
		{`{"workload":"heat","SCALE":4}`, true},
		{`{"workload":"heat","workload":"heat"}`, true},
		{`{"workload":"heat","graph":{"objects":[{"size":1,"size":2}]}}`, true},
		{`null`, true},
		{`{"workload":"heat","policy":null}`, true},
		{`{"workload":"heat","graph":null}`, true},
		{`{"workload":"heat","machine":null}`, true},
		{`{"graph":{"objects":[null]}}`, true},
		{`{"workload":"heat"} {"workload":"heat"}`, false},
		{`{"workload":"heat"}x`, false},
		{`{"workload":"heat","scale":9223372036854775808}`, false},
		{`{"workload":"heat","scale":4.0}`, false},
		{`{"workload":"heat","scale":1e2}`, false},
		{`{"workload":"heat","machine":{"dram_mb":-9223372036854775809}}`, false},
		{`{"graph":{"tasks":[{"cpu_sec":1e400}]}}`, false},
		{``, false},
		{`{`, false},
		{`{"workload":"heat",}`, false},
		{`{"workload":"heat" "scale":4}`, false},
		{`{"scale":01}`, false},
		{`{"scale":-}`, false},
		{`{"trace":tru}`, false},
		{`{"trace":"true"}`, false},
		{`{"workload":"a` + "\x01" + `"}`, false},
		{`[{"workload":"heat"}]`, false},
		{`"heat"`, false},
	} {
		var req RunRequest
		err := DecodeRequest([]byte(tc.body), &req)
		if err == nil {
			t.Errorf("%q: accepted, want an error", tc.body)
		}
		var ref RunRequest
		if refErr := json.Unmarshal([]byte(tc.body), &ref); (refErr == nil) != tc.lenient {
			t.Errorf("%q: encoding/json error %v, want lenient=%v", tc.body, refErr, tc.lenient)
		}
	}
}

// randResponse draws a response of any field values, non-finite floats
// included.
func randResponse(rng *rand.Rand) RunResponse {
	return RunResponse{
		ID: rng.Uint64() >> uint(rng.Intn(64)), Tenant: randString(rng), Workload: randString(rng),
		Policy: randString(rng), Machine: randString(rng), TimeSec: randFloat(rng, rng.Intn(8) > 0),
		Tasks: int(randInt(rng)), Migrations: int(randInt(rng)), BytesMoved: randInt(rng),
		Replans: int(randInt(rng)), PlanKind: randString(rng), EnergyJ: randFloat(rng, rng.Intn(8) > 0),
		FaultEvents: int(randInt(rng)), Quarantines: int(randInt(rng)), Readmits: int(randInt(rng)),
		FeedbackCorrections: int(randInt(rng)), FeedbackReplans: int(randInt(rng)),
		Degraded: rng.Intn(2) == 0, TraceEvents: int(randInt(rng)), TraceSHA256: randString(rng),
		WaitMS: randFloat(rng, rng.Intn(8) > 0), RunMS: randFloat(rng, rng.Intn(8) > 0),
		Error: randString(rng),
	}
}

// TestAppendResponseMatchesEncoder: on random responses AppendResponse
// writes exactly the bytes json.Encoder.Encode writes, and fails exactly
// when it does (on a non-finite float, where it writes nothing); error
// bodies match too.
func TestAppendResponseMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var failed int
	for i := 0; i < 20000; i++ {
		r := randResponse(rng)
		var want bytes.Buffer
		refErr := json.NewEncoder(&want).Encode(&r)
		got, err := AppendResponse(nil, &r)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("response %d: error %v, encoding/json error %v", i, err, refErr)
		}
		if err != nil {
			failed++
			if want.Len() != 0 || len(got) != 0 {
				t.Fatalf("response %d: a failed encode wrote %q, encoding/json %q", i, got, want.Bytes())
			}
			continue
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("response %d: bytes differ:\n%s\nencoding/json:\n%s", i, got, want.Bytes())
		}

		msg := randString(rng)
		want.Reset()
		if err := json.NewEncoder(&want).Encode(apiError{Error: msg}); err != nil {
			t.Fatal(err)
		}
		if got := appendError(nil, msg); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("error %q: bytes differ:\n%s\nencoding/json:\n%s", msg, got, want.Bytes())
		}
	}
	if failed == 0 || failed == 20000 {
		t.Fatalf("%d of 20000 responses failed to encode; the draw misses a path", failed)
	}
}

// FuzzRunRequest: DecodeRequest never panics; whatever it accepts,
// encoding/json accepts too and decodes to an equal RunRequest; the
// accepted request survives json.Marshal and a second decode unchanged;
// and Resolve, which builds nothing, never panics on it.
func FuzzRunRequest(f *testing.F) {
	for _, body := range []string{
		`{"tenant":"bench","workload":"heat","scale":5,"policy":"tahoe","machine":{"nvm":"bw:0.5","dram_mb":128},"feedback":"on","trace":true}`,
		`{"tenant":"bench","graph":{"name":"inline7","objects":[{"size":1048576},{"size":2097152,"no_chunk":true}],` +
			`"tasks":[{"kind":"k0","cpu_sec":0.0011,"accesses":[{"obj":0,"mode":"inout","loads":9,"stores":3,"mlp":4}]}]},` +
			`"policy":"tahoe","machine":{"nvm":"optane","dram_mb":64,"cxl_mb":96}}`,
		`{"workload":"héat","scale":-0,"graph":{"objects":[],"tasks":null}}`,
		`{"Workload":"heat","workload":null}`,
		`{"workload":"heat","scale":2000000,"policy":"nvm"}`,
		`{"workload":"nqueens","scale":171}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var got RunRequest
		if err := DecodeRequest(in, &got); err != nil {
			return
		}
		var want RunRequest
		if err := json.Unmarshal(in, &want); err != nil {
			t.Fatalf("accepted input encoding/json rejects: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v\nencoding/json decoded %+v", got, want)
		}
		b, err := json.Marshal(&got)
		if err != nil {
			t.Fatal(err)
		}
		var back RunRequest
		if err := DecodeRequest(b, &back); err != nil {
			t.Fatalf("re-decode: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("re-decoded %+v\nwant %+v", back, got)
		}
		_, _ = got.Resolve()
	})
}
