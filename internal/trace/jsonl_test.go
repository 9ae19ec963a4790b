package trace

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/task"
)

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
	"", "a", "potrf", " ", "/", "<", ">", "&", `"`, `\`, "\n", "\t", "\x00", "\x1f",
	"\x7f", "é", "日本", " ", " ", "\xff", "\xed\xa0\x80", "\U0001F600",
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return math.Float64frombits(rng.Uint64())
	case 1:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 2:
		return float64(rng.Intn(1000)) * rng.Float64()
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
}

func randString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(4); n > 0; n-- {
		b.WriteString(stringPieces[rng.Intn(len(stringPieces))])
	}
	return b.String()
}

func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return int64(rng.Intn(64)) - 8
	}
	return rng.Int63() - rng.Int63()
}

// randTrace draws a trace of any kinds (out-of-range ones included),
// tiers, strings, integers and float bit patterns. Every 50th trace is
// long enough to cross WriteJSONL's flush threshold several times.
func randTrace(rng *rand.Rand, i int) *Trace {
	n := rng.Intn(8)
	if i%50 == 0 {
		n = 300
	}
	tr := &Trace{}
	for j := 0; j < n; j++ {
		tr.Add(Event{
			Time: randFloat(rng), Kind: Kind(rng.Intn(len(kindNames)+2) - 1),
			Task: task.TaskID(randInt(rng)), TaskKind: randString(rng), Worker: int(randInt(rng)),
			Obj: task.ObjectID(randInt(rng)), Chunk: int(randInt(rng)),
			To: mem.Tier(rng.Intn(mem.MaxTiers+3) - 1), Bytes: randInt(rng),
			OK: rng.Intn(2) == 0, Label: randString(rng),
		})
	}
	for j := rng.Intn(4); j > 0; j-- {
		tr.AddDispatch(Dispatch{Time: randFloat(rng), Task: task.TaskID(randInt(rng)), Worker: int(randInt(rng))})
	}
	return tr
}

// TestWriteJSONLMatchesReference: on random traces WriteJSONL writes
// exactly the bytes encoding/json writes, and fails exactly when it
// does (on a non-finite time).
func TestWriteJSONLMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var failed int
	for i := 0; i < 20000; i++ {
		tr := randTrace(rng, i)
		var got, want bytes.Buffer
		err := tr.WriteJSONL(&got)
		refErr := RefWriteJSONL(tr, &want)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("trace %d: error %v, encoding/json error %v", i, err, refErr)
		}
		if err != nil {
			failed++
			continue
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trace %d: wire bytes differ:\n%s\nencoding/json:\n%s", i, got.Bytes(), want.Bytes())
		}
	}
	if failed == 0 || failed == 20000 {
		t.Fatalf("%d of 20000 traces failed to encode; the draw misses a path", failed)
	}
}

// FuzzReadJSONL: ReadJSONL never panics; whatever it accepts,
// encoding/json accepts too and decodes to an equal Trace; and the
// accepted Trace survives a write and a read unchanged.
func FuzzReadJSONL(f *testing.F) {
	tr := failedSample()
	tr.AddDispatch(Dispatch{Time: 1, Task: 2, Worker: 1})
	tr.Add(Event{Time: 3e-7, Kind: FaultInject, To: 2, Label: "degrade"})
	var seed bytes.Buffer
	if err := tr.WriteJSONL(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := ReadJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		want, err := RefReadJSONL(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("accepted input encoding/json rejects: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v\nencoding/json decoded %+v", got, want)
		}
		var out bytes.Buffer
		if err := got.WriteJSONL(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(&out)
		if err != nil {
			t.Fatalf("re-read: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("re-read %+v\nwant %+v", back, got)
		}
	})
}
