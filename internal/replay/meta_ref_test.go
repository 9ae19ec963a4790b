package replay

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// metaRec is the header record as encoding/json wrote and read it before
// the header moved to the wire codec, kept as the oracle of
// TestMetaMatchesEncodingJSON.
type metaRec struct {
	K        string `json:"k"` // always "meta"
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	Workers  int    `json:"workers"`
	Tasks    int    `json:"tasks"`
	Faults   string `json:"faults,omitempty"`
}

// metaPieces cover every string rendering path: plain ASCII, the HTML
// escapes, quote and backslash, control bytes, multi-byte UTF-8,
// U+2028, invalid UTF-8 and the fault spec syntax.
var metaPieces = []string{
	"", "cholesky", "Tahoe", "rate=8,seed=7,horizon=0.3", "<", ">", "&", `"`, `\`,
	"\n", "\x00", "\x7f", "é", " ", "\xff", " ", "{}", `,"k":"x"`,
}

func randMetaString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(3); n > 0; n-- {
		b.WriteString(metaPieces[rng.Intn(len(metaPieces))])
	}
	return b.String()
}

func randMetaInt(rng *rand.Rand) int {
	switch rng.Intn(3) {
	case 0:
		return rng.Intn(64)
	case 1:
		return -rng.Intn(64)
	}
	return int(rng.Uint64())
}

// TestMetaMatchesEncodingJSON: on random headers, empty fault specs and
// strings that need escapes included, appendLine writes exactly what
// json.Marshal wrote, and parseMeta decodes those bytes, and a
// whitespace-padded reordering of them, as json.Unmarshal does.
func TestMetaMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var empty int
	for i := 0; i < 5000; i++ {
		m := Meta{
			Workload: randMetaString(rng), Policy: randMetaString(rng),
			Workers: randMetaInt(rng), Tasks: randMetaInt(rng), Faults: randMetaString(rng),
		}
		if m.Faults == "" {
			empty++
		}
		want, err := json.Marshal(metaRec{K: metaKind, Workload: m.Workload, Policy: m.Policy,
			Workers: m.Workers, Tasks: m.Tasks, Faults: m.Faults})
		if err != nil {
			t.Fatal(err)
		}
		got := m.appendLine(nil)
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("header %d: wrote %s\nencoding/json wrote %s", i, got, want)
		}
		var ref metaRec
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		refMeta := Meta{Workload: ref.Workload, Policy: ref.Policy, Workers: ref.Workers, Tasks: ref.Tasks, Faults: ref.Faults}
		// The same fields, last first, with whitespace around every token.
		var shuffled bytes.Buffer
		shuffled.WriteString(" {\t")
		fields := bytes.Split(want[1:len(want)-1], []byte(`,"`))
		for j := len(fields) - 1; j >= 0; j-- {
			f := fields[j]
			if j > 0 {
				f = append([]byte(`"`), f...)
			}
			shuffled.Write(bytes.Replace(f, []byte(`":`), []byte(`" : `), 1))
			if j > 0 {
				shuffled.WriteString(" ,\r\n")
			}
		}
		shuffled.WriteString("} \r")
		for _, in := range [][]byte{got[:len(got)-1], shuffled.Bytes()} {
			dec, err := parseMeta(in)
			if err != nil {
				t.Fatalf("header %d: %v\n%s", i, err, in)
			}
			if !reflect.DeepEqual(dec, refMeta) {
				t.Fatalf("header %d: decoded %+v\nencoding/json decoded %+v\n%s", i, dec, refMeta, in)
			}
		}
	}
	if empty == 0 || empty == 5000 {
		t.Fatalf("%d of 5000 headers have no fault spec; the draw misses a path", empty)
	}
}
