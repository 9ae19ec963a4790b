package tahoe

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/suite-*.golden from this tree's output")

// TestSuiteGolden pins the rendered experiment suite, quick and full,
// byte for byte: the golden files are exactly what `tahoe-bench -quick`
// and `tahoe-bench` print. A change meant to leave every table alone must
// pass it unchanged; a change meant to move numbers regenerates the files
// with `go test -run TestSuiteGolden -update .` and says so. The tables
// print rounded figures, but a last-bit move can still flip a digit, and
// Go fuses multiply-adds on some architectures, so the pins hold on amd64
// only, like internal/core's TestGoldenRuns.
func TestSuiteGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("suite tables are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, c := range []struct {
		name string
		opt  ExpOptions
	}{
		{"quick", ExpOptions{Quick: true}},
		{"full", ExpOptions{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := RunAllExperiments(&got, c.opt); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "suite-"+c.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := range min(len(gl), len(wl)) {
				if gl[i] != wl[i] {
					t.Fatalf("%s differs first at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
		})
	}
}
