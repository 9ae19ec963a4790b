package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestIndexedMatchesSprintf: indexed renders exactly what fmt.Sprintf
// renders for the "%s[%d]…" forms the builders used, extremes included.
func TestIndexedMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ints := []int{0, 1, -1, 9, 10, 99, 100, math.MaxInt, math.MinInt}
	pick := func() int {
		if rng.Intn(2) == 0 {
			return ints[rng.Intn(len(ints))]
		}
		return rng.Intn(1 << 20)
	}
	for _, prefix := range []string{"", "A", "U0", "pts", "a-very-long-object-name-that-outgrows-the-stack-buffer"} {
		for n := 0; n < 200; n++ {
			i, j := pick(), pick()
			if got, want := indexed(prefix, i), fmt.Sprintf("%s[%d]", prefix, i); got != want {
				t.Fatalf("indexed(%q, %d) = %q, want %q", prefix, i, got, want)
			}
			if got, want := indexed(prefix, i, j), fmt.Sprintf("%s[%d][%d]", prefix, i, j); got != want {
				t.Fatalf("indexed(%q, %d, %d) = %q, want %q", prefix, i, j, got, want)
			}
		}
	}
}

// nameDigests pins the graph and object names of every registered
// workload at scales 1, 2, 3, 5, 8 and its default (those its MaxScale
// admits), and of every rank of the distributed heat and cg
// decompositions over 1 to 4 ranks at scales 1, 3 and the default. The
// digests were computed from the builders when they named everything
// with fmt.Sprintf.
var nameDigests = map[string]string{
	"bfs":       "83d763e6e5036517",
	"cg":        "49e45c35835d8f0b",
	"cg@rank":   "18bb50b751d41b7d",
	"cholesky":  "86f7d4481a69865c",
	"fft":       "a8df637f2413bc25",
	"heat":      "1a8bb3a2d3f18e76",
	"heat@rank": "ab7f64fff144f798",
	"kmeans":    "8e924eabdf2d4d75",
	"lu":        "04e38a27e443af7b",
	"nqueens":   "38147b7c949c73bd",
	"pagerank":  "31aa0de982a05b5f",
	"pchase":    "e8e56a55fe364045",
	"qr":        "1891f7b90703b9c7",
	"sort":      "164afbf3e44052cb",
	"sparselu":  "65d45a27ff0a8f6f",
	"strassen":  "aed3a5ea00f212cd",
	"stream":    "02c11ec512d143b3",
	"wave":      "1eed8154f2ef77b3",
}

// TestNamesMatchSprintfForms: every builder names its graph and objects
// byte for byte as it did through fmt.Sprintf.
func TestNamesMatchSprintfForms(t *testing.T) {
	got := map[string]string{}
	digest := func(key string, graphs func(add func(Built))) {
		h := sha256.New()
		graphs(func(b Built) {
			fmt.Fprintln(h, b.Graph.Name)
			for _, o := range b.Graph.Objects {
				fmt.Fprintln(h, o.Name)
			}
		})
		got[key] = hex.EncodeToString(h.Sum(nil))[:16]
	}
	for _, s := range All() {
		digest(s.Name, func(add func(Built)) {
			for _, scale := range []int{1, 2, 3, 5, 8, 0} {
				if s.CheckScale(scale) == nil {
					add(s.Build(Params{Scale: scale}))
				}
			}
		})
	}
	for _, name := range []string{"heat", "cg"} {
		d, err := DistributedByName(name)
		if err != nil {
			t.Fatal(err)
		}
		digest(name+"@rank", func(add func(Built)) {
			for _, scale := range []int{1, 3, 0} {
				for ranks := 1; ranks <= 4; ranks++ {
					for rank := 0; rank < ranks; rank++ {
						add(d.BuildRank(rank, ranks, Params{Scale: scale}))
					}
				}
			}
		})
	}
	if len(got) != len(nameDigests) {
		t.Errorf("digested %d workloads, pinned %d", len(got), len(nameDigests))
	}
	for name, want := range nameDigests {
		if got[name] != want {
			t.Errorf("%s: names digest %s, want %s", name, got[name], want)
		}
	}
}
