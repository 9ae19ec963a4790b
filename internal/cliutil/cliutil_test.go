package cliutil

import "testing"

func TestParseNVMPresets(t *testing.T) {
	for name, want := range map[string]string{
		"optane": "OptanePM",
		"pcram":  "PCRAM",
		"sttram": "STT-RAM",
		"reram":  "ReRAM",
	} {
		d, err := ParseNVM(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Name != want {
			t.Fatalf("%s -> %s, want %s", name, d.Name, want)
		}
	}
}

func TestParseNVMScaled(t *testing.T) {
	d, err := ParseNVM("bw:0.25")
	if err != nil {
		t.Fatal(err)
	}
	if d.ReadBW != 2.5e9 {
		t.Fatalf("bw:0.25 read bandwidth = %g", d.ReadBW)
	}
	d, err = ParseNVM("lat:8")
	if err != nil {
		t.Fatal(err)
	}
	if d.ReadLatNS != 80 {
		t.Fatalf("lat:8 read latency = %g", d.ReadLatNS)
	}
}

func TestParseNVMErrors(t *testing.T) {
	for _, bad := range []string{
		"", "dax", "bw:", "bw:0", "bw:1.5", "bw:x", "lat:", "lat:0.5", "lat:y",
		"bw:NaN", "bw:Inf", "lat:NaN", "lat:Inf", "lat:+Inf",
	} {
		if _, err := ParseNVM(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}
