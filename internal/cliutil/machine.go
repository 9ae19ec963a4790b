package cliutil

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/feedback"
	"repro/internal/mem"
	"repro/internal/prof"
)

// MachineSpec is the shared machine description: the `-nvm`/`-dram`/
// `-cxl` CLI flags and the serve daemon's JSON request schema both fill
// one, so a spec string means the same thing typed at a shell and posted
// over HTTP. The zero value selects the experiment-wide default machine
// (128 MB DRAM in front of an NVM at half bandwidth).
type MachineSpec struct {
	// NVM is the slow device spec: bw:<frac>, lat:<mult>, optane, pcram,
	// sttram or reram ("" = bw:0.5).
	NVM string `json:"nvm,omitempty"`
	// DRAMMB is the fast tier's capacity in MB (0 = 128).
	DRAMMB int64 `json:"dram_mb,omitempty"`
	// CXLMB, when positive, inserts a CXL-attached DRAM expander between
	// local DRAM and the NVM, making the machine three-tier.
	CXLMB int64 `json:"cxl_mb,omitempty"`
}

// withDefaults resolves the zero-value fields.
func (m MachineSpec) withDefaults() MachineSpec {
	if m.NVM == "" {
		m.NVM = "bw:0.5"
	}
	if m.DRAMMB == 0 {
		m.DRAMMB = 128
	}
	return m
}

// String renders the spec in canonical key=value form (used in cache
// keys, logs and error messages).
func (m MachineSpec) String() string {
	m = m.withDefaults()
	if m.CXLMB > 0 {
		return "nvm=" + m.NVM + ",dram=" + strconv.FormatInt(m.DRAMMB, 10) + ",cxl=" + strconv.FormatInt(m.CXLMB, 10)
	}
	return "nvm=" + m.NVM + ",dram=" + strconv.FormatInt(m.DRAMMB, 10)
}

// Build constructs the machine the spec describes.
func (m MachineSpec) Build() (mem.HMS, error) {
	m = m.withDefaults()
	dev, err := ParseNVM(m.NVM)
	if err != nil {
		return mem.HMS{}, err
	}
	if m.DRAMMB < 0 || m.CXLMB < 0 {
		return mem.HMS{}, fmt.Errorf("cliutil: negative capacity in machine spec %s", m)
	}
	// Larger capacities would wrap when scaled to bytes.
	const maxMB = math.MaxInt64 / mem.MB
	if m.DRAMMB > maxMB {
		return mem.HMS{}, fmt.Errorf("cliutil: dram_mb %d exceeds the largest capacity, %d MB", m.DRAMMB, maxMB)
	}
	if m.CXLMB > maxMB {
		return mem.HMS{}, fmt.Errorf("cliutil: cxl_mb %d exceeds the largest capacity, %d MB", m.CXLMB, maxMB)
	}
	if m.CXLMB > 0 {
		return mem.NewTieredHMS(
			mem.TierSpec{Device: dev, Capacity: 1 << 44},
			mem.TierSpec{Device: mem.CXL(), Capacity: m.CXLMB * mem.MB},
			mem.TierSpec{Device: mem.DRAM(), Capacity: m.DRAMMB * mem.MB},
		), nil
	}
	return mem.NewHMS(mem.DRAM(), dev, m.DRAMMB*mem.MB), nil
}

// MachineFlags registers the shared -nvm/-dram/-cxl flags on fs and
// returns the spec they fill in after fs.Parse.
func MachineFlags(fs *flag.FlagSet) *MachineSpec {
	m := &MachineSpec{}
	fs.StringVar(&m.NVM, "nvm", "bw:0.5", "NVM device: bw:<frac>, lat:<mult>, optane, pcram, sttram, reram")
	fs.Int64Var(&m.DRAMMB, "dram", 128, "DRAM capacity in MB")
	fs.Int64Var(&m.CXLMB, "cxl", 0, "CXL middle-tier capacity in MB (0 = classic two-tier machine)")
	return m
}

// ParseFeedback overlays the shared -feedback spec onto a feedback
// configuration: "on" enables the observed-vs-predicted correction loop,
// whose estimator constants are fixed (see internal/feedback). ""
// returns cfg unchanged, so callers can pass the flag through
// unconditionally.
func ParseFeedback(s string, cfg feedback.Config) (feedback.Config, error) {
	switch strings.TrimSpace(s) {
	case "":
		return cfg, nil
	case "on":
		cfg.Enabled = true
		return cfg, nil
	}
	return cfg, fmt.Errorf("bad feedback spec %q (want \"on\" or empty; the estimator constants are not configurable)", s)
}

// ParseSampling overlays the shared -sampling spec onto a profiler
// configuration: a comma-separated list of
//
//	interval=<N>  sampling interval in accesses per sample
//	jitter=<F>    relative noise magnitude at one expected sample
//	seed=<N>      noise stream seed
//	window=<N>    profiling window in executions per kind
//	adaptive      enable margin-driven adaptive sampling
//
// "" returns cfg unchanged, so callers can pass the flag through
// unconditionally.
func ParseSampling(s string, cfg prof.Config) (prof.Config, error) {
	if s == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "adaptive" {
			cfg.Adaptive = true
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return cfg, fmt.Errorf("bad sampling option %q (want key=value or adaptive)", part)
		}
		switch k {
		case "interval":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n <= 0 {
				return cfg, fmt.Errorf("bad sampling interval %q", v)
			}
			cfg.SamplingInterval = n
		case "jitter":
			f, err := parseFinite(v)
			if err != nil || f < 0 {
				return cfg, fmt.Errorf("bad sampling jitter %q", v)
			}
			cfg.Jitter = f
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("bad sampling seed %q", v)
			}
			cfg.Seed = n
		case "window":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return cfg, fmt.Errorf("bad sampling window %q", v)
			}
			cfg.Window = n
		default:
			return cfg, fmt.Errorf("unknown sampling option %q", k)
		}
	}
	return cfg, nil
}
