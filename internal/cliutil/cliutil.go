// Package cliutil holds flag-parsing helpers shared by the command-line
// tools.
package cliutil

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/mem"
)

// ParseNVM builds an NVM device spec from the CLI syntax:
//
//	bw:<frac>   DRAM throttled to the fraction's bandwidth (0 < frac <= 1)
//	lat:<mult>  DRAM latency scaled by the multiplier (>= 1)
//	optane | pcram | sttram | reram
func ParseNVM(s string) (mem.DeviceSpec, error) {
	switch s {
	case "optane":
		return mem.OptanePM(), nil
	case "pcram":
		return mem.PCRAM(), nil
	case "sttram":
		return mem.STTRAM(), nil
	case "reram":
		return mem.ReRAM(), nil
	}
	if v, ok := strings.CutPrefix(s, "bw:"); ok {
		f, err := parseFinite(v)
		if err != nil || f <= 0 || f > 1 {
			return mem.DeviceSpec{}, fmt.Errorf("bad bandwidth fraction %q", v)
		}
		return mem.NVMBandwidth(f), nil
	}
	if v, ok := strings.CutPrefix(s, "lat:"); ok {
		f, err := parseFinite(v)
		if err != nil || f < 1 {
			return mem.DeviceSpec{}, fmt.Errorf("bad latency multiplier %q", v)
		}
		return mem.NVMLatency(f), nil
	}
	return mem.DeviceSpec{}, fmt.Errorf("unknown NVM spec %q (want bw:<frac>, lat:<mult>, optane, pcram, sttram or reram)", s)
}

// parseFinite is strconv.ParseFloat restricted to finite values: the
// spellings "NaN" and "Inf" parse, but no spec value means either.
func parseFinite(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("non-finite value %q", s)
	}
	return f, err
}
