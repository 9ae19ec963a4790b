#!/bin/sh
# bench-compare.sh — run the simulator-core benchmarks and compare ns/op
# and allocs/op against the recorded baseline in BENCH_SIM.json. Exits
# non-zero if any benchmark regresses by more than the baseline's
# threshold_pct; a benchmark whose alloc baseline is 0 must stay at 0.
#
# Usage:  scripts/bench-compare.sh [benchtime]     (default 20x)
set -eu

cd "$(dirname "$0")/.."
benchtime="${1:-20x}"

# Replay determinism smoke: record → save → load → replay must be
# bit-identical before timing anything — on the classic two-tier machine,
# on the three-tier DRAM+CXL+NVM machine E18 sweeps, and under an
# injected fault schedule (the schedule rides in the recording's
# metadata and must reproduce the faulty run exactly).
go run ./cmd/tahoe-replay -check -workload cg
go run ./cmd/tahoe-replay -check -workload heat -cxl 64 -dram 32
go run ./cmd/tahoe-replay -check -workload cg -faults "rate=8,seed=7,horizon=0.3"

out="$(go test -run '^$' \
  -bench 'BenchmarkSimEngineContention|BenchmarkSimEngineManyFlows|BenchmarkE4_MainComparisonBW|BenchmarkExperimentSuiteQuick|BenchmarkPlannerGlobal$|BenchmarkPlannerLocal$|BenchmarkPlannerReplan$|BenchmarkPlannerLevel$|BenchmarkKnapsackDP$|BenchmarkTraceRecord$|BenchmarkTraceJSONL$|BenchmarkChaosSuite$|BenchmarkServeThroughput$|BenchmarkProfilerRecord$|BenchmarkE20_ProfNoiseRegret$|BenchmarkE21_Feedback$|BenchmarkE22_ClusterFaults$|BenchmarkClusterFailover$|BenchmarkFeedbackObserve$|BenchmarkGraphBuild$|BenchmarkHeapMove$|BenchmarkRuntimeFullRun$|BenchmarkRuntimeFullRunFirstTouch$' \
  -benchtime "$benchtime" -benchmem -count 1 .)"
echo "$out"

echo "$out" | awk '
  # Load the baseline: "name": value pairs from BENCH_SIM.json, with the
  # enclosing section ("benchmarks" = ns/op, "allocs" = allocs/op)
  # deciding which table a pair lands in.
  BEGIN {
    section = ""
    while ((getline line < "BENCH_SIM.json") > 0) {
      if (line ~ /"benchmarks": *\{/) { section = "ns"; continue }
      if (line ~ /"allocs": *\{/) { section = "allocs"; continue }
      if (line ~ /threshold_pct/) {
        gsub(/[^0-9]/, "", line); threshold = line + 0
      } else if (line ~ /"Benchmark[A-Za-z0-9_]*":/) {
        name = line; sub(/^[^"]*"/, "", name); sub(/".*/, "", name)
        v = line; sub(/.*: */, "", v); gsub(/[,[:space:]]/, "", v)
        if (section == "allocs") abase[name] = v + 0
        else base[name] = v + 0
      }
    }
    if (threshold == 0) threshold = 30
  }
  $1 ~ /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = -1; al = -1
    for (i = 2; i < NF; i++) {
      if ($(i + 1) == "ns/op") ns = $i + 0
      if ($(i + 1) == "allocs/op") al = $i + 0
    }
    if (name in base && ns >= 0) {
      want = base[name]
      pct = (ns - want) * 100 / want
      checked++
      if (pct > threshold) {
        printf "REGRESSION %s: %.0f ns/op vs baseline %.0f (%+.1f%%, threshold %d%%)\n", name, ns, want, pct, threshold
        bad++
      } else {
        printf "ok %s: %.0f ns/op vs baseline %.0f (%+.1f%%)\n", name, ns, want, pct
      }
    }
    if (name in abase && al >= 0) {
      want = abase[name]
      checked++
      if (want == 0) {
        if (al > 0) {
          printf "REGRESSION %s: %d allocs/op vs baseline 0\n", name, al
          bad++
        } else {
          printf "ok %s: 0 allocs/op (pinned)\n", name
        }
      } else {
        pct = (al - want) * 100 / want
        if (pct > threshold) {
          printf "REGRESSION %s: %d allocs/op vs baseline %d (%+.1f%%, threshold %d%%)\n", name, al, want, pct, threshold
          bad++
        } else {
          printf "ok %s: %d allocs/op vs baseline %d (%+.1f%%)\n", name, al, want, pct
        }
      }
    }
  }
  END {
    if (checked == 0) { print "bench-compare: no baselined benchmarks in output"; exit 1 }
    if (bad > 0) exit 1
  }
'
