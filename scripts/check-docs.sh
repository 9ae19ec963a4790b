#!/bin/sh
# check-docs.sh — docs-consistency gate. Fails if any cmd/ binary is not
# mentioned in README.md, any registered experiment ID (the
# Experiment{"<ID>", ...} literals in the root package) is not documented
# in EXPERIMENTS.md, or any DESIGN.md section header that other docs and
# code comments point at has been renamed away. Run from anywhere;
# operates on the repo root.
set -eu

cd "$(dirname "$0")/.."
bad=0

for d in cmd/*/; do
  name="$(basename "$d")"
  if ! grep -q "$name" README.md; then
    echo "check-docs: cmd/$name not mentioned in README.md" >&2
    bad=1
  fi
done

ids="$(sed -n 's/.*Experiment{"\([ET][0-9][0-9]*\)".*/\1/p' ./*.go | sort -u)"
if [ -z "$ids" ]; then
  echo "check-docs: found no registered experiment IDs" >&2
  exit 1
fi
for id in $ids; do
  if ! grep -q "$id" EXPERIMENTS.md; then
    echo "check-docs: experiment $id not documented in EXPERIMENTS.md" >&2
    bad=1
  fi
done

# DESIGN.md section headers referenced from ROADMAP.md and code
# comments; renaming one silently breaks those pointers.
while IFS= read -r header; do
  if ! grep -q "^## $header" DESIGN.md; then
    echo "check-docs: DESIGN.md lost its \"$header\" section" >&2
    bad=1
  fi
done <<'EOF'
Timing model (the simulation substrate's contract)
Tier model (N-tier generalization)
Engine internals (the incremental-rate hot path)
Planner internals (the incremental, allocation-light decision core)
Replay internals (record once, vary placement)
Fault model & degraded modes
Cluster fault tolerance & failover
Memory layout & allocation discipline
Host-time ledger (CPU by layer)
Service architecture (placement as a service)
Profiler fidelity & adaptive sampling
Feedback loop: observed vs predicted
Model-equation cross-reference (runtime view ↔ paper)
EOF

if [ "$bad" -ne 0 ]; then
  exit 1
fi
echo "check-docs: every cmd/ binary, experiment ID, and DESIGN.md section is in place"
