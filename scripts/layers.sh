#!/bin/sh
# layers.sh splits a CPU profile's flat time across the layers of ROADMAP
# aim 1: sim, heap, prof, model, placement, migrate, trace/replay I/O,
# runner glue and serve, plus the harness, the Go runtime, syscalls and
# everything else ("unattributed": the standard library, compiler-made
# functions, and samples pprof did not list). Every flat sample lands in
# exactly one row, and each share is the row's time over the profile's
# total, so the rows sum to 100%. DESIGN.md "Host-time ledger" lists
# which package belongs to which layer; a package under internal/ with no
# layer is an error, sampled or not, so a new package must be given one
# here.
#
# Usage: scripts/layers.sh <binary> <cpu.pprof>
#
#   go test -run '^$' -bench 'BenchmarkRuntimeFullRun$' -benchtime 200x \
#       -cpuprofile cpu.pprof -o repro.test .
#   sh scripts/layers.sh repro.test cpu.pprof
set -eu

if [ $# -ne 2 ]; then
	echo "usage: $0 <binary> <cpu.pprof>" >&2
	exit 2
fi
root=$(dirname "$0")/..
mod=$(awk '$1 == "module" { print $2; exit }' "$root/go.mod")
pkgs=
for d in "$root"/internal/*/; do
	d=${d%/}
	pkgs="$pkgs $mod/internal/${d##*/}"
done
top=$(go tool pprof -top -nodefraction=0 -nodecount=1000000 -unit=ms "$1" "$2")

printf '%s\n' "$top" | awk -v mod="$mod" -v pkgs="$pkgs" '
# ms converts a pprof time such as 120ms or 1.2s to milliseconds.
function ms(v,   u) {
	u = v
	sub(/^[0-9.]+/, "", u)
	if (u == "" || u == "ms") return v + 0
	if (u == "ns") return v / 1e6
	if (u == "us") return v / 1e3
	if (u == "s") return v * 1e3
	if (u == "mins") return v * 6e4
	if (u == "hrs") return v * 3.6e6
	printf "layers.sh: unknown time unit in %s\n", v > "/dev/stderr"
	failed = 1
	return 0
}

# pkg returns the import path of a pprof function name:
# repro/internal/core.(*runner).setup.func1 is in repro/internal/core.
function pkg(name,   i) {
	sub(/\[.*/, "", name)          # generic instantiation arguments
	sub(/^type:\.[a-z]+\./, "", name) # compiler-made eq and hash functions
	i = match(name, /\/[^\/]*$/) # the last slash, or 0
	return substr(name, 1, i) substr(name, i + 1, index(substr(name, i + 1) ".", ".") - 1)
}

function layer(p,   sub1) {
	if (index(p, mod "/internal/") == 1) {
		sub1 = substr(p, length(mod "/internal/") + 1)
		sub(/\/.*/, "", sub1)
		if (sub1 == "sim") return "sim"
		if (sub1 == "heap") return "heap"
		if (sub1 == "prof" || sub1 == "feedback") return "prof"
		if (sub1 == "model" || sub1 == "mem" || sub1 == "calib") return "model"
		if (sub1 == "placement") return "placement"
		if (sub1 == "migrate") return "migrate"
		if (sub1 == "trace" || sub1 == "replay" || sub1 == "wire") return "trace/replay I/O"
		if (sub1 == "core" || sub1 == "task" || sub1 == "sched" || sub1 == "fault" || sub1 == "cluster" || sub1 == "exec" || sub1 == "freelist") return "runner glue"
		if (sub1 == "serve" || sub1 == "cliutil") return "serve"
		if (sub1 == "workloads" || sub1 == "report") return "harness"
		if (!(p in missing)) {
			missing[p] = 1
			printf "layers.sh: %s has no layer\n", p > "/dev/stderr"
		}
		failed = 1
		return "unattributed"
	}
	if (p == mod || index(p, mod "/") == 1 || p == "main" || p == "testing") return "harness"
	if (p == "syscall" || p == "internal/poll" || index(p, "internal/syscall/") == 1) return "syscalls"
	if (p == "runtime" || index(p, "runtime/") == 1 || index(p, "internal/") == 1) return "Go runtime"
	return "unattributed"
}

BEGIN {
	n = split(pkgs, all, " ")
	for (i = 1; i <= n; i++) layer(all[i])
}
/ of .* total$/ { total = ms($(NF - 1)) }
/^ *flat +flat%/ { body = 1; next }
body && NF >= 6 {
	t = ms($1)
	by[layer(pkg($6))] += t
	listed += t
}
END {
	if (total <= 0) {
		print "layers.sh: the profile holds no samples" > "/dev/stderr"
		exit 1
	}
	by["unattributed"] += total - listed
	n = split("sim,heap,prof,model,placement,migrate,trace/replay I/O,runner glue,serve,harness,Go runtime,syscalls,unattributed", rows, ",")
	printf "%-18s %12s %8s\n", "layer", "flat ms", "share"
	sum = 0
	for (i = 1; i <= n; i++) {
		r = rows[i]
		sum += by[r]
		printf "%-18s %12.1f %7.1f%%\n", r, by[r], 100 * by[r] / total
	}
	printf "%-18s %12.1f %7.1f%%\n", "total", sum, 100 * sum / total
	exit failed
}
'
