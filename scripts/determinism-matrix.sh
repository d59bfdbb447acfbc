#!/usr/bin/env bash
# The determinism matrix: every report the in-process analyzer can produce for
# the same dataset, one file per configuration.
#
#   scripts/determinism-matrix.sh run OUTDIR [SRCDIR]
#       Build cmd/cosy and cmd/apprentice from SRCDIR (default: this
#       checkout) and run cosy in process over every apprentice.Library()
#       workload x -engine object|sql|client x -workers 1|8 x
#       -batchsize 1|32 x -cache on|off; for -engine sql also x
#       -sql-dialect kojakdb|ansi|oracle7, with and without -guided. Each
#       engine (guided sql counting as one) also runs once with no flags:
#       its default report. Writes OUTDIR/<workload>_<engine>_<variant>.txt
#       and exits non-zero if any run failed (its file then holds stderr).
#
#   scripts/determinism-matrix.sh check OUTDIR
#       The within-commit invariant: for each workload and engine, every
#       variant byte-matches that engine's default report (guided sql's
#       variants match guided sql's default). Prints each mismatch and
#       exits non-zero if there is one.
#
#   scripts/determinism-matrix.sh diff OLDDIR NEWDIR
#       Lists the configurations whose report differs between two runs (a
#       parent and a change, say) and shows the first differences. Exits
#       non-zero when any report differs or exists on one side only.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

usage() {
	sed -n '2,/^set -euo/p' "${BASH_SOURCE[0]}" | sed '$d; s/^# \{0,1\}//' >&2
	exit 2
}

run() {
	local out="$1" src="${2:-$here}"
	mkdir -p "$out"
	out="$(cd "$out" && pwd)"
	local bin
	bin="$(mktemp -d)"
	trap "rm -rf '$bin'" EXIT
	(cd "$src" && go build -o "$bin/cosy" ./cmd/cosy && go build -o "$bin/apprentice" ./cmd/apprentice)

	# "available workloads: a, b, c + scaled": the library, less the
	# generated scaled workload, which takes its own flags.
	local list
	list="$("$bin/apprentice" -list)"
	list="${list#*: }"
	list="${list% + *}"
	local -a workloads
	IFS=', ' read -r -a workloads <<<"$list"

	local failed=0 runs=0
	one() { # one FILE ARGS...: one cosy run into OUTDIR/FILE.txt
		local file="$out/$1.txt"
		shift
		runs=$((runs + 1))
		if ! "$bin/cosy" "$@" >"$file" 2>"$file.err"; then
			echo "FAIL cosy $*" >&2
			cat "$file.err" >>"$file"
			failed=$((failed + 1))
		fi
		rm -f "$file.err"
	}

	local w e workers bs cache dialect
	for w in "${workloads[@]}"; do
		for e in object sql client; do
			one "${w}_${e}_default" -workload "$w" -engine "$e"
		done
		one "${w}_sql-guided_default" -workload "$w" -engine sql -guided
		for workers in 1 8; do
			for bs in 1 32; do
				for cache in on off; do
					local v="w${workers}_b${bs}_cache-${cache}"
					local -a common=(-workload "$w" -workers "$workers" -batchsize "$bs" -cache "$cache")
					one "${w}_object_${v}" "${common[@]}" -engine object
					one "${w}_client_${v}" "${common[@]}" -engine client
					for dialect in kojakdb ansi oracle7; do
						one "${w}_sql_${v}_${dialect}" "${common[@]}" -engine sql -sql-dialect "$dialect"
						one "${w}_sql-guided_${v}_${dialect}" "${common[@]}" -engine sql -sql-dialect "$dialect" -guided
					done
				done
			done
		done
	done
	echo "determinism matrix: $runs reports in $out (${#workloads[@]} workloads), $failed failed"
	[ "$failed" -eq 0 ]
}

check() {
	local dir="$1" bad=0 n=0 f base
	for f in "$dir"/*.txt; do
		base="$(basename "$f" .txt)"
		case "$base" in
		*_default) continue ;;
		esac
		n=$((n + 1))
		# <workload>_<engine>_<variant>: the default report of the same
		# workload and engine.
		local def="$dir/${base%_w*}_default.txt"
		if ! cmp -s "$f" "$def"; then
			echo "MISMATCH $base vs $(basename "$def" .txt)"
			diff "$def" "$f" | head -n 10 || true
			bad=$((bad + 1))
		fi
	done
	if [ "$n" -eq 0 ]; then
		echo "determinism matrix: no reports in $dir" >&2
		return 1
	fi
	echo "determinism matrix: $n variants checked against their engine's default, $bad mismatched"
	[ "$bad" -eq 0 ]
}

difference() {
	local old="$1" new="$2" changed=0 same=0 base
	while read -r base; do
		if [ ! -f "$old/$base" ] || [ ! -f "$new/$base" ]; then
			echo "ONLY-ONE-SIDE ${base%.txt}"
			changed=$((changed + 1))
		elif ! cmp -s "$old/$base" "$new/$base"; then
			echo "CHANGED ${base%.txt}"
			diff "$old/$base" "$new/$base" | head -n 10 || true
			changed=$((changed + 1))
		else
			same=$((same + 1))
		fi
	done < <({ ls "$old"; ls "$new"; } | sort -u)
	echo "determinism matrix: $same reports byte-identical, $changed differ"
	[ "$changed" -eq 0 ]
}

case "${1:-}" in
run) [ $# -ge 2 ] || usage; run "$2" "${3:-}" ;;
check) [ $# -eq 2 ] || usage; check "$2" ;;
diff) [ $# -eq 3 ] || usage; difference "$2" "$3" ;;
*) usage ;;
esac
