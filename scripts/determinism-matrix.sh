#!/usr/bin/env bash
# The determinism matrix: every report the in-process analyzer can produce for
# the same dataset, one file per configuration.
#
#   scripts/determinism-matrix.sh run OUTDIR [SRCDIR]
#       Build cmd/cosy and cmd/apprentice from SRCDIR (default: this
#       checkout) and run cosy in process over every apprentice.Library()
#       workload x -engine object|sql|client x -workers 1|8 x
#       -batchsize 1|32 x -cache on|off; -engine object and sql also with
#       -guided, and -engine sql also x -sql-dialect kojakdb|ansi|oracle7.
#       Each engine (guided object and guided sql counting as one each) also
#       runs once with no flags: its default report. Per workload it also
#       starts two kojakdb shards (-shards 2) on free loopback ports, loads
#       them with the -workers 1 -batchsize 1 run of -engine sql -db a,b,
#       and runs the other -workers 1|8 x -batchsize 1|32 pairs against
#       them -preloaded: the <workload>_sql_w<N>_b<M>_sharded variants.
#       Writes OUTDIR/<workload>_<engine>_<variant>.txt and exits non-zero
#       if any run failed (its file then holds stderr).
#
#   scripts/determinism-matrix.sh check OUTDIR
#       The within-commit invariant: for each workload and engine, every
#       variant byte-matches that engine's default report (a guided
#       search's variants match that guided search's default). Prints each
#       mismatch and exits non-zero if there is one.
#
#   scripts/determinism-matrix.sh diff OLDDIR NEWDIR
#       Lists the configurations whose report differs between two runs (a
#       parent and a change, say) and shows the first differences. Exits
#       non-zero when any report differs or exists on one side only.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# start_shards BINDIR: two kojakdb shards on free loopback ports; sets shards
# to their comma-separated addresses and shard_pids to their processes.
shards=""
shard_pids=()
start_shards() {
	local bin="$1" i addr log
	shards=""
	for i in 0 1; do
		log="$bin/kojakdb$i.log"
		: >"$log" # no address of the last workload's shard is read
		"$bin/kojakdb" -addr 127.0.0.1:0 -shards 2 -shard-id "$i" >"$log" 2>&1 &
		shard_pids+=($!)
		addr=""
		for _ in $(seq 100); do
			addr="$(sed -n 's/^kojakdb: serving on \([^ ]*\) .*/\1/p' "$log")"
			[ -n "$addr" ] && break
			sleep 0.1
		done
		if [ -z "$addr" ]; then
			echo "kojakdb shard $i did not start:" >&2
			cat "$log" >&2
			return 1
		fi
		shards="${shards:+$shards,}$addr"
	done
}
stop_shards() {
	[ ${#shard_pids[@]} -gt 0 ] || return 0
	kill "${shard_pids[@]}" 2>/dev/null || true
	wait "${shard_pids[@]}" 2>/dev/null || true
	shard_pids=()
}

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
	trap "stop_shards; rm -rf '$bin'" EXIT
	(cd "$src" && go build -o "$bin/cosy" ./cmd/cosy && go build -o "$bin/apprentice" ./cmd/apprentice &&
		go build -o "$bin/kojakdb" ./cmd/kojakdb)

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
		one "${w}_object-guided_default" -workload "$w" -engine object -guided
		one "${w}_sql-guided_default" -workload "$w" -engine sql -guided
		for workers in 1 8; do
			for bs in 1 32; do
				for cache in on off; do
					local v="w${workers}_b${bs}_cache-${cache}"
					local -a common=(-workload "$w" -workers "$workers" -batchsize "$bs" -cache "$cache")
					one "${w}_object_${v}" "${common[@]}" -engine object
					one "${w}_object-guided_${v}" "${common[@]}" -engine object -guided
					one "${w}_client_${v}" "${common[@]}" -engine client
					for dialect in kojakdb ansi oracle7; do
						one "${w}_sql_${v}_${dialect}" "${common[@]}" -engine sql -sql-dialect "$dialect"
						one "${w}_sql-guided_${v}_${dialect}" "${common[@]}" -engine sql -sql-dialect "$dialect" -guided
					done
				done
			done
		done
		start_shards "$bin"
		for workers in 1 8; do
			for bs in 1 32; do
				local -a load=(-preloaded)
				if [ "$workers" = 1 ] && [ "$bs" = 1 ]; then
					load=() # the first run creates the schema and loads
				fi
				one "${w}_sql_w${workers}_b${bs}_sharded" -workload "$w" -engine sql -db "$shards" \
					-workers "$workers" -batchsize "$bs" "${load[@]}"
			done
		done
		stop_shards
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
