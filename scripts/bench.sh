#!/bin/sh
# Sweep-store benchmark (DESIGN.md §7.7): time the same design-space
# sweep through the real CLI against a cold and then a warm persistent
# store, run the in-process BenchmarkStoreSweep pair for allocation
# counts, and emit everything as BENCH_sweep.json. Run from the
# repository root.
#
#   ./scripts/bench.sh                 # smoke space (seconds)
#   SPACE=proposal ./scripts/bench.sh  # paper-scale sweep (minutes cold)
set -eu

space=${SPACE:-smoke}
out=${OUT:-BENCH_sweep.json}
benchtime=${BENCHTIME:-2x}

bin_dir=$(mktemp -d)
store_dir=$(mktemp -d)
trap 'rm -rf "$bin_dir" "$store_dir"' EXIT

go build -o "$bin_dir/sttexplore" ./cmd/sttexplore

now_ms() { date +%s%3N; }

t0=$(now_ms)
"$bin_dir/sttexplore" dse -space "$space" -j 8 -csv -store "$store_dir" >"$bin_dir/cold.csv"
t1=$(now_ms)
"$bin_dir/sttexplore" dse -space "$space" -j 8 -csv -store "$store_dir" >"$bin_dir/warm.csv"
t2=$(now_ms)
cmp "$bin_dir/cold.csv" "$bin_dir/warm.csv" # warm must be byte-identical
cold_ms=$((t1 - t0))
warm_ms=$((t2 - t1))

# Sweep service (DESIGN.md §7.8): cold vs warm job latency through a
# two-worker `serve` instance, then sustained warm jobs per second.
# The warm job is answered from the server's stitch-suite memo, so the
# acceptance bar is a >=10x speedup over the cold job.
serve_store=$(mktemp -d)
trap 'rm -rf "$bin_dir" "$store_dir" "$serve_store"' EXIT
"$bin_dir/sttexplore" serve -addr 127.0.0.1:0 -addr-file "$bin_dir/addr" \
	-store "$serve_store" -workers 2 &
serve_pid=$!
while [ ! -s "$bin_dir/addr" ]; do sleep 0.1; done
addr=$(cat "$bin_dir/addr")

t0=$(now_ms)
"$bin_dir/sttexplore" submit -connect "$addr" -space "$space" -shards 2 \
	-format csv >"$bin_dir/serve_cold.csv"
t1=$(now_ms)
"$bin_dir/sttexplore" submit -connect "$addr" -space "$space" -shards 2 \
	-format csv >"$bin_dir/serve_warm.csv"
t2=$(now_ms)
cmp "$bin_dir/serve_cold.csv" "$bin_dir/serve_warm.csv"
cmp "$bin_dir/cold.csv" "$bin_dir/serve_cold.csv" # service == single-process dse
serve_cold_ms=$((t1 - t0))
serve_warm_ms=$((t2 - t1))

warm_jobs=${WARM_JOBS:-20}
t0=$(now_ms)
i=0
while [ "$i" -lt "$warm_jobs" ]; do
	"$bin_dir/sttexplore" submit -connect "$addr" -space "$space" -shards 2 \
		-format csv >/dev/null
	i=$((i + 1))
done
t1=$(now_ms)
warm_total_ms=$((t1 - t0))

kill -TERM "$serve_pid"
wait "$serve_pid"

gobench=$(go test -run '^$' -bench '^BenchmarkStoreSweep$' -benchtime "$benchtime" -benchmem .)
printf '%s\n' "$gobench"

# Replay engine (DESIGN.md §7.9): the cold smoke sweep, in warm groups.
replaybench=$(go test -run '^$' -bench '^BenchmarkReplaySweep$' -benchtime "$benchtime" -benchmem .)
printf '%s\n' "$replaybench"

# Benchmark lines: name N ns/op "ns/op" B/op "B/op" allocs/op "allocs/op".
field() { printf '%s\n' "$gobench" | awk -v pat="$1" -v f="$2" '$0 ~ pat { print $f; exit }'; }
cold_ns=$(field 'BenchmarkStoreSweep/cold' 3)
cold_bytes=$(field 'BenchmarkStoreSweep/cold' 5)
cold_allocs=$(field 'BenchmarkStoreSweep/cold' 7)
warm_ns=$(field 'BenchmarkStoreSweep/warm' 3)
warm_bytes=$(field 'BenchmarkStoreSweep/warm' 5)
warm_allocs=$(field 'BenchmarkStoreSweep/warm' 7)

rfield() { printf '%s\n' "$replaybench" | awk -v pat="$1" -v f="$2" '$0 ~ pat { print $f; exit }'; }
replay_ns=$(rfield 'BenchmarkReplaySweep/cold' 3)
replay_bytes=$(rfield 'BenchmarkReplaySweep/cold' 5)
replay_allocs=$(rfield 'BenchmarkReplaySweep/cold' 7)

awk -v space="$space" \
	-v cold_ms="$cold_ms" -v warm_ms="$warm_ms" \
	-v scold_ms="$serve_cold_ms" -v swarm_ms="$serve_warm_ms" \
	-v wjobs="$warm_jobs" -v wtotal_ms="$warm_total_ms" \
	-v cns="$cold_ns" -v cb="$cold_bytes" -v ca="$cold_allocs" \
	-v wns="$warm_ns" -v wb="$warm_bytes" -v wa="$warm_allocs" \
	-v rns="$replay_ns" -v rb="$replay_bytes" -v ra="$replay_allocs" \
	'BEGIN {
		printf "{\n"
		printf "  \"space\": \"%s\",\n", space
		printf "  \"cli\": {\n"
		printf "    \"cold_s\": %.3f,\n", cold_ms / 1000
		printf "    \"warm_s\": %.3f,\n", warm_ms / 1000
		printf "    \"speedup\": %.1f\n", cold_ms / (warm_ms > 0 ? warm_ms : 1)
		printf "  },\n"
		printf "  \"serve\": {\n"
		printf "    \"workers\": 2,\n"
		printf "    \"cold_job_s\": %.3f,\n", scold_ms / 1000
		printf "    \"warm_job_s\": %.3f,\n", swarm_ms / 1000
		printf "    \"speedup\": %.1f,\n", scold_ms / (swarm_ms > 0 ? swarm_ms : 1)
		printf "    \"warm_jobs_per_s\": %.1f\n", wjobs * 1000 / (wtotal_ms > 0 ? wtotal_ms : 1)
		printf "  },\n"
		printf "  \"gobench\": {\n"
		printf "    \"cold\": { \"ns_op\": %d, \"bytes_op\": %d, \"allocs_op\": %d },\n", cns, cb, ca
		printf "    \"warm\": { \"ns_op\": %d, \"bytes_op\": %d, \"allocs_op\": %d }\n", wns, wb, wa
		printf "  },\n"
		printf "  \"replay\": {\n"
		printf "    \"cold\": { \"ns_op\": %d, \"bytes_op\": %d, \"allocs_op\": %d }\n", rns, rb, ra
		printf "  }\n"
		printf "}\n"
	}' >"$out"
cat "$out"
