#!/bin/sh
# Tier-1 verify flow: build, vet, test, the rendered-table snapshots,
# then the full suite again under the race detector (the experiment
# engine is concurrent; see DESIGN.md §7.1), and finally checked
# end-to-end runs with the timing-contract oracle (DESIGN.md §7.2)
# verifying every memory access: a small slice of the Fig. 3 matrix,
# the smoke design space through the exploration engine (DESIGN.md
# §7.3), and a guided-search determinism diff (DESIGN.md §7.5). Run from
# the repository root.
set -eux

go build ./...
go vet ./...
test -z "$(gofmt -l .)"
go test ./...
# The store's record decoder parses bytes from disk by hand (DESIGN.md
# §7.7): fuzz it briefly from the committed corpus on every check.
go test -run '^$' -fuzz '^FuzzRecordDecode$' -fuzztime 15s ./internal/store
# The benchmark harness is a separate module (perfbench/go.mod replaces
# sttdl1 with this tree), so the root build and tests never compile it.
(cd perfbench && go vet ./... && go test ./...)
# Otherwise only go vet would ever compile the replay profiling
# benchmarks; run each sub-benchmark once so they keep working.
go test -run '^$' -bench BenchmarkReplayKernel -benchtime 1x ./internal/replay
# The same for the cold and warm store sweeps behind BENCH_sweep.json.
go test -run '^$' -bench '^BenchmarkStoreSweep$' -benchtime 1x .

# Snapshots: every table and figure must render byte-identically to the
# committed results. A snapshot diff catches bugs in the cache and
# front-end code that live execution and replay share, which no
# live-vs-replay test can see.
go run ./cmd/sttexplore run all | cmp - results_all.txt
go run ./cmd/sttexplore run paper | cmp - results_paper.txt
# The rendered tables round penalties; the counter golden pins every
# raw RunResult counter underneath them.
go run ./scripts/counters | cmp - results_counters.json
# The guided search (DESIGN.md §7.5) is the only user of truncated and
# early-aborted replay; its frontier pins those paths' bytes.
go run ./cmd/sttexplore dse -space proposal -search guided -budget 40 -seed 1 -bench atax,gemver | cmp - results_guided.txt

go test -race ./...
# Recycled cache arrays (DESIGN.md §7.9) move between goroutines through
# a sync.Pool; repeat the concurrent build/drive/release test under the
# detector, whose pool drops items at random, so every path is taken.
go test -race -count=10 -run '^TestConcurrentRelease$' ./internal/cache
go run ./cmd/sttexplore run -check -bench atax,gemver fig3 >/dev/null
# The IL1 EMSHR's busy clock must never move backward when a fetch miss
# overlaps an earlier refill (bicg and gemm overlapped before the fix).
go run ./cmd/sttexplore run -check -bench bicg,gemm ablation-icache >/dev/null
go run ./cmd/sttexplore dse -check -space smoke -bench atax,gemver >/dev/null

tmp_on=$(mktemp)
tmp_off=$(mktemp)
tmp_err=$(mktemp)
trap 'rm -f "$tmp_on" "$tmp_off" "$tmp_err"' EXIT

# Guided-search determinism (DESIGN.md §7.5): a fixed seed must render
# byte-identically at any worker count.
go run ./cmd/sttexplore dse -space smoke -search guided -budget 6 -seed 1 -bench atax,gemver -j 1 >"$tmp_on"
go run ./cmd/sttexplore dse -space smoke -search guided -budget 6 -seed 1 -bench atax,gemver -j 8 >"$tmp_off"
cmp "$tmp_on" "$tmp_off"

# Latency-hiding mechanisms (DESIGN.md §7.6): the hybrid space — bypass
# front end × SRAM way partitioning × way shutdown — under the oracle.
go run ./cmd/sttexplore dse -check -space hybrid -bench atax,gemver >/dev/null

# Persistent-store equivalence (DESIGN.md §7.7): the same sweep must
# render byte-identically with no store, with a cold store, and served
# entirely from the warm store the cold pass just wrote — and the warm
# pass must find every record without capturing a single trace.
store_dir=$(mktemp -d)
trap 'rm -f "$tmp_on" "$tmp_off" "$tmp_err"; rm -rf "$store_dir"' EXIT
go run ./cmd/sttexplore dse -space smoke -bench atax,gemver -csv >"$tmp_on"
go run ./cmd/sttexplore dse -space smoke -bench atax,gemver -csv -store "$store_dir" >"$tmp_off" 2>"$tmp_err"
cmp "$tmp_on" "$tmp_off"
# Warm-state sharing (DESIGN.md §7.9): banks only move clocks, so the
# smoke space's 10 points form 5 warm groups of 2; with the SRAM
# reference each kernel runs 6 warm-ups, not 11.
cat "$tmp_err"
grep -qF ', 12 warm-up(s)' "$tmp_err"
go run ./cmd/sttexplore dse -space smoke -bench atax,gemver -csv -store "$store_dir" >"$tmp_off" 2>"$tmp_err"
cmp "$tmp_on" "$tmp_off"
cat "$tmp_err"
grep -qF ', 0 capture(s)' "$tmp_err"

# Sharded sweep (DESIGN.md §7.7): three shard processes fill a fresh
# store, and the stitch run renders byte-identically to the unsharded
# sweep. Shards are disjoint blocks of whole warm groups, so between
# them they do exactly the unsharded sweep's work: 22 simulations in 12
# warm groups.
shard_dir=$(mktemp -d)
trap 'rm -f "$tmp_on" "$tmp_off" "$tmp_err"; rm -rf "$store_dir" "$shard_dir"' EXIT
: >"$tmp_err"
for i in 0 1 2; do
	go run ./cmd/sttexplore dse -space smoke -bench atax,gemver -store "$shard_dir" -shard "$i/3" >/dev/null 2>>"$tmp_err"
done
cat "$tmp_err"
test "$(sed -n 's|^store: .* / \([0-9]*\) evaluated, .*, \([0-9]*\) warm-up(s)$|\1 \2|p' "$tmp_err" |
	awk '{ evaluated += $1; warm += $2 } END { print evaluated, warm }')" = "22 12"
go run ./cmd/sttexplore dse -space smoke -bench atax,gemver -store "$shard_dir" -csv >"$tmp_off"
cmp "$tmp_on" "$tmp_off"

# Group replay (DESIGN.md §7.9) under the race detector: a warm group's
# members share one trace and one warm-up, and a sweep replays groups
# concurrently; the detector proves the members' states stay disjoint
# while cmp proves the cycles do.
go run -race ./cmd/sttexplore dse -space smoke -bench atax,gemver -csv >"$tmp_off"
cmp "$tmp_on" "$tmp_off"

# Sweep service equivalence (DESIGN.md §7.8): the same smoke sweep
# submitted to a two-worker `serve` instance on an ephemeral port must
# come back byte-identical to the single-process dse run above, and the
# server must drain cleanly on SIGTERM.
bin_dir=$(mktemp -d)
serve_store=$(mktemp -d)
trap 'rm -f "$tmp_on" "$tmp_off" "$tmp_err"; rm -rf "$store_dir" "$shard_dir" "$bin_dir" "$serve_store"' EXIT
go build -o "$bin_dir/sttexplore" ./cmd/sttexplore
"$bin_dir/sttexplore" serve -addr 127.0.0.1:0 -addr-file "$bin_dir/addr" \
	-store "$serve_store" -workers 2 &
serve_pid=$!
for _ in $(seq 1 100); do
	[ -s "$bin_dir/addr" ] && break
	sleep 0.1
done
addr=$(cat "$bin_dir/addr")
"$bin_dir/sttexplore" submit -connect "$addr" -space smoke \
	-bench atax,gemver -shards 2 -format csv >"$tmp_off"
cmp "$tmp_on" "$tmp_off"
"$bin_dir/sttexplore" store -dir "$serve_store" stats
kill -TERM "$serve_pid"
wait "$serve_pid"
