#!/bin/sh
# Tier-1 verify flow: build, vet, test, then the full suite again under
# the race detector (the experiment engine is concurrent; see
# DESIGN.md §7.1), and finally checked end-to-end runs with the
# timing-contract oracle (DESIGN.md §7.2) verifying every memory
# access: a small slice of the Fig. 3 matrix, the smoke design space
# through the exploration engine (DESIGN.md §7.3), and a guided-search
# determinism diff (DESIGN.md §7.5). Run from the repository root.
set -eux

go build ./...
go vet ./...
go test ./...
go test -race ./...
go run ./cmd/sttexplore run -check -bench atax,gemver fig3 >/dev/null

# Replay equivalence (DESIGN.md §7.4): the checked smoke space must
# render byte-identically whether simulations execute live or replay a
# captured trace.
tmp_on=$(mktemp)
tmp_off=$(mktemp)
tmp_err=$(mktemp)
trap 'rm -f "$tmp_on" "$tmp_off" "$tmp_err"' EXIT
go run ./cmd/sttexplore dse -check -space smoke -bench atax,gemver -replay on >"$tmp_on"
go run ./cmd/sttexplore dse -check -space smoke -bench atax,gemver -replay off >"$tmp_off"
cmp "$tmp_on" "$tmp_off"

# Guided-search determinism (DESIGN.md §7.5): a fixed seed must render
# byte-identically at any worker count.
go run ./cmd/sttexplore dse -space smoke -search guided -budget 6 -seed 1 -bench atax,gemver -j 1 >"$tmp_on"
go run ./cmd/sttexplore dse -space smoke -search guided -budget 6 -seed 1 -bench atax,gemver -j 8 >"$tmp_off"
cmp "$tmp_on" "$tmp_off"

# Latency-hiding mechanisms (DESIGN.md §7.6): the hybrid space — bypass
# front end × SRAM way partitioning × way shutdown — under the oracle,
# and replay equivalence for a bypass-enabled configuration.
go run ./cmd/sttexplore dse -check -space hybrid -bench atax,gemver >/dev/null
go run ./cmd/sttexplore bench -cfg bypass -check -replay on atax >"$tmp_on"
go run ./cmd/sttexplore bench -cfg bypass -check -replay off atax >"$tmp_off"
cmp "$tmp_on" "$tmp_off"

# Persistent-store equivalence (DESIGN.md §7.7): the same sweep must
# render byte-identically with no store, with a cold store, and served
# entirely from the warm store the cold pass just wrote — and the warm
# pass must find every record without capturing a single trace.
store_dir=$(mktemp -d)
trap 'rm -f "$tmp_on" "$tmp_off" "$tmp_err"; rm -rf "$store_dir"' EXIT
go run ./cmd/sttexplore dse -space smoke -bench atax,gemver -csv >"$tmp_on"
go run ./cmd/sttexplore dse -space smoke -bench atax,gemver -csv -store "$store_dir" >"$tmp_off"
cmp "$tmp_on" "$tmp_off"
go run ./cmd/sttexplore dse -space smoke -bench atax,gemver -csv -store "$store_dir" >"$tmp_off" 2>"$tmp_err"
cmp "$tmp_on" "$tmp_off"
cat "$tmp_err"
grep -qF ', 0 capture(s)' "$tmp_err"

# Specialized replay kernels and gang replay (DESIGN.md §7.9): the
# same sweep must render byte-identically with the specialized kernel
# registry (the default), with every replay pinned to the generic
# reference kernel, and with gang replay off — and the specialized/
# generic diff must also hold under the race detector (gang replay
# shares one trace walk across configurations; the detector proves the
# members' states stay disjoint while cmp proves the cycles do).
go run ./cmd/sttexplore dse -space smoke -bench atax,gemver -csv >"$tmp_on"
STTDL1_REPLAY_KERNEL=generic go run ./cmd/sttexplore dse -space smoke -bench atax,gemver -csv >"$tmp_off"
cmp "$tmp_on" "$tmp_off"
go run ./cmd/sttexplore dse -space smoke -bench atax,gemver -gang 1 -csv >"$tmp_off"
cmp "$tmp_on" "$tmp_off"
go run -race ./cmd/sttexplore dse -space smoke -bench atax,gemver -csv >"$tmp_off"
cmp "$tmp_on" "$tmp_off"
STTDL1_REPLAY_KERNEL=generic go run -race ./cmd/sttexplore dse -space smoke -bench atax,gemver -gang 1 -csv >"$tmp_off"
cmp "$tmp_on" "$tmp_off"

# Sweep service equivalence (DESIGN.md §7.8): the same smoke sweep
# submitted to a two-worker `serve` instance on an ephemeral port must
# come back byte-identical to the single-process dse run above, and the
# server must drain cleanly on SIGTERM.
bin_dir=$(mktemp -d)
serve_store=$(mktemp -d)
trap 'rm -f "$tmp_on" "$tmp_off" "$tmp_err"; rm -rf "$store_dir" "$bin_dir" "$serve_store"' EXIT
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
