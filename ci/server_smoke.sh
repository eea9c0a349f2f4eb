#!/usr/bin/env bash
# Smoke test for `provmin serve`: starts the service, drives every
# endpoint over real HTTP, asserts the acceptance properties of the
# serving architecture, and verifies clean SIGINT shutdown.
#
#   1. repeated /eval requests share one index build (UCQ disjuncts hit)
#   2. /eval output is bit-identical to one-shot `provmin eval`
#   3. a single-tuple /mutate is absorbed incrementally: the response
#      reports cache=delta and the next eval delta-applies (the full-
#      evaluation and view-build counters do not move)
#   4. /minimize honors step budgets (sound partial + resume cursor);
#      an /eval carrying a member it does not read ("planner") is a 400
#      naming it, and the next /eval still answers 200
#   5. 200 concurrent keep-alive connections x 10 pipelined evals each
#      all get byte-identical answers (vs one-shot `provmin eval`), and
#      /stats shows the connection reuse actually happened, that the
#      query was still evaluated only once, and that every body was
#      rendered once per (query, generation, format)
#   6. SIGINT drains and exits 0
#   7. a durable server (--data-dir) persists across SIGTERM: graceful
#      exit 0, a snapshot on disk, acked mutations served after restart
#   8. crash_storm: seeded kill -9 / torn-write rounds recover
#      byte-identically, and `provmin recover --check` reads the last
#      round's directory back cleanly
#
# Usage: ci/server_smoke.sh [path-to-provmin-binary] [port]
# Needs curl + POSIX tools (no jq: stats are grepped) plus the
# `keepalive_soak` and `crash_storm` binaries next to the provmin one
# (all come out of `cargo build --release`).

set -euo pipefail

BIN=${1:-target/release/provmin}
PORT=${2:-7177}
BASE="http://127.0.0.1:${PORT}"
WORKDIR=$(mktemp -d)
SERVER_PID=""

cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# A tiny JSON integer-field extractor: first occurrence of "key":N.
json_u64() { # json_u64 <key> <file>
    grep -o "\"$1\":[0-9]*" "$2" | head -1 | cut -d: -f2
}

echo "== writing test database"
cat > "$WORKDIR/db.txt" <<'EOF'
# Table 2 of the paper
R(a, a) : s1
R(a, b) : s2
R(b, a) : s3
R(b, b) : s4
EOF
QUERY="ans(x) :- R(x,y), R(y,x), x != y ; ans(x) :- R(x,x)"

echo "== starting $BIN serve on port $PORT"
"$BIN" serve --addr "127.0.0.1:${PORT}" --workers 2 --db "$WORKDIR/db.txt" &
SERVER_PID=$!

echo "== waiting for readiness"
for _ in $(seq 1 100); do
    if curl -sf "$BASE/stats" -o "$WORKDIR/stats0.json" 2>/dev/null; then
        break
    fi
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited before becoming ready"
    sleep 0.1
done
[ -f "$WORKDIR/stats0.json" ] || fail "server never became ready"

echo "== 1. repeated evals share one index build and one materialized result"
for i in 1 2 3; do
    curl -sf -X POST -H 'Content-Type: application/json' \
        -d "{\"query\": \"$QUERY\"}" "$BASE/eval" -o "$WORKDIR/eval$i.json" \
        || fail "eval request $i failed"
done
curl -sf "$BASE/stats" -o "$WORKDIR/stats1.json"
HITS=$(json_u64 hits "$WORKDIR/stats1.json")
MISSES=$(json_u64 misses "$WORKDIR/stats1.json")
echo "   cache: misses=$MISSES hits=$HITS"
[ "$MISSES" -eq 1 ] || fail "expected exactly 1 index build, saw $MISSES"
# Repeated requests share the materialized result without re-touching the
# view cache; the hits come from the union's disjuncts sharing one build.
[ "$HITS" -gt 0 ] || fail "expected view-cache hits > 0 (disjunct sharing), saw $HITS"

echo "== 2. server output is bit-identical to one-shot provmin eval"
curl -sf -X POST -H 'Content-Type: application/json' -H 'Accept: text/plain' \
    -d "{\"query\": \"$QUERY\"}" "$BASE/eval" -o "$WORKDIR/server_eval.txt"
"$BIN" eval "$WORKDIR/db.txt" "$QUERY" > "$WORKDIR/cli_eval.txt"
diff -u "$WORKDIR/cli_eval.txt" "$WORKDIR/server_eval.txt" \
    || fail "server /eval differs from one-shot provmin eval"

echo "== 3. single-tuple mutation is absorbed via the delta path"
GEN_BEFORE=$(json_u64 generation "$WORKDIR/stats1.json")
curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"insert": ["R(c, c) : s5"]}' "$BASE/mutate" -o "$WORKDIR/mutate.json" \
    || fail "mutate request failed"
GEN_AFTER=$(json_u64 generation "$WORKDIR/mutate.json")
[ "$GEN_AFTER" != "$GEN_BEFORE" ] || fail "mutation did not bump generation"
grep -q '"cache":"delta"' "$WORKDIR/mutate.json" \
    || fail "single-tuple /mutate must report cache=delta (warm views patched)"
for i in 4 5; do
    curl -sf -X POST -H 'Content-Type: application/json' \
        -d "{\"query\": \"$QUERY\"}" "$BASE/eval" -o "$WORKDIR/eval$i.json"
done
grep -q '(c)' "$WORKDIR/eval4.json" || fail "post-mutation eval missed the new tuple (stale result?)"
REBUILDS=$(json_u64 full_rebuilds "$WORKDIR/eval5.json")
APPLIES=$(json_u64 delta_applies "$WORKDIR/eval5.json")
MISSES2=$(json_u64 misses "$WORKDIR/eval5.json")
echo "   cache: full_rebuilds=$REBUILDS delta_applies=$APPLIES misses=$MISSES2"
[ "$REBUILDS" -eq 1 ] || fail "mutation must delta-apply, not re-evaluate (1 full evaluation total, saw $REBUILDS)"
[ "$APPLIES" -ge 1 ] || fail "expected >=1 delta apply after mutation, saw $APPLIES"
[ "$MISSES2" -eq 1 ] || fail "warm views must be patched across /mutate (1 build total), saw $MISSES2"

echo "== 4. budgeted minimize returns sound partial + cursor"
curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"query": "ans(x) :- R(x,y), R(y,z)", "budget_steps": 1}' \
    "$BASE/minimize" -o "$WORKDIR/minimize.json"
grep -q '"status":"partial"' "$WORKDIR/minimize.json" || fail "expected a partial result"
grep -q '"cursor"' "$WORKDIR/minimize.json" || fail "partial result must carry a resume cursor"
curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"query": "ans(x) :- R(x,y), R(x,z)"}' \
    "$BASE/minimize" -o "$WORKDIR/minimize_full.json"
grep -q '"status":"complete"' "$WORKDIR/minimize_full.json" || fail "unbudgeted minimize must complete"
STATUS=$(curl -s -o "$WORKDIR/unknown.json" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' \
    -d "{\"query\": \"$QUERY\", \"planner\": \"cost\"}" "$BASE/eval")
[ "$STATUS" = 400 ] || fail "an /eval carrying \"planner\" must be a 400, got $STATUS"
grep -q 'planner' "$WORKDIR/unknown.json" || fail "the 400 must name the member: $(cat "$WORKDIR/unknown.json")"
STATUS=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d "{\"query\": \"$QUERY\"}" "$BASE/eval")
[ "$STATUS" = 200 ] || fail "the /eval after a 400 must answer 200, got $STATUS"

echo "== 5. keep-alive concurrency: 200 conns x 10 pipelined evals, byte-diffed"
SOAK="$(dirname "$BIN")/keepalive_soak"
[ -x "$SOAK" ] || fail "keepalive_soak binary not found next to $BIN (build the workspace)"
# The server's database now includes the stage-3 mutation; the expected
# body is the one-shot CLI run over the same content.
cat "$WORKDIR/db.txt" > "$WORKDIR/db_mutated.txt"
echo "R(c, c) : s5" >> "$WORKDIR/db_mutated.txt"
"$BIN" eval "$WORKDIR/db_mutated.txt" "$QUERY" > "$WORKDIR/expected_soak.txt"
"$SOAK" --addr "127.0.0.1:${PORT}" --conns 200 --requests 10 \
    --query "$QUERY" --expect "$WORKDIR/expected_soak.txt" \
    || fail "keep-alive soak saw non-identical responses"
curl -sf "$BASE/stats" -o "$WORKDIR/stats2.json"
ACCEPTED=$(json_u64 accepted "$WORKDIR/stats2.json")
REUSES=$(json_u64 keepalive_reuses "$WORKDIR/stats2.json")
echo "   connections: accepted=$ACCEPTED keepalive_reuses=$REUSES"
[ "$ACCEPTED" -ge 200 ] || fail "expected >=200 accepted connections, saw $ACCEPTED"
# 200 connections x 10 requests = at least 9 reuses each.
[ "$REUSES" -ge 1800 ] || fail "expected >=1800 keep-alive reuses, saw $REUSES"
# One render per (query, generation, format): JSON and text before the
# stage-3 mutation, JSON (stage 3) and text (this soak) after it. Every
# other /eval so far was served from the cached bytes.
grep -o '"render":{[^}]*}' "$WORKDIR/stats2.json" > "$WORKDIR/render.json" \
    || fail "/stats has no render object"
RENDER_HITS=$(json_u64 hits "$WORKDIR/render.json")
RENDER_MISSES=$(json_u64 misses "$WORKDIR/render.json")
echo "   render: hits=$RENDER_HITS misses=$RENDER_MISSES"
[ "$RENDER_MISSES" -eq 4 ] || fail "expected 4 renders (2 generations x 2 formats), saw $RENDER_MISSES"
[ "$RENDER_HITS" -ge 2002 ] || fail "expected >=2002 render hits, saw $RENDER_HITS"
# 2000 concurrent evals at one generation share one materialized result:
# still the single full evaluation of stage 1.
SOAK_REBUILDS=$(json_u64 full_rebuilds "$WORKDIR/stats2.json")
[ "$SOAK_REBUILDS" -eq 1 ] || fail "expected 1 full evaluation after the soak, saw $SOAK_REBUILDS"

echo "== 6. SIGINT shuts down cleanly"
kill -INT "$SERVER_PID"
EXIT_CODE=0
wait "$SERVER_PID" || EXIT_CODE=$?
SERVER_PID=""
[ "$EXIT_CODE" -eq 0 ] || fail "serve exited $EXIT_CODE on SIGINT (expected 0)"
curl -sf --max-time 2 "$BASE/stats" -o /dev/null 2>/dev/null \
    && fail "server still accepting after shutdown"

echo "== 7. durable serve survives SIGTERM with a final snapshot"
DATA_DIR="$WORKDIR/data"
DUR_PORT=$((PORT + 1))
DUR_BASE="http://127.0.0.1:${DUR_PORT}"
"$BIN" serve --addr "127.0.0.1:${DUR_PORT}" --workers 2 --db "$WORKDIR/db.txt" \
    --data-dir "$DATA_DIR" --fsync always --snapshot-every 64 &
SERVER_PID=$!
for _ in $(seq 1 100); do
    curl -sf "$DUR_BASE/stats" -o /dev/null 2>/dev/null && break
    kill -0 "$SERVER_PID" 2>/dev/null || fail "durable server exited before becoming ready"
    sleep 0.1
done
curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"insert": ["R(d, d) : s6"]}' "$DUR_BASE/mutate" -o /dev/null \
    || fail "durable mutate failed"
kill -TERM "$SERVER_PID"
EXIT_CODE=0
wait "$SERVER_PID" || EXIT_CODE=$?
SERVER_PID=""
[ "$EXIT_CODE" -eq 0 ] || fail "durable serve exited $EXIT_CODE on SIGTERM (expected 0)"
[ -s "$DATA_DIR/snapshot.db" ] || fail "graceful SIGTERM left no snapshot in $DATA_DIR"
grep -q 'R(d, d) : s6' "$DATA_DIR/snapshot.db" \
    || fail "final snapshot is missing the acked mutation"
"$BIN" serve --addr "127.0.0.1:${DUR_PORT}" --workers 2 --data-dir "$DATA_DIR" &
SERVER_PID=$!
for _ in $(seq 1 100); do
    curl -sf "$DUR_BASE/stats" -o "$WORKDIR/dur_stats.json" 2>/dev/null && break
    kill -0 "$SERVER_PID" 2>/dev/null || fail "restarted server exited before becoming ready"
    sleep 0.1
done
TUPLES=$(json_u64 snapshot_tuples "$WORKDIR/dur_stats.json")
[ "$TUPLES" -eq 5 ] || fail "restart recovered $TUPLES tuples from the snapshot (expected 5)"
curl -sf -X POST -H 'Content-Type: application/json' -H 'Accept: text/plain' \
    -d '{"query": "ans(x) :- R(x,x)"}' "$DUR_BASE/eval" -o "$WORKDIR/dur_eval.txt"
grep -q '(d)' "$WORKDIR/dur_eval.txt" || fail "recovered eval is missing the acked mutation"
kill -INT "$SERVER_PID"
wait "$SERVER_PID" || fail "restarted server did not drain cleanly"
SERVER_PID=""

echo "== 8. crash_storm: seeded kill -9 + torn-write recovery rounds"
STORM="$(dirname "$BIN")/crash_storm"
[ -x "$STORM" ] || fail "crash_storm binary not found next to $BIN (build the workspace)"
"$STORM" "$BIN" --rounds 20 --seed 1309 --base-port $((PORT + 100)) \
    || fail "crash_storm found a durability violation"

echo "PASS: all server smoke checks passed"
