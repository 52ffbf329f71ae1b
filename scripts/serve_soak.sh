#!/usr/bin/env bash
# Serve-tier soak smoke: boots `abcs serve` on a generated BS edge list
# (the startup path that builds the decomposition and both indexes),
# proves the daemon answers every method bit-identically to the offline
# batch runner over the saved bundle, hammers it with concurrent clients
# for a sustained window, then SIGTERMs it and asserts a clean drain
# (exit 0, zero dropped requests). A second daemon serves the bundle with
# live updates; static `--bundle` serving is covered by serve_chaos.sh.
#
# Usage: scripts/serve_soak.sh [path/to/abcs]
#   SOAK_SECONDS  soak window per run (default 30)
#   SOAK_CLIENTS  concurrent client connections (default 4)
#   SOAK_THREADS  server worker threads (default 4)
set -euo pipefail

ABCS=${1:-build/tools/abcs}
SOAK_SECONDS=${SOAK_SECONDS:-30}
SOAK_CLIENTS=${SOAK_CLIENTS:-4}
SOAK_THREADS=${SOAK_THREADS:-4}

if [[ ! -x "$ABCS" ]]; then
  echo "serve_soak: abcs binary not found at $ABCS" >&2
  exit 1
fi

WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
  if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -KILL "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

GRAPH=$WORK/bs.txt
BUNDLE=$WORK/bs.idx
PORT_FILE=$WORK/port
SERVER_LOG=$WORK/server.log

echo "== generating dataset and index"
"$ABCS" gen BS "$GRAPH" >/dev/null
"$ABCS" index "$GRAPH" "$BUNDLE" >/dev/null

echo "== starting daemon from the edge list (threads=$SOAK_THREADS)"
"$ABCS" serve "$GRAPH" --port 0 --port-file "$PORT_FILE" \
  --threads "$SOAK_THREADS" 2>"$SERVER_LOG" &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [[ -s "$PORT_FILE" ]] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "serve_soak: daemon died during startup:" >&2
    cat "$SERVER_LOG" >&2
    exit 1
  fi
  sleep 0.1
done
if [[ ! -s "$PORT_FILE" ]]; then
  echo "serve_soak: daemon never wrote its port file" >&2
  exit 1
fi
PORT=$(cat "$PORT_FILE")
echo "== daemon on port $PORT"

"$ABCS" client --port "$PORT" --ping

# A small mixed batch touching both layers. The daemon must agree with the
# offline engine byte for byte per method, modulo the offline runner's
# touched-work diagnostics (a warm memo legitimately does no work, so the
# wire never carries work counters).
BATCH=$WORK/batch.txt
cat > "$BATCH" <<'EOF'
1 2 2
0 1 1 l
2 3 3
5 2 3
3 2 2 u
7 1 2 l
4 4 4
EOF

echo "== per-method identity: daemon vs offline batch runner"
for method in online bicore delta scs-auto scs-peel scs-expand scs-binary; do
  "$ABCS" query --bundle "$BUNDLE" --batch "$BATCH" --method "$method" \
    --threads 2 2>/dev/null \
    | sed -e 's/ touched=[0-9]*//' -e 's/ touched_arcs=[0-9]*//' \
    > "$WORK/offline.$method"
  # Twice: the second pass is all memo hits and must still be identical.
  for pass in cold warm; do
    "$ABCS" client --port "$PORT" --batch "$BATCH" --method "$method" \
      2>/dev/null > "$WORK/served.$method.$pass"
    if ! diff -u "$WORK/offline.$method" "$WORK/served.$method.$pass"; then
      echo "serve_soak: $method ($pass) diverges from offline batch" >&2
      exit 1
    fi
  done
  echo "   ok: $method (cold + memo-warm)"
done

echo "== soak: $SOAK_CLIENTS clients for ${SOAK_SECONDS}s"
"$ABCS" client --port "$PORT" --batch "$BATCH" --method delta \
  --connections "$SOAK_CLIENTS" --duration "$SOAK_SECONDS"

echo "== SIGTERM drain"
kill -TERM "$SERVER_PID"
DRAIN_RC=0
wait "$SERVER_PID" || DRAIN_RC=$?
SERVER_PID=""
if [[ "$DRAIN_RC" -ne 0 ]]; then
  echo "serve_soak: daemon exited $DRAIN_RC after SIGTERM:" >&2
  cat "$SERVER_LOG" >&2
  exit 1
fi
if ! grep -q "^# drained:" "$SERVER_LOG"; then
  echo "serve_soak: no drain summary in daemon log:" >&2
  cat "$SERVER_LOG" >&2
  exit 1
fi
grep "^# drained:" "$SERVER_LOG"
# Well-behaved clients must never trip the slow-client shed.
if ! grep "^# drained:" "$SERVER_LOG" | grep -q "slow_dropped=0 "; then
  echo "serve_soak: slow-client sheds under normal load" >&2
  exit 1
fi

# ---------------------------------------------------------------- live updates
# Second daemon phase: --enable-updates with a compaction target. Update
# traffic (reweight + remove/reinsert churn, committed in batches) runs
# against concurrent query clients; afterwards the daemon's post-update
# answers, the offline engine on a freshly indexed post-update graph, and
# the drain-time compacted bundle must all agree bit for bit.
SERVER2_LOG=$WORK/server2.log
PORT_FILE2=$WORK/port2
COMPACT=$WORK/compact.idx

echo "== starting update-enabled daemon"
"$ABCS" serve --bundle "$BUNDLE" --port 0 --port-file "$PORT_FILE2" \
  --threads "$SOAK_THREADS" --enable-updates --compact-path "$COMPACT" \
  2>"$SERVER2_LOG" &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [[ -s "$PORT_FILE2" ]] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "serve_soak: update daemon died during startup:" >&2
    cat "$SERVER2_LOG" >&2
    exit 1
  fi
  sleep 0.1
done
PORT2=$(cat "$PORT_FILE2")
echo "== update daemon on port $PORT2"

# Update traffic over edges known to exist (pulled from the generated
# edge list): each batch bumps one edge's weight by 1.5, churns it out
# and back at the new weight, then commits an epoch.
UPDATES=$WORK/updates.txt
POST_GRAPH=$WORK/bs_post.txt
POST_BUNDLE=$WORK/bs_post.idx
awk '!/^%/ {
  w = $3 + 1.5
  printf "w %s %s %.6f\nr %s %s\ni %s %s %.6f\nc\n", $1, $2, w, $1, $2, $1, $2, w
  if (++n == 24) exit
}' "$GRAPH" > "$UPDATES"
# The same mutation applied offline: first 24 edges reweighted by +1.5.
awk 'BEGIN { n = 0 }
  /^%/ { print; next }
  n < 24 { printf "%s %s %.6f\n", $1, $2, $3 + 1.5; n++; next }
  { print }' "$GRAPH" > "$POST_GRAPH"

echo "== applying updates under concurrent query load"
"$ABCS" client --port "$PORT2" --batch "$BATCH" --method delta \
  --connections "$SOAK_CLIENTS" --duration 5 >/dev/null &
LOAD_PID=$!
"$ABCS" client --port "$PORT2" --update-file "$UPDATES" >/dev/null
wait "$LOAD_PID"

echo "== post-update identity: daemon vs offline rebuild"
"$ABCS" index "$POST_GRAPH" "$POST_BUNDLE" >/dev/null
for method in online bicore delta; do
  "$ABCS" query --bundle "$POST_BUNDLE" --batch "$BATCH" --method "$method" \
    --threads 2 2>/dev/null \
    | sed -e 's/ touched=[0-9]*//' -e 's/ touched_arcs=[0-9]*//' \
    > "$WORK/offline.post.$method"
  "$ABCS" client --port "$PORT2" --batch "$BATCH" --method "$method" \
    2>/dev/null > "$WORK/served.post.$method"
  if ! diff -u "$WORK/offline.post.$method" "$WORK/served.post.$method"; then
    echo "serve_soak: post-update $method diverges from offline rebuild" >&2
    exit 1
  fi
  echo "   ok: $method (post-update)"
done

echo "== SIGTERM drain (update daemon)"
kill -TERM "$SERVER_PID"
DRAIN_RC=0
wait "$SERVER_PID" || DRAIN_RC=$?
SERVER_PID=""
if [[ "$DRAIN_RC" -ne 0 ]]; then
  echo "serve_soak: update daemon exited $DRAIN_RC after SIGTERM:" >&2
  cat "$SERVER2_LOG" >&2
  exit 1
fi
if ! grep -q "^# updates:" "$SERVER2_LOG"; then
  echo "serve_soak: no update summary in daemon log:" >&2
  cat "$SERVER2_LOG" >&2
  exit 1
fi
grep "^# updates:" "$SERVER2_LOG"

echo "== compacted bundle identity"
if [[ ! -s "$COMPACT" ]]; then
  echo "serve_soak: drain left no compacted bundle at $COMPACT" >&2
  exit 1
fi
for method in online bicore delta; do
  "$ABCS" query --bundle "$COMPACT" --batch "$BATCH" --method "$method" \
    --threads 2 2>/dev/null \
    | sed -e 's/ touched=[0-9]*//' -e 's/ touched_arcs=[0-9]*//' \
    > "$WORK/compact.$method"
  if ! diff -u "$WORK/offline.post.$method" "$WORK/compact.$method"; then
    echo "serve_soak: compacted bundle $method diverges from offline" >&2
    exit 1
  fi
  echo "   ok: $method (compacted bundle)"
done
echo "serve_soak: PASS"
