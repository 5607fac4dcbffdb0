#!/usr/bin/env bash
# Cluster smoke: 2 upa_shard processes behind an upa_router, driven with
# upa_client. Mid-run, one shard is SIGKILLed: queries it owned must fail
# fast with UNAVAILABLE while the surviving shard keeps answering. The
# shard is then restarted over the SAME journal dir; once the router's
# health probe readmits it, the full pre-kill workload is replayed and the
# released values must match the pre-kill run bit-for-bit (the repeat-query
# defense serves the journaled release, so any lost registry state would
# change the output). Last, the router's /stats must carry the "== net =="
# block of the net::Server its clients reach, with frames counted.
#
# With --kill-during-release the script instead runs the exactly-once
# drill: one shard with a failpoint that SIGKILLs it AFTER appending the
# kRelease journal record but BEFORE acknowledging the client — the
# classic "did my commit land?" window. The keyed query is re-sent with
# the same --nonce/--seq after restart and must be answered from the
# journaled dedup window; journal_dump must show exactly ONE release per
# key no matter how many times it was (re)submitted.
#
# Usage: scripts/run_cluster.sh [--kill-during-release] [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

DRILL=0
if [ "${1:-}" = "--kill-during-release" ]; then
  DRILL=1
  shift
fi

BUILD_DIR="${1:-build}"
SHARD_BIN="$BUILD_DIR/examples/upa_shard"
ROUTER_BIN="$BUILD_DIR/examples/upa_router"
CLIENT_BIN="$BUILD_DIR/examples/upa_client"
DUMP_BIN="$BUILD_DIR/examples/journal_dump"
for bin in "$SHARD_BIN" "$ROUTER_BIN" "$CLIENT_BIN" "$DUMP_BIN"; do
  [ -x "$bin" ] || { echo "missing $bin (build first)"; exit 2; }
done

WORK="$(mktemp -d /tmp/upa-cluster-smoke-XXXXXX)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_for_file() { # path [timeout_s]
  local path="$1" deadline=$((SECONDS + ${2:-15}))
  until [ -s "$path" ]; do
    [ "$SECONDS" -lt "$deadline" ] || { echo "timeout waiting for $path"; exit 1; }
    sleep 0.05
  done
}

start_shard() { # index
  local i="$1"
  rm -f "$WORK/port$i"
  mkdir -p "$WORK/journal$i"
  "$SHARD_BIN" --port "${SHARD_PORT[$i]:-0}" --port-file "$WORK/port$i" \
    --journal-dir "$WORK/journal$i" --shard-name "shard$i" \
    --threads 2 --sample-n 64 >"$WORK/shard$i.log" 2>&1 &
  PIDS+=($!); disown $!
  SHARD_PID[$i]=$!
  wait_for_file "$WORK/port$i"
  SHARD_PORT[$i]=$(cat "$WORK/port$i")
}

declare -a SHARD_PID SHARD_PORT

if [ "$DRILL" -eq 1 ]; then
  echo "== exactly-once drill: SIGKILL after release-append, before ack =="
  export UPA_FAILPOINTS="service/post_release_pre_ack=kill:every(2)"
  start_shard 0
  unset UPA_FAILPOINTS
  NONCE=0xd511

  keyed_query() { # seq -> first output line
    "$CLIENT_BIN" "${SHARD_PORT[0]}" --nonce "$NONCE" --seq "$1" \
      "count:2000" ds-drill | head -1
  }

  # Key 1 releases and acks normally (failpoint hit 1 of every(2)).
  FIRST=$(keyed_query 1)
  echo "key seq=1: $FIRST"

  # Key 2 trips the failpoint: the shard appends its kRelease record and
  # dies WITHOUT acking. The client only sees a dead connection — it
  # cannot know whether the release landed. This is the in-doubt window
  # idempotency keys exist for.
  if LOST=$(keyed_query 2 2>&1); then
    echo "FAIL: query should have lost its shard before the ack"; exit 1
  fi
  echo "key seq=2: shard died mid-ack (expected)"
  while kill -0 "${SHARD_PID[0]}" 2>/dev/null; do sleep 0.05; done

  echo "== restart over the same journal, re-send both keys verbatim =="
  start_shard 0

  # Key 2's release IS journaled: its re-submission must be answered from
  # the recovered dedup window, not executed (and charged) again.
  SECOND=$(keyed_query 2)
  echo "key seq=2 (replayed): $SECOND"
  FIRST_AGAIN=$(keyed_query 1)
  if [ "$FIRST" != "$FIRST_AGAIN" ]; then
    echo "FAIL: replay of key seq=1 changed: '$FIRST' vs '$FIRST_AGAIN'"
    exit 1
  fi

  # The journal is append-only history: exactly ONE release per key, no
  # matter how many times each was (re)submitted.
  "$DUMP_BIN" "$WORK"/journal0/*.journal >"$WORK/journal.txt"
  for seq in 1 2; do
    n=$(grep -c "^release.* nonce=$NONCE seq=$seq " "$WORK/journal.txt" || true)
    if [ "$n" -ne 1 ]; then
      echo "FAIL: key seq=$seq has $n release records (want exactly 1)"
      cat "$WORK/journal.txt"
      exit 1
    fi
  done
  echo "journal: exactly one release per key"
  echo "PASS: exactly-once release survived kill-during-release"
  exit 0
fi

start_shard 0
start_shard 1
echo "shards up: 127.0.0.1:${SHARD_PORT[0]} 127.0.0.1:${SHARD_PORT[1]}"

"$ROUTER_BIN" 0 "127.0.0.1:${SHARD_PORT[0]}" "127.0.0.1:${SHARD_PORT[1]}" \
  >"$WORK/router.log" 2>&1 &
PIDS+=($!); disown $!
ROUTER_PID=$!
wait_for_file "$WORK/router.log"
ROUTER_PORT=$(awk '/^READY/{print $2; exit}' "$WORK/router.log")
[ -n "$ROUTER_PORT" ] || { echo "router did not print READY"; cat "$WORK/router.log"; exit 1; }
echo "router up: 127.0.0.1:$ROUTER_PORT"

wait_healthy() { # expected-count [timeout_s]
  local want="$1" deadline=$((SECONDS + ${2:-20}))
  while :; do
    local got
    got=$("$CLIENT_BIN" "$ROUTER_PORT" --stats 2>/dev/null | grep -c 'healthy$' || true)
    [ "$got" -ge "$want" ] && return 0
    [ "$SECONDS" -lt "$deadline" ] || { echo "timeout: $got/$want shards healthy"; exit 1; }
    sleep 0.1
  done
}
wait_healthy 2

DATASETS=$(seq -f 'ds-%g' 1 12)
run_workload() { # outfile
  : >"$1"
  local ds
  for ds in $DATASETS; do
    echo "$ds $("$CLIENT_BIN" "$ROUTER_PORT" "count:2000" "$ds" | head -1)" >>"$1"
  done
}

echo "== phase 1: baseline workload over both shards =="
# First pass registers each query's partitions; the second is answered from
# the registry (repeat-query defense) and is the steady state every later
# replay must reproduce. A fresh execution and a registry-served repeat
# legitimately differ, so the baseline must itself be a repeat.
run_workload "$WORK/fresh.txt"
run_workload "$WORK/before.txt"

echo "== phase 2: SIGKILL shard1 mid-run =="
kill -9 "${SHARD_PID[1]}"
ok=0 unavailable=0
for ds in $DATASETS; do
  # No echo|grep here: grep -q exiting on first match can SIGPIPE echo,
  # which under pipefail fails the pipeline despite the match.
  if out=$("$CLIENT_BIN" "$ROUTER_PORT" "count:2000" "$ds" 2>&1); then
    ok=$((ok + 1))
  elif [[ "$out" == *UNAVAILABLE* ]]; then
    unavailable=$((unavailable + 1))
  else
    echo "unexpected failure for $ds: $out"; exit 1
  fi
done
echo "during outage: $ok served, $unavailable rejected UNAVAILABLE"
[ "$ok" -ge 1 ] || { echo "surviving shard served nothing"; exit 1; }
[ "$unavailable" -ge 1 ] || { echo "no query hit the dead shard"; exit 1; }

echo "== phase 3: restart shard1 over its journal, wait for readmission =="
start_shard 1
wait_healthy 2

echo "== phase 4: replay workload; releases must match phase 1 exactly =="
# A shard that lost its registry in the SIGKILL would answer these as FRESH
# queries (different value) instead of registry-served repeats.
run_workload "$WORK/after.txt"
if ! diff -u "$WORK/before.txt" "$WORK/after.txt"; then
  echo "FAIL: released values changed across SIGKILL + journal recovery"
  exit 1
fi

# The router answers its clients through net::Server: its stats end with
# that server's "== net ==" block, which counted this run's client frames.
STATS=$("$CLIENT_BIN" "$ROUTER_PORT" --stats)
echo "$STATS"
[[ "$STATS" == *"== net =="* ]] || { echo "FAIL: router stats lack '== net =='"; exit 1; }
FRAMES_IN=$(awk '/^== net ==/{net=1} net && $1 == "frames_in" {print $2; exit}' <<<"$STATS")
[ "${FRAMES_IN:-0}" -gt 0 ] || { echo "FAIL: router frames_in is '${FRAMES_IN:-}'"; exit 1; }
echo "PASS: failover + bit-identical journal recovery"
