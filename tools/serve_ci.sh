#!/usr/bin/env bash
# CI driver for the postr-serve daemon: boots it with forked workers and
# proves, from the outside, the properties the service promises.
#
#   1. Fidelity  — every tests/corpus/*.smt2 served cold and warm gives
#                  the same verdict line and exit code as one-shot
#                  smtlib_cli, and the warm pass hits the cache.
#   2. Containment — a worker crashing mid-query (x-test-abort) and a
#                  worker SIGKILLed from the outside both end in a
#                  correct served verdict, never a daemon crash.
#   3. Faults    — with POSTR_FAULT_INJECT armed at each of the 13
#                  registered probe sites (faultSiteNames() in
#                  src/base/Budget.cpp) the daemon still answers every
#                  corpus query structurally (sat/unsat/unknown (reason))
#                  and stays healthy.
#
# Usage: tools/serve_ci.sh [build-dir]   (default: build)

set -u

BUILD=${1:-build}
SERVE="$BUILD/tools/postr_serve"
CLIENT="$BUILD/tools/postr_client"
CLI="$BUILD/examples/smtlib_cli"
CORPUS_DIR=$(dirname "$0")/../tests/corpus
SOCK_DIR=$(mktemp -d)
trap 'rm -rf "$SOCK_DIR"; [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null' EXIT

FAILURES=0
fail() { echo "FAIL: $*" >&2; FAILURES=$((FAILURES + 1)); }

for bin in "$SERVE" "$CLIENT" "$CLI"; do
  [ -x "$bin" ] || { echo "missing binary $bin" >&2; exit 2; }
done

start_daemon() { # args: socket-path [env assignments...]
  local sock=$1; shift
  env "$@" "$SERVE" --socket "$sock" &
  SERVE_PID=$!
  "$CLIENT" --socket "$sock" --wait-ms 5000 --ping >/dev/null ||
    { echo "daemon failed to come up" >&2; exit 2; }
}

stop_daemon() { # args: socket-path
  "$CLIENT" --socket "$1" --shutdown >/dev/null 2>&1
  wait "$SERVE_PID" 2>/dev/null
  SERVE_PID=
}

# --- 1. Fidelity: served == one-shot, cold and warm ----------------------
SOCK=$SOCK_DIR/fidelity.sock
start_daemon "$SOCK" POSTR_SERVE_WORKERS=2
for pass in cold warm; do
  for f in "$CORPUS_DIR"/*.smt2; do
    want_out=$("$CLI" "$f"); want_rc=$?
    got_out=$("$CLIENT" --socket "$SOCK" "$f"); got_rc=$?
    [ "$got_rc" -eq "$want_rc" ] ||
      fail "$pass $(basename "$f"): exit $got_rc, one-shot $want_rc"
    # Verdict line must match byte for byte; the client appends a
    # "; cache ..." line the one-shot path doesn't have.
    [ "$(echo "$got_out" | head -1)" = "$(echo "$want_out" | head -1)" ] ||
      fail "$pass $(basename "$f"): verdict '$(echo "$got_out" | head -1)'" \
           "vs one-shot '$(echo "$want_out" | head -1)'"
    if [ "$pass" = warm ] && [ "$want_rc" -eq 0 ]; then
      echo "$got_out" | grep -q "^; cache hit$" ||
        fail "warm $(basename "$f"): expected a cache hit"
    fi
  done
done
stop_daemon "$SOCK"

# --- 2. Containment: crash mid-query and external SIGKILL ----------------
SOCK=$SOCK_DIR/contain.sock
start_daemon "$SOCK" POSTR_SERVE_WORKERS=2 POSTR_SERVE_ALLOW_TEST_ABORT=1
F=$CORPUS_DIR/sat_position_mix.smt2
want=$("$CLI" "$F" | head -1)

# (a) The worker aborts mid-query; the daemon quarantines, rebuilds, and
# the retry still answers correctly.
got=$("$CLIENT" --socket "$SOCK" --no-cache --test-abort "$F" | head -1)
[ "$got" = "$want" ] || fail "test-abort recovery: got '$got', want '$want'"

# (b) SIGKILL a live worker child from the outside, then query: the
# daemon must notice the corpse, respawn, and answer.
WORKER_PID=$(pgrep -P "$SERVE_PID" | head -1)
if [ -n "$WORKER_PID" ]; then
  kill -9 "$WORKER_PID"
  sleep 0.2
else
  fail "no forked worker child found to SIGKILL"
fi
got=$("$CLIENT" --socket "$SOCK" --no-cache "$F" | head -1)
[ "$got" = "$want" ] || fail "post-SIGKILL solve: got '$got', want '$want'"

STATS=$("$CLIENT" --socket "$SOCK" --stats)
echo "$STATS" | grep -q '"worker_crashes": [1-9]' ||
  fail "stats did not record the worker crashes: $STATS"
echo "$STATS" | grep -q '"quarantines": [1-9]' ||
  fail "stats did not record the quarantines: $STATS"
stop_daemon "$SOCK"

# --- 3. Fault-injection sweep: structured replies, daemon survives -------
SITES="nfa.intersect nfa.determinize nfa.epsilon eq.stabilize
       tagaut.encode tagaut.parikh lia.sat lia.simplex lia.mbqi
       solver.disjunct solver.enum solver.bruteforce counter.walk"
for site in $SITES; do
  SOCK=$SOCK_DIR/fault.sock
  start_daemon "$SOCK" POSTR_FAULT_INJECT="$site:1"
  for f in "$CORPUS_DIR"/*.smt2; do
    full=$("$CLIENT" --socket "$SOCK" --no-cache "$f"); rc=$?
    out=$(echo "$full" | head -1)
    case $rc in
      0|2|3|4|5|6) : ;;
      *) fail "fault $site $(basename "$f"): exit $rc ($out)" ;;
    esac
    echo "$out" | grep -Eq '^(sat|unsat|unknown( \(.*\))?)$' ||
      fail "fault $site $(basename "$f"): unstructured reply '$out'"
  done
  "$CLIENT" --socket "$SOCK" --ping >/dev/null ||
    fail "fault $site: daemon died during the sweep"
  stop_daemon "$SOCK"
  rm -f "$SOCK"
done

if [ "$FAILURES" -gt 0 ]; then
  echo "serve_ci: $FAILURES failure(s)" >&2
  exit 1
fi
echo "serve_ci: all checks passed"
