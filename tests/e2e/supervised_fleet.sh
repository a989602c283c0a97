#!/usr/bin/env bash
# A live supervised router (--spawn 2): kill -9 one backend, and fleet
# health reports the reaped exit (137) and a restart; the key primed
# before the crash replays warm; a SIGINT teardown finishes within 30 s,
# removes the port file and leaves none of the fleet's backends alive.
#
#   supervised_fleet.sh SHLCP_ROUTER SHLCPD
. "$(dirname "$0")/lib.sh"
router_bin=$1
shlcpd=$2

# backend_pids: the pids of the fleet's backends, as health reports them.
backend_pids() {
  curl -sf http://127.0.0.1:$RH/v1/health \
    | python3 -c "import json,sys; h=json.load(sys.stdin); b=h['result']['backends']; assert len(b)==2 and all(x['alive'] for x in b), b; print(' '.join(str(x['pid']) for x in b))"
}

"$router_bin" --spawn 2 --spawn-dir "$tmp/fleet" --shlcpd "$shlcpd" \
  --http 127.0.0.1:0 --port-file "$tmp/ports.json" &
router=$!
track "$router"
wait_for 100 -f "$tmp/ports.json"
RH=$(json_get "$tmp/ports.json" http)
# Prime one key through the fleet.
curl -sf -X POST http://127.0.0.1:$RH/v1/check_coloring \
  -d '{"instance": "cycle6", "k": 2}' \
  | python3 -c "import json,sys; r=json.load(sys.stdin); assert r['ok'] and not r['cached'], r"
pids=$(backend_pids)
track $pids  # the router's children: killed here only if it cannot
victim=${pids%% *}
kill -9 "$victim"
# Fleet health must report the reaped exit (137) and a restart.
for i in $(seq 1 100); do
  HEALED=$(curl -sf http://127.0.0.1:$RH/v1/health \
    | python3 -c "import json,sys; h=json.load(sys.stdin); b=h['result']['backends'][0]; print(1 if b['alive'] and b['restarts']>=1 and b['last_exit']==137 else 0)") || HEALED=0
  [ "$HEALED" = "1" ] && break
  sleep 0.2
done
test "$HEALED" = "1"
forget "$victim"
pids=$(backend_pids)
track $pids
# The revived fleet serves the pre-crash key warm (from some disk
# cache -- owner or replica, both count as healed).
curl -sf -X POST http://127.0.0.1:$RH/v1/check_coloring \
  -d '{"instance": "cycle6", "k": 2}' \
  | python3 -c "import json,sys; r=json.load(sys.stdin); assert r['ok'] and r['cached'], r"
# SIGINT teardown: the router drains, then reaps its fleet. Bounded
# wait, so a stuck drain fails loudly instead of hanging the test.
kill -INT "$router"
wait_gone 300 "$router"
reap "$router"
test ! -f "$tmp/ports.json"
for pid in $pids; do
  if kill -0 "$pid" 2>/dev/null; then
    echo "backend $pid outlived the router" >&2
    exit 1
  fi
done
forget $pids
