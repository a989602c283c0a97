#!/usr/bin/env bash
# A live fleet: two TCP shlcpd backends behind shlcp_router with JSONL
# and HTTP fronts. The HTTP healthz sees both backends alive, a routed
# POST answers ok, a 200-request load through the JSONL front has zero
# errors and a warm shard-local cache, and a SIGINT teardown (router
# first, then the backends) exits 0 everywhere.
#
#   fleet.sh SHLCPD SHLCP_ROUTER SHLCP_LOADGEN
. "$(dirname "$0")/lib.sh"
shlcpd=$1
router_bin=$2
loadgen=$3

"$shlcpd" --tcp 127.0.0.1:0 --threads 1 --port-file "$tmp/b0.json" &
b0=$!
track "$b0"
"$shlcpd" --tcp 127.0.0.1:0 --threads 1 --port-file "$tmp/b1.json" &
b1=$!
track "$b1"
wait_for 100 -f "$tmp/b0.json"
wait_for 100 -f "$tmp/b1.json"
P0=$(json_get "$tmp/b0.json" tcp)
P1=$(json_get "$tmp/b1.json" tcp)
"$router_bin" \
  --backend b0=tcp:127.0.0.1:$P0 --backend b1=tcp:127.0.0.1:$P1 \
  --tcp 127.0.0.1:0 --http 127.0.0.1:0 \
  --port-file "$tmp/router.json" &
router=$!
track "$router"
wait_for 100 -f "$tmp/router.json"
RT=$(json_get "$tmp/router.json" tcp)
RH=$(json_get "$tmp/router.json" http)
# HTTP probes through the gateway: healthz must aggregate two live
# backends; a routed op must answer ok.
curl -sf http://127.0.0.1:$RH/healthz | python3 -c "import json,sys; h=json.load(sys.stdin); assert h['ok'], h; b=h['result']['backends']; assert len(b)==2 and all(x['alive'] for x in b), b"
curl -sf -X POST http://127.0.0.1:$RH/v1/check_coloring \
  -d '{"instance": "cycle6", "k": 2}' \
  | python3 -c "import json,sys; r=json.load(sys.stdin); assert r['ok'] and r['result']['colorable'], r"
# Mixed load through the router's JSONL front: zero errors and a warm
# shard-local cache on repeats.
"$loadgen" --tcp 127.0.0.1:$RT \
  --requests 200 --concurrency 4 --repeat-keys 16 \
  --require-hit-rate 0.5
# SIGINT teardown: router first, then backends; all exit 0.
kill -INT "$router"; reap "$router"
kill -INT "$b0"; reap "$b0"
kill -INT "$b1"; reap "$b1"
