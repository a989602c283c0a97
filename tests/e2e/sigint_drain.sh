#!/usr/bin/env bash
# A socket-mode shlcpd SIGINT'd in the middle of a load drains: it
# stops taking work, exits 0 within 30 s and unlinks its socket, and
# the loader saw only ok answers and refusals. The open-loop load is
# scheduled over 3 s and the signal lands after 1 s, so the loader's
# connections are open and requests still arriving when it does; the
# loader's tally must show both answered and refused (or lost) requests.
#
#   sigint_drain.sh SHLCPD SHLCP_LOADGEN
. "$(dirname "$0")/lib.sh"
shlcpd=$1
loadgen=$2

"$shlcpd" --socket "$tmp/d.sock" &
daemon=$!
track "$daemon"
wait_for 50 -S "$tmp/d.sock"
"$loadgen" --socket "$tmp/d.sock" --open-loop --rate 200 --requests 600 \
  --concurrency 4 --allow-refused > "$tmp/load.out" &
loader=$!
track "$loader"
sleep 1
kill -INT "$daemon"
wait_gone 300 "$daemon"
reap "$daemon"
test ! -S "$tmp/d.sock"
code=0
reap "$loader" || code=$?
cat "$tmp/load.out"
test "$code" -eq 0
read -r ok refused lost < <(sed -nE \
  's/.* ([0-9]+) ok, [0-9]+ errors, ([0-9]+) refused, ([0-9]+) lost$/\1 \2 \3/p' \
  "$tmp/load.out")
test "$ok" -gt 0
test $((refused + lost)) -gt 0
