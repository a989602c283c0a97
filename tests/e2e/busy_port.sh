#!/usr/bin/env bash
# shlcpd on a TCP port that is already taken (next to a unix listener):
# exit 1 within 2 s, saying which bind failed and why, with no port
# file, no socket and no "serving" line left behind.
#
#   busy_port.sh SHLCPD
. "$(dirname "$0")/lib.sh"
shlcpd=$1

python3 -c "import socket,time; s=socket.socket(); s.bind(('127.0.0.1',0)); s.listen(); print(s.getsockname()[1], flush=True); time.sleep(30)" > "$tmp/busy.port" &
track $!
wait_for 50 -s "$tmp/busy.port"
port=$(cat "$tmp/busy.port")
start=$(date +%s%N)
code=0
timeout 15 "$shlcpd" --tcp "127.0.0.1:$port" \
  --socket "$tmp/busy.sock" --port-file "$tmp/busy.json" 2> "$tmp/err" || code=$?
elapsed_ms=$(( ($(date +%s%N) - start) / 1000000 ))
cat "$tmp/err"
echo "exit $code after ${elapsed_ms} ms"
test "$code" -eq 1
test "$elapsed_ms" -lt 2000
test ! -e "$tmp/busy.json"
test ! -e "$tmp/busy.sock"
grep -qx "shlcpd: cannot bind tcp 127.0.0.1:$port: Address already in use" "$tmp/err"
if grep -q "serving" "$tmp/err"; then
  echo "a serving line was printed for a daemon that never served" >&2
  exit 1
fi
