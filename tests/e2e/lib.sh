# Sourced by the end-to-end scripts in this directory: strict mode, a
# private temporary directory ($tmp), and an exit trap that kills and
# reaps every process registered with `track`, on every exit path, so
# the scripts can run side by side under `ctest -j`.

set -euo pipefail
trap 'echo "$0:$LINENO: exit $?" >&2' ERR
tmp=$(mktemp -d)
tracked=()

# track PID...: kill these on exit unless reaped or forgotten first.
track() { tracked+=("$@"); }

# forget PID...: stop tracking (a reaped child, or a process seen gone).
forget() {
  local keep=() p q
  for p in "${tracked[@]}"; do
    for q in "$@"; do [ "$p" = "$q" ] && continue 2; done
    keep+=("$p")
  done
  tracked=("${keep[@]}")
}

# reap PID: waits for a tracked child and returns its exit code.
reap() { local code=0; wait "$1" || code=$?; forget "$1"; return "$code"; }

# wait_for TRIES TEST PATH: polls `test TEST PATH` every 0.1 s.
wait_for() {
  for _ in $(seq 1 "$1"); do test "$2" "$3" && return 0; sleep 0.1; done
  echo "gave up waiting for $3 ($2)" >&2
  return 1
}

# wait_gone TRIES PID: polls every 0.1 s until PID has exited.
wait_gone() {
  for _ in $(seq 1 "$1"); do kill -0 "$2" 2>/dev/null || return 0; sleep 0.1; done
  echo "pid $2 still running after $(( $1 / 10 )) s" >&2
  return 1
}

# json_get FILE KEY: prints one member of a JSON object file.
json_get() {
  python3 -c "import json,sys; print(json.load(open(sys.argv[1]))[sys.argv[2]])" "$1" "$2"
}

cleanup() {
  local code=$?
  [ "${#tracked[@]}" -eq 0 ] || kill -9 "${tracked[@]}" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$tmp"
  exit "$code"
}
trap cleanup EXIT
