#!/usr/bin/env bash
# shlcpd --pipe: a health probe answers ok, and a burst of 64 frames
# followed by EOF gets exactly one ok answer per id, then exit 0.
#
#   pipe.sh SHLCPD
. "$(dirname "$0")/lib.sh"
shlcpd=$1

printf '34\n{"id":1,"op":"health","params":{}}\n' \
  | "$shlcpd" --pipe > "$tmp/pipe.out"
tail -n 1 "$tmp/pipe.out" \
  | python3 -c "import json,sys; r=json.load(sys.stdin); assert r['ok'] and r['id'] == 1, r"

python3 - > "$tmp/burst.in" <<'PY'
import json, sys
for i in range(1, 65):
    body = json.dumps({"id": i, "op": "info", "params": {}}, separators=(",", ":"))
    sys.stdout.write(f"{len(body)}\n{body}\n")
PY
"$shlcpd" --pipe < "$tmp/burst.in" > "$tmp/burst.out"
python3 - "$tmp/burst.out" <<'PY'
import json, sys
data = open(sys.argv[1], "rb").read()
ids, pos = [], 0
while pos < len(data):
    nl = data.index(b"\n", pos)
    n = int(data[pos:nl])
    r = json.loads(data[nl + 1:nl + 1 + n])
    assert r["ok"], r
    ids.append(r["id"])
    pos = nl + 1 + n + 1
assert sorted(ids) == list(range(1, 65)), ids
print(f"{len(ids)} answers, one per id")
PY
