#!/usr/bin/env bash
# The interrupt/resume loop of resumable_enum: a frame-budgeted run
# exits 3 with a checkpoint on disk, the same command then resumes it
# to completion (exit 0), and the manifest validates at both stops.
#
#   resume.sh RESUMABLE_ENUM CHECK_BENCH_JSON_PY
. "$(dirname "$0")/lib.sh"
resumable=$1
checker=$2
ckpt=$tmp/ckpt

code=0
"$resumable" --ckpt "$ckpt" --max-frames 5 --every 2 || code=$?
test "$code" -eq 3
test -f "$ckpt/manifest.json"
python3 "$checker" --ckpt "$ckpt"
"$resumable" --ckpt "$ckpt"
grep -q '"status": "complete"' "$ckpt/manifest.json"
python3 "$checker" --ckpt "$ckpt"
