#!/usr/bin/env sh
# Static-check entry point: the contract analyzer and its fixture
# self-test, one exit code. This is the exact command the CI
# contract-analyzer job and the docs/correctness.md gate table reference:
#
#   tools/check.sh
#
# Run from anywhere; paths resolve relative to the repo root.
set -u

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
python=${PYTHON:-python3}
status=0

run() {
    printf '== %s\n' "$*"
    "$@" || status=1
}

run "$python" "$root/tools/dlb_analyzer" --base "$root" --root src
run "$python" "$root/tools/dlb_analyzer" --base "$root" \
    --self-test tests/analyzer_fixtures

if [ "$status" -eq 0 ]; then
    echo "check.sh: all static gates clean"
else
    echo "check.sh: FAILURES above" >&2
fi
exit "$status"
