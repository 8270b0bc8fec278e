#!/usr/bin/env sh
# Unified static-check entry point: the contract analyzer and the spec
# linter, each with its fixture self-test, one exit code. This is the exact
# command the CI contract-analyzer job and the docs/correctness.md gate
# table reference:
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

run "$python" "$root/tools/spec_lint.py" --check-tables "$root/src" \
    "$root"/specs/*.spec
run "$python" "$root/tools/spec_lint.py" --self-test "$root/tests/spec_fixtures"

if [ "$status" -eq 0 ]; then
    echo "check.sh: all static gates clean"
else
    echo "check.sh: FAILURES above" >&2
fi
exit "$status"
