#!/bin/sh
# Run the checks that need no pytest under every Python given, and the
# tier-1 suite under each of them that can import pytest and hypothesis:
#
#     tests/check_pythons.sh python3.10 python3.11 python3.12 python3.13
#
# Says which interpreters had no tier-1 run, and exits non-zero if any
# check or test run failed (or an interpreter would not start).
set -u
cd "$(dirname "$0")/.." || exit 2
if [ $# -eq 0 ]; then
    echo "usage: tests/check_pythons.sh PYTHON..." >&2
    exit 2
fi
failed=""
skipped=""
for py in "$@"; do
    echo "== $py"
    for check in tests/test_kernel_golden.py tests/test_addresses.py; do
        "$py" "$check" --check || failed="$failed $py:$check"
    done
    if "$py" -c "import pytest, hypothesis" 2>/dev/null; then
        PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" "$py" -m pytest -q --continue-on-collection-errors \
            || failed="$failed $py:tier-1"
    else
        skipped="$skipped $py"
    fi
done
if [ -n "$skipped" ]; then
    echo "tier-1 skipped, no pytest or hypothesis:$skipped"
fi
if [ -n "$failed" ]; then
    echo "FAILED:$failed"
    exit 1
fi
echo "all checks passed"
