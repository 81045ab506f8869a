#!/bin/sh
# Run the checks that need no pytest under every Python given, and the
# tier-1 suite under each of them that can import pytest and hypothesis.
# Give each interpreter by its full path: pyenv's shims reject a version
# that is not the selected one, and a bare name may find another install.
# Debian's /usr/bin/python3.11 (3.11.2) is a patched build whose
# email.utils.getaddresses reads strictly by default (gh-102988), as 3.13's
# does. mailminer reads addresses through email._parseaddr.AddressList, the
# parser under that switch, so one way on every Python; that build shows it.
#
#     tests/check_pythons.sh ~/.pyenv/versions/3.10.13/bin/python3 \
#         ~/.pyenv/versions/3.11.7/bin/python3 ~/.pyenv/versions/3.12.1/bin/python3 \
#         ~/.pyenv/versions/3.13.0/bin/python3 /usr/bin/python3.11
#
# PYTHONPATH is passed on, so an interpreter with no pytest of its own can
# import another's. With 3.11.7's site-packages on it, tier-1 runs on
# 3.11.2, 3.12.1 and 3.13.0 as well:
#
#     PYTHONPATH="$(~/.pyenv/versions/3.11.7/bin/python3 -c \
#         'import site; print(site.getsitepackages()[0])')" tests/check_pythons.sh ...
#
# 3.10.13 cannot run it that way: below 3.11 pytest 9 imports
# exceptiongroup, which is not installed there, so 3.10.13 runs the four
# --check gates only.
#
# Says which interpreters ran tier-1 and which had no tier-1 run, and exits
# non-zero if any check or test run failed (or an interpreter would not
# start).
set -u
cd "$(dirname "$0")/.." || exit 2
if [ $# -eq 0 ]; then
    echo "usage: tests/check_pythons.sh PYTHON..." >&2
    exit 2
fi
failed=""
ran=""
skipped=""
for py in "$@"; do
    echo "== $py"
    for check in tests/test_kernel_golden.py tests/test_addresses.py tests/test_golden.py tests/test_corpus_golden.py; do
        "$py" "$check" --check || failed="$failed $py:$check"
    done
    if "$py" -c "import pytest, hypothesis" 2>/dev/null; then
        PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" "$py" -m pytest -q --continue-on-collection-errors \
            || failed="$failed $py:tier-1"
        ran="$ran $py"
    else
        skipped="$skipped $py"
    fi
done
echo "tier-1 ran on:${ran:- none}"
if [ -n "$skipped" ]; then
    echo "tier-1 skipped, no pytest or hypothesis:$skipped"
fi
if [ -n "$failed" ]; then
    echo "FAILED:$failed"
    exit 1
fi
echo "all checks passed"
