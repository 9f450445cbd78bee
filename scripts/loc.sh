#!/usr/bin/env bash
# loc.sh — print the repo's tracked line counts: physical lines (wc -l) of
# the tracked Go files outside perfbench/ (its own module), split into
# non-test and test files. It reports and never fails on the numbers.
set -euo pipefail

cd "$(dirname "$0")/.."

# count GREP_FLAGS... — total lines of the files whose names the flags select.
count() {
  git ls-files -z '*.go' ':!:perfbench/**' | grep -z "$@" '_test\.go$' |
    xargs -0 -r cat | wc -l
}

echo "non-test Go LOC: $(count -v)"
echo "test Go LOC:     $(count -e)"
