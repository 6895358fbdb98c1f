#!/bin/sh
# Prints the two line counts simplicity PRs quote: non-test Go and _test.go
# lines, both over tracked files outside benchmark/ (which BENCHMARK.json
# freezes). Informational only: CI prints it, nothing gates on it.
set -eu
cd "$(dirname "$0")/.."

files() { git ls-files -- '*.go' ':!benchmark'; }
lines() { tr '\n' '\0' | xargs -0 cat | wc -l; }

echo "non-test Go lines outside benchmark/: $(files | grep -v '_test\.go$' | lines)"
echo "_test.go lines outside benchmark/:    $(files | grep '_test\.go$' | lines)"
