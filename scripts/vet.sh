#!/bin/sh
# Static checks for the repo's own binaries and examples.
#
# Always fails on any file gofmt would change, then runs go vet over the whole
# module. When staticcheck is installed
# (https://staticcheck.dev), additionally runs its deprecation analysis
# (SA1019) over cmd/, examples/ and internal/serve, which must not use the
# four deprecated root names (NewAnalyzer, WithObserver, WithProgress,
# WithCostBudget); internal/apicheck enforces the same rule without any
# third-party tool, so CI stays green on a bare toolchain. SA1019 is not run
# module-wide only because the frozen benchmark/ harness and the root tests
# that pin those shims (TestShimEquivalence, TestAnalyzerMineIsHermetic) use
# them on purpose.
set -eu
cd "$(dirname "$0")/.."

echo "gofmt -l ."
test -z "$(gofmt -l .)"

echo "go vet ./..."
go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
	echo "staticcheck -checks SA1019 ./cmd/... ./examples/... ./internal/serve/..."
	staticcheck -checks SA1019 ./cmd/... ./examples/... ./internal/serve/...
else
	echo "staticcheck not installed; skipping (internal/apicheck still enforces the deprecation rule)"
fi
