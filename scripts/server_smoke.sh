#!/usr/bin/env sh
# Server smoke: the serve-layer chaos acceptance run.
#
# TestServerSmokeKill9 builds the real metainsightd binary, then drives the
# full robustness contract against it over HTTP:
#   - concurrent tenants with one flooding past its quota burst: the flood
#     sheds with typed 429 bodies while admitted requests complete;
#   - kill -9 of the daemon mid-job (at least 20 insights mined, so the
#     kill provably lands mid-job);
#   - restart over the same state directory: the daemon re-mines the job
#     from its journaled spec and finishes byte-identical to an
#     uninterrupted baseline (same insights JSON, same stats JSON).
#
# The harness lives in Go rather than curl so the assertions (JSON equality,
# typed error codes) are exact and portable.
set -eu
cd "$(dirname "$0")/.."
exec go test -race -count=1 -run 'TestServerSmokeKill9' -v ./internal/serve
