#!/bin/sh
# Prints what a simplicity PR quotes before and after: non-test Go and
# _test.go line counts over tracked files outside benchmark/ (which
# BENCHMARK.json freezes), the root package's exported top-level identifiers
# (methods and struct fields not counted), the exported fields of the
# non-test *Config / *Options / *Params structs outside benchmark/ (a line
# declaring several names counts each) and each command's flag count.
# Informational only: CI prints it, nothing gates on it.
set -eu
cd "$(dirname "$0")/.."

files() { git ls-files -- '*.go' ':!benchmark'; }
lines() { tr '\n' '\0' | xargs -0 cat | wc -l; }

echo "non-test Go lines outside benchmark/: $(files | grep -v '_test\.go$' | lines)"
echo "_test.go lines outside benchmark/:    $(files | grep '_test\.go$' | lines)"

echo "root package exported identifiers:    $(git ls-files -- '*.go' | grep -v / | grep -v '_test\.go$' | xargs awk '
	/^(var|const|type) \($/ { block = 1; next }
	block && /^\)/ { block = 0; next }
	block && /^\t[A-Z][A-Za-z0-9_]*( |,|$)/ { n++; next }
	/^(func|type|var|const) [A-Z]/ { n++ }
	END { print n + 0 }')"
echo "exported *Config/*Options/*Params fields: $(files | grep -v '_test\.go$' | tr '\n' '\0' | xargs -0 awk '
	/^type [A-Za-z0-9_]*(Config|Options|Params) struct \{/ { body = 1; depth = 1; next }
	body {
		line = $0
		sub(/\/\/.*/, "", line)
		if (depth == 1 && line ~ /^\t[A-Za-z_]/) {
			s = substr(line, 2)
			while (match(s, /^[A-Za-z_][A-Za-z0-9_]*/)) {
				if (s ~ /^[A-Z]/) n++
				s = substr(s, RLENGTH + 1)
				if (s !~ /^, /) break
				s = substr(s, 3)
			}
		}
		depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
		if (depth <= 0) body = 0
	}
	END { print n + 0 }')"
for d in cmd/*/; do
	echo "$d flags: $(cat "$d"*.go | grep -cE '\<(flag|fs)\.[A-Z][A-Za-z0-9]*\((&[A-Za-z]+, )?"' || true)"
done
