#!/bin/sh
# Full verification gate: build, lint, vet, race-enabled tests, the
# core-count parity run, the crash/worker-kill/disk-pressure smokes, and a
# fuzz smoke. This script is the one definition of the gate; `make ci`
# runs it. FUZZTIME sets the per-target fuzz budget (default: 10s).
set -eu
cd "$(dirname "$0")/.."

go build ./...

# Static analysis over the embedded CVL rule library (exit 1 on any
# error-level diagnostic; warnings are reported but do not gate).
go run ./cmd/cvlint -q -builtin

# Semantic analysis gate: the library and the examples/rules project
# must be free of CVL4xx findings, warnings included, with no baseline.
analyze_out=$(go run ./cmd/cvlint -builtin; go run ./cmd/cvlint ./examples/rules)
if echo "$analyze_out" | grep -E 'CVL4[0-9][0-9]'; then
	echo "semantic findings above"
	exit 1
fi

fmt_out=$(gofmt -l .)
if [ -n "$fmt_out" ]; then
	echo "gofmt needed on:"
	echo "$fmt_out"
	exit 1
fi

go vet ./...
go test -race ./...

# Core-count parity: fleet workers and retries, the parse cache the workers
# share, the engine's shared verdict memo, the server's breaker, the
# journal and the one telemetry collector they all write must behave the
# same single-core and multi-core, whatever core count this machine has.
go test -count=1 -cpu 1,4 . ./internal/crawler ./internal/engine ./internal/server ./internal/journal ./internal/telemetry

# Kill-and-resume smoke: crash a journaled fleet scan partway, resume,
# and require the summary to match an uninterrupted run's.
./scripts/resume_smoke.sh

# Worker-kill smoke: SIGKILL a cvworker process mid-shard during a
# distributed coordinate run and require the merged summary to match an
# in-process run's.
./scripts/worker_kill_smoke.sh

# Disk-pressure smoke: fill the disk (size-capped tmpfs, or the CV_FAULTS
# ENOSPC injector when unprivileged) under a journaled scan; the scan must
# complete degraded and a follow-up run must resume journaling.
./scripts/enospc_smoke.sh

# Fuzz smoke over the untrusted-input parsers and the journal's record
# decoder; go test accepts one -fuzz target per invocation, so each runs
# separately.
fuzztime="${FUZZTIME:-10s}"
go test -fuzz FuzzDecode -fuzztime "$fuzztime" -run FuzzDecode ./internal/yaml/
go test -fuzz FuzzSSHDParse -fuzztime "$fuzztime" -run FuzzSSHDParse ./internal/lens/
go test -fuzz FuzzDecodeRecord -fuzztime "$fuzztime" -run FuzzDecodeRecord ./internal/journal/
