#!/bin/sh
# verify.sh: the repo's tier-1 check. Everything here must pass before a
# change lands: formatting, vet, a clean build, the full test suite under
# the race detector (the fleet simulator and streaming estimator are
# concurrent), and the linter over the example corpus (clean.mc must stay
# clean; the demo programs only carry warnings, so ctlint exits 0 on all
# of them).
set -eu
cd "$(dirname "$0")"

echo "== gofmt"
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$badfmt" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== perfbench (separate module: vet + tests)"
# The benchmark harness is its own module, so ./... above never builds
# it: without this step an API it compiles against could vanish with
# every other check green.
(cd perfbench && go vet . && go test -count=1 .)

echo "== fuzz smoke (packet decoder)"
go test ./internal/trace -run=NONE -fuzz=FuzzPacketDecode -fuzztime=5s

echo "== fuzz smoke (path enumeration)"
# Differential fuzzing of the dense path enumerator against the map-based
# oracle kept in its test file: random small CFGs and caps; any difference
# in paths, arcs, counts, truncation or path times is a crash.
go test ./internal/markov -run=NONE -fuzz=FuzzEnumerate -fuzztime=5s

echo "== fuzz smoke (CRC-16)"
# Differential fuzzing of the table-driven CRC-16 against the bitwise
# oracle kept in its test file: any differing checksum is a crash.
go test ./internal/mote -run=NONE -fuzz=FuzzCRC16 -fuzztime=5s

echo "== fuzz smoke (lazy RNG source)"
# Differential fuzzing of the lazily built random source against
# math/rand's own: any seed and stream length whose mixed draws differ
# is a crash.
go test ./internal/stats -run=NONE -fuzz=FuzzSourceMatchesMathRand -fuzztime=5s

echo "== fuzz smoke (interpreter cores)"
# Differential fuzzing of the fused dispatch core against the reference
# Step core: any state divergence on a random program is a crash.
go test ./internal/mote -run=NONE -fuzz=FuzzFastCore -fuzztime=5s

echo "== fuzz smoke (static bounds)"
# Random programs: measured cycles and stack depth must never exceed the
# static WCET/stack bounds, with and without dead-branch elimination.
go test ./internal/compile -run=NONE -fuzz=FuzzStaticBounds -fuzztime=5s

echo "== fuzz smoke (PGO passes)"
# Differential fuzzing of the profile-guided pipeline: random programs,
# random weights, and random pass combinations must preserve semantics
# bit-for-bit against a plain build under flash-page penalties.
go test ./internal/compile -run=NONE -fuzz=FuzzPGOPasses -fuzztime=5s

echo "== fuzz smoke (checkpoint codec)"
# Random bytes at the checkpoint decoder: corrupt or truncated images must
# be rejected cleanly, and every accepted image must re-encode to an
# equivalent checkpoint.
go test ./internal/mote -run=NONE -fuzz=FuzzCheckpointDecode -fuzztime=5s

echo "== fuzz smoke (WAL recovery)"
# Random bytes appended to a valid write-ahead log, as a crash mid-append
# leaves them: the station must restart, keep every original record, and
# truncate the rest back to a record boundary.
go test ./internal/station -run=NONE -fuzz=FuzzWALRecover -fuzztime=5s

echo "== staticcheck"
# Pinned in CI images that carry it; skipped offline (no network installs).
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping"
fi

echo "== bench smoke (estimation kernel, interpreter cores, station, fleet, energy, compile, layout, RNG)"
# One iteration of every benchmark: keeps the bench code compiling and
# running without paying for stable timings. -benchmem so the fleet
# pipeline's bytes-per-mote stays visible in the smoke output.
go test ./internal/tomography ./internal/markov ./internal/mote ./internal/station ./internal/fleet ./internal/fault ./internal/compile ./internal/layout ./internal/stats -run='^$' -bench=. -benchtime=1x -benchmem

echo "== fleet scale smoke (fl3 at 10^5 motes)"
# The streaming cohort pipeline at CI scale: a hundred thousand motes must
# simulate, uplink, and reduce without materializing the fleet.
go run ./cmd/ctbench -exp fl3 -fleetmax 100000

echo "== pgo sweep smoke (pg1 at 400 samples)"
# The full profile-guided pipeline end to end on every kernel: profile,
# estimate, then placement-only vs each PGO pass vs the full stack under
# a flash-page penalty. Smoke sample count keeps it under a second.
go run ./cmd/ctbench -exp pg1 -samples 400

echo "== station smoke (daemon boot, loopback push, HTTP, clean shutdown)"
# Boots ctstationd in-process on ephemeral loopback ports, pushes one
# simulated fleet round over the ARQ'd TCP ingest, asserts /healthz and a
# non-empty /v1/models, and verifies the SIGTERM drain path exits 0.
go test ./cmd/ctstationd -run='^TestStationSmoke$' -count=1

echo "== ctlint examples"
go run ./cmd/ctlint examples/minic/*.mc

echo "verify.sh: all checks passed"
