GO ?= go

.PHONY: build test race vet bench bench-manifest bench-check lint lint-baseline lint-sarif lint-fixtures lint-inject-smoke smoke fleet-smoke fleet-sync-smoke crowd-smoke serve-smoke fuzz-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# bench runs the lane-engine scaling benchmark; the full figure/table
# benches live in bench_test.go and run with `go test -bench=.`.
bench:
	$(GO) test -run=NONE -bench=BenchmarkCampaignRun -benchtime=1x .

# bench-manifest runs the headline benchmarks (campaign, fleet, crowd
# step, report, logsync merge, route lookup, UE step, deployment maps)
# and writes their ns/op and allocs/op to BENCH_0014.json — the machine-readable record CI
# uploads as an artifact and bench-check ratchets against. Older
# BENCH_NNNN.json files stay checked in as the trajectory record.
bench-manifest:
	$(GO) run ./cmd/benchmanifest -o BENCH_0014.json

# bench-check is the perf half of the repo's ratchet: rerun the headline
# benchmarks and fail on a >15% ns/op regression or any allocs/op
# increase against the checked-in manifest. Intentional changes move the
# manifest via `make bench-manifest` and commit the result.
bench-check:
	$(GO) run ./cmd/benchmanifest -check BENCH_0014.json

# lint runs the in-repo determinism & correctness linter (internal/lint)
# over every package; findings fail the build. Suppress intentional uses
# at the call site with `//lint:allow <rule> — reason`.
lint:
	$(GO) run ./cmd/lintwheels ./...

# lint-baseline checks findings against the checked-in ratchet file:
# baselined findings are suppressed, stale entries fail the build, so
# the file can only shrink. It is expected to stay empty at merge;
# regenerate during a rule rollout with
#   $(GO) run ./cmd/lintwheels -baseline lint-baseline.json -write-baseline ./...
lint-baseline:
	$(GO) run ./cmd/lintwheels -baseline lint-baseline.json ./...

# lint-sarif renders the machine-readable SARIF 2.1.0 report CI uploads
# as an artifact. Generation never fails the target — the artifact must
# exist precisely when there are findings — lint/lint-baseline do the
# gating.
lint-sarif:
	$(GO) run ./cmd/lintwheels -format sarif -o lint.sarif ./... || true

# lint-fixtures self-checks the rule corpus: every rule's testdata
# fixtures must produce exactly the golden diagnostics — including the
# concurrency/resource corpora (goleak, ctxflow, lockhold, resleak).
lint-fixtures:
	$(GO) test ./internal/lint/...

# lint-inject-smoke proves the concurrency/resource gate end to end: a
# file with a leaked goroutine, a ctx-less blocking call, a held lock,
# and a leaked file is injected into internal/serve; lintwheels must
# fail naming all four rules, and the injection is removed again.
lint-inject-smoke:
	./scripts/lint_inject_smoke.sh

# smoke runs a short instrumented campaign end to end through the real
# CLI: dataset + CSV export + run manifest (manifest.json is the CI
# artifact). Fails on any CLI regression the unit tests sit below.
smoke:
	$(GO) run ./cmd/drivetest -seed 1 -limit-km 50 -metrics manifest.json -out smoke-dataset.json

# fleet-smoke runs a 3-replicate fleet through the real fleetrun binary:
# scenario parsing, the worker pool, streaming reduction, and the report/
# manifest writers all on the real CLI path. fleet-out/fleet-manifest.json
# is the CI artifact.
fleet-smoke:
	$(GO) run ./cmd/fleetrun -scenario testdata/fleet-smoke.json -workers 2 -out fleet-out

# fleet-sync-smoke runs a distributed fleet over loopback through the
# real fleetrun binary: a -serve collector fed by two -push workers, the
# merged report and manifest diffed byte-for-byte against a
# single-process run of the same scenario.
# fleet-sync-out/collector/fleet-manifest.json is the CI artifact.
fleet-sync-smoke:
	./scripts/fleet_sync_smoke.sh

# crowd-smoke drives a 10⁴-UE metro-scale crowd through the real
# drivetest CLI path — registry construction, event wheel, demand-driven
# load, and in-run crowd measurements — over a short route.
# crowd-manifest.json (events, attached, measurements) is the CI artifact.
crowd-smoke:
	$(GO) run ./cmd/drivetest -seed 1 -limit-km 10 -crowd 10000 -crowd-samples 4 -load-model demand -skip-apps -out crowd-dataset.json -metrics crowd-manifest.json

# serve-smoke runs the wheelsd daemon end to end over loopback: a
# campaign job, a fleet job, and a collect job (fed by real fleetrun
# -push workers through the daemon's /fleetsync/v1 mount) are submitted
# via curl and their downloaded artifacts byte-diffed against direct
# drivetest/fleetrun runs; a final SIGTERM mid-job pins the graceful
# drain. serve-out/wheelsd-manifest.json is the CI artifact.
serve-smoke:
	./scripts/serve_smoke.sh

# fuzz-smoke gives each native fuzz target a short run: whatever
# fleetsync.DecodeArtifact accepts must re-encode to bytes that decode
# to a bit-identical artifact, and whatever serve.ParseJobSpec accepts
# must re-marshal to the same spec and job ID.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzDecodeArtifact -fuzztime=10s ./internal/fleetsync
	$(GO) test -run=NONE -fuzz=FuzzParseJobSpec -fuzztime=10s ./internal/serve

# lint-sarif runs before the lint gates so the artifact exists for CI
# upload even when lint fails the build.
ci: vet build lint-sarif lint lint-baseline lint-inject-smoke race smoke fleet-smoke fleet-sync-smoke crowd-smoke serve-smoke fuzz-smoke bench-check
