#!/usr/bin/env bash
# serve-smoke: the wheelsd daemon end to end over loopback through real
# processes — submit a campaign job via curl, poll it, download its
# artifacts, and byte-diff them against a direct drivetest run; then a
# fleet job and a collect job (fed by two real fleetrun -push workers,
# one sweep cell each, through the daemon's /fleetsync/v1 mount) diffed
# against a single-process fleetrun; and finally a SIGTERM mid-job,
# pinning the graceful-drain contract: the daemon exits 0 and the
# in-flight job's artifacts are complete and byte-identical on disk.
set -euo pipefail
cd "$(dirname "$0")/.."

scenario=testdata/fleet-sync-smoke.json
out=serve-out
rm -rf "$out"
mkdir -p "$out"

go build -o "$out/wheelsd" ./cmd/wheelsd
go build -o "$out/drivetest" ./cmd/drivetest
go build -o "$out/fleetrun" ./cmd/fleetrun

# json_field NAME JSON: extract one string field without depending on jq.
json_field() {
  printf '%s' "$2" | sed -n 's/.*"'"$1"'":"\([^"]*\)".*/\1/p'
}

# wait_state ID WANT: poll a job until it reaches the wanted state.
wait_state() {
  for _ in $(seq 1 600); do
    status=$(curl -sS "$url/v1/jobs/$1")
    state=$(json_field state "$status")
    case "$state" in
      "$2") return 0 ;;
      failed) echo "serve-smoke: job $1 failed: $status" >&2; exit 1 ;;
    esac
    sleep 0.1
  done
  echo "serve-smoke: job $1 never reached $2 (last: $status)" >&2
  exit 1
}

echo "serve-smoke: CLI baselines" >&2
"$out/drivetest" -seed 1 -limit-km 25 -skip-apps -out "$out/cli-dataset.json" -csv "$out/cli-csv" 2>/dev/null
"$out/fleetrun" -scenario "$scenario" -workers 2 -out "$out/cli-fleet" >/dev/null

echo "serve-smoke: starting wheelsd" >&2
"$out/wheelsd" -addr 127.0.0.1:0 -data "$out/daemon" -workers 2 \
  -metrics "$out/wheelsd-manifest.json" 2>"$out/wheelsd.log" &
daemon=$!
trap 'kill "$daemon" 2>/dev/null || true' EXIT

addr_file="$out/daemon/wheelsd-addr.txt"
for _ in $(seq 1 100); do
  [ -s "$addr_file" ] && break
  sleep 0.1
done
[ -s "$addr_file" ] || { echo "serve-smoke: wheelsd never published its address" >&2; exit 1; }
url="http://$(cat "$addr_file")"

echo "serve-smoke: campaign job" >&2
spec='{"kind":"campaign","csv":true,"config":{"seed":1,"limit_km":25,"skip_apps":true}}'
created=$(curl -sS -X POST "$url/v1/jobs" -d "$spec")
id=$(json_field id "$created")
[ -n "$id" ] || { echo "serve-smoke: no job ID in $created" >&2; exit 1; }

# Idempotent re-submit: same spec (reformatted) maps to the same job.
resub=$(curl -sS -X POST "$url/v1/jobs" \
  -d '{ "config":{"skip_apps":true,"seed":1,"limit_km":25}, "csv":true, "kind":"campaign" }')
[ "$(json_field id "$resub")" = "$id" ] || {
  echo "serve-smoke: re-submit produced a different job ID" >&2; exit 1; }

wait_state "$id" done

progress=$(curl -sS "$url/v1/jobs/$id/progress")
printf '%s' "$progress" | grep -q '"counters"' || {
  echo "serve-smoke: progress endpoint reported no counters: $progress" >&2; exit 1; }

curl -sSf "$url/v1/jobs/$id/artifacts/dataset.json" -o "$out/daemon-dataset.json"
curl -sSf "$url/v1/jobs/$id/artifacts/report.txt" -o "$out/daemon-report.txt"
cmp "$out/cli-dataset.json" "$out/daemon-dataset.json"
[ -s "$out/daemon-report.txt" ] || { echo "serve-smoke: empty report artifact" >&2; exit 1; }
for csv in throughput rtt handovers appruns; do
  curl -sSf "$url/v1/jobs/$id/artifacts/$csv.csv" -o "$out/daemon-$csv.csv"
  cmp "$out/cli-csv/$csv.csv" "$out/daemon-$csv.csv"
done
echo "serve-smoke: campaign artifacts are byte-identical to drivetest" >&2

echo "serve-smoke: fleet job" >&2
fleet_spec='{"kind":"fleet","scenario":'$(cat "$scenario")'}'
fleet_id=$(json_field id "$(curl -sS -X POST "$url/v1/jobs" -d "$fleet_spec")")
wait_state "$fleet_id" done
curl -sSf "$url/v1/jobs/$fleet_id/artifacts/fleet-report.txt" -o "$out/daemon-fleet-report.txt"
curl -sSf "$url/v1/jobs/$fleet_id/artifacts/fleet-manifest.json" -o "$out/daemon-fleet-manifest.json"
cmp "$out/cli-fleet/fleet-report.txt" "$out/daemon-fleet-report.txt"
cmp "$out/cli-fleet/fleet-manifest.json" "$out/daemon-fleet-manifest.json"
echo "serve-smoke: fleet artifacts are byte-identical to fleetrun" >&2

echo "serve-smoke: collect job + fleetrun -push workers" >&2
collect_spec='{"kind":"collect","scenario":'$(cat "$scenario")'}'
collect_id=$(json_field id "$(curl -sS -X POST "$url/v1/jobs" -d "$collect_spec")")
"$out/fleetrun" -scenario "$scenario" -push "$url" -cells 0
"$out/fleetrun" -scenario "$scenario" -push "$url" -cells 1
wait_state "$collect_id" done
curl -sSf "$url/v1/jobs/$collect_id/artifacts/fleet-report.txt" -o "$out/collect-fleet-report.txt"
curl -sSf "$url/v1/jobs/$collect_id/artifacts/fleet-manifest.json" -o "$out/collect-fleet-manifest.json"
cmp "$out/cli-fleet/fleet-report.txt" "$out/collect-fleet-report.txt"
cmp "$out/cli-fleet/fleet-manifest.json" "$out/collect-fleet-manifest.json"
echo "serve-smoke: collected artifacts are byte-identical to the single-process fleet" >&2

echo "serve-smoke: SIGTERM drain" >&2
"$out/drivetest" -seed 2 -limit-km 25 -skip-apps -out "$out/cli-dataset2.json" 2>/dev/null
drain_spec='{"kind":"campaign","config":{"seed":2,"limit_km":25,"skip_apps":true}}'
drain_id=$(json_field id "$(curl -sS -X POST "$url/v1/jobs" -d "$drain_spec")")
kill -TERM "$daemon"
wait "$daemon" || { echo "serve-smoke: wheelsd exited nonzero after SIGTERM" >&2; exit 1; }
trap - EXIT
grep -q "draining" "$out/wheelsd.log" || {
  echo "serve-smoke: no drain notice in wheelsd.log" >&2; exit 1; }
# The in-flight job was accepted before the signal: its artifacts must
# be complete on disk and byte-identical to the direct run.
cmp "$out/cli-dataset2.json" "$out/daemon/jobs/$drain_id/dataset.json"
[ -s "$out/wheelsd-manifest.json" ] || {
  echo "serve-smoke: wheelsd wrote no obs manifest on exit" >&2; exit 1; }
echo "serve-smoke: drained job artifacts are byte-identical; daemon exited cleanly"
