#!/usr/bin/env bash
# daemon_smoke.sh — end-to-end smoke test for cmd/mhsd, used by CI.
#
# Boots the daemon (race-enabled build) on an ephemeral port, submits a
# flow batch over HTTP, polls /v1/epochs until everything is delivered,
# scrapes /metrics, then sends SIGINT and asserts a clean graceful exit.
set -euo pipefail

workdir=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -race -o "$workdir/mhsd" ./cmd/mhsd

"$workdir/mhsd" -addr 127.0.0.1:0 -addr-file "$workdir/addr" \
  -n 8 -window 200 -delta 10 -epoch 20ms -slo-epochs 64 \
  >"$workdir/stdout.log" 2>"$workdir/stderr.log" &
pid=$!

# Wait for the daemon to publish its bound address.
for _ in $(seq 1 100); do
  [ -s "$workdir/addr" ] && break
  kill -0 "$pid" || { echo "mhsd died during startup"; cat "$workdir/stderr.log"; exit 1; }
  sleep 0.1
done
[ -s "$workdir/addr" ] || { echo "mhsd never wrote its address file"; exit 1; }
addr=$(cat "$workdir/addr")
echo "mhsd listening on $addr"

# Submit a batch of flows (auto-assigned IDs, BFS default routes).
code=$(curl -s -o "$workdir/submit.json" -w '%{http_code}' -X POST "http://$addr/v1/flows" \
  -d '[{"src":0,"dst":1,"size":40},{"src":2,"dst":5,"size":25},{"src":7,"dst":3,"size":60}]')
[ "$code" = 202 ] || { echo "submit returned $code"; cat "$workdir/submit.json"; exit 1; }
tr -d ' \n' < "$workdir/submit.json" | grep -q '"accepted":\[1,2,3\]' \
  || { echo "bad submit response"; cat "$workdir/submit.json"; exit 1; }

# Poll until the batch is fully delivered.
delivered=0
for _ in $(seq 1 200); do
  curl -s "http://$addr/v1/epochs" > "$workdir/epochs.json"
  if grep -q '"delivered": *125' "$workdir/epochs.json"; then delivered=1; break; fi
  sleep 0.1
done
[ "$delivered" = 1 ] || { echo "daemon never delivered the batch"; cat "$workdir/epochs.json"; exit 1; }
echo "batch delivered"
# Each epoch record splits its wall time: commit -> snapshot, then the plan.
for field in wait_micros plan_micros; do
  grep -q "\"$field\"" "$workdir/epochs.json" \
    || { echo "/v1/epochs records missing $field"; cat "$workdir/epochs.json"; exit 1; }
done

# The flight recorder journals every flow's lifecycle (default -flight).
curl -s "http://$addr/v1/flows/1/events" > "$workdir/events.json"
for ev in admitted planned delivered completed; do
  grep -q "\"ev\": \"$ev\"" "$workdir/events.json" \
    || { echo "/v1/flows/1/events missing $ev"; cat "$workdir/events.json"; exit 1; }
done
echo "flight events ok"

# The status roll-up reports SLO compliance and plan latency.
curl -s "http://$addr/v1/status" > "$workdir/status.json"
for field in on_time_fraction plan_p99_seconds plan_lead_seconds; do
  grep -q "\"$field\"" "$workdir/status.json" \
    || { echo "/v1/status missing $field"; cat "$workdir/status.json"; exit 1; }
done
grep -q '"on_time_fraction": 1' "$workdir/status.json" \
  || { echo "flows missed the 64-epoch SLO"; cat "$workdir/status.json"; exit 1; }
echo "status ok"

# The observability endpoints ride on the same mux.
curl -s "http://$addr/metrics" > "$workdir/metrics.txt"
for metric in octopus_daemon_plan_overruns_total octopus_daemon_queued_packets octopus_online_epochs_total \
  octopus_daemon_plan_seconds octopus_daemon_plan_wait_seconds octopus_flight_completed_total; do
  grep -q "$metric" "$workdir/metrics.txt" || { echo "/metrics missing $metric"; exit 1; }
done
# The engine checks packet conservation at every commit, and with the batch
# delivered no flow is live: every slot of the flow table has been retired.
for line in 'octopus_engine_conservation_violations_total 0' 'octopus_engine_live_flows 0'; do
  grep -qx "$line" "$workdir/metrics.txt" \
    || { echo "/metrics does not read '$line'"; grep octopus_engine "$workdir/metrics.txt"; exit 1; }
done
echo "metrics ok"

# Graceful shutdown: SIGINT must drain and exit 0.
kill -INT "$pid"
if ! wait "$pid"; then
  echo "mhsd exited non-zero"; cat "$workdir/stderr.log"; exit 1
fi
grep -q 'shutdown complete' "$workdir/stdout.log" || { echo "missing shutdown banner"; cat "$workdir/stdout.log"; exit 1; }
echo "daemon smoke passed"
