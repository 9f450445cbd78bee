#!/usr/bin/env bash
# node_smoke.sh — boot the deployable service plane as real OS processes and
# prove it converges: build cmd/ecnode, start a front door plus three replica
# processes, push $UPDATES client operations through the load balancer, and
# assert that every replica applies all of them and lands on the identical
# snapshot. This is the out-of-process counterpart to internal/node's
# in-process integration tests — it exercises the actual binary, flag
# parsing, registration, and OS signal handling.
set -euo pipefail

UPDATES="${UPDATES:-1000}"
BASE_PORT="${BASE_PORT:-17800}"
FRONT_PORT=$((BASE_PORT))
T1=$((BASE_PORT + 1)) T2=$((BASE_PORT + 2)) T3=$((BASE_PORT + 3))
H1=$((BASE_PORT + 11)) H2=$((BASE_PORT + 12)) H3=$((BASE_PORT + 13))
FRONT="http://127.0.0.1:${FRONT_PORT}"
PEERS="1=127.0.0.1:${T1},2=127.0.0.1:${T2},3=127.0.0.1:${T3}"

cd "$(dirname "$0")/.."
go build -o bin/ecnode ./cmd/ecnode

pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
}
trap cleanup EXIT

./bin/ecnode -front-door -http "127.0.0.1:${FRONT_PORT}" &
pids+=($!)
for i in 1 2 3; do
  hp=$((BASE_PORT + 10 + i))
  ./bin/ecnode -id "$i" -peers "$PEERS" -http "127.0.0.1:${hp}" -front "$FRONT" &
  pids+=($!)
done

echo "waiting for 3 healthy replicas behind $FRONT"
for _ in $(seq 1 100); do
  n=$(curl -sf "$FRONT/replicas" 2>/dev/null | grep -c ' true$' || true)
  [ "$n" = 3 ] && break
  sleep 0.1
done
[ "$(curl -sf "$FRONT/replicas" | grep -c ' true$')" = 3 ] || {
  echo "FAIL: replicas never all registered healthy"; curl -s "$FRONT/replicas"; exit 1
}

echo "pushing $UPDATES updates through the front door"
for i in $(seq 1 "$UPDATES"); do
  code=$(curl -s -o /dev/null -w '%{http_code}' \
    -H "X-Session: s$((i % 17))" \
    -X POST "$FRONT/update?cmd=set+k${i}+v${i}")
  if [ "$code" != 202 ]; then
    echo "FAIL: update $i got HTTP $code"; exit 1
  fi
done

echo "waiting for convergence on all 3 replicas"
deadline=$((SECONDS + 120))
while true; do
  snaps=()
  applied_ok=1
  for hp in "$H1" "$H2" "$H3"; do
    st=$(curl -sf "http://127.0.0.1:${hp}/status" || echo '{}')
    applied=$(echo "$st" | jq -r '.applied // 0')
    [ "$applied" -ge "$UPDATES" ] || applied_ok=0
    snaps+=("$(echo "$st" | jq -r '.snapshot // ""')")
  done
  if [ "$applied_ok" = 1 ] && [ -n "${snaps[0]}" ] \
     && [ "${snaps[0]}" = "${snaps[1]}" ] && [ "${snaps[1]}" = "${snaps[2]}" ]; then
    break
  fi
  if [ "$SECONDS" -ge "$deadline" ]; then
    echo "FAIL: replicas did not converge"; printf '%s\n' "${snaps[@]}" | cut -c1-120; exit 1
  fi
  sleep 0.25
done

# Spot-check content: first, middle, and last update must be in the snapshot.
snap="${snaps[0]}"
for i in 1 $((UPDATES / 2)) "$UPDATES"; do
  case ",$snap," in
    *",k${i}=v${i},"*) ;;
    *) echo "FAIL: converged snapshot missing k${i}=v${i}"; exit 1 ;;
  esac
done

# Ω: a clean cluster agrees on p1. Print the detector's counters alongside.
metric() { awk -v m="$1" '$1 == m { print $2 }' <<<"$2"; }
for i in 1 2 3; do
  m=$(curl -sf "http://127.0.0.1:$((BASE_PORT + 10 + i))/metrics")
  leader=$(metric omega_leader "$m")
  echo "replica $i: omega_leader=${leader:-?}" \
    "omega_flaps_total=$(metric omega_flaps_total "$m")" \
    "omega_heartbeats_sent_total=$(metric omega_heartbeats_sent_total "$m")"
  if [ "$leader" != 1 ]; then
    echo "FAIL: replica $i trusts ${leader:-nothing}, want 1"; exit 1
  fi
done

echo "OK: 3 replicas converged on ${UPDATES} updates through the front door"
