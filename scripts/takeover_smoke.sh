#!/usr/bin/env bash
# SIGKILL smoke test for every manager takeover (cluster.TakeOver), one mode
# per source of durable state:
#
#   restart  a durable deflated is SIGKILLed and restarted on the same
#            -state-dir;
#   standby  a hot standby tails the leader's WAL over HTTP and promotes
#            itself once the SIGKILLed leader's lease expires;
#   adopt    three federated shards share a state root under open-loop
#            deflload traffic; one is SIGKILLed and a peer adopts its
#            journal via deflctl.
#
# restart and standby launch VMs through two live deflagents, then assert
# that every placement survived with zero reconciliation repairs (the agents
# and their VMs outlive the manager), that the new term's epoch is past the
# old one, and that right after the takeover every agent is already fenced
# at the new epoch. adopt asserts the adoption is in the gossiped shard map,
# zero acked registrations or launches were lost, zero healthy VMs were
# preempted, and deflload's whole-run invariant sweep passed.
#
# Usage: scripts/takeover_smoke.sh restart|standby|adopt
# Requires: go, jq, curl. Exits nonzero on any divergence.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=${1:-}
case "$MODE" in
restart | standby | adopt) ;;
*)
    echo "usage: $0 restart|standby|adopt" >&2
    exit 2
    ;;
esac

WORK=$(mktemp -d)
BIN="$WORK/bin"
mkdir -p "$BIN"
PIDS=()
cleanup() {
    for p in "${PIDS[@]:-}"; do
        kill -9 "$p" 2>/dev/null || true
        wait "$p" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "smoke[$MODE]: $*"; }
fail() {
    echo "smoke[$MODE]: FAIL: $*" >&2
    exit 1
}

wait_http() { # url [attempts]
    local url=$1 tries=${2:-50}
    for _ in $(seq "$tries"); do
        if curl -fsS -o /dev/null "$url" 2>/dev/null; then return 0; fi
        sleep 0.2
    done
    fail "$url never came up"
}

say "building binaries"
go build -o "$BIN" ./cmd/deflagent ./cmd/deflated ./cmd/deflctl ./cmd/deflload

AGENTS=() CONTROLLERS=()
start_agents() { # port...
    local i=0
    for port in "$@"; do
        "$BIN/deflagent" -listen "127.0.0.1:$port" -name "agent-$i" >"$WORK/agent-$i.log" 2>&1 &
        PIDS+=($!)
        AGENTS+=("http://127.0.0.1:$port")
        CONTROLLERS+=(-controller "http://127.0.0.1:$port")
        wait_http "http://127.0.0.1:$port/v1/state"
        i=$((i + 1))
    done
}
ctl() { "$BIN/deflctl" -manager "http://$1" "${@:2}"; }

launch_vms() { # manager
    ctl "$1" launch -name web-0 -cpus 4 -mem-gb 8 -priority high
    ctl "$1" launch -name batch-0 -cpus 8 -mem-gb 16 -min-frac 0.25
    ctl "$1" launch -name batch-1 -cpus 8 -mem-gb 16 -min-frac 0.25
    ctl "$1" release -name batch-1
    ctl "$1" launch -name batch-2 -cpus 2 -mem-gb 4 -min-frac 0.5
}

# check_takeover MANAGER BEFORE OLD_EPOCH: read every agent's fence first,
# before anything else can assert an epoch, then the new term's state.
check_takeover() {
    local mgr=$1 before=$2 old=$3 fenced=() state after epoch repairs
    for a in "${AGENTS[@]}"; do fenced+=("$(curl -fsS "$a/v1/healthz" | jq .fenced_epoch)"); done
    state=$(ctl "$mgr" state -json)
    after=$(echo "$state" | jq -S .placements)
    epoch=$(echo "$state" | jq .epoch)
    say "new term at epoch $epoch (agents fenced at ${fenced[*]}), placements: $after"
    [ "$after" = "$before" ] || fail "placements diverged across the takeover"
    [ "$epoch" -gt "$old" ] || fail "the takeover did not fence the old term ($epoch <= $old)"
    for f in "${fenced[@]}"; do
        [ "$f" = "$epoch" ] || fail "an agent was fenced at epoch $f right after the takeover, not $epoch"
    done
    repairs=$(echo "$state" | jq '.recovery.adopted + .recovery.replaced
        + .recovery.lost + .recovery.reasserted + .recovery.stale_released')
    [ "$repairs" = "0" ] || fail "takeover needed $repairs repairs: $(echo "$state" | jq -c .recovery)"
    STATE_JSON=$state
}

run_restart() {
    local mgr=127.0.0.1:17070 pid state before old
    start_agents 17071 17072
    start_manager() {
        # -sync-every 1: every record is durable before the API call returns,
        # so a SIGKILL at any point loses nothing. -heartbeat 60s: no
        # failure-detector probe fences the agents before check_takeover.
        "$BIN/deflated" -listen "$mgr" -state-dir "$WORK/state" -sync-every 1 -heartbeat 60s \
            "${CONTROLLERS[@]}" >>"$WORK/deflated.log" 2>&1 &
        pid=$!
        PIDS+=($pid)
        wait_http "http://$mgr/v1/state"
    }
    start_manager
    launch_vms "$mgr"
    state=$(ctl "$mgr" state -json)
    before=$(echo "$state" | jq -S .placements)
    old=$(echo "$state" | jq .epoch)
    [ "$(echo "$before" | jq length)" -eq 3 ] || fail "expected 3 placements before the kill"
    say "SIGKILL manager (pid $pid) at epoch $old; restarting on the same state dir"
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true
    start_manager
    check_takeover "$mgr" "$before" "$old"
    [ "$(echo "$STATE_JSON" | jq '.recovery.records_replayed + .recovery.snapshot_seq')" != "0" ] ||
        fail "recovery saw no journal state at all"
    say "PASS: $before survived SIGKILL with zero repairs"
}

run_standby() {
    local leader=127.0.0.1:17080 standby=127.0.0.1:17085 pid before old sby state
    start_agents 17081 17082
    # -heartbeat 1s: the leader asserts its epoch on the agents every second,
    # which is what the standby's corroboration probe measures the age of.
    "$BIN/deflated" -listen "$leader" -state-dir "$WORK/leader-state" -sync-every 1 \
        -heartbeat 1s "${CONTROLLERS[@]}" >"$WORK/leader.log" 2>&1 &
    pid=$!
    PIDS+=($pid)
    wait_http "http://$leader/v1/state"
    # -corroborate-window 3s (three leader heartbeats): a dead leader stops
    # asserting its epoch, so promotion clears ~3s after the SIGKILL.
    "$BIN/deflated" -listen "$standby" -state-dir "$WORK/standby-state" -sync-every 1 \
        -standby-of "http://$leader" -poll-interval 100ms -dead-after 5 -corroborate-window 3s \
        "${CONTROLLERS[@]}" >"$WORK/standby.log" 2>&1 &
    PIDS+=($!)
    wait_http "http://$standby/v1/state"

    launch_vms "$leader"
    state=$(ctl "$leader" state -json)
    before=$(echo "$state" | jq -S .placements)
    old=$(echo "$state" | jq .epoch)
    [ "$(echo "$before" | jq length)" -eq 3 ] || fail "expected 3 placements on the leader"
    [ "$old" -ge 1 ] || fail "durable leader did not assume a fenced epoch"

    for i in $(seq 50); do
        sby=$(curl -fsS "http://$standby/v1/state")
        if [ "$(echo "$sby" | jq -S .placements)" = "$before" ] &&
            [ "$(echo "$sby" | jq .replication.lag)" = "0" ]; then break; fi
        [ "$i" -eq 50 ] && fail "replica never caught up: $sby"
        sleep 0.2
    done
    [ "$(echo "$sby" | jq -r .role)" = "standby" ] || fail "standby serving wrong role: $sby"

    say "SIGKILL leader (pid $pid) at epoch $old; waiting for the standby to promote"
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true
    # Lease = 5 missed polls at 100ms plus corroboration; 15s ceiling.
    for i in $(seq 75); do
        [ "$(curl -fsS "http://$standby/v1/state" 2>/dev/null | jq -r .role)" = "leader" ] && break
        [ "$i" -eq 75 ] && fail "standby never promoted"
        sleep 0.2
    done
    check_takeover "$standby" "$before" "$old"

    ctl "$standby" launch -name post-failover-0 -cpus 2 -mem-gb 4 -min-frac 0.5
    [ "$(ctl "$standby" state -json | jq '.placements | length')" -eq 4 ] ||
        fail "post-failover launch did not land"
    say "PASS: standby took over with zero repairs, $before intact"
}

run_adopt() {
    local u0=http://127.0.0.1:7180 u1=http://127.0.0.1:7181 u2=http://127.0.0.1:7182 load map report
    start_shard() { # id port peers...
        local id=$1 port=$2
        shift 2
        "$BIN/deflated" -shard-id "$id" -listen "127.0.0.1:$port" \
            -state-root "$WORK/state" -gossip 500ms "$@" >"$WORK/$id.log" 2>&1 &
        PIDS+=($!)
    }
    start_shard shard-0 7180 -peer "shard-1=$u1" -peer "shard-2=$u2"
    start_shard shard-1 7181 -peer "shard-0=$u0" -peer "shard-2=$u2"
    start_shard shard-2 7182 -peer "shard-0=$u0" -peer "shard-1=$u1"
    for u in $u0 $u1 $u2; do wait_http "$u/v1/shardmap"; done

    say "starting deflload traffic (24 agents, open loop)"
    report="$WORK/report.json"
    "$BIN/deflload" -manager "$u0" -manager "$u1" -manager "$u2" \
        -agents 24 -rps 60 -ticks 60 -tick 100ms -heartbeat 300ms \
        -json "$report" >"$WORK/deflload.log" 2>&1 &
    load=$!
    PIDS+=($load)
    sleep 2
    # PIDS[1] is shard-1: the shards started in order, before deflload.
    say "SIGKILL shard-1 (pid ${PIDS[1]}) under traffic; adopting it into shard-0"
    kill -9 "${PIDS[1]}"
    wait "${PIDS[1]}" 2>/dev/null || true
    sleep 1
    "$BIN/deflctl" -manager "$u0" adopt -shard shard-1
    map=$("$BIN/deflctl" -manager "$u0" shardmap)
    echo "$map"
    echo "$map" | grep -q "dead; served by shard-0" || fail "adoption not recorded in the shard map"

    wait "$load" || fail "deflload reported an invariant violation or error: $(tail -20 "$WORK/deflload.log")"
    tail -4 "$WORK/deflload.log"
    grep -q '"invariants_ok": true' "$report" || fail "report has invariants_ok=false: $(cat "$report")"
    ! grep -q '"lost_registrations"' "$report" || fail "lost acked registrations: $(cat "$report")"
    ! grep -q '"lost_vm_names"' "$report" || fail "lost acked launches: $(cat "$report")"
    grep -q '"failure_preemptions": 0' "$report" || fail "healthy VMs were preempted: $(cat "$report")"
    say "PASS: adoption recorded, zero lost registrations/launches, zero preemptions"
}

"run_$MODE"
