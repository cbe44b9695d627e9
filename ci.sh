#!/bin/sh
# ci.sh — the tier-1 gate. Every PR must pass this script unchanged:
#
#   1. the module builds;
#   2. go vet finds nothing;
#   3. the full test suite passes under the race detector with shuffled
#      test order (-shuffle=on), so no test depends on a sibling running
#      first, and the superstep engine's tests pass ten more times under
#      it, so a rare interleaving of its processor goroutines gets caught;
#   4. qpvet (internal/analysis) reports no determinism, buffer-lease,
#      hot-path allocation, sim.Time, RNG-stream, fault-RNG, or
#      artifact-encoding violations anywhere in the module beyond the
#      committed QPVET_baseline.json (kept empty in steady state), and no
#      //qpvet:ignore directive has gone stale (-suppaudit);
#   5. the fault-injection contract holds: every registered backend
#      converges under the fixed conformance fault schedule with
#      byte-identical twin runs and structured errors for partitions,
#      exhausted retry budgets, and livelocks (internal/netsim), and the
#      fault-disabled hot path still prices steps with zero allocations
#      per Route call (BenchmarkRouterSteadyState asserts this);
#   6. a fresh quick-scale run of all experiments diffs clean against the
#      committed golden artifacts (internal/runstore/testdata/golden):
#      any check-verdict flip or out-of-tolerance series drift fails CI;
#   7. qpbench replays the quick benchmark subset and diffs it against the
#      committed baseline, BENCH_memo.json: an allocs/op increase beyond
#      10% fails CI, as does any sim-events/op increase (the event counts
#      are deterministic, so the tolerance is zero); ns/op and B/op drift
#      is advisory only.
#
# Each stage prints its wall-clock seconds so slow gates are visible in CI
# logs without extra tooling.
#
# Run from the repository root:  ./ci.sh
#
# If a simulation change is *intended* to move numbers, regenerate the
# goldens and commit them with the change:
#   rm -rf internal/runstore/testdata/golden
#   go run ./cmd/qpexp -plot=false -out internal/runstore/testdata/golden
#
# If an optimization *intentionally* moves allocation or simulated-event
# counts, regenerate the benchmark snapshot in the same commit:
#   go run ./cmd/qpbench -o BENCH_memo.json
#
# If a qpvet finding is intentional, suppress it in place with
# `//qpvet:ignore <check> -- reason`; the baseline file is a last resort
# for accepting a finding class wholesale and should normally stay empty.
set -eu

ci_t0=$(date +%s)
stage_t0=$ci_t0

stage() {
    now=$(date +%s)
    if [ -n "${stage_name:-}" ]; then
        echo "   ${stage_name} took $((now - stage_t0))s"
    fi
    stage_name=$1
    stage_t0=$now
    echo "== ${stage_name}"
}

stage "go build ./..."
go build ./...

stage "go vet ./..."
go vet ./...

stage "go test -race -shuffle=on ./..."
# The experiments package replays every experiment several times over
# (parallel/serial and cache-on/off equivalence) and runs close to the
# default 10-minute per-package budget under the race detector when the
# whole suite shares the machine, so the budget is raised explicitly.
go test -race -shuffle=on -timeout 1800s ./...
go test -race -count=10 ./internal/bsplib/

stage "qpvet -suppaudit -baseline QPVET_baseline.json ./..."
go run ./cmd/qpvet -suppaudit -baseline QPVET_baseline.json ./...

stage "fault-injection conformance gate"
go test -run 'TestFaultProtocolConformance|TestFaultPartitionIsStructured' ./internal/netsim/
go test -run '^$' -bench BenchmarkRouterSteadyState -benchtime 1x ./internal/netsim/

stage "golden artifact regression gate (qpexp -diff)"
if out=$(go run ./cmd/qpexp -plot=false -diff internal/runstore/testdata/golden); then
    printf '%s\n' "$out" | grep '^diff:'
else
    printf '%s\n' "$out" | grep '^diff' | tail -40
    echo "ci: experiment results regressed against the golden artifacts"
    exit 1
fi

stage "bench-regression gate (qpbench -quick -diff)"
go run ./cmd/qpbench -quick -diff BENCH_memo.json || {
    echo "ci: allocs/op or sim-events/op regressed against the committed benchmark baseline"
    exit 1
}

stage "done"
echo "ci: all gates passed in $(($(date +%s) - ci_t0))s"
