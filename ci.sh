#!/bin/sh
# ci.sh — the tier-1 gate. Every PR must pass this script unchanged:
#
#   1. the module builds;
#   2. go vet finds nothing, and gofmt -l lists none of the tracked Go
#      files;
#   3. the full test suite passes under the race detector with shuffled
#      test order (-shuffle=on), so no test depends on a sibling running
#      first, and the superstep engine's tests pass ten more times under
#      it. On a large machine the engine resumes its processors in lanes,
#      on the goroutine that called Run and on helper goroutines at the
#      same time, so two processors of one Run that share memory race:
#      the repeated run guards the hand-offs between the engine, its
#      helpers and the processors, and the poison writes between them.
#      The engine and the four algorithms then pass once more at
#      GOMAXPROCS 4 (-cpu 4), so that several lanes run under the
#      detector on any host, whatever its CPU count. The race build
#      poisons every released bsplib buffer, so a program that reads a
#      lease or delivery view past its Sync fails its own verification;
#   4. the fault-injection contract holds: every registered backend
#      converges under the fixed conformance fault schedule with
#      byte-identical twin runs and structured errors for partitions,
#      exhausted retry budgets, and livelocks (internal/netsim), and the
#      fault-disabled hot path still prices steps with zero allocations
#      per Route call (BenchmarkRouterSteadyState asserts this); and the
#      engines' event queue survives 10 s of fuzzing against its order
#      model (FuzzEventQueue; a failure writes its reproducer under
#      internal/sim/testdata/fuzz);
#   5. every examples/*/ program runs to a zero exit status: go build only
#      compiles them, so this catches runtime failures in the library
#      facade and in backends.GCel at non-default geometry;
#   6. a fresh quick-scale run of all experiments diffs clean against the
#      committed golden artifacts (internal/runstore/testdata/golden):
#      any check-verdict flip or out-of-tolerance series drift fails CI,
#      and so does any artifact whose canonical bytes differ from its
#      golden's (a changed router counter, note or check detail);
#   7. qpbench replays the quick benchmark subset and diffs it against the
#      committed baseline, BENCH_memo.json: an allocs/op increase beyond
#      10% fails CI, as does any sim-events/op increase (the event counts
#      are deterministic, so the tolerance is zero); ns/op and B/op drift
#      is advisory only;
#   8. the nested perfbench module (the benchmark BENCHMARK.json declares)
#      still vets and passes its short tests against this module's APIs.
#
# The last stage also prints the module's non-test Go line count (tracked
# *.go files minus _test.go, testdata/ and perfbench/), the one count
# ROADMAP and CHANGES.md cite, and then the same count for each package
# directory. Both are informational, not gates.
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

stage "go vet ./... and gofmt -l"
go vet ./...
# Only tracked files: .bench_build/ holds a GOPATH full of foreign sources.
go_files=$(git ls-files '*.go')
unformatted=$(gofmt -l $go_files)
if [ -n "$unformatted" ]; then
    printf '%s\n' "$unformatted"
    echo "ci: gofmt -l lists the files above; format them with gofmt -w"
    exit 1
fi

stage "go test -race -shuffle=on ./..."
# The experiments package replays every experiment several times over
# (parallel/serial and cache-on/off equivalence) and runs close to the
# default 10-minute per-package budget under the race detector when the
# whole suite shares the machine, so the budget is raised explicitly.
go test -race -shuffle=on -timeout 1800s ./...
go test -race -count=10 ./internal/bsplib/
go test -race -cpu 4 ./internal/bsplib/ ./internal/algorithms/...

stage "fault-injection conformance and engine gate"
go test -run 'TestFaultProtocolConformance|TestFaultPartitionIsStructured' ./internal/netsim/
go test -run '^$' -bench BenchmarkRouterSteadyState -benchtime 1x ./internal/netsim/
go test -run '^$' -fuzz '^FuzzEventQueue$' -fuzztime 10s ./internal/sim

stage "examples run"
examples_bin=$(mktemp -d)
trap 'rm -rf "$examples_bin"' EXIT
go build -o "$examples_bin/" ./examples/...
for prog in "$examples_bin"/*; do
    "$prog" >/dev/null || {
        echo "ci: example $(basename "$prog") exited nonzero"
        exit 1
    }
done

stage "golden artifact regression gate (qpexp -diff)"
if out=$(go run ./cmd/qpexp -plot=false -diff internal/runstore/testdata/golden) &&
    printf '%s\n' "$out" | grep -q '^diff: \([0-9]*\) of \1 artifacts byte-stable'; then
    printf '%s\n' "$out" | grep '^diff:'
else
    printf '%s\n' "$out" | grep '^diff' | tail -40
    echo "ci: experiment results regressed against the golden artifacts, or their bytes changed"
    exit 1
fi

stage "bench-regression gate (qpbench -quick -diff)"
go run ./cmd/qpbench -quick -diff BENCH_memo.json || {
    echo "ci: allocs/op or sim-events/op regressed against the committed benchmark baseline"
    exit 1
}

stage "perfbench vet and short tests"
go -C perfbench vet ./...
go -C perfbench test -short ./...

stage "done"
src_files=$(git ls-files '*.go' | grep -v -e '_test\.go$' -e 'testdata/' -e '^perfbench/')
go_lines=$(printf '%s\n' "$src_files" | xargs cat | wc -l | tr -d ' ')
echo "ci: module non-test Go lines: $go_lines"
echo "ci: non-test Go lines per package:"
printf '%s\n' "$src_files" | while read -r f; do
    echo "$(dirname "$f") $(wc -l < "$f")"
done | awk '{n[$1] += $2} END {for (d in n) printf "ci: %7d  %s\n", n[d], d}' | sort -k3
echo "ci: all gates passed in $(($(date +%s) - ci_t0))s"
