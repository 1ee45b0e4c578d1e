#!/bin/sh
# Tier-1 verification: vet, build, and race-test the whole module.
# The race detector is part of the contract — parallel device execution
# (internal/sim/exec.go) must stay data-race free, and the equivalence
# tests in internal/train and internal/bench prove serial and parallel
# runs are bit-identical.
set -eux
cd "$(dirname "$0")/.."
go vet ./...
go build ./...
go test -race ./...
# The benchmark is its own module (benchmark/go.mod), so the commands above
# never compile it: vet it and run its toy-size smoke (< 10 s), or a changed
# internal/* signature breaks the harness unseen.
(cd benchmark && go vet . && go test .)
