#!/bin/sh
# Tier-1 verification: vet, build, and race-test the whole module.
# The race detector is part of the contract — parallel device execution
# (internal/sim/exec.go) must stay data-race free, and the equivalence
# tests in internal/train and internal/bench prove serial and parallel
# runs are bit-identical.
set -eux
cd "$(dirname "$0")/.."
# targeted run|fuzz PATTERN PKG [FLAGS...] runs `go test FLAGS -run PATTERN
# PKG`, or fuzzes the target PATTERN names, after `go test -list` has printed
# the tests and fuzz targets PATTERN names in PKG — at least one per
# alternative of a '^(A|B)$' pattern. A -run or -fuzz pattern that matches
# nothing passes with "no tests to run", so a renamed test would otherwise
# drop its check unseen.
targeted() {
	mode=$1 pattern=$2 pkg=$3
	shift 3
	names=$(go test -list "$pattern" "$pkg" | grep '^\(Test\|Fuzz\)' || true)
	echo "$names"
	if [ "$(echo "$names" | grep -c .)" -le "$(printf %s "$pattern" | tr -cd '|' | wc -c)" ]; then
		echo "check.sh: -$mode '$pattern' names too few tests in $pkg" >&2
		exit 1
	fi
	if [ "$mode" = fuzz ]; then
		go test -run '^$' -fuzz "$pattern" "$@" "$pkg"
	else
		go test -run "$pattern" "$@" "$pkg"
	fi
}
go vet ./...
go build ./...
# The dense kernels (the register-blocked tile, its one-row terms form, axpy),
# the element-wise selects and Adam's update have amd64 assembly
# (internal/tensor/axpy_amd64.s, eltwise_amd64.s, adam_amd64.s); everything
# else runs the portable Go loops beside the stubs of axpy_other.go,
# eltwise_other.go and adam_other.go, which must keep compiling.
GOARCH=arm64 go vet ./...
GOARCH=arm64 go build ./...
go test -race ./...
# The dense kernels' pool is shared by every goroutine that multiplies:
# hammer it — concurrent callers, nested under sim.RunParallel, a saturated
# queue, row ranges cut on the tile's four-row boundary with each worker's
# own compaction scratch — repeatedly and at two GOMAXPROCS settings, through
# the tile on the AVX and the Go path (the kernel, element-wise and
# fuzz-seed tests run both) (~4 min).
go test -race -count=10 -cpu 1,4 ./internal/tensor
# The loader's run-ahead builder prices a batch on a staging twin that records
# its charges into a build body, while the goroutine that owns the device
# issues the previous body's; the two are ordered by a go statement and one
# channel receive: hammer hinted against unhinted builds, through BuildBatch
# and through Prefetch/Collect/Release (every batch read in full while the
# next one is built), with the next epoch's first builds kept or undone, and
# with builds off the hint mid-epoch, at three GOMAXPROCS settings.
targeted run '^(TestPlannedEqualsUnplanned|TestSpeculationEqualsNone|TestOffHintBuildsEqualUnplanned)$' ./internal/core -race -count=10 -cpu 1,2,4
# A training step is one function whichever shape it takes — eager, capture,
# scheduled replay — and each worker writes its input header, step graph,
# counters and bucket gates inside sim.RunParallel: hammer the step golden's
# three shapes on two real workers, and one capture per worker under loaders
# that hand out a new batch object or a new Feat header from every build, at
# three GOMAXPROCS settings (~15 s).
targeted run '^(TestStepGolden|TestCaptureGraphOnePerWorker)$' ./internal/train -race -count=10 -cpu 1,2,4
# A replayed step runs its records' math on up to tensor.Workers() goroutines —
# the worker's own and helpers from the dense kernels' pool, each pricing on a
# graph twin — while charges and observers keep record order: hammer every
# architecture's scheduled replay, with and without bucketed gradient
# overlap, on one and two real workers, at one dense-kernel worker against
# two and four, at three GOMAXPROCS settings (~1 min).
targeted run '^TestReplayWorkersBitIdentical$' ./internal/train -race -count=10 -cpu 1,2,4
# The paged table keeps each device's batch, page map and recycling list
# unlocked beside a locked cache, on the word that one goroutine drives a
# device: hammer four devices evicting inside their own batches (a few s).
targeted run '^TestTableConcurrentDevices$' ./internal/blockcache -race -count=20 -cpu 1,2,4
# The paged stores resolve a batch's pages on the device's goroutine and hand
# the fill behind them, a few pages at a time, to the dense kernels' pool
# (tensor.Fanout, itself hammered with ./internal/tensor above): one worker
# against two and four — gathered bits, sampled neighbourhoods, every cache
# counter, both device clocks — with pages, bitmap words and the topology
# fill's per-claimant scratch as the state two claimants must never share
# (~90 s and ~40 s).
targeted run '^TestGatherFanoutEquivalence$' ./internal/featstore -race -count=20 -cpu 1,2,4
targeted run '^TestPagedSamplingFanoutEquivalence$' ./internal/sampling -race -count=20 -cpu 1,2,4
# Dataset set-up shares the host's cores: the feature slab's noise is filled
# beside the serial edge loop, FromCOO counts, scatters and sorts on the
# dense kernels' pool, and the hash layout builds one rank per claim. Every
# array must still equal the values recorded when each step ran on one
# goroutine: hammer the generation golden (each run at one, two and four
# workers) at three GOMAXPROCS settings (~90 s).
targeted run '^TestGenerateGolden$' ./internal/dataset -race -count=5 -cpu 1,2,4
# The assembly against the Go loops on generated inputs: NaN payloads, signed
# zeros, infinities, denormals, every tail length, unaligned operands, Adam's
# moments and step counts; and the three matrix-product drivers against the
# reference loops on fuzzed shapes and bits. The seed corpus already ran
# above; this searches beyond it, 10 s per target (-fuzz takes one target and
# one package at a time).
for target in FuzzReLU FuzzReLUGrad FuzzAxpy FuzzAdam FuzzMatMul; do
	targeted fuzz "^$target\$" ./internal/tensor -fuzztime 10s
done
# Gathers of arbitrary float32 bits through random page sizes, budgets and
# row lists: every row bit-exact, one lookup per distinct page per gather.
targeted fuzz '^FuzzGatherRows$' ./internal/featstore -fuzztime 10s
# Random batches of edge reads through the batched, fanned-out Access.Read
# against At one edge at a time and against the fill function itself.
targeted fuzz '^FuzzTopoAccess$' ./internal/topostore -fuzztime 10s
# Random edge lists with hub rows past the counting-sort threshold, directed
# and undirected, at one to four workers, through FromCOO against appending
# every entry to its row and sorting; out-of-range edges must be an error.
targeted fuzz '^FuzzFromCOO$' ./internal/graph -fuzztime 10s
# Random graphs (empty rows, hubs, duplicate entries) on one to eight ranks
# under hash, range and random owners, with and without features and edge
# weights: the layout mapped resident against per-rank copies built edge by
# edge — adjacency, GlobalIDs, gathered bits, edge weights, Table IV bytes and
# every device's clock and counters — and mapped paged over a source that is
# no CSR, every column entry read through the topostore accessor against the
# resident view.
targeted fuzz '^FuzzLayout$' ./internal/graph -fuzztime 10s
# Every collective over random machine shapes, payloads, AlltoAllv byte
# matrices and start gates: link bytes conserved, no clock going back, no
# device done before its gate, two fresh machines identical.
targeted fuzz '^FuzzCollectives$' ./internal/sim -fuzztime 10s
# Random programs of kernels, Mallocs, graph brackets and stream switches,
# recorded (on the device, its staging twin or, inside a bracket, its graph
# twin, recharged directly or through the recording device) and issued,
# against the same program charged directly: both clocks, every counter,
# every trace interval.
targeted fuzz '^FuzzRecordIssue$' ./internal/sim -fuzztime 10s
# Random architectures, depths, widths, head counts, backends and batch
# shapes: the no-grad forward against the recording one, logits bit for bit
# and both device clocks and counters equal.
targeted fuzz '^FuzzForwardNoGrad$' ./internal/gnn -fuzztime 10s
# Random architectures, depths, widths, head counts, backends, fanouts,
# batches, real workers, nodes and gradient buckets: eager, captured and
# scheduled training equal bit for bit on every epoch's loss and accuracy
# and on the final parameters, and two scheduled runs hash equal.
targeted fuzz '^FuzzStepShapes$' ./internal/train -fuzztime 10s
# The serving batcher over random rates, stream lengths, batch caps, delays,
# deadlines, queue bounds, policy spellings, skews and cache sizes: rejected
# by Validate (every spelling but "" and "cache" must be), or every request
# accounted for, no batch over its cap, no request done before it launched
# or launched before it arrived, every request routed to its owner when there
# is no cache, and two deployments given one input tracing equal.
targeted fuzz '^FuzzServe$' ./internal/serve -fuzztime 10s
# The copied Go 1 math/rand source over random seeds, draw counts, bounds and
# Zipf shapes: its Int63, Uint64, Float32, Float64, Int63n and Zipf streams
# against math/rand's own, draw for draw.
targeted fuzz '^FuzzSourceMatchesMathRand$' ./internal/xrand -fuzztime 10s
# The benchmark is its own module (benchmark/go.mod), so the commands above
# never compile it: vet it and run its toy-size smoke (< 10 s), or a changed
# internal/* signature breaks the harness unseen.
(cd benchmark && go vet . && go test .)
