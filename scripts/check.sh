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
# channel receive: hammer planned against unplanned builds, through BuildBatch
# and through Prefetch/Collect/Release (every batch read in full while the
# next one is built), and speculative builds adopted or undone against none,
# at three GOMAXPROCS settings (~3.5 min).
go test -race -count=10 -cpu 1,2,4 -run '^(TestPlannedEqualsUnplanned|TestSpeculationEqualsNone)$' ./internal/core
# A training step is one function whichever shape it takes — eager, capture,
# scheduled replay, the fallback of a loader that never reuses a batch — and each worker writes its graph map, counters and bucket gates
# inside sim.RunParallel: hammer the step golden's three shapes on two real
# workers at three GOMAXPROCS settings (~16 s).
go test -race -count=10 -cpu 1,2,4 -run '^TestStepGolden$' ./internal/train
# A replayed step runs its records' math on up to tensor.Workers() goroutines —
# the worker's own and helpers from the dense kernels' pool, each pricing on a
# graph twin — while charges and observers keep record order: hammer every
# architecture's scheduled replay, with and without bucketed gradient
# overlap, on one and two real workers, at one dense-kernel worker against
# two and four, at three GOMAXPROCS settings (~1 min).
go test -race -count=10 -cpu 1,2,4 -run '^TestReplayWorkersBitIdentical$' ./internal/train
# The paged table keeps each device's batch, page map and recycling list
# unlocked beside a locked cache, on the word that one goroutine drives a
# device: hammer four devices evicting inside their own batches (a few s).
go test -race -count=20 -cpu 1,2,4 -run '^TestTableConcurrentDevices$' ./internal/blockcache
# The paged stores resolve a batch's pages on the device's goroutine and hand
# the fill behind them, a few pages at a time, to the dense kernels' pool
# (tensor.Fanout, itself hammered with ./internal/tensor above): one worker
# against two and four — gathered bits, sampled neighbourhoods, every cache
# counter, both device clocks — with pages, bitmap words and per-claimant
# scratch as the state two claimants must never share (~90 s and ~40 s).
go test -race -count=20 -cpu 1,2,4 -run '^TestGatherFanoutEquivalence$' ./internal/featstore
go test -race -count=20 -cpu 1,2,4 -run '^TestPagedSamplingFanoutEquivalence$' ./internal/sampling
# Dataset set-up shares the host's cores: the feature slab's noise is filled
# beside the serial edge loop, FromCOO counts, scatters and sorts on the
# dense kernels' pool, and the hash layout builds one rank per claim. Every
# array must still equal the values recorded when each step ran on one
# goroutine: hammer the generation golden (each run at one, two and four
# workers) at three GOMAXPROCS settings (~90 s).
go test -race -count=5 -cpu 1,2,4 -run '^TestGenerateGolden$' ./internal/dataset
# The assembly against the Go loops on generated inputs: NaN payloads, signed
# zeros, infinities, denormals, every tail length, unaligned operands, Adam's
# moments and step counts; and the three matrix-product drivers against the
# reference loops on fuzzed shapes and bits. The seed corpus already ran
# above; this searches beyond it, 10 s per target (-fuzz takes one target and
# one package at a time).
for target in FuzzReLU FuzzReLUGrad FuzzAxpy FuzzAdam FuzzMatMul; do
	go test -run '^$' -fuzz "^$target\$" -fuzztime 10s ./internal/tensor
done
# The three page codecs over arbitrary float32 bits and page shapes.
go test -run '^$' -fuzz '^FuzzPageCodec$' -fuzztime 10s ./internal/featstore
# Random batches of edge reads through the batched, fanned-out Access.Read
# against At one edge at a time and against the fill function itself.
go test -run '^$' -fuzz '^FuzzTopoAccess$' -fuzztime 10s ./internal/topostore
# Random edge lists with hub rows past the counting-sort threshold, directed
# and undirected, at one to four workers, through FromCOO against appending
# every entry to its row and sorting; out-of-range edges must be an error.
go test -run '^$' -fuzz '^FuzzFromCOO$' -fuzztime 10s ./internal/graph
# Random graphs (empty rows, hubs, duplicate entries) on one to eight ranks
# under hash, range and random owners, with and without features and edge
# weights: the layout mapped resident against per-rank copies built edge by
# edge — adjacency, GlobalIDs, gathered bits, edge weights, Table IV bytes and
# every device's clock and counters — and mapped paged over a source that is
# no CSR, every column entry read through the topostore accessor against the
# resident view.
go test -run '^$' -fuzz '^FuzzLayout$' -fuzztime 10s ./internal/graph
# Arbitrary dataset files, each loaded as given and again with its checksum
# trailer made to match, so mutations reach the structure checks: Load never
# panics, allocates no more than a few times the input plus one read chunk
# whatever a length prefix claims, and what it returns passes the structure
# checks and survives Save and Load unchanged.
go test -run '^$' -fuzz '^FuzzDatasetLoad$' -fuzztime 10s ./internal/dataset
# Every collective over random machine shapes, payloads, AlltoAllv byte
# matrices and start gates: link bytes conserved, no clock going back, no
# device done before its gate, two fresh machines identical.
go test -run '^$' -fuzz '^FuzzCollectives$' -fuzztime 10s ./internal/sim
# Random programs of kernels, Mallocs, graph brackets and stream switches,
# recorded (on the device, its staging twin or, inside a bracket, its graph
# twin, recharged directly or through the recording device) and issued,
# against the same program charged directly: both clocks, every counter,
# every trace interval.
go test -run '^$' -fuzz '^FuzzRecordIssue$' -fuzztime 10s ./internal/sim
# Random architectures, depths, widths, head counts, backends and batch
# shapes: the no-grad forward against the recording one, logits bit for bit
# and both device clocks and counters equal.
go test -run '^$' -fuzz '^FuzzForwardNoGrad$' -fuzztime 10s ./internal/gnn
# Random architectures, depths, widths, head counts, backends, fanouts,
# batches, real workers, nodes and gradient buckets: eager, captured and
# scheduled training equal bit for bit on every epoch's loss and accuracy
# and on the final parameters, and two scheduled runs hash equal.
go test -run '^$' -fuzz '^FuzzStepShapes$' -fuzztime 10s ./internal/train
# The serving batcher over random rates, stream lengths, batch caps, delays,
# deadlines, queue bounds, policies, skews and cache sizes: rejected by
# Validate, or every request accounted for, no batch over its cap, no request
# done before it launched or launched before it arrived, owner routing to the
# owner, and two deployments given one input tracing equal.
go test -run '^$' -fuzz '^FuzzServe$' -fuzztime 10s ./internal/serve
# The copied Go 1 math/rand source over random seeds, draw counts, bounds and
# Zipf shapes: its Int63, Uint64, Float32, Float64, Int63n and Zipf streams
# against math/rand's own, draw for draw.
go test -run '^$' -fuzz '^FuzzSourceMatchesMathRand$' -fuzztime 10s ./internal/xrand
# The benchmark is its own module (benchmark/go.mod), so the commands above
# never compile it: vet it and run its toy-size smoke (< 10 s), or a changed
# internal/* signature breaks the harness unseen.
(cd benchmark && go vet . && go test .)
