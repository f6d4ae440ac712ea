#!/bin/sh
# verify.sh — the checks a change must pass before merging:
# vet, full build, full test suite, then a race-detector pass over the
# packages with the most concurrency (core, mdcc, obs, cluster, where a
# node's transport goroutines step its replica's lease policy, httpapi, whose
# handlers enter a paced virtual clock from net/http's goroutines, and
# realnet: on a live node its read loops, its loopback dispatcher, HTTP
# goroutines and timer goroutines all run steps of the same replica and
# coordinator, through one lock per actor, and perform their outputs
# after it).
set -eux

# Static analysis first (go vet has been part of this gate since the seed;
# the arm pool and the scheduler lean on it for copylocks/loopclosure checks).
go vet ./...
go build ./...
# The root package's static checks ride along: TestNoDeadExports and
# TestMapRangeOrder (no map-order range in internal/mdcc, internal/core or
# internal/simnet unless its keys are sorted first or it is marked
# order-free) share one type-checked program.
go test ./...
# benchmark/ is its own module (replace planet => ../), so the three lines
# above never compile it: without these an API deletion under internal/
# breaks the frozen benchmark unnoticed.
go vet -C benchmark ./...
go test -C benchmark -short ./...
go test -race -short ./internal/core ./internal/mdcc ./internal/obs ./internal/cluster ./internal/httpapi ./internal/realnet
# realnet decodes a frame that fits its read buffer where it lies and reuses
# the payload slice frame to frame: payloads from two sender goroutines,
# below, at and above the buffer's size, must read back unchanged after
# later frames have refilled it (and the fuzz seeds' straddling frames too).
# A peer's outbox keeps send order: deferrable and regular frames from one
# sender, with deferral windows closing mid-stream, arrive in send order.
go test -race -count=10 -run 'TestRealnetReadBufferReuse|FuzzReadLoop|TestRealnetOutboxOrder' ./internal/realnet
# Chaos soak gate: fault schedules (partition + crash/WAL-recovery +
# latency spike) laid over a closed-loop workload on the cluster's virtual
# clock must preserve the safety invariants under the race detector, both
# under static mastership and under epoch-fenced master leases
# (TestChaosSoakLeaseFailover crashes a live lease holder mid-run and
# requires a takeover plus the same invariants). -short shrinks the
# workload and its schedule together but never skips.
go test -race -run Soak -short ./internal/chaos/
# Virtual-time gates. Determinism: the same seed must reproduce the F4
# metric map bit-for-bit (twice per run, ten runs, plus a race pass over
# the scheduler itself). Budget: the full experiment suite runs on the
# virtual clock and must finish inside a wall-time budget a run on real
# timers could never meet (it would need ~10s of sleeping per run alone).
# The gate runs at GOMAXPROCS=1 AND GOMAXPROCS=4: the experiments' arm
# pool runs independent clusters on several cores, and each cluster's
# virtual clock hands its one execution slot between the scheduler loop
# (inline run queue) and tracked goroutines; both must give bit-identical
# metrics whether they interleave on one OS thread or truly race on four.
# Each invocation compares two same-seed runs internally.
GOMAXPROCS=1 go test -count=10 -run TestVirtualTimeDeterminism .
GOMAXPROCS=4 go test -count=10 -run TestVirtualTimeDeterminism .
# Every cluster.New runs on a virtual clock, so the protocol tests are
# replayable too: two same-seed chaos soaks must write byte-identical WALs
# at every replica, and two same-seed randomized safety rounds must give
# identical per-transaction verdicts and final replica snapshots. The soak
# crashes a coordinator with transactions in flight (at least two), and its
# decisions, the crash's aborts included, must come in the same order.
go test -count=10 -run TestChaosSoakDeterminism ./internal/chaos/
go test -count=10 -run TestRandomizedSafetyDeterminism ./internal/mdcc/
# A step is a function: two copies of an actor in the same state, given the
# same input, emit equal outputs and reach equal state digests — over every
# input kind the step tests build, the start input with and without leases,
# a coordinator crash with six transactions in flight and a restore with
# several keyspaces (steps that range over maps sort first).
go test -count=10 -run TestDoubleStep ./internal/mdcc/
# Run-queue order gate: everything that enters the virtual clock's run
# queue — posts (a transaction's staged callbacks), Go spawns, AfterFunc(0)
# bodies, parked and function Event waiters, Group workers of both kinds —
# must run in exactly call/wait order, whether a goroutine or the scheduler
# loop carries it. The bit-identical fingerprints above rest on this order.
GOMAXPROCS=1 go test -count=10 -run 'TestVirtualRunQueueOrder|TestWorldRunQueueOrder' ./internal/vclock
GOMAXPROCS=4 go test -count=10 -run 'TestVirtualRunQueueOrder|TestWorldRunQueueOrder' ./internal/vclock
# Cross-GOMAXPROCS comparison: planetbench -parallel runs the whole
# experiment registry once per GOMAXPROCS setting (1/2/4/NumCPU) in ONE
# process and fails unless every pass's metric maps are bit-identical to
# the GOMAXPROCS=1 reference.
go run ./cmd/planetbench -quick -parallel all
# Arm-pool gate: the experiments run their independent arms on up to
# GOMAXPROCS workers. Under the race detector on four processors, every
# registry experiment must give the same text and bit-identical metrics
# with one worker and with four, and forArms must keep its contract
# (index order, lowest-index error, panics re-raised after the pool drains,
# no goroutine left behind by a failing arm).
GOMAXPROCS=4 go test -race -short -run 'TestArmsEquivalence|TestForArms' ./internal/experiments/
# Lease determinism gate: the same seed on the virtual clock with master
# leases ENABLED must produce bit-identical txn outcomes, final state, and
# lease views (leases default off; this is the only gate that turns them on
# deterministically).
# The election gates ride along: the duel repro (two survivors claiming one
# epoch on one tick must still elect one holder and count one takeover, 20
# seeds), the sweep (3 and 5 regions, every survivor missing the last
# renewal, 10 crash instants over a tick: one holder within 3 terms) and
# the duel a tick apart (a survivor missing a full term of renewals: one
# holder within 4 terms).
go test -count=10 -run 'TestLeaseVirtualDeterminism|TestLeaseDuelAfterLostRenewal|TestLeaseElectionSweep|TestLeaseDuelAfterLostTerm' ./internal/mdcc/
# Failover and partition determinism gate: master failover under load
# (TestLeaseFailoverUnderLoad), the partition preset on a leased cluster
# (TestPartitionScenarioRecovers) and the coordinator's failure detector
# under a cut (TestDetectorPartition: the first fast submit times out,
# later ones degrade to classic, a probe's answer after the heal brings
# the fast path back) log one fingerprint per seed, seeds 1-20. Ten runs
# must log 20 seeds with one fingerprint each.
fingerprints() {
	log=$(mktemp)
	go test -count=10 -v -run "^$1\$" "$2" > "$log"
	awk '$2 == "fingerprint" {print $3, $4}' "$log" | sort -u |
		awk '{if (!n[$1]++) seeds++} END {exit !(NR == 20 && seeds == 20)}' || {
		echo "verify: $1: a seed's fingerprint differs between runs, or a seed is missing" >&2
		exit 1
	}
	rm -f "$log"
}
fingerprints TestLeaseFailoverUnderLoad ./internal/mdcc/
fingerprints TestPartitionScenarioRecovers ./internal/chaos/
fingerprints TestDetectorPartition ./internal/mdcc/
go test -race -count=2 ./internal/vclock
go test -count=1 -timeout 60s -run 'TestExperimentsRunClean|TestEvaluationShapes' .
# Open-loop traffic gates. Smoke: the -openloop profile (surge schedule,
# Zipfian keys, adaptive admission) must sustain its quick arrival volume
# with the conservation invariant (injected == committed + aborted +
# rejected + in-flight) holding at every sample. Determinism: ten runs of
# the admission-controller end-to-end test, each comparing two same-seed
# runs bit-for-bit — the feedback loop (epoch ticks, histogram quantiles,
# published thresholds) is part of the deterministic simulation.
go run ./cmd/planetbench -quick -openloop
go test -count=10 -timeout 120s -run TestAdaptiveAdmissionDeterminism ./internal/core/
# Timer-population fingerprint gate: the benchmark's sim_openloop_commit
# workload holds about 12 000 live timers on its virtual clock, the only gate
# that runs the timer heap at that population (the quick experiments peak near
# 1 000). Its fingerprint hashes each round's arrival and outcome counts,
# virtual elapsed time and commit-latency quantiles, so a change in event
# order changes it. --seconds 0.1 is shorter than one round, so the warm-up
# round and exactly one timed round run. Re-record the value only when the
# protocol itself changes (ROADMAP item 1), never for a scheduler change.
fp=$(bash benchmark/run.sh --workload sim_openloop_commit --seed 5 --seconds 0.1 | awk '$1 == "fingerprint" {print $2}')
[ "$fp" = 19beec36eb41c5bc ] || {
	echo "verify: sim_openloop_commit seed 5 fingerprint=$fp, want 19beec36eb41c5bc" >&2
	exit 1
}
# Observability gates. Attribution and trace determinism: the same seed on
# the virtual clock must produce bit-identical per-stage variance tables
# and identical per-transaction traces (events, offsets, likelihood bits,
# span tree shape; twice per test invocation, ten invocations), or the
# trace store has grown a nondeterminism bug. The causal-tree shape check
# rides along.
go test -count=10 -timeout 120s -run 'TestAttributionDeterminism|TestTraceDeterminism|TestTraceSpans' ./internal/core/
# Process gate: the checks only a separate planetd process can make, inside
# a wall-clock budget. A 3-process loopback fleet commits transfers while a
# master is SIGKILLed and restarted, and must show WAL replay, rejoin,
# cross-node agreement and conservation (TestRealnetKillRestartMaster); a
# kill -9 aimed between option-accept and decision write must replay onto
# the survivors' side (TestRealnetWALCrashPointMasterKill); SIGTERM must
# drain, exit 0 and leave no torn tail (TestRealnetGracefulShutdown); a
# stitched coordinator+master+replica span tree, a /v1/attribution smoke and
# trace continuity across kill -9 + WAL replay come from live processes
# (TestRealnetStitchedTrace, TestRealnetTraceContinuityAcrossCrash); and a
# port taken before a node binds restarts the fleet on fresh ports
# (TestStartRetriesTakenPort). Lease failover and the link-cut and listener
# cycle run in-process over real sockets (httpapi's TestNode* tests, in
# `go test ./...` above), and the partition scenario on the virtual clock.
go test -count=1 -timeout 240s -run 'TestRealnet|TestStartRetriesTakenPort' ./internal/multinet/
# Wire gate: the codec property tests, the retired per-option tags decoding
# as unknown, and the batching tests — a 4-option fast commit is exactly 15
# messages, and a fixed transaction sequence ends in the outcomes and replica
# state the protocol rules derive.
go test -count=1 -timeout 60s -run 'TestWire|TestBatch' ./internal/mdcc/
# Syscall gate: 300 commits through SubmitAndWait on an in-process
# three-node realnet deployment, judged from /v1/metrics alone (parsed
# strictly): exactly one HTTP request per commit, and fewer socket writes
# than frames fleet-wide. A change that reintroduces the second round trip
# or a write per frame fails here.
go test -count=1 -timeout 120s -run TestOneRequestCommitGate ./internal/httpapi/
# Transport equivalence gate: the same seeded workloads must produce the
# same verdicts and final state over simnet and over real TCP.
go test -count=1 -timeout 120s -run TestTransportEquivalence ./internal/cluster/
# Benchmark smoke gate: every benchmark in the tree must complete one
# iteration cleanly (catches panics on bench-only paths).
go test -run '^$' -bench . -benchtime 1x -benchmem ./...
# Allocation rungs. rung BENCHMARK PACKAGE BENCHTIME CEILING runs one
# benchmark and fails when its allocs/op exceeds the ceiling, which is the
# recorded reading +15 %, rounded down to a whole count.
rung() {
	allocs=$(go test -run '^$' -bench "^$1\$" -benchtime "$3" -benchmem "$2" |
		awk -v b="$1" '$1 ~ "^"b {for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $(i-1)}')
	[ -n "$allocs" ] && [ "$allocs" -le "$4" ] || {
		echo "verify: $1 allocs/op=$allocs exceeds ceiling $4" >&2
		exit 1
	}
}
# The commit hot path: pipelined commutative transactions through a
# coordinator on the five-region simnet cluster. 25 allocs/op in three of
# three runs when the ceiling was last set (60 when the batched wire format
# landed); gated at 28.
rung BenchmarkCoordinatorCommit ./internal/mdcc/ 1000x 28
# The simulated commit path's rung of the same ladder (ROADMAP item 6): every
# heap allocation of an open-loop round on the virtual clock — scheduler,
# simnet, coordinator, replicas, handle, driver — per committed transaction.
# 51.17 when the rung was added (130.7 before that change); 40.2 since
# transactions keep their read and write sets in slices, replicas keep
# decisions in id pages, the run queue takes posts and OnFire functions
# without a grant, the predictor's vote tail sits on the stack and the
# workload driver allocates one record per commit for its callbacks. Gated
# at +15 % (46.2, so 46).
allocs=$(go test -run '^$' -bench BenchmarkOpenLoopCommit -benchtime 20x ./internal/workload/ |
	awk '/^BenchmarkOpenLoopCommit/ {for (i = 1; i <= NF; i++) if ($i == "allocs/commit") print $(i-1)}')
[ -n "$allocs" ] && awk -v a="$allocs" 'BEGIN {exit !(a <= 46)}' || {
	echo "verify: BenchmarkOpenLoopCommit allocs/commit=$allocs exceeds ceiling 46" >&2
	exit 1
}
# Construction rung: what every experiment arm pays before its first
# transaction — a five-region cluster.New on a virtual clock, a planet.Open
# and one session per region. Per-region RNGs, the calibration stream and the
# predictors' RTT windows are built on first use, not here. 252 allocs/op
# (56 KB) when the rung was added, against 293 (191 KB) before that change;
# gated at 289.
rung BenchmarkOpenDeployment ./internal/cluster/ 20x 289
# Seeding rung: a Buy template over 100 000 uniform keys, seeded into a
# five-region cluster.New the way the experiments seed. The key space enters
# the deployment's shared seed image as one (prefix, n) range, whatever n
# is, and no replica builds a record until the protocol touches a key.
# 2 allocs/op when range seeds landed (100 261 before, when the image held an
# entry per key), gated at 2.
rung BenchmarkSeedCluster ./internal/cluster/ 5x 2
# Live-path codec rungs: the hand-written codecs every live commit crosses.
# Gateway: a one-op submit body decoded and its final status encoded, 2
# allocs/op (17 through encoding/json). Frames: a one-vote batch through
# encodeFrame and decodeFrame with mdcc.WireCodec, 4 allocs/op (14 with a
# copied payload per frame, a fresh body per frame and uninterned names).
# WAL: one decision appended to a file-backed WAL, 0 allocs/op (2 through
# json.Encoder).
rung BenchmarkGatewayCodec ./internal/httpapi/ 10000x 2
rung BenchmarkFrameRoundTrip ./internal/realnet/ 10000x 4
rung BenchmarkWALAppend ./internal/mdcc/ 1000x 0
# Traced commit rung: a one-key add on a three-region simnet cluster with
# planet.Config{Trace: true} and memory WALs, the trace store already full,
# every span recorded. 27 allocs/op since the store reuses evicted records,
# the coordinator records each replica's option-RPC leg from its vote and a
# co-located replica hands its spans to the store without a message (56
# before; 24 with tracing off). Gated at +15 % (31.05, so 31).
rung BenchmarkTracedCommit ./internal/core/ 2000x 31
