// Package mdcc implements the strongly consistent, geo-replicated commit
// protocol PLANET runs on: an MDCC-style (multi-data-center consistency)
// optimistic commit protocol with per-record Paxos.
//
// # Protocol sketch
//
// Every region hosts one full replica of the record store. A transaction's
// writes become options — proposed record updates — that must be accepted by
// a quorum of replicas before the transaction can commit. Two proposal paths
// exist:
//
//   - Fast path: the coordinator sends each option directly to all N
//     replicas at the reserved fast ballot 0. An option is chosen once
//     ⌈3N/4⌉ replicas accept it (the Fast Paxos quorum). One wide-area
//     round trip in the common case.
//
//   - Classic path: the coordinator sends the option to the record's
//     master, which sequences it through ordinary Paxos (phase 1 once per
//     key to take ownership, then phase 2 to a majority). One extra hop to
//     the master, but a smaller quorum and no collision ambiguity.
//
// Replicas accept an option only if it is compatible with their committed
// state and with every option already pending on that record: version match
// for physical writes (OpSet), integrity-bound (demarcation) checks for
// commutative integer deltas (OpAdd). A transaction commits when every one
// of its options is learned accepted; the decision is broadcast to all
// replicas, which then apply the pending updates.
//
// # Fast-path collision recovery
//
// When fast-path votes split such that no quorum can form, the coordinator
// falls back to the classic path. The master then performs coordinated Fast
// Paxos recovery: phase 1 at a fresh ballot collects the pending options
// from a majority, and any conflicting option observed at least
// classicQuorum-(N-fastQuorum) times — i.e. any option that may have been,
// or may yet become, fast-chosen — is re-proposed at the new ballot before
// the master's own candidate is considered. This preserves the core safety
// property (no two conflicting options ever both commit) without full
// Generalized Paxos machinery.
//
// # Execution
//
// Replica and Coordinator change state only inside step(now, in), which
// applies one input to the actor's own state and appends the input's
// effects to an ordered output list instead of performing them. Inputs are
// the protocol messages, the local entries (SubmitTraced, the commit
// timeout, QuorumRead, SyncFrom, the lease tick, PeerDown, Crash, Restore,
// Close) and queries (ReadLocal, Snapshot, the lease views, startup
// setters); a crashed actor drops messages inside step. Outputs are sends,
// WAL entries, timer arms and stops (commit timeouts and the lease tick),
// sink and lease-observer calls, waiter wake-ups,
// transport (de)registration and a replica's decide-time spans; observer
// counters and the coordinator's span-store adds stay inline. A master's
// sends leave as one wire message per destination.
//
// exec, one per actor, is the executor and the only place the actor's
// mutex is taken. It runs step under the lock and appends the step's WAL
// entries before releasing it, so an entry is logged before any message the
// step sent. It then performs the other outputs in emission order: simnet
// draws each send's delay from its sender's stream and fires same-instant
// timers in arm order, so that order keeps seeded runs bit-identical.
//
// The executor is a lock, not a goroutine per actor: core reads call
// ReadLocal synchronously from a goroutine holding the virtual clock's
// execution slot, and a paced clock's HTTP handlers run beside that slot,
// so posting to an actor goroutine and waiting on a channel would stall or
// deadlock the clock. On simnet the lock is never contended (a cluster runs
// every handler on one run queue); on a live node it is taken once per
// delivery.
//
// # Simplifications relative to the MDCC paper
//
//   - Mastership is static by default: a key's master does not move, and
//     experiments that partition regions keep masters reachable or use the
//     fast path. With leases enabled (ReplicaConfig.Leases; planetd
//     -leases) mastership of a keyspace is a time-bounded, epoch-fenced
//     lease instead, and a survivor takes over a dead master's keyspace
//     once its lease lapses, driven by a tick inside the replica's step
//     (see lease.go).
//   - Paxos instances are tracked per key rather than per record version;
//     once a key's promised ballot rises above the fast ballot the key stays
//     classic-owned (MDCC likewise demotes contended records to classic).
//   - Reads are served by the client's local replica (snapshot of committed
//     state), as in PLANET's evaluation.
package mdcc
