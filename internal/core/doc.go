// Package planet implements the PLANET transaction programming model
// (Predictive Latency-Aware NEtworked Transactions, SIGMOD 2014): staged
// transactions whose internal commit progress is exposed to the application
// through callbacks, with continuously updated commit-likelihood
// prediction, speculative commits with guaranteed apologies, and
// likelihood-based admission control.
//
// # The staged transaction model
//
// A PLANET transaction advances through monotonically increasing stages:
//
//	init → accepted → in-flight → (speculative) → committed | aborted
//	     ↘ rejected (admission control)
//
// Instead of blocking until a geo-replicated commit finishes — hundreds of
// milliseconds away in the tail — the application commits asynchronously
// and registers callbacks:
//
//	h, err := tx.Commit(planet.CommitOptions{
//		SpeculateAt: 0.95,
//		OnAccept:    func(planet.Progress) { showSpinner() },
//		OnSpeculative: func(p planet.Progress) {
//			// ≥95% likely to commit: respond to the user now.
//			showOrderConfirmed(p.Likelihood)
//		},
//		OnFinal: func(o txn.Outcome) { markDurable(o) },
//		OnApology: func(o txn.Outcome) {
//			// The speculation was wrong: compensate.
//			emailApology(o)
//		},
//	})
//
// The guaranteed-apology contract: OnApology fires if and only if the
// transaction reported a speculative commit and then aborted. OnFinal fires
// for every transaction exactly once (including admission rejections), and
// callback order is always accept ≤ progress* ≤ speculative ≤ final ≤
// apology. Under a virtual clock callbacks run on the scheduler's own loop
// and must not block through the clock; see CommitOptions.
//
// # Prediction and admission
//
// Each region's coordinator feeds a predictor with vote round-trip times
// and per-record contention statistics on every vote. The handle computes
// the commit likelihood from them at a protocol event when something
// consumes it there — a speculation threshold not yet crossed, OnProgress,
// a deadline, calibration, the vote events of a traced transaction — and at
// every fallback and learn; a vote that nothing consumes only marks the
// likelihood stale, and Handle.Likelihood or Handle.Progress computes it
// when read. Either way
// the predictor's state, and so every later estimate, is the same (the
// rule is at handleSink.Progress). Admission control consults the same
// predictor before any protocol work: transactions whose prior commit
// likelihood is below the policy threshold are rejected immediately,
// converting doomed work into instant feedback and protecting goodput
// under contention.
//
// With Config.Trace, each transaction's spans and the lifecycle events its
// handle records (admission, votes with their likelihood updates,
// speculation, final, apology) go to its home region's shard of the trace
// store (DB.Spans), stamped on the cluster clock.
//
// The package name is planet (not the directory name core): this is the
// system's public API and call sites should read planet.Open, planet.Txn.
package planet
