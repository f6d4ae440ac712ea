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
// and per-record contention statistics; the handle recomputes the commit
// likelihood on every protocol event. Admission control consults the same
// predictor before any protocol work: transactions whose prior commit
// likelihood is below the policy threshold are rejected immediately,
// converting doomed work into instant feedback and protecting goodput
// under contention.
//
// The package name is planet (not the directory name core): this is the
// system's public API and call sites should read planet.Open, planet.Txn.
package planet
