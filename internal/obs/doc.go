// Package obs is PLANET's observability layer: a metrics registry with
// Prometheus-style text exposition, and a per-transaction trace store.
//
// The registry layers named, labeled counters, gauges, and latency
// histograms on the primitives in internal/metrics. Instruments are
// get-or-create — calling Registry.Counter twice with the same name and
// labels returns the same instrument — so call sites can be written
// declaratively without a separate registration phase. WritePrometheus
// renders every series in the Prometheus text exposition format (counters
// and gauges verbatim, histograms as cumulative _bucket series with le
// labels plus _sum and _count, parseable by any Prometheus scraper).
//
// The trace store (SpanStores, one SpanStore shard per home region) keeps
// each recent transaction's causal spans, which feed the per-stage latency
// Attribution, and its lifecycle events (submitted, admission verdict,
// per-region votes, fallback, speculative fire, deadline fire, final
// decision, apology), which do not, in a bounded FIFO per shard with an
// optional slow/aborted-transaction log. A full shard reuses its oldest
// record, storage and all, for the next transaction, so readers always get
// copies. Faults go to one deployment-wide FaultLog and join a trace when
// it is read. Every method is safe on a nil store, so instrumented code
// needs no guards when tracing is off.
//
// Both halves are safe for concurrent use: events and samples arrive from
// coordinator, simnet timer, and callback-dispatch goroutines at once.
package obs
