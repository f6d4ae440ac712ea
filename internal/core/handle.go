package planet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"planet/internal/mdcc"
	"planet/internal/obs"
	"planet/internal/predictor"
	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// Progress is a snapshot of a transaction's commit progress, passed to
// stage and progress callbacks.
type Progress struct {
	Txn        txn.ID
	Stage      txn.Stage
	Likelihood float64
	Elapsed    time.Duration
	// VotesReceived / VotesExpected count fast-path replica votes.
	VotesReceived int
	VotesExpected int
	// OptionsLearned counts options with a definitive accept/reject.
	OptionsLearned int
	OptionsTotal   int
}

// String implements fmt.Stringer.
func (p Progress) String() string {
	return fmt.Sprintf("%s %s likelihood=%.3f votes=%d/%d opts=%d/%d t=%s",
		p.Txn, p.Stage, p.Likelihood, p.VotesReceived, p.VotesExpected,
		p.OptionsLearned, p.OptionsTotal, p.Elapsed)
}

// CommitOptions configures one staged commit. All callbacks are optional;
// a transaction's callbacks run one at a time in stage order
// (accept ≤ progress* ≤ speculative ≤ deadline? ≤ final ≤ apology), never
// on the protocol's own call stack. Under the real clock each transaction
// drains its callbacks on a goroutine of its own, so a slow callback delays
// later callbacks of the same transaction only. Under a virtual clock they
// run on the clock's scheduler loop, in run-queue order with every
// other transaction's, and must not block through the clock (no Sleep, no
// Wait).
type CommitOptions struct {
	// SpeculateAt, in (0,1], fires OnSpeculative once the predicted
	// commit likelihood reaches the threshold. Zero disables speculation.
	SpeculateAt float64
	// Deadline, measured from submission in wall-clock (emulator) time,
	// fires OnDeadline with the live progress if the transaction has not
	// finished by then. The transaction keeps running.
	Deadline time.Duration
	// OnAccept fires when the system takes responsibility for the
	// transaction (admission passed, commit processing started).
	OnAccept func(Progress)
	// OnProgress fires on every protocol event (vote, fallback, learn) with
	// the likelihood computed at that event.
	OnProgress func(Progress)
	// OnSpeculative fires at most once, when likelihood ≥ SpeculateAt.
	OnSpeculative func(Progress)
	// OnDeadline fires if the deadline passes before the final decision.
	OnDeadline func(Progress)
	// OnFinal fires exactly once with the transaction's outcome,
	// including admission rejections.
	OnFinal func(txn.Outcome)
	// OnApology fires after OnFinal iff the transaction speculated and
	// then aborted — the guaranteed apology.
	OnApology func(txn.Outcome)
}

// optTrack follows one option's votes at the handle.
type optTrack struct {
	key      string
	accepts  int
	voted    uint64 // bitmask over Handle.regions indices
	fellBack bool
	learned  int
}

// Handle is a staged commit in flight. Obtain one from Txn.Commit.
type Handle struct {
	id      txn.ID
	db      *DB
	session *Session
	clk     vclock.Clock   // the session's clock
	spans   *obs.SpanStore // the home region's span shard (nil untraced)
	opts    CommitOptions
	regions []simnet.Region
	// span is the transaction's root trace span id (0 = untraced). Every
	// span recorded for the transaction — locally or at remote replicas and
	// masters — descends from it.
	span uint64

	mu    sync.Mutex
	stage txn.Stage
	// likelihood is the commit likelihood as of the last event that computed
	// it; stale marks a vote since then that nothing consumed, so the next
	// reader (likelihoodLocked) computes it.
	likelihood float64
	stale      bool
	tracks     []optTrack // per-option vote state, in submission order
	votes      int
	learnedN   int
	speculated bool
	terminal   bool
	outcome    txn.Outcome
	samples    []float64 // in-flight likelihood samples for calibration
	start      time.Time
	timer      vclock.Timer

	// Callback dispatch: callbacks are posted to the clock's serial queue in
	// stage order, and done.Fire is posted last. Under a virtual clock a
	// post takes its run-queue position at the point of the call, so
	// dispatch order across all handles is deterministic.
	cbq  vclock.Queue
	done *vclock.Event
}

// maxCalibSamples caps per-transaction calibration samples.
const maxCalibSamples = 64

// Commit submits the transaction through admission control and starts
// commit processing. It returns an error only for malformed transactions
// (mixed Set/Add on a key, double commit); admission rejections and commit
// outcomes are reported through the handle.
func (t *Txn) Commit(opts CommitOptions) (*Handle, error) {
	if t.committed {
		return nil, fmt.Errorf("planet: transaction committed twice")
	}
	ops, err := t.ops()
	if err != nil {
		return nil, err
	}
	t.committed = true

	s := t.session
	db := s.db
	regionList := db.cfg.Cluster.Regions()

	// Shedding: with the home coordinator's fast quorum down, votes are
	// about to time out or the submit goes classic, so optimistic
	// speculation would mostly turn into apologies. Drop it for this
	// transaction; the commit itself proceeds.
	shedSpec := false
	if opts.SpeculateAt > 0 && db.RegionDegraded(s.region) {
		opts.SpeculateAt = 0
		shedSpec = true
		db.specShed.Add(1)
		if db.inst != nil {
			db.inst.specShed.Inc()
		}
	}

	// Adaptive speculation floor: under a high-abort regime the region's
	// controller raises the bar for speculating above what the workload
	// asked for — permissive speculation there mostly manufactures
	// apologies.
	ctl := db.admFor(s.region)
	if ctl != nil && opts.SpeculateAt > 0 {
		if f := ctl.specFloorVal(); f > opts.SpeculateAt {
			opts.SpeculateAt = f
		}
	}

	h := &Handle{
		id:      db.rt(s.region).ids.NewID(),
		db:      db,
		session: s,
		clk:     s.db.clk,
		spans:   db.spans.For(string(s.region)),
		opts:    opts,
		regions: regionList,
		tracks:  make([]optTrack, len(ops)),
		start:   s.db.clk.Now(),
		cbq:     s.db.clk.NewQueue(),
		done:    s.db.clk.NewEvent(),
	}
	for i, op := range ops {
		h.tracks[i] = optTrack{
			key:      op.Key,
			fellBack: db.cfg.Mode == mdcc.ModeClassic,
		}
	}
	if h.spans != nil {
		h.span = obs.NewSpanID()
	}

	// The submission's lifecycle events open the trace together, with Begin.
	subEv := obs.Event{Kind: obs.EvSubmitted}
	if shedSpec {
		subEv.Note = "speculation shed: region degraded"
	}
	subEv = h.stamp(subEv)

	// Admission control: consult the predictor before any protocol work.
	prior := s.pred.LikelihoodAtSubmit(t.Keys())
	h.likelihood = prior
	pol := db.cfg.Admission
	if ctl != nil {
		pol = ctl.policy(pol)
		ctl.observePrior(prior)
	}
	if pol.enabled() && len(ops) > 0 {
		inFlight := db.inFlight[s.region]
		if pol.MinLikelihood > 0 && prior < pol.MinLikelihood && !db.probe(s.region, pol.ProbeFraction) {
			db.rejected.Add(1)
			h.reject(subEv, h.stamp(obs.Event{Kind: obs.EvAdmission, Likelihood: prior, Note: "below-min-likelihood"}))
			return h, nil
		}
		if pol.MaxInFlight > 0 && inFlight.Load() >= int64(pol.MaxInFlight) {
			db.rejected.Add(1)
			h.reject(subEv, h.stamp(obs.Event{Kind: obs.EvAdmission, Likelihood: prior, Note: "max-in-flight"}))
			return h, nil
		}
	}

	db.submitted.Add(1)
	db.inFlight[s.region].Add(1)
	h.stage = txn.StageAccepted
	db.inst.stage(txn.StageAccepted)
	admEv := h.stamp(obs.Event{Kind: obs.EvAdmission, Accept: true, Likelihood: prior})
	h.enqueue(h.opts.OnAccept, h.progressLocked())
	if h.span != 0 {
		h.spans.Begin(h.id, h.start, subEv, admEv)
		h.spans.Add(h.newSpan(obs.StageAdmit, h.start, admEv.At))
	}

	if opts.Deadline > 0 {
		h.timer = s.db.clk.AfterFunc(opts.Deadline, h.onDeadline)
	}
	preSubmit := s.db.clk.Now()
	if err := s.coord.SubmitTraced(h.id, ops, db.cfg.Mode, (*handleSink)(h), h.span); err != nil {
		// A crashed coordinator refuses the submit. The transaction never
		// entered commit processing, so it aborts with the error and,
		// never having speculated, owes no apology.
		db.inFlight[s.region].Add(-1)
		h.finishLocked(false, err, true)
		return h, nil
	}
	h.recordSpan(obs.StageSubmit, preSubmit)
	return h, nil
}

// newSpan returns a core-side span of stage st under the transaction's
// root.
func (h *Handle) newSpan(st obs.Stage, start, end time.Time) obs.Span {
	return obs.Span{
		Txn: h.id, ID: obs.NewSpanID(), Parent: h.span, Stage: st,
		Region: string(h.session.region), Start: start, End: end,
	}
}

// recordSpan records one core-side span under the transaction's root,
// ending now. No-op when the transaction is untraced.
func (h *Handle) recordSpan(st obs.Stage, start time.Time) {
	if h.span != 0 {
		h.spans.Add(h.newSpan(st, start, h.clk.Now()))
	}
}

// stamp returns e stamped now for the transaction's trace (unstamped when
// it is untraced). Each step of the handle collects its events and hands
// them to the store in one call.
func (h *Handle) stamp(e obs.Event) obs.Event {
	if h.span != 0 {
		e.At = h.clk.Now()
	}
	return e
}

// ID returns the transaction ID.
func (h *Handle) ID() txn.ID { return h.id }

// Likelihood returns the latest predicted commit likelihood. The handle
// computes it at a protocol event only when something consumes it there (see
// consumedLocked); after a vote nobody consumed, the first read computes it.
func (h *Handle) Likelihood() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.likelihoodLocked()
}

// likelihoodLocked returns the likelihood, computing it first if votes have
// arrived since it was last computed. Caller holds h.mu.
func (h *Handle) likelihoodLocked() float64 {
	if h.stale {
		h.stale = false
		h.likelihood = h.evalLocked(h.clk.Now())
	}
	return h.likelihood
}

// consumedLocked reports whether anything reads the likelihood at a protocol
// event: a speculation threshold still to cross, a progress callback, a
// deadline (whose callback reports the likelihood of the last event before
// it), calibration samples, or the trace's vote events. Caller holds h.mu.
func (h *Handle) consumedLocked() bool {
	return h.opts.OnProgress != nil || (h.opts.SpeculateAt > 0 && !h.speculated) ||
		h.opts.Deadline > 0 || h.db.calib != nil || h.span != 0
}

// settledBut reports whether every option other than tr is learned, so a
// likelihood evaluation would consult the predictor for tr alone. Caller
// holds h.mu.
func (h *Handle) settledBut(tr *optTrack) bool {
	for i := range h.tracks {
		if o := &h.tracks[i]; o != tr && o.learned == 0 {
			return false
		}
	}
	return true
}

// Progress returns a live snapshot.
func (h *Handle) Progress() Progress {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.progressLocked()
}

// OnDone registers f to run once every callback has run — the point where
// Wait returns — without a goroutine parked there. Under a virtual clock f
// runs on the clock's scheduler loop and must not block through the
// clock; under the real clock it runs on the callbacks' goroutine, behind the
// last of them. If the handle is already done, f runs at once.
func (h *Handle) OnDone(f func()) { h.done.OnFire(f) }

// Wait blocks until every callback has run and returns the outcome.
func (h *Handle) Wait() txn.Outcome {
	h.done.Wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.outcome
}

// WaitCtx waits like Wait but abandons the wait when ctx is done,
// returning ctx's error. The transaction itself keeps running — callbacks
// still fire and the outcome remains retrievable via Wait or Done.
func (h *Handle) WaitCtx(ctx context.Context) (txn.Outcome, error) {
	if err := h.done.WaitCtx(ctx); err != nil {
		return txn.Outcome{}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.outcome, nil
}

// Done returns a channel closed after the final callback. Select-based
// waits on it are for real-clock code (HTTP handlers); under a virtual
// clock use Wait/WaitCtx so the wait participates in time accounting.
func (h *Handle) Done() <-chan struct{} { return h.done.Done() }

// progressLocked builds a snapshot. Caller holds h.mu.
func (h *Handle) progressLocked() Progress {
	return Progress{
		Txn:            h.id,
		Stage:          h.stage,
		Likelihood:     h.likelihoodLocked(),
		Elapsed:        h.clk.Since(h.start),
		VotesReceived:  h.votes,
		VotesExpected:  len(h.regions) * len(h.tracks),
		OptionsLearned: h.learnedN,
		OptionsTotal:   len(h.tracks),
	}
}

// enqueue schedules one callback invocation; nil callbacks are skipped.
func (h *Handle) enqueue(cb func(Progress), p Progress) {
	if cb == nil {
		return
	}
	h.cbq.Post(func() { cb(p) })
}

// enqueueOutcome schedules an outcome callback.
func (h *Handle) enqueueOutcome(cb func(txn.Outcome), o txn.Outcome) {
	if cb == nil {
		return
	}
	h.cbq.Post(func() { cb(o) })
}

// reject finalizes an admission rejection; evs are the submission's
// lifecycle events.
func (h *Handle) reject(evs ...obs.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stage = txn.StageRejected
	h.terminal = true
	h.outcome = txn.Outcome{
		ID: h.id, Rejected: true, Err: ErrAdmission,
		Submitted: h.start, Decided: h.clk.Now(),
	}
	if c := h.db.admFor(h.session.region); c != nil {
		c.observeReject()
	}
	h.db.inst.stage(txn.StageRejected)
	h.db.inst.finished(outcomeRejected, h.outcome.Duration())
	if h.span != 0 {
		h.spans.Begin(h.id, h.start, evs...)
		h.spans.Finish(h.id, h.outcome.Decided, outcomeRejected, false,
			h.stamp(obs.Event{Kind: obs.EvFinal, Note: ErrAdmission.Error()}))
	}
	h.enqueueOutcome(h.opts.OnFinal, h.outcome)
	h.cbq.Post(h.done.Fire)
}

// onDeadline fires the deadline callback if the transaction is still open.
func (h *Handle) onDeadline() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.terminal {
		return
	}
	if h.db.inst != nil {
		h.db.inst.deadlines.Inc()
	}
	if h.span != 0 {
		h.spans.Record(h.id, h.stamp(obs.Event{Kind: obs.EvDeadline, Likelihood: h.likelihoodLocked()}))
	}
	h.enqueue(h.opts.OnDeadline, h.progressLocked())
}

// track returns the option state for key, or nil. Linear scan: transactions
// touch a handful of keys, and the slice keeps submission order for free.
func (h *Handle) track(key string) *optTrack {
	for i := range h.tracks {
		if h.tracks[i].key == key {
			return &h.tracks[i]
		}
	}
	return nil
}

// evalLocked evaluates the predictor on the tracked state at now: the
// product of the options' probabilities in submission order, which keeps
// it bit-for-bit what predictor.Likelihood computes. Each option's view is
// built on the stack, its regions yet to vote in an array that a region
// bitmask's 64 bounds. Caller holds h.mu.
func (h *Handle) evalLocked(now time.Time) float64 {
	elapsed := now.Sub(h.start)
	var remaining [64]simnet.Region
	prob := 1.0
	for i := range h.tracks {
		tr := &h.tracks[i]
		of := predictor.OptionFlight{Key: tr.key, Accepts: tr.accepts, FellBack: tr.fellBack, Learned: tr.learned}
		if !tr.fellBack && tr.learned == 0 {
			n := 0
			for ri, r := range h.regions {
				if tr.voted&(1<<uint(ri)) == 0 {
					remaining[n] = r
					n++
				}
			}
			if n > 0 {
				of.Remaining = remaining[:n:n]
			}
		}
		if prob *= h.session.pred.OptionProb(of, elapsed, h.opts.Deadline); prob == 0 {
			return 0
		}
	}
	return prob
}

// handleSink adapts Handle to mdcc.ProgressSink without widening Handle's
// exported method set.
type handleSink Handle

// Progress implements mdcc.ProgressSink.
func (hs *handleSink) Progress(e mdcc.ProgressEvent) {
	h := (*Handle)(hs)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.terminal {
		return
	}
	var evKind obs.EventKind
	switch e.Kind {
	case mdcc.KindSubmitted:
		// The coordinator took the transaction, and the prior may already
		// clear the speculation threshold: an uncontended transaction
		// needs no votes to be a near-certain commit. A refused submit
		// never gets here.
		if h.opts.SpeculateAt > 0 && h.likelihood >= h.opts.SpeculateAt {
			if ev := h.speculateLocked(h.stamp(obs.Event{})); h.span != 0 {
				h.spans.Record(h.id, ev)
			}
		}
		return
	case mdcc.KindDecided:
		return
	case mdcc.KindVote:
		tr := h.track(e.Key)
		var bit uint64
		for ri, r := range h.regions {
			if r == e.Region {
				bit = 1 << uint(ri)
				break
			}
		}
		if tr == nil || bit == 0 || tr.voted&bit != 0 {
			return
		}
		tr.voted |= bit
		h.votes++
		if e.Accept {
			tr.accepts++
		}
		if h.stage == txn.StageAccepted {
			h.stage = txn.StageInFlight
			h.db.inst.stage(txn.StageInFlight)
		}
		h.session.pred.ObserveVote(e.Key, e.Region, e.Accept, e.Elapsed)
		// Evaluating the likelihood ages the predictor's decayed counters to
		// now as a side effect, and later estimates depend on when they were
		// aged. ObserveVote has just aged the store-wide counter and this
		// key's to now, so when the evaluation would touch no other counter —
		// the option is on the fast path (the classic rate is a counter of
		// its own) and no other option is open — it can wait for a reader
		// without changing any later number.
		if !tr.fellBack && h.settledBut(tr) && !h.consumedLocked() {
			h.stale = true
			return
		}
		evKind = obs.EvVote
	case mdcc.KindFallback:
		if tr := h.track(e.Key); tr != nil {
			tr.fellBack = true
		}
		evKind = obs.EvFallback
	case mdcc.KindOptionLearned:
		tr := h.track(e.Key)
		if tr == nil || tr.learned != 0 {
			return
		}
		if e.Accept {
			tr.learned = 1
		} else {
			tr.learned = -1
		}
		h.learnedN++
		if tr.fellBack {
			h.session.pred.ObserveClassicResult(e.Key, e.Accept)
		}
		evKind = obs.EvLearned
	}

	h.stale = false
	now := h.clk.Now()
	h.likelihood = h.evalLocked(now)
	if h.db.calib != nil && len(h.samples) < maxCalibSamples {
		h.samples = append(h.samples, h.likelihood)
	}
	var evs [2]obs.Event // this event's trace entries, recorded together
	nev := 0
	if h.span != 0 {
		note := ""
		if e.Reason != mdcc.ReasonNone {
			note = e.Reason.String()
		}
		evs[0] = obs.Event{At: now, Kind: evKind, Key: e.Key,
			Region: string(e.Region), Accept: e.Accept,
			Likelihood: h.likelihood, Note: note}
		nev++
	}

	if !h.speculated && h.opts.SpeculateAt > 0 && h.likelihood >= h.opts.SpeculateAt {
		if ev := h.speculateLocked(obs.Event{At: now}); h.span != 0 {
			evs[nev] = ev
			nev++
		}
	}
	if nev > 0 {
		h.spans.Record(h.id, evs[:nev]...)
	}
	if h.opts.OnProgress != nil {
		h.enqueue(h.opts.OnProgress, h.progressLocked())
	}
}

// speculateLocked enters the speculative stage and returns its trace event,
// ev with the kind and likelihood filled in. Caller holds h.mu.
func (h *Handle) speculateLocked(ev obs.Event) obs.Event {
	h.speculated = true
	h.stage = txn.StageSpeculative
	h.db.speculated.Add(1)
	h.db.inst.stage(txn.StageSpeculative)
	h.enqueue(h.opts.OnSpeculative, h.progressLocked())
	ev.Kind, ev.Likelihood = obs.EvSpeculative, h.likelihood
	return ev
}

// Decided implements mdcc.ProgressSink.
func (hs *handleSink) Decided(_ txn.ID, committed bool, err error) {
	h := (*Handle)(hs)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.terminal {
		return
	}
	h.db.inFlight[h.session.region].Add(-1)
	h.finishLocked(committed, err, false)
}

// finishLocked finalizes the transaction. Caller holds h.mu.
// submitFailed marks the rare synchronous-submit failure path.
func (h *Handle) finishLocked(committed bool, err error, submitFailed bool) {
	h.terminal = true
	h.stale = false // the outcome settles the likelihood below
	if h.timer != nil {
		h.timer.Stop()
	}
	outcome := outcomeAborted
	if committed {
		h.stage = txn.StageCommitted
		h.db.committed.Add(1)
		h.likelihood = 1
		outcome = outcomeCommitted
	} else {
		h.stage = txn.StageAborted
		h.db.aborted.Add(1)
		h.likelihood = 0
	}
	h.outcome = txn.Outcome{
		ID: h.id, Committed: committed, Err: err,
		Submitted: h.start, Decided: h.clk.Now(), Speculated: h.speculated,
	}
	if c := h.db.admFor(h.session.region); c != nil {
		c.observeFinal(committed, h.outcome.Duration())
	}
	h.db.inst.stage(h.stage)
	h.db.inst.finished(outcome, h.outcome.Duration())
	if h.db.calib != nil && !submitFailed {
		for _, s := range h.samples {
			h.db.calib.Record(s, committed)
		}
	}
	var evs [2]obs.Event // the final event and the apology, recorded with Finish
	nev := 0
	if h.span != 0 {
		note := ""
		if err != nil {
			note = err.Error()
		}
		evs[0] = obs.Event{At: h.outcome.Decided, Kind: obs.EvFinal, Accept: committed, Note: note}
		nev++
	}
	h.enqueueOutcome(h.opts.OnFinal, h.outcome)
	if h.speculated && !committed {
		h.db.apologies.Add(1)
		if h.db.inst != nil {
			h.db.inst.apologies.Inc()
		}
		if h.span != 0 {
			evs[nev] = obs.Event{At: h.outcome.Decided, Kind: obs.EvApology}
			nev++
		}
		h.enqueueOutcome(h.opts.OnApology, h.outcome)
	}
	h.spans.Finish(h.id, h.outcome.Decided, outcome, h.speculated, evs[:nev]...)
	if h.span == 0 || submitFailed {
		h.cbq.Post(h.done.Fire)
		return
	}
	// The root span closes at the decision; the client-notify span then
	// measures how long the outcome takes to reach the application
	// (callback queue drain): notified records it behind OnFinal and
	// OnApology on the callback queue, and fires done.
	h.spans.Add(obs.Span{
		Txn: h.id, ID: h.span, Stage: obs.StageTotal,
		Region: string(h.session.region), Start: h.start, End: h.outcome.Decided,
	})
	h.cbq.Post(h.notified)
}

// notified is a traced transaction's last callback: it records the
// client-notify span, from the decision to now, and fires done.
func (h *Handle) notified() {
	h.recordSpan(obs.StageClientNotify, h.outcome.Decided)
	h.done.Fire()
}
