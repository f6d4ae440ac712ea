package predictor

import (
	"math"
	"sync"
	"time"

	"planet/internal/latency"
	"planet/internal/obs"
	"planet/internal/simnet"
	"planet/internal/vclock"
)

// StageFeed supplies per-stage latency statistics learned by the
// attribution engine: the stage's duration EWMA, its jitter EWMA (mean
// absolute deviation), and the sample count. *obs.Attribution implements it.
type StageFeed interface {
	StageStats(st obs.Stage) (ewma, jitter time.Duration, n uint64)
}

// Config parameterizes a Predictor. One predictor serves one coordinator
// (latency is origin-dependent).
type Config struct {
	// Regions lists all replica regions. Required.
	Regions []simnet.Region
	// FastQuorum is the accepts needed per option. Required.
	FastQuorum int
	// ConflictHalfLife ages contention statistics (emulator time).
	// Defaults to 2 seconds of emulator time.
	ConflictHalfLife time.Duration
	// LatencyWindow is the per-region RTT sample window. Defaults to 512.
	LatencyWindow int
	// UseConflicts toggles the contention term; disabling it yields the
	// latency-only ablation model (A2).
	UseConflicts bool
	// UseLatency toggles deadline-awareness; without a deadline the term
	// is inert either way.
	UseLatency bool
	// Clock timestamps decay windows. Nil means the real system clock.
	Clock vclock.Clock
	// StageFeed, when non-nil, supplies attribution statistics (option-RPC
	// and vote-return EWMA/jitter) and enables the timeliness term: the
	// probability that an outstanding vote's round trip still fits the
	// remaining commit budget, given the learned stage cost and volatility.
	StageFeed StageFeed
	// CommitTimeout is the commit budget the timeliness term measures
	// against. The term is inert when zero.
	CommitTimeout time.Duration
}

// Predictor estimates commit likelihood. Safe for concurrent use.
type Predictor struct {
	cfg       Config
	conflicts *ConflictTracker
	classic   *decayedBox
	rtt       map[simnet.Region]*latency.Recorder // fixed by New
}

// decayedBox wraps a decayed counter with its own lock (package-internal).
type decayedBox struct {
	mu  sync.Mutex
	clk vclock.Clock
	d   decayed
	hl  time.Duration
}

func (b *decayedBox) observe(accept bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.d.observe(b.clk.Now(), accept, b.hl)
}

func (b *decayedBox) rate(prior float64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.d.rate(b.clk.Now(), b.hl, prior, priorStrength)
}

// New constructs a Predictor.
func New(cfg Config) *Predictor {
	if cfg.ConflictHalfLife == 0 {
		cfg.ConflictHalfLife = 2 * time.Second
	}
	if cfg.LatencyWindow == 0 {
		cfg.LatencyWindow = 512
	}
	clk := vclock.Default(cfg.Clock)
	p := &Predictor{
		cfg:       cfg,
		conflicts: newConflictTracker(cfg.ConflictHalfLife, clk),
		classic:   &decayedBox{hl: cfg.ConflictHalfLife, clk: clk},
		rtt:       make(map[simnet.Region]*latency.Recorder, len(cfg.Regions)),
	}
	for _, r := range cfg.Regions {
		p.rtt[r] = latency.NewRecorder(cfg.LatencyWindow)
	}
	return p
}

// ObserveVote feeds one fast-path vote: its round-trip time from the
// coordinator and whether it accepted.
func (p *Predictor) ObserveVote(key string, region simnet.Region, accept bool, rtt time.Duration) {
	if rec := p.recorder(region); rec != nil {
		rec.Observe(rtt)
	}
	p.conflicts.Observe(key, accept)
}

// ObserveClassicResult feeds one classic-path outcome (fallbacks included).
func (p *Predictor) ObserveClassicResult(key string, accepted bool) {
	p.classic.observe(accepted)
	p.conflicts.Observe(key, accepted)
}

// recorder returns the region's RTT recorder (nil for unknown regions).
func (p *Predictor) recorder(region simnet.Region) *latency.Recorder { return p.rtt[region] }

// AcceptProb exposes the learned vote-accept probability for key.
func (p *Predictor) AcceptProb(key string) float64 {
	if !p.cfg.UseConflicts {
		return 1
	}
	return p.conflicts.AcceptProb(key)
}

// OptionFlight is the predictor's view of one in-flight option.
type OptionFlight struct {
	Key string
	// Accepts counts accept votes received so far.
	Accepts int
	// Remaining lists regions that have not voted yet.
	Remaining []simnet.Region
	// FellBack marks an option now on the classic path.
	FellBack bool
	// Learned is +1 once accepted, -1 once rejected, 0 while open.
	Learned int
}

// Flight is the predictor's view of one in-flight transaction.
type Flight struct {
	Options []OptionFlight
	// Elapsed is the time since submission.
	Elapsed time.Duration
	// Deadline, when positive, is the application deadline measured from
	// submission; outstanding votes must arrive before it to count.
	Deadline time.Duration
}

// Likelihood estimates P(commit) for an in-flight transaction.
func (p *Predictor) Likelihood(f Flight) float64 {
	prob := 1.0
	for _, opt := range f.Options {
		prob *= p.OptionProb(opt, f.Elapsed, f.Deadline)
		if prob == 0 {
			return 0
		}
	}
	return prob
}

// LikelihoodAtSubmit estimates P(commit) before any protocol work, used by
// admission control. keys are the transaction's write keys.
func (p *Predictor) LikelihoodAtSubmit(keys []string) float64 {
	prob := 1.0
	for _, k := range keys {
		prob *= p.OptionProb(OptionFlight{Key: k, Remaining: p.cfg.Regions}, 0, 0)
	}
	return prob
}

// OptionProb estimates P(option eventually accepted), elapsed into its
// transaction with the given deadline. Likelihood is the product of its
// options' OptionProb, taken in option order and ending at the first zero,
// so a caller may multiply it out itself without building a Flight.
func (p *Predictor) OptionProb(opt OptionFlight, elapsed, deadline time.Duration) float64 {
	switch {
	case opt.Learned > 0:
		return 1
	case opt.Learned < 0:
		return 0
	}
	if opt.FellBack {
		// Classic outcomes depend on master arbitration; use the decayed
		// classic success rate, defaulting optimistic-but-hedged.
		return p.classic.rate(0.7)
	}

	need := p.cfg.FastQuorum - opt.Accepts
	if need <= 0 {
		return 1
	}
	if need > len(opt.Remaining) {
		return 0
	}

	q := 1.0
	if p.cfg.UseConflicts {
		q = p.conflicts.AcceptProb(opt.Key)
	}

	var buf [tailBufLen]float64 // on the stack for up to tailBufLen regions
	probs := buf[:0]
	for _, region := range opt.Remaining {
		pr := 1.0
		if p.cfg.UseLatency && deadline > 0 {
			pr = p.arrivalProb(region, elapsed, deadline)
		}
		probs = append(probs, pr*q)
	}
	// Timeliness applies once per option, not per outstanding vote: the
	// learned stage cost m already measures a full propose→vote round trip,
	// so it estimates P(the quorum's votes fit the budget) as a whole.
	// Multiplying it into every region would compound the discount.
	return tailAtLeast(probs, need) * p.stageTimeliness(elapsed)
}

// stageTimelinessMinSamples is how many option-RPC legs the attribution
// engine must have seen before the timeliness term engages; below it the
// EWMA is noise and the term stays optimistic.
const stageTimelinessMinSamples = 8

// stageTimeliness estimates P(an outstanding vote's round trip completes
// within the remaining commit budget) from attribution statistics: a
// logistic in (budget − m)/s, where m is the learned option-RPC +
// vote-return cost (EWMA) and s their summed jitter. High jitter flattens
// the curve — volatile stages make the predictor appropriately unsure —
// while a calm network snaps it toward a step function at the budget.
// Returns 1 when the feed is absent, unwarmed, or no budget is configured.
func (p *Predictor) stageTimeliness(elapsed time.Duration) float64 {
	feed := p.cfg.StageFeed
	if feed == nil || p.cfg.CommitTimeout <= 0 {
		return 1
	}
	rpcEwma, rpcJit, n := feed.StageStats(obs.StageOptionRPC)
	if n < stageTimelinessMinSamples {
		return 1
	}
	retEwma, retJit, _ := feed.StageStats(obs.StageVoteReturn)
	budget := float64(p.cfg.CommitTimeout - elapsed)
	m := float64(rpcEwma + retEwma)
	s := float64(rpcJit + retJit)
	// Floor the scale: a perfectly calm history must not divide by ~zero,
	// and some spread below m/8 is always plausible.
	if floor := m / 8; s < floor {
		s = floor
	}
	if floor := float64(100 * time.Microsecond); s < floor {
		s = floor
	}
	pr := 1 / (1 + math.Exp(-(budget-m)/s))
	// Keep a residual: even a blown budget occasionally resolves (the
	// logistic tail handles this, but clamp against rounding to exact 0,
	// which would zero the whole likelihood product irrecoverably).
	if pr < 1e-6 {
		pr = 1e-6
	}
	return pr
}

// arrivalProb returns P(vote arrives before the deadline | not yet arrived),
// using the learned RTT distribution for the region. With no samples it
// returns 1 (optimistic until evidence accumulates).
func (p *Predictor) arrivalProb(region simnet.Region, elapsed, deadline time.Duration) float64 {
	rec := p.recorder(region)
	if rec == nil || rec.Count() == 0 {
		return 1
	}
	pastElapsed := 1 - rec.CDF(elapsed)       // P(RTT > elapsed)
	byDeadline := rec.CDF(deadline)           // P(RTT <= deadline)
	inWindow := byDeadline - rec.CDF(elapsed) // P(elapsed < RTT <= deadline)
	if pastElapsed <= 0 {
		// Every observed RTT is below elapsed: the vote is late relative
		// to all history. Retain a small residual rather than zero —
		// tails beyond the window do arrive.
		return 0.05
	}
	pr := inWindow / pastElapsed
	if pr < 0 {
		return 0
	}
	if pr > 1 {
		return 1
	}
	return pr
}

// tailBufLen sizes the stack buffers of OptionProb and tailAtLeast: the
// likelihood is computed on every vote, and a deployment has fewer regions
// than this, so neither allocates.
const tailBufLen = 16

// tailAtLeast computes P(at least k of the independent Bernoulli trials in
// probs succeed) by dynamic programming (Poisson-binomial tail).
func tailAtLeast(probs []float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > len(probs) {
		return 0
	}
	// dp[j] = P(exactly j successes so far), capped at k (bucket k holds
	// "k or more").
	var buf [tailBufLen]float64
	dp := buf[:]
	if k+1 > len(dp) {
		dp = make([]float64, k+1)
	}
	dp = dp[:k+1]
	dp[0] = 1
	for _, pr := range probs {
		for j := k; j >= 1; j-- {
			if j == k {
				dp[k] = dp[k] + dp[k-1]*pr
			} else {
				dp[j] = dp[j]*(1-pr) + dp[j-1]*pr
			}
		}
		dp[0] *= 1 - pr
	}
	return dp[k]
}
