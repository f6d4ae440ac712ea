// Package simnet emulates a multi-region wide-area network inside one
// process. Nodes register a handler under an Addr (region + name); messages
// sent between nodes are delivered asynchronously after a delay sampled from
// a per-region-pair latency distribution, optionally scaled down by a global
// time-scale factor so WAN-shaped experiments complete in milliseconds.
//
// The emulator supports message loss, region partitions, and per-link
// overrides, which the failure-injection tests use. All delivery happens on
// timer goroutines, so handlers must be internally synchronized and must not
// block for long.
//
// The send path is engineered for concurrent coordinators: routing state
// (handlers, partitions, link overrides) lives in an immutable snapshot
// swapped atomically on mutation, so Send takes no lock at all for routing;
// loss/delay sampling runs on per-sender RNG shards; and per-message
// delivery bookkeeping is pooled so a send allocates no timer closure.
package simnet

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"planet/internal/latency"
	"planet/internal/vclock"
)

// Region names a datacenter/availability region.
type Region string

// Addr identifies a node on the network.
type Addr struct {
	Region Region
	Name   string
}

// String implements fmt.Stringer.
func (a Addr) String() string { return string(a.Region) + "/" + a.Name }

// Message is one delivered payload.
type Message struct {
	From, To Addr
	Payload  any
	// SentAt is the send timestamp on the network's clock (wall time under
	// the real clock, virtual time under a virtual one).
	SentAt time.Time
}

// Handler consumes delivered messages. Handlers run on shared timer
// goroutines: they must synchronize internally and return quickly.
type Handler func(Message)

// Observer receives per-message instrumentation callbacks. Implementations
// must be safe for concurrent use and fast: they run inline on the send
// path and on delivery timer goroutines.
type Observer interface {
	// MessageSent fires for every accepted send with the sampled
	// (scaled) one-way delay.
	MessageSent(from, to Region, delay time.Duration)
	// MessageDelivered fires when a handler receives the message.
	MessageDelivered(from, to Region)
	// MessageDropped fires for losses, partitions, unknown destinations,
	// and shutdown drops.
	MessageDropped(from, to Region)
}

// linkKey orders a directed region pair.
type linkKey struct{ from, to Region }

// Matrix holds one-way delay distributions per directed region pair, plus a
// default intra-region distribution. It is immutable after construction.
type Matrix struct {
	links map[linkKey]latency.Dist
	local latency.Dist
}

// NewMatrix returns an empty matrix whose intra-region delay is local.
// A nil local defaults to a 250µs-median log-normal.
func NewMatrix(local latency.Dist) *Matrix {
	if local == nil {
		local = latency.NewLogNormal(100*time.Microsecond, 150*time.Microsecond, 0.3)
	}
	return &Matrix{links: make(map[linkKey]latency.Dist), local: local}
}

// SetLink installs dist as the one-way delay for from→to and to→from.
func (m *Matrix) SetLink(from, to Region, dist latency.Dist) {
	m.links[linkKey{from, to}] = dist
	m.links[linkKey{to, from}] = dist
}

// Link returns the one-way distribution for from→to (the local distribution
// when the regions are equal or the pair is unknown).
func (m *Matrix) Link(from, to Region) latency.Dist {
	if from == to {
		return m.local
	}
	if d, ok := m.links[linkKey{from, to}]; ok {
		return d
	}
	return m.local
}

// Regions returns the distinct regions mentioned by the matrix links, in
// sorted order. Sorting matters: the map-iteration order underneath is
// randomized per process, and callers feed this list into seeded topology
// construction, where a run-dependent order would silently break same-seed
// reproducibility.
func (m *Matrix) Regions() []Region {
	seen := make(map[Region]bool)
	var out []Region
	for k := range m.links { // order-free: out is sorted before it returns
		if !seen[k.from] {
			seen[k.from] = true
			out = append(out, k.from)
		}
		if !seen[k.to] {
			seen[k.to] = true
			out = append(out, k.to)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Config parameterizes a Network.
type Config struct {
	// Latency supplies per-pair one-way delays. Required.
	Latency *Matrix
	// TimeScale multiplies sampled delays before they are realized; 0.01
	// runs a 150ms link as 1.5ms. Values <= 0 default to 1 (real time).
	TimeScale float64
	// Seed makes delay sampling and loss deterministic.
	Seed int64
	// LossRate drops messages uniformly at random, in [0,1).
	LossRate float64
	// Clock drives delivery timers, send timestamps, and Quiesce. Nil means
	// the real system clock; a vclock.Virtual runs the network at CPU speed
	// with a deterministic delivery order.
	Clock vclock.Clock
}

// rngShard is one independently-seeded sampling stream. Each region owns a
// shard, so a region's sampled delays depend only on the order of that
// region's own sends — deterministic under a virtual clock — and concurrent
// senders in different regions do not contend on one lock under the real
// clock. Unknown regions share a fallback shard.
type rngShard struct {
	mu  sync.Mutex
	rng *rand.Rand
	_   [40]byte // pad to a cache line so shards don't false-share
}

// topology is an immutable snapshot of the network's routing state. Send
// and delivery read it with one atomic load; mutations (register, partition,
// link overrides) clone-and-swap under the writer lock. Nil maps are never
// stored, so readers can index without checks.
type topology struct {
	nodes  map[Addr]Handler
	down   map[Region]bool
	cut    map[linkKey]bool
	factor map[linkKey]float64 // per-link delay multipliers (latency spikes)
}

// clone deep-copies the snapshot for a mutation.
func (t *topology) clone() *topology {
	c := &topology{
		nodes:  make(map[Addr]Handler, len(t.nodes)+1),
		down:   make(map[Region]bool, len(t.down)+1),
		cut:    make(map[linkKey]bool, len(t.cut)+1),
		factor: make(map[linkKey]float64, len(t.factor)+1),
	}
	maps.Copy(c.nodes, t.nodes)
	maps.Copy(c.down, t.down)
	maps.Copy(c.cut, t.cut)
	maps.Copy(c.factor, t.factor)
	return c
}

// Network is the in-process WAN. Safe for concurrent use.
type Network struct {
	cfg    Config
	scale  float64
	clk    vclock.Clock
	mu     sync.Mutex               // serializes topology mutations only
	topo   atomic.Pointer[topology] // current routing snapshot
	closed atomic.Bool

	lossBits atomic.Uint64 // current loss rate as float64 bits (lock-free read on send)

	shards   map[Region]*rngShard // per-region delay/loss sampling streams
	defShard *rngShard            // fallback for regions missing from the matrix
	calibMu  sync.Mutex
	calib    *rand.Rand // SampleDelay's own stream, built by its first probe

	pending atomic.Int64  // messages sampled but not yet delivered
	pmu     sync.Mutex    // guards drained
	drained *vclock.Event // fired when pending hits zero; nil unless a Quiesce waits

	obs atomic.Value // Observer, set via SetObserver

	// Stats.
	Sent      atomic.Uint64
	Delivered atomic.Uint64
	Dropped   atomic.Uint64
}

// obsHolder wraps an Observer so atomic.Value always stores one concrete
// type (nil included).
type obsHolder struct{ o Observer }

// SetObserver installs o to receive per-message instrumentation; a nil o
// clears it. Safe to call while traffic is flowing.
func (n *Network) SetObserver(o Observer) { n.obs.Store(obsHolder{o}) }

// observer returns the installed observer, or nil.
func (n *Network) observer() Observer {
	h, _ := n.obs.Load().(obsHolder)
	return h.o
}

// New builds a Network from cfg.
func New(cfg Config) (*Network, error) {
	if cfg.Latency == nil {
		return nil, fmt.Errorf("simnet: Config.Latency is required")
	}
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		return nil, fmt.Errorf("simnet: LossRate %v out of [0,1)", cfg.LossRate)
	}
	scale := cfg.TimeScale
	if scale <= 0 {
		scale = 1
	}
	n := &Network{
		cfg:   cfg,
		scale: scale,
		clk:   vclock.Default(cfg.Clock),
	}
	n.topo.Store(&topology{
		nodes:  make(map[Addr]Handler),
		down:   make(map[Region]bool),
		cut:    make(map[linkKey]bool),
		factor: make(map[linkKey]float64),
	})
	// Shard seeds are assigned by sorted region index, so the per-region
	// sampling streams are identical across processes and GOMAXPROCS values.
	n.shards = make(map[Region]*rngShard)
	regions := cfg.Latency.Regions()
	for i, r := range regions {
		n.shards[r] = &rngShard{rng: rand.New(rand.NewSource(cfg.Seed + int64(i)))}
	}
	n.defShard = &rngShard{rng: rand.New(rand.NewSource(cfg.Seed + int64(len(regions))))}
	n.lossBits.Store(math.Float64bits(cfg.LossRate))
	return n, nil
}

// Clock returns the network's time source.
func (n *Network) Clock() vclock.Clock { return n.clk }

// ClockFor returns the network's one clock, whatever the region. It exists
// for transport decorators that forward the mdcc.Transport method set.
func (n *Network) ClockFor(Region) vclock.Clock { return n.clk }

// mutate clones the routing snapshot, applies f, and swaps it in. Mutations
// are rare (startup registration, fault injection); sends never wait on them.
func (n *Network) mutate(f func(t *topology)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	t := n.topo.Load().clone()
	f(t)
	n.topo.Store(t)
}

// shardFor maps a sender to its region's RNG shard.
func (n *Network) shardFor(from Addr) *rngShard {
	if sh, ok := n.shards[from.Region]; ok {
		return sh
	}
	return n.defShard
}

// Register installs h as the handler for addr, replacing any previous one.
func (n *Network) Register(addr Addr, h Handler) {
	n.mutate(func(t *topology) { t.nodes[addr] = h })
}

// Deregister removes addr; in-flight messages to it are dropped on arrival.
func (n *Network) Deregister(addr Addr) {
	n.mutate(func(t *topology) { delete(t.nodes, addr) })
}

// SetRegionDown isolates (or restores) an entire region: messages to or
// from it are dropped.
func (n *Network) SetRegionDown(r Region, isDown bool) {
	n.mutate(func(t *topology) {
		if isDown {
			t.down[r] = true
		} else {
			delete(t.down, r)
		}
	})
}

// SetLinkCut severs (or restores) the directed link from→to.
func (n *Network) SetLinkCut(from, to Region, isCut bool) {
	n.mutate(func(t *topology) {
		k := linkKey{from, to}
		if isCut {
			t.cut[k] = true
		} else {
			delete(t.cut, k)
		}
	})
}

// SetLossRate changes the uniform message-loss rate at runtime (loss bursts
// in fault injection). The rate is clamped into [0,1]; unlike Config.LossRate
// a full 1.0 is allowed and blackholes every message.
func (n *Network) SetLossRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	n.lossBits.Store(math.Float64bits(rate))
}

// LossRate returns the current loss rate.
func (n *Network) LossRate() float64 {
	return math.Float64frombits(n.lossBits.Load())
}

// SetLinkDelayFactor multiplies every sampled delay on the directed link
// from→to by factor (a latency spike). Factors <= 0 or == 1 clear the
// override. Intra-region "links" (from == to) are supported.
func (n *Network) SetLinkDelayFactor(from, to Region, factor float64) {
	n.mutate(func(t *topology) {
		k := linkKey{from, to}
		if factor <= 0 || factor == 1 {
			delete(t.factor, k)
			return
		}
		t.factor[k] = factor
	})
}

// LinkDelayFactor returns the current delay multiplier for from→to (1 when
// no spike is installed).
func (n *Network) LinkDelayFactor(from, to Region) float64 {
	if f, ok := n.topo.Load().factor[linkKey{from, to}]; ok {
		return f
	}
	return 1
}

// delivery is the pooled bookkeeping for one in-flight message (or payload
// batch). The timer callback fn is a method value bound once per pooled
// object, so a steady-state send schedules a timer without allocating a
// closure, a message box, or a batch slice.
type delivery struct {
	n     *Network
	msg   Message
	batch []any // non-nil for SendBatch deliveries; msg.Payload is then unset
	fn    func()
}

// deliveryPool recycles delivery records across sends (and across networks:
// each Get rebinds n). New is installed in init to break the
// pool→run→pool initialization cycle.
var deliveryPool sync.Pool

func init() {
	deliveryPool.New = func() any {
		d := &delivery{}
		d.fn = d.run
		return d
	}
}

// run delivers the message, returns the record to the pool, and retires the
// in-flight count. It copies every field to locals before Put so a recycled
// record can be reused while the handler is still executing.
func (d *delivery) run() {
	n, msg, batch := d.n, d.msg, d.batch
	d.n, d.msg, d.batch = nil, Message{}, nil
	deliveryPool.Put(d)

	defer n.deliveryDone()
	obs := n.observer()
	if n.closed.Load() {
		n.drop(obs, msg.From, msg.To)
		return
	}
	t := n.topo.Load()
	h := t.nodes[msg.To]
	if h == nil || t.down[msg.To.Region] {
		n.drop(obs, msg.From, msg.To)
		return
	}
	n.Delivered.Add(1)
	if obs != nil {
		obs.MessageDelivered(msg.From.Region, msg.To.Region)
	}
	if batch == nil {
		h(msg)
		return
	}
	for _, p := range batch {
		msg.Payload = p
		h(msg)
	}
}

// Send schedules payload for delivery from→to. It never blocks; messages to
// unknown, partitioned, or lossy destinations are silently dropped, exactly
// as a real datagram network would.
func (n *Network) Send(from, to Addr, payload any) {
	n.send(from, to, payload, nil)
}

// SendBatch schedules payloads for delivery from→to as one wire message:
// one loss draw, one sampled delay, one scheduled event, with the payloads
// handed to the destination handler back to back in order. Protocol layers
// use it to coalesce same-instant fan-in (a replica's vote batch, a
// master's result batch) instead of paying per-payload timer overhead.
// An empty batch is a no-op.
func (n *Network) SendBatch(from, to Addr, payloads []any) {
	if len(payloads) == 0 {
		return
	}
	n.send(from, to, nil, payloads)
}

// send is the shared path behind Send and SendBatch: exactly one of payload
// and batch is set.
func (n *Network) send(from, to Addr, payload any, batch []any) {
	if n.closed.Load() {
		return
	}
	n.Sent.Add(1)
	obs := n.observer()

	t := n.topo.Load()
	if t.down[from.Region] || t.down[to.Region] || t.cut[linkKey{from.Region, to.Region}] {
		n.drop(obs, from, to)
		return
	}
	factor, hasFactor := t.factor[linkKey{from.Region, to.Region}]

	// Loss and delay sampling run on a per-sender shard, off any global
	// lock, so concurrent senders don't serialize on one shared RNG.
	lossRate := n.LossRate()
	sh := n.shardFor(from)
	sh.mu.Lock()
	if lossRate > 0 && sh.rng.Float64() < lossRate {
		sh.mu.Unlock()
		n.drop(obs, from, to)
		return
	}
	delay := n.cfg.Latency.Link(from.Region, to.Region).Sample(sh.rng)
	sh.mu.Unlock()
	if hasFactor {
		delay = time.Duration(float64(delay) * factor)
	}

	scaled := time.Duration(float64(delay) * n.scale)
	if obs != nil {
		obs.MessageSent(from.Region, to.Region, scaled)
	}
	n.pending.Add(1)
	d := deliveryPool.Get().(*delivery)
	d.n = n
	d.msg = Message{From: from, To: to, Payload: payload, SentAt: n.clk.Now()}
	d.batch = batch
	// No handle to the delivery's timer exists, so a virtual clock reuses it
	// for a later delivery: with the pooled record above, a steady-state send
	// allocates nothing.
	vclock.Schedule(n.clk, scaled, d.fn)
}

// deliveryDone retires one in-flight message and wakes Quiesce waiters when
// the network drains.
func (n *Network) deliveryDone() {
	if n.pending.Add(-1) != 0 {
		return
	}
	n.pmu.Lock()
	ev := n.drained
	n.drained = nil
	n.pmu.Unlock()
	if ev != nil {
		ev.Fire()
	}
}

// drop accounts one dropped message.
func (n *Network) drop(obs Observer, from, to Addr) {
	n.Dropped.Add(1)
	if obs != nil {
		obs.MessageDropped(from.Region, to.Region)
	}
}

// SampleDelay draws one unscaled one-way delay for the pair, for calibration
// probes and the predictor's bootstrap. It consumes a dedicated RNG stream
// so probing never perturbs the send path's deterministic sampling.
func (n *Network) SampleDelay(from, to Region) time.Duration {
	n.calibMu.Lock()
	defer n.calibMu.Unlock()
	if n.calib == nil {
		n.calib = rand.New(rand.NewSource(n.cfg.Seed ^ 0x5eed5eed))
	}
	return n.cfg.Latency.Link(from, to).Sample(n.calib)
}

// Close stops future sends and suppresses undelivered messages. Quiesce
// waiters are released: once closed, every in-flight message is doomed to
// be dropped on arrival, so there is nothing worth waiting for.
func (n *Network) Close() {
	n.closed.Store(true)
	n.pmu.Lock()
	ev := n.drained
	n.drained = nil
	n.pmu.Unlock()
	if ev != nil {
		ev.Fire()
	}
}

// Quiesce waits until no messages are in flight or the timeout elapses,
// and reports whether the network drained. Waiting is event-driven — the
// last delivery (or Close) wakes us — so draining burns no CPU and has no
// polling-latency floor; under a virtual clock it costs no wall time at all.
func (n *Network) Quiesce(timeout time.Duration) bool {
	deadline := n.clk.Now().Add(timeout)
	for {
		if n.closed.Load() {
			return true
		}
		if n.pending.Load() == 0 {
			return true
		}
		n.pmu.Lock()
		if n.drained == nil {
			n.drained = n.clk.NewEvent()
		}
		ev := n.drained
		n.pmu.Unlock()
		// Re-check after publishing the event: the last delivery may have
		// drained the network between the count check and the registration,
		// in which case no one will fire ev.
		if n.pending.Load() == 0 {
			return true
		}
		remaining := n.clk.Until(deadline)
		if remaining <= 0 {
			return false
		}
		if !ev.WaitTimeout(remaining) {
			return n.closed.Load()
		}
	}
}
