package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"planet/internal/mdcc"
	"planet/internal/realnet"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// The traced run builds the commit stack inside the benchmark's own process
// and records a span around every call that crosses into a layer: the
// transport's Send/SendBatch, every handler a replica or coordinator
// registers, and every write the WAL issues. Nothing inside the program is
// instrumented; the decorators below sit on the public mdcc.Transport and
// io.Writer seams. One client runs one transaction at a time, so every span
// between Submit and the final event belongs to that transaction.

const (
	traceTxns      = 300 // transactions per trio variant
	traceKeys      = 64
	traceTxnWait   = 5 * time.Second
	traceQuietFor  = 150 * time.Microsecond // no span activity for this long = settled
	traceSettleCap = 5 * time.Millisecond
)

// Span names, which are also the layers of the budget table.
const (
	spanTxn          = "txn"
	spanSubmit       = "mdcc.coordinator.submit"
	spanCoordHandle  = "mdcc.coordinator.handle"
	spanReplHandle   = "mdcc.replica.handle"
	spanMasterHandle = "mdcc.master.handle"
	spanSend         = "net.send"
	spanWALWrite     = "mdcc.wal.write"
)

// traceState is what the decorators of one trio share.
type traceState struct {
	rec *recorder

	mu   sync.Mutex
	txn  uint64
	root uint64
	// current holds each owner's open handler spans, innermost last; a send
	// or WAL write by that owner is a child of the innermost.
	current map[simnet.Addr][]uint64
	// payloads are the messages of the captured transactions, for the wire
	// codec replay; msgs counts every transaction's.
	payloads [][]any
	msgs     uint64

	lastActivity atomic.Int64 // unix nanos of the last span begin/end
}

func newTraceState() *traceState {
	return &traceState{rec: newRecorder(), current: make(map[simnet.Addr][]uint64)}
}

func (st *traceState) touch() { st.lastActivity.Store(time.Now().UnixNano()) }

// startTxn opens the root span of the next transaction.
func (st *traceState) startTxn() uint64 {
	st.mu.Lock()
	st.txn++
	st.root = st.rec.begin(spanTxn, 0, st.txn)
	st.payloads = append(st.payloads, nil)
	root := st.root
	st.mu.Unlock()
	st.touch()
	return root
}

// enter opens a span owned by owner: a child of the owner's innermost open
// span, or of the transaction root.
func (st *traceState) enter(owner simnet.Addr, name string, push bool) uint64 {
	st.mu.Lock()
	parent := st.root
	if stack := st.current[owner]; len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	id := st.rec.begin(name, parent, st.txn)
	if push {
		st.current[owner] = append(st.current[owner], id)
	}
	st.mu.Unlock()
	st.touch()
	return id
}

// leave closes a span opened by enter.
func (st *traceState) leave(owner simnet.Addr, id uint64, pushed bool) {
	st.rec.end(id)
	if pushed {
		st.mu.Lock()
		stack := st.current[owner]
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i] == id {
				st.current[owner] = append(stack[:i], stack[i+1:]...)
				break
			}
		}
		st.mu.Unlock()
	}
	st.touch()
}

// capture records the payloads of one send.
func (st *traceState) capture(payloads ...any) {
	st.mu.Lock()
	st.msgs += uint64(len(payloads))
	if n := len(st.payloads); n > 0 {
		st.payloads[n-1] = append(st.payloads[n-1], payloads...)
	}
	st.mu.Unlock()
}

// settle waits until no span has opened or closed for a short while, so the
// tail of one transaction (decide deliveries, WAL appends) is not charged to
// the next.
func (st *traceState) settle() {
	deadline := time.Now().Add(traceSettleCap)
	for time.Now().Before(deadline) {
		if time.Since(time.Unix(0, st.lastActivity.Load())) >= traceQuietFor {
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// tracedNet decorates an mdcc.Transport on behalf of one owner (a replica or
// a coordinator): its sends and its handler become spans.
type tracedNet struct {
	inner mdcc.Transport
	st    *traceState
	owner simnet.Addr
}

func (t *tracedNet) Send(from, to simnet.Addr, payload any) {
	id := t.st.enter(t.owner, spanSend, false)
	t.st.capture(payload)
	t.inner.Send(from, to, payload)
	t.st.leave(t.owner, id, false)
}

func (t *tracedNet) SendBatch(from, to simnet.Addr, payloads []any) {
	id := t.st.enter(t.owner, spanSend, false)
	t.st.capture(payloads...)
	t.inner.SendBatch(from, to, payloads)
	t.st.leave(t.owner, id, false)
}

// isMasterPayload reports whether a message belongs to the classic trio the
// master arbitrates (classic proposals and both Paxos phases). The message
// types are unexported; their names are not.
func isMasterPayload(p any) bool {
	name := fmt.Sprintf("%T", p)
	return strings.Contains(name, "classicPropose") || strings.Contains(name, "phase1") || strings.Contains(name, "phase2")
}

func (t *tracedNet) Register(addr simnet.Addr, h simnet.Handler) {
	t.inner.Register(addr, func(m simnet.Message) {
		name := spanReplHandle
		switch {
		case addr.Name == "coord":
			name = spanCoordHandle
		case isMasterPayload(m.Payload):
			name = spanMasterHandle
		}
		id := t.st.enter(addr, name, true)
		h(m)
		t.st.leave(addr, id, true)
	})
}

func (t *tracedNet) Deregister(addr simnet.Addr)           { t.inner.Deregister(addr) }
func (t *tracedNet) Clock() vclock.Clock                   { return t.inner.Clock() }
func (t *tracedNet) ClockFor(r simnet.Region) vclock.Clock { return t.inner.ClockFor(r) }

// tracedWriter decorates the io.Writer under a WAL.
type tracedWriter struct {
	w     io.Writer
	st    *traceState
	owner simnet.Addr
}

func (t *tracedWriter) Write(p []byte) (int, error) {
	id := t.st.enter(t.owner, spanWALWrite, false)
	n, err := t.w.Write(p)
	t.st.leave(t.owner, id, false)
	return n, err
}

// chanSink delivers a transaction's final decision to the waiting client.
type chanSink struct{ done chan bool }

func (chanSink) Progress(mdcc.ProgressEvent) {}
func (s chanSink) Decided(_ txn.ID, committed bool, _ error) {
	select {
	case s.done <- committed:
	default:
	}
}

// trioSpec selects one variant of the hand-assembled trio.
type trioSpec struct {
	realnet bool
	mode    mdcc.Mode
	// classicShape submits the live_set_classic transaction (1 KiB set + add)
	// instead of the one-key add.
	classicShape bool
	traced       bool
}

func (s trioSpec) String() string {
	net, mode := "simnet", "fast"
	if s.realnet {
		net = "realnet"
	}
	if s.mode == mdcc.ModeClassic {
		mode = "classic"
	}
	return net + "/" + mode
}

// trioResult is what one trio variant measured.
type trioResult struct {
	spec     trioSpec
	txnUs    []float64 // Submit → final, per transaction
	spans    []span
	payloads [][]any
	msgs     float64 // payloads per commit
	wals     []*mdcc.WAL
	failed   int
}

var trioRegions = []simnet.Region{regions.California, regions.Virginia, regions.Ireland}

// reservePorts binds and releases n loopback ports.
func reservePorts(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, l := range lns {
			l.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("benchmark: reserve port: %w", err)
		}
		lns = append(lns, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// newFreeVirtual returns a virtual clock whose execution slot is free. The
// goroutine that constructs a vclock.Virtual holds its slot, and time stands
// still while any slot is held; the benchmark's client is an outsider that
// pins the world only around its pokes (AddWork/WorkDone), so it hands the
// constructor's slot back at once.
func newFreeVirtual() *vclock.Virtual {
	v := vclock.NewVirtual()
	v.WorkDone()
	return v
}

// trioTransports returns one transport per region and a shutdown function:
// a single simnet on a virtual clock, or three loopback realnet transports.
func trioTransports(useRealnet bool, seed int64) (map[simnet.Region]mdcc.Transport, func(), error) {
	out := make(map[simnet.Region]mdcc.Transport, len(trioRegions))
	if !useRealnet {
		clk := newFreeVirtual()
		nw, err := simnet.New(simnet.Config{Latency: regions.Three().Matrix, TimeScale: 1, Seed: seed, Clock: clk})
		if err != nil {
			clk.Shutdown()
			return nil, nil, err
		}
		for _, r := range trioRegions {
			out[r] = nw
		}
		return out, func() { nw.Close(); clk.Shutdown() }, nil
	}
	addrs, err := reservePorts(len(trioRegions))
	if err != nil {
		return nil, nil, err
	}
	var made []*realnet.Transport
	closeAll := func() {
		for _, t := range made {
			t.Close()
		}
	}
	for i, r := range trioRegions {
		peers := make(map[simnet.Region]string)
		for j, other := range trioRegions {
			if j != i {
				peers[other] = addrs[j]
			}
		}
		t, err := realnet.New(realnet.Config{Listen: addrs[i], Peers: peers, Codec: mdcc.WireCodec{}, Seed: seed + int64(i)})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		made = append(made, t)
		out[r] = t
	}
	return out, closeAll, nil
}

// traceOps builds the i-th transaction of a trio run.
func traceOps(classicShape bool, i int, block []byte) []txn.Op {
	counter := keyName("t-", i%traceKeys)
	if !classicShape {
		return []txn.Op{{Kind: txn.OpAdd, Key: counter, Delta: 1}}
	}
	// Each private key is written once, so the read version captured here
	// (the seeded version) is still current.
	return []txn.Op{
		{Kind: txn.OpSet, Key: keyName("tp-", i), Value: stampPayload(block, uint64(i)), ReadVersion: 0},
		{Kind: txn.OpAdd, Key: counter, Delta: 1},
	}
}

// runTrio assembles three replicas and one coordinator by hand over the
// chosen transport, with file-backed WALs under dir, and commits traceTxns
// transactions one at a time.
func runTrio(spec trioSpec, dir string, seed int64) (*trioResult, error) {
	nets, shutdown, err := trioTransports(spec.realnet, seed)
	if err != nil {
		return nil, err
	}
	defer shutdown()

	var st *traceState
	if spec.traced {
		st = newTraceState()
	}
	netFor := func(owner simnet.Addr) mdcc.Transport {
		if st == nil {
			return nets[owner.Region]
		}
		return &tracedNet{inner: nets[owner.Region], st: st, owner: owner}
	}

	replicaAddrs := make([]simnet.Addr, len(trioRegions))
	for i, r := range trioRegions {
		replicaAddrs[i] = simnet.Addr{Region: r, Name: "replica"}
	}
	res := &trioResult{spec: spec}
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, addr := range replicaAddrs {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("wal-%s.jsonl", addr.Region)))
		if err != nil {
			return nil, fmt.Errorf("benchmark: trio WAL: %w", err)
		}
		files = append(files, f)
		var sink io.Writer = f
		if st != nil {
			sink = &tracedWriter{w: f, st: st, owner: addr}
		}
		wal := mdcc.NewWAL(sink)
		res.wals = append(res.wals, wal)
		rep := mdcc.NewReplica(mdcc.ReplicaConfig{Net: netFor(addr), Addr: addr, Peers: replicaAddrs, WAL: wal})
		for k := 0; k < traceKeys; k++ {
			rep.SeedInt(keyName("t-", k), 0, -1<<60, 1<<60)
		}
	}
	// The client sits in the first region; in classic mode a remote region
	// masters every key, as in live_set_classic.
	master := simnet.Addr{Region: trioRegions[1], Name: "replica"}
	coordAddr := simnet.Addr{Region: trioRegions[0], Name: "coord"}
	coord, err := mdcc.NewCoordinator(mdcc.CoordinatorConfig{
		Net:           netFor(coordAddr),
		Addr:          coordAddr,
		Replicas:      replicaAddrs,
		MasterFor:     func(string) simnet.Addr { return master },
		CommitTimeout: traceTxnWait,
	})
	if err != nil {
		return nil, err
	}
	if spec.realnet {
		// Let the three transports dial each other before the first commit.
		time.Sleep(100 * time.Millisecond)
	}

	clk := nets[coordAddr.Region].Clock()
	block := payloadBlock(classicValue, seed)
	for i := 0; i < traceTxns; i++ {
		ops := traceOps(spec.classicShape, i, block)
		sink := chanSink{done: make(chan bool, 1)}
		var root, sub uint64
		start := time.Now()
		if st != nil {
			root = st.startTxn()
			sub = st.enter(coordAddr, spanSubmit, true)
		}
		// The client is not a goroutine the virtual scheduler tracks: pin the
		// world while it pokes the coordinator.
		clk.AddWork(1)
		err := coord.Submit(txn.NewID(), ops, spec.mode, sink)
		clk.WorkDone()
		if st != nil {
			st.leave(coordAddr, sub, true)
		}
		if err != nil {
			return nil, fmt.Errorf("benchmark: trio %s submit: %w", spec, err)
		}
		select {
		case ok := <-sink.done:
			if !ok {
				res.failed++
			}
		case <-time.After(2 * traceTxnWait):
			return nil, fmt.Errorf("benchmark: trio %s transaction %d never decided", spec, i)
		}
		res.txnUs = append(res.txnUs, float64(time.Since(start))/float64(time.Microsecond))
		if st != nil {
			st.rec.end(root)
			st.settle()
		} else {
			time.Sleep(traceQuietFor)
		}
	}
	if st != nil {
		res.spans = st.rec.closed()
		res.payloads = st.payloads
		res.msgs = float64(st.msgs) / traceTxns
	}
	return res, nil
}

// budgetOrder is the priority in which overlapping spans claim a stretch of
// a transaction's blocking path: the innermost work first.
var budgetOrder = []string{spanWALWrite, spanSend, spanSubmit, spanCoordHandle, spanMasterHandle, spanReplHandle}

// blockingBudget splits each transaction's Submit→final interval between
// the layers: every instant goes to the highest-priority layer that has a
// span open then, and to "transit" (wire, sockets, scheduler hand-offs) when
// none has. The parts add up to the interval exactly. It returns the mean
// per transaction, in microseconds.
func blockingBudget(spans []span) map[string]float64 {
	roots := make(map[uint64]span)
	byTxn := make(map[uint64][]span)
	for _, s := range spans {
		if s.Name == spanTxn {
			roots[s.Txn] = s
			continue
		}
		byTxn[s.Txn] = append(byTxn[s.Txn], s)
	}
	total := make(map[string]float64)
	for id, root := range roots {
		var acc []interval
		var covered int64
		for _, name := range budgetOrder {
			for _, s := range byTxn[id] {
				if s.Name != name {
					continue
				}
				lo, hi := s.Start, s.End
				if lo < root.Start {
					lo = root.Start
				}
				if hi > root.End {
					hi = root.End
				}
				if hi > lo {
					acc = append(acc, interval{lo, hi})
				}
			}
			u := unionLen(append([]interval(nil), acc...))
			total[name] += float64(u - covered)
			covered = u
		}
		total["transit"] += float64(root.dur() - covered)
	}
	n := float64(len(roots))
	if n == 0 {
		return total
	}
	for k := range total {
		total[k] = total[k] / n / 1000
	}
	return total
}

// meanSelfUs is the mean self time, in microseconds, of the spans called
// name: what one invocation of that layer costs, with its sends and WAL
// writes taken out.
func meanSelfUs(spans []span, name string) float64 {
	self := selfTimes(spans)
	var sum float64
	n := 0
	for _, s := range spans {
		if s.Name == name {
			sum += float64(self[s.ID])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1000
}

// wireReplay runs captured payloads through the wire codec and returns
// per-commit encode time, decode time, bytes and message count.
func wireReplay(payloads [][]any) (encNs, decNs, bytes, msgs float64) {
	var codec mdcc.WireCodec
	const reps = 20
	var frames [][]byte
	n := 0
	for _, txnPayloads := range payloads {
		if len(txnPayloads) == 0 {
			continue
		}
		n++
		for _, p := range txnPayloads {
			b, err := codec.Append(nil, p)
			if err != nil {
				continue
			}
			frames = append(frames, b)
			bytes += float64(len(b))
			msgs++
		}
	}
	if n == 0 {
		return 0, 0, 0, 0
	}
	buf := make([]byte, 0, 4096)
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, txnPayloads := range payloads {
			for _, p := range txnPayloads {
				buf, _ = codec.Append(buf[:0], p)
			}
		}
	}
	encNs = float64(time.Since(start)) / reps / float64(n)
	start = time.Now()
	for r := 0; r < reps; r++ {
		for _, f := range frames {
			_, _ = codec.Decode(f)
		}
	}
	decNs = float64(time.Since(start)) / reps / float64(n)
	return encNs, decNs, bytes / float64(n), msgs / float64(n)
}

// walRungs times WAL.Append to a file with entries taken from a trio's WAL,
// then OpenWALFile on the result: append µs, bytes per entry, replay µs per
// entry.
func walRungs(entries []mdcc.Entry, dir string) (appendUs, bytesPer, replayUs float64, err error) {
	if len(entries) == 0 {
		return 0, 0, 0, nil
	}
	path := filepath.Join(dir, "wal-rung.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("benchmark: WAL rung: %w", err)
	}
	wal := mdcc.NewWAL(f)
	const reps = 10
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, e := range entries {
			wal.Append(e)
		}
	}
	appendUs = float64(time.Since(start)) / float64(time.Microsecond) / float64(reps*len(entries))
	if err := wal.Err(); err != nil {
		f.Close()
		return 0, 0, 0, fmt.Errorf("benchmark: WAL rung append: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, 0, 0, fmt.Errorf("benchmark: WAL rung close: %w", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, 0, 0, err
	}
	bytesPer = float64(st.Size()) / float64(reps*len(entries))
	start = time.Now()
	_, recovered, _, err := mdcc.OpenWALFile(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("benchmark: WAL rung replay: %w", err)
	}
	if recovered > 0 {
		replayUs = float64(time.Since(start)) / float64(time.Microsecond) / float64(recovered)
	}
	return appendUs, bytesPer, replayUs, nil
}

// realnetPingPong bounces ball between two loopback transports. The wire
// codec only carries protocol messages, so ball is one captured from a trio.
func realnetPingPong(ball any, rounds int) (rttUs, sendUs float64, err error) {
	addrs, err := reservePorts(2)
	if err != nil {
		return 0, 0, err
	}
	a, err := realnet.New(realnet.Config{Listen: addrs[0], Peers: map[simnet.Region]string{"b": addrs[1]}, Codec: mdcc.WireCodec{}})
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	b, err := realnet.New(realnet.Config{Listen: addrs[1], Peers: map[simnet.Region]string{"a": addrs[0]}, Codec: mdcc.WireCodec{}})
	if err != nil {
		return 0, 0, err
	}
	defer b.Close()
	aAddr, bAddr := simnet.Addr{Region: "a", Name: "ping"}, simnet.Addr{Region: "b", Name: "pong"}
	back := make(chan struct{}, 1)
	a.Register(aAddr, func(simnet.Message) { back <- struct{}{} })
	b.Register(bAddr, func(m simnet.Message) { b.Send(bAddr, aAddr, m.Payload) })
	time.Sleep(100 * time.Millisecond)

	var rtts []float64
	var sendNs int64
	for i := 0; i < rounds; i++ {
		start := time.Now()
		a.Send(aAddr, bAddr, ball)
		sendNs += int64(time.Since(start))
		select {
		case <-back:
		case <-time.After(2 * time.Second):
			// The first frames can race the dial; retry the round.
			continue
		}
		rtts = append(rtts, float64(time.Since(start))/float64(time.Microsecond))
	}
	if len(rtts) == 0 {
		return 0, 0, fmt.Errorf("benchmark: realnet ping-pong got no reply")
	}
	return median(rtts), float64(sendNs) / float64(rounds) / 1000, nil
}
