package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/httpapi"
	"planet/internal/latency"
	"planet/internal/mdcc"
	"planet/internal/predictor"
	"planet/internal/simnet"
	"planet/internal/txn"
)

const ladderRounds = 300

// ladderResult holds the whole-call rungs above the MDCC trio, measured on
// three in-process cluster.NewNode nodes over loopback TCP. Each value is a
// median in microseconds; a layer's self time is the difference between its
// rung and the one below.
type ladderResult struct {
	coordUs    float64 // Coordinator.Submit → final
	coreUs     float64 // Txn.Commit → Handle.Wait
	httpUs     float64 // httpapi.Client.SubmitAndWait
	readUs     float64 // Session.ReadInt
	httpReadUs float64 // httpapi.Client.Read
}

// runLadder boots the node trio and times the rungs in rotation, so a change
// in machine speed during the run touches all of them alike.
func runLadder(dir string) (*ladderResult, error) {
	addrs, err := reservePorts(len(trioRegions))
	if err != nil {
		return nil, err
	}
	peers := make(map[simnet.Region]string, len(trioRegions))
	for i, r := range trioRegions {
		peers[r] = addrs[i]
	}
	var nodes []*cluster.Cluster
	defer func() {
		for _, c := range nodes {
			c.Close()
		}
	}()
	for _, r := range trioRegions {
		c, err := cluster.NewNode(cluster.NodeConfig{Region: r, Peers: peers, DataDir: filepath.Join(dir, "node-"+string(r))})
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, c)
		for k := 0; k < traceKeys; k++ {
			c.SeedInt(keyName("t-", k), 0, -1<<60, 1<<60)
		}
	}
	home := trioRegions[0]
	db, err := planet.Open(planet.Config{Cluster: nodes[0]})
	if err != nil {
		return nil, err
	}
	sess, err := db.Session(home)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("benchmark: ladder gateway: %w", err)
	}
	srv := &http.Server{Handler: httpapi.NewServer(db, sess)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	client := &httpapi.Client{
		Base: "http://" + ln.Addr().String(),
		HTTP: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
	time.Sleep(100 * time.Millisecond) // transports dial each other

	coord := nodes[0].Coordinator(home)
	us := func(start time.Time) float64 { return float64(time.Since(start)) / float64(time.Microsecond) }
	var coordUs, coreUs, httpUs, readUs, httpReadUs []float64
	for i := 0; i < ladderRounds+20; i++ {
		key := keyName("t-", i%traceKeys)
		warm := i < 20

		sink := chanSink{done: make(chan bool, 1)}
		start := time.Now()
		if err := coord.Submit(txn.NewID(), []txn.Op{{Kind: txn.OpAdd, Key: key, Delta: 1}}, mdcc.ModeFast, sink); err != nil {
			return nil, fmt.Errorf("benchmark: ladder coordinator rung: %w", err)
		}
		select {
		case ok := <-sink.done:
			if !ok {
				return nil, fmt.Errorf("benchmark: ladder coordinator rung aborted")
			}
		case <-time.After(traceTxnWait):
			return nil, fmt.Errorf("benchmark: ladder coordinator rung never decided")
		}
		if !warm {
			coordUs = append(coordUs, us(start))
		}

		start = time.Now()
		tx := sess.Begin()
		tx.Add(key, 1)
		h, err := tx.Commit(planet.CommitOptions{})
		if err != nil {
			return nil, fmt.Errorf("benchmark: ladder core rung: %w", err)
		}
		if out := h.Wait(); !out.Committed {
			return nil, fmt.Errorf("benchmark: ladder core rung aborted: %v", out.Err)
		}
		if !warm {
			coreUs = append(coreUs, us(start))
		}

		start = time.Now()
		st, err := client.SubmitAndWait(httpapi.SubmitRequest{Ops: []httpapi.Op{{Kind: "add", Key: key, Delta: 1}}}, opTimeout)
		if err != nil || !st.Committed {
			return nil, fmt.Errorf("benchmark: ladder gateway rung: committed=%v err=%v", st.Committed, err)
		}
		if !warm {
			httpUs = append(httpUs, us(start))
		}

		start = time.Now()
		if _, _, err := sess.ReadInt(key); err != nil {
			return nil, fmt.Errorf("benchmark: ladder read rung: %w", err)
		}
		if !warm {
			readUs = append(readUs, us(start))
		}
		start = time.Now()
		if _, err := client.Read(key); err != nil {
			return nil, fmt.Errorf("benchmark: ladder gateway read rung: %w", err)
		}
		if !warm {
			httpReadUs = append(httpReadUs, us(start))
		}
	}
	return &ladderResult{
		coordUs:    median(coordUs),
		coreUs:     median(coreUs),
		httpUs:     median(httpUs),
		readUs:     median(readUs),
		httpReadUs: median(httpReadUs),
	}, nil
}

// perOp times n calls of f and returns nanoseconds per call.
func perOp(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(n)
}

var microSink float64

// microRungs times the leaf layers in isolation.
func microRungs(L map[string]float64) error {
	// Virtual clock: schedule and fire timers.
	{
		const n = 50_000
		v := newFreeVirtual()
		var wg sync.WaitGroup
		wg.Add(n)
		rng := rand.New(rand.NewSource(1))
		start := time.Now()
		v.AddWork(1)
		for i := 0; i < n; i++ {
			v.AfterFunc(time.Duration(1+rng.Intn(1_000_000))*time.Microsecond, wg.Done)
		}
		v.WorkDone()
		wg.Wait()
		L["vclock.virtual.timer_ns"] = float64(time.Since(start)) / n
		v.Shutdown()
	}

	// simnet on a virtual clock: Send → timer → handler, as a relay in which
	// every delivery sends the next message, so each send lands on its own
	// virtual instant as protocol traffic does.
	{
		const n = 50_000
		v := newFreeVirtual()
		nw, err := simnet.New(simnet.Config{Latency: simnet.NewMatrix(latency.Constant(time.Millisecond)), TimeScale: 1, Clock: v})
		if err != nil {
			v.Shutdown()
			return err
		}
		src, dst := simnet.Addr{Region: "x", Name: "src"}, simnet.Addr{Region: "y", Name: "sink"}
		done := make(chan struct{})
		left := n
		nw.Register(dst, func(simnet.Message) {
			if left--; left == 0 {
				close(done)
				return
			}
			nw.Send(src, dst, left)
		})
		start := time.Now()
		v.AddWork(1)
		nw.Send(src, dst, left)
		v.WorkDone()
		<-done
		L["simnet.send_ns"] = float64(time.Since(start)) / n
		nw.Close()
		v.Shutdown()
	}

	// Predictor, warmed with vote history as the package's own benchmarks do.
	{
		five := []simnet.Region{"r1", "r2", "r3", "r4", "r5"}
		p := predictor.New(predictor.Config{Regions: five, FastQuorum: 4, UseConflicts: true, UseLatency: true})
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 2000; i++ {
			rtt := time.Duration(20+rng.Intn(200)) * time.Millisecond
			p.ObserveVote("hot", five[rng.Intn(5)], rng.Float64() < 0.6, rtt)
			p.ObserveVote("cold", five[rng.Intn(5)], true, rtt)
		}
		f := predictor.Flight{
			Options: []predictor.OptionFlight{
				{Key: "hot", Accepts: 2, Remaining: five[2:]},
				{Key: "cold", Accepts: 1, Remaining: five[1:]},
			},
			Elapsed:  80 * time.Millisecond,
			Deadline: 500 * time.Millisecond,
		}
		L["predictor.likelihood_ns"] = perOp(50_000, func(int) { microSink += p.Likelihood(f) })
		keys := []string{"hot", "cold"}
		L["predictor.submit_ns"] = perOp(50_000, func(int) { microSink += p.LikelihoodAtSubmit(keys) })
	}

	// Replica and record store: one fast-path prepare + decide, and a local
	// read, on a lone replica.
	{
		nw, err := simnet.New(simnet.Config{Latency: simnet.NewMatrix(latency.Constant(time.Microsecond)), TimeScale: 1})
		if err != nil {
			return err
		}
		self := simnet.Addr{Region: "r1", Name: "replica"}
		rep := mdcc.NewReplica(mdcc.ReplicaConfig{Net: nw, Addr: self, Peers: []simnet.Addr{self}})
		coord := simnet.Addr{Region: "r1", Name: "coord"}
		nw.Register(coord, func(simnet.Message) {})
		for k := 0; k < traceKeys; k++ {
			rep.SeedInt(keyName("t-", k), 0, -1<<60, 1<<60)
		}
		L["mdcc.replica.propose_decide_ns"] = perOp(20_000, func(i int) {
			id := txn.NewID()
			ops := []txn.Op{{Kind: txn.OpAdd, Key: keyName("t-", i%traceKeys), Delta: 1}}
			rep.HandlePropose(id, coord, ops)
			rep.HandleDecide(id, true, ops)
		})
		nw.Quiesce(time.Second)
		key := keyName("t-", 7)
		L["mdcc.replica.read_ns"] = perOp(200_000, func(int) {
			if v, ok := rep.ReadLocal(key); ok {
				microSink += float64(v.Version)
			}
		})
		nw.Close()
	}
	return nil
}

// runTraced performs the traced run for workload result r: the
// hand-assembled trios, the ladder above them, the leaf rungs and one suite
// pass per GOMAXPROCS setting. It fills r.layers, prints the per-commit
// budget table, and writes the spans to out when set.
func runTraced(e *env, r *result, o runOpts, out string, stdout io.Writer) error {
	dir := filepath.Join(e.tmp, "trace-"+r.workload)
	L := r.layers
	classicShape := r.workload == "live_set_classic"

	mkdir := func(name string) (string, error) {
		d := filepath.Join(dir, name)
		if err := os.MkdirAll(d, 0o755); err != nil {
			return "", fmt.Errorf("benchmark: trace dir: %w", err)
		}
		return d, nil
	}
	trio := func(spec trioSpec, name string) (*trioResult, error) {
		d, err := mkdir(name)
		if err != nil {
			return nil, err
		}
		t, err := runTrio(spec, d, o.seed)
		if err != nil {
			return nil, err
		}
		if t.failed > 0 {
			r.fail("trio %s: %d of %d transactions aborted", spec, t.failed, traceTxns)
		}
		return t, nil
	}

	// The four traced variants, and the realnet/fast one again untraced: the
	// difference is what tracing costs.
	simFast, err := trio(trioSpec{mode: mdcc.ModeFast, traced: true}, "sim-fast")
	if err != nil {
		return err
	}
	simClassic, err := trio(trioSpec{mode: mdcc.ModeClassic, classicShape: true, traced: true}, "sim-classic")
	if err != nil {
		return err
	}
	realFast, err := trio(trioSpec{realnet: true, mode: mdcc.ModeFast, traced: true}, "real-fast")
	if err != nil {
		return err
	}
	realClassic, err := trio(trioSpec{realnet: true, mode: mdcc.ModeClassic, classicShape: true, traced: true}, "real-classic")
	if err != nil {
		return err
	}
	realFastBare, err := trio(trioSpec{realnet: true, mode: mdcc.ModeFast}, "real-fast-bare")
	if err != nil {
		return err
	}

	// The budget follows the workload's commit path: classic for
	// live_set_classic, fast for every other workload.
	basis := realFast
	if classicShape {
		basis = realClassic
	}
	budget := blockingBudget(basis.spans)
	L["mdcc.coordinator.self_us"] = budget[spanSubmit] + budget[spanCoordHandle]
	L["mdcc.coordinator.handle_us"] = meanSelfUs(basis.spans, spanCoordHandle)
	L["mdcc.replica.handle_us"] = meanSelfUs(basis.spans, spanReplHandle)
	L["mdcc.master.handle_us"] = meanSelfUs(realClassic.spans, spanMasterHandle)
	L["mdcc.classic_msgs_per_commit"] = realClassic.msgs
	L["simnet.msgs_per_commit"] = simFast.msgs
	if classicShape {
		L["simnet.msgs_per_commit"] = simClassic.msgs
	}
	if base := median(realFastBare.txnUs); base > 0 {
		L["trace.overhead_frac"] = (median(realFast.txnUs) - base) / base
	}

	encNs, decNs, wireBytes, wireMsgs := wireReplay(basis.payloads)
	L["mdcc.wire.encode_ns_per_commit"] = encNs
	L["mdcc.wire.decode_ns_per_commit"] = decNs
	L["mdcc.wire.bytes_per_commit"] = wireBytes
	L["mdcc.wire.msgs_per_commit"] = wireMsgs

	walDir, err := mkdir("wal")
	if err != nil {
		return err
	}
	appendUs, walBytes, replayUs, err := walRungs(basis.wals[0].Commits(), walDir)
	if err != nil {
		return err
	}
	L["mdcc.wal.append_us"] = appendUs
	L["mdcc.wal.bytes_per_commit"] = walBytes
	L["mdcc.wal.replay_us_per_entry"] = replayUs

	if len(realFast.payloads) > 0 && len(realFast.payloads[0]) > 0 {
		rtt, send, err := realnetPingPong(realFast.payloads[0][0], 2000)
		if err != nil {
			return err
		}
		L["realnet.rtt_us"] = rtt
		L["realnet.send_us"] = send
	}

	ladderDir, err := mkdir("ladder")
	if err != nil {
		return err
	}
	lad, err := runLadder(ladderDir)
	if err != nil {
		return err
	}
	L["core.self_us"] = lad.coreUs - lad.coordUs
	L["httpapi.self_us"] = lad.httpUs - lad.coreUs
	L["httpapi.read_self_us"] = lad.httpReadUs - lad.readUs

	if err := microRungs(L); err != nil {
		return err
	}

	// One suite pass at the default GOMAXPROCS and one at 1: the ratio is
	// what the partitioned scheduler buys on this machine.
	cpu0, t0 := selfCPU(), time.Now()
	walls, _, err := suitePass(o.seed)
	if err != nil {
		return err
	}
	if _, ok := L["vclock.world.cpu_over_wall"]; !ok {
		L["vclock.world.cpu_over_wall"] = float64(selfCPU()-cpu0) / float64(time.Since(t0))
	}
	var wallDefault, wallOne float64
	for i, w := range walls {
		wallDefault += w
		name := "experiments." + experimentID(i) + ".wall_ms"
		if _, ok := L[name]; !ok {
			L[name] = w
		}
	}
	prev := runtime.GOMAXPROCS(1)
	walls1, _, err := suitePass(o.seed)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	for _, w := range walls1 {
		wallOne += w
	}
	if wallDefault > 0 {
		L["vclock.world.speedup"] = wallOne / wallDefault
	}
	L["build_s"] = e.buildS

	// The budget table: the gateway and core rungs on top of the trio's
	// blocking path. The rows add up to ladder.sum_us.
	trioUs := median(basis.txnUs)
	rows := []struct {
		layer string
		us    float64
	}{
		{"httpapi (gateway, JSON, 2 requests)", L["httpapi.self_us"]},
		{"core (session, handle, predictor)", L["core.self_us"]},
		{"mdcc.coordinator", budget[spanSubmit] + budget[spanCoordHandle]},
		{"mdcc.master", budget[spanMasterHandle]},
		{"mdcc.replica + record store", budget[spanReplHandle]},
		{"mdcc.wal (file write)", budget[spanWALWrite]},
		{"transport send calls", budget[spanSend]},
		{"transit (wire codec, TCP, wake-ups)", budget["transit"]},
	}
	var sum float64
	for _, row := range rows {
		sum += row.us
	}
	L["ladder.sum_us"] = sum
	liveP50 := L["live.commit_p50_ms"] * 1000
	if liveP50 > 0 {
		L["ladder.coverage_frac"] = sum / liveP50
	}
	fmt.Fprintf(stdout, "-- per-commit budget (%s path, one client, in-process, zero injected delay) --\n", basis.spec)
	fmt.Fprintf(stdout, "  %-40s %10s %7s\n", "layer", "self us", "share")
	for _, row := range rows {
		fmt.Fprintf(stdout, "  %-40s %10.1f %6.1f%%\n", row.layer, row.us, 100*row.us/sum)
	}
	fmt.Fprintf(stdout, "  %-40s %10.1f\n", "sum (ladder.sum_us)", sum)
	fmt.Fprintf(stdout, "  trio Submit->final median %.1f us traced, %.1f us untraced (fast path); ladder rungs: coordinator %.1f, core %.1f, gateway %.1f us\n",
		trioUs, median(realFastBare.txnUs), lad.coordUs, lad.coreUs, lad.httpUs)
	if liveP50 > 0 {
		fmt.Fprintf(stdout, "  live fleet commit p50 %.1f us: the ladder covers %.0f%% of it\n", liveP50, 100*sum/liveP50)
	} else {
		fmt.Fprintf(stdout, "  (run -trace on live_add_fast to set the sum beside the live fleet's commit p50)\n")
	}

	if out != "" {
		var all []span
		for _, t := range []*trioResult{simFast, simClassic, realFast, realClassic} {
			all = append(all, t.spans...)
		}
		if err := writeSpans(out, all); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  wrote %d spans to %s\n", len(all), out)
	}
	return os.RemoveAll(dir)
}
