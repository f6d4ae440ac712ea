// Command planetd runs a PLANET deployment and serves one region's gateway
// over HTTP — the shape an application server embedding this library would
// take. It has two modes:
//
// Simulation mode (default) boots the whole multi-region cluster in-process
// over the simulated WAN, on a paced virtual clock: one serialized event
// order whose time follows the wall clock, so HTTP clients wait as long as
// the (scaled) WAN would make them:
//
//	planetd [-addr :8480] [-region us-west] [-mode fast] [-scale 0.05]
//	        [-admission 0.4] [-slowtxn 250ms] [-logaborted] [-chaos mixed]
//	        [-chaosapi] [-pprof localhost:6060] [-attr 30s]
//
// Deployment mode (-realnet) runs ONE region's node as this process —
// replica, coordinator, and an HTTP gateway — speaking the wire protocol
// over real TCP to its peer processes. Every region of the deployment runs
// its own planetd:
//
//	planetd -realnet -region us-west -listen 127.0.0.1:9001 \
//	        -peers 'us-west=127.0.0.1:9001,us-east=127.0.0.1:9002,eu-west=127.0.0.1:9003' \
//	        -datadir /var/lib/planet &
//	# ... same for us-east and eu-west with their own -addr/-listen/-datadir
//
// All nodes must agree on -peers: the sorted region set defines quorum
// sizes and key mastership. With -datadir the write-ahead log lives on
// disk and is replayed on restart, so a kill -9'd node rejoins with its
// decisions intact.
//
// Try it (simulation mode):
//
//	planetd &
//	curl -s 'localhost:8480/v1/read?key=demo'
//	curl -s -X POST 'localhost:8480/v1/txn?wait=1&waitms=3000' \
//	     -d '{"ops":[{"kind":"add","key":"demo-counter","delta":1}],"speculateAt":0.95}'
//	curl -s 'localhost:8480/v1/txn/<txn from the reply>/trace'
//	curl -s 'localhost:8480/v1/stats'
//	curl -s 'localhost:8480/v1/metrics'
//
// With -chaosapi (simulation mode only), faults can be injected at runtime:
//
//	planetd -chaosapi &
//	curl -s -X POST localhost:8480/v1/chaos/latency \
//	     -d '{"from":"us-west","to":"eu-west","factor":5}'
//	curl -s -X POST localhost:8480/v1/chaos/scenario -d '{"preset":"mixed"}'
//	curl -s 'localhost:8480/v1/chaos/events'
//
// In deployment mode the /v1/net/* routes expose the coordinator's view of
// its peers and fault injection instead; OS-level faults (kill -9,
// SIGSTOP) come from outside.
//
// Observability extras in both modes: -pprof serves net/http/pprof on a
// separate address (profiling never shares the public gateway port), -attr
// periodically logs the per-stage latency attribution table (the same data
// as GET /v1/attribution), and per-transaction causal span trees are on by
// default under GET /v1/txn/{id}/trace.
//
// planetd shuts down gracefully on SIGINT/SIGTERM in both modes: the
// gateway stops accepting new transactions (503), in-flight transactions
// drain bounded by -drain, the WAL is fsynced, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux (-pprof)
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"planet/internal/chaos"
	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/httpapi"
	"planet/internal/mdcc"
	"planet/internal/obs"
	"planet/internal/simnet"
	"planet/internal/vclock"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// flags groups the command line; both modes share most of it.
type flags struct {
	addr       string
	region     string
	mode       string
	scale      float64
	admission  float64
	slowtxn    time.Duration
	logaborted bool
	traceCap   int
	chaosRun   string
	chaosAPI   bool
	drain      time.Duration
	pprofAddr  string
	attr       time.Duration

	realnet  bool
	listen   string
	peers    string
	datadir  string
	netdelay time.Duration
	master   string
	committo time.Duration

	leases    bool
	leaseterm time.Duration
}

func parseFlags() *flags {
	f := &flags{}
	flag.StringVar(&f.addr, "addr", ":8480", "HTTP gateway listen address")
	flag.StringVar(&f.region, "region", "us-west", "gateway region")
	flag.Float64Var(&f.scale, "scale", 0.05, "WAN time compression (simulation mode)")
	flag.Float64Var(&f.admission, "admission", 0, "admission MinLikelihood (0 disables)")
	flag.DurationVar(&f.slowtxn, "slowtxn", 0, "log traces of transactions at least this slow (0 disables)")
	flag.BoolVar(&f.logaborted, "logaborted", false, "log every aborted transaction's trace")
	flag.IntVar(&f.traceCap, "tracecap", 512, "transactions each region's trace store retains, spans and lifecycle (and faults the fault log keeps)")
	flag.StringVar(&f.chaosRun, "chaos", "", "run a fault scenario at boot: preset name or seed:<N> (implies -chaosapi; simulation mode)")
	flag.BoolVar(&f.chaosAPI, "chaosapi", false, "enable runtime fault injection via POST /v1/chaos/* (simulation mode)")
	flag.DurationVar(&f.drain, "drain", 10*time.Second, "bound on draining in-flight transactions at shutdown")
	flag.StringVar(&f.mode, "mode", "fast", "commit path: fast (Fast Paxos with classic fallback) or classic (master-arbitrated)")
	flag.StringVar(&f.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	flag.DurationVar(&f.attr, "attr", 0, "log the per-stage latency attribution table at this interval (0 disables)")

	flag.BoolVar(&f.realnet, "realnet", false, "deployment mode: run one region's node over real TCP")
	flag.StringVar(&f.listen, "listen", "", "transport listen address (deployment mode; default: this region's -peers entry)")
	flag.StringVar(&f.peers, "peers", "", "comma-separated region=host:port for EVERY region, e.g. 'us-west=127.0.0.1:9001,us-east=127.0.0.1:9002'")
	flag.StringVar(&f.datadir, "datadir", "", "directory for the on-disk WAL (deployment mode; empty keeps it in memory)")
	flag.DurationVar(&f.netdelay, "netdelay", 0, "artificial inbound delivery delay (deployment mode, tests)")
	flag.StringVar(&f.master, "masterregion", "", "make one region master for every key (deployment mode, tests)")
	flag.DurationVar(&f.committo, "committimeout", 0, "bound a transaction's in-flight time (deployment mode; 0 uses the default)")
	flag.BoolVar(&f.leases, "leases", false, "replace static mastership with epoch-fenced master leases and automatic failover")
	flag.DurationVar(&f.leaseterm, "leaseterm", 0, "master lease term (0 uses the default; scaled by -scale in simulation mode)")
	flag.Parse()
	return f
}

func run() error {
	f := parseFlags()
	if _, err := commitMode(f.mode); err != nil {
		return err
	}
	if f.pprofAddr != "" {
		// The pprof mux is the default ServeMux (net/http/pprof registers
		// there on import); serve it on its own listener so profiling never
		// shares a port with the public gateway.
		go func() {
			log.Printf("planetd: pprof on http://%s/debug/pprof/", f.pprofAddr)
			if err := http.ListenAndServe(f.pprofAddr, nil); err != nil {
				log.Printf("planetd: pprof server: %v", err)
			}
		}()
	}
	if f.realnet {
		return runRealnet(f)
	}
	return runSimnet(f)
}

// commitMode maps the -mode flag to the protocol constant.
func commitMode(s string) (mdcc.Mode, error) {
	switch s {
	case "fast":
		return mdcc.ModeFast, nil
	case "classic":
		return mdcc.ModeClassic, nil
	}
	return 0, fmt.Errorf("planetd: -mode must be fast or classic, got %q", s)
}

// attrLogger logs the attribution table every interval of the cluster
// clock until stop fires. It gives operators the "where is my latency
// going" answer in the process log without needing to poll /v1/attribution.
func attrLogger(a *obs.AttributionSet, every time.Duration, stop *vclock.Event) {
	for !stop.WaitTimeout(every) {
		if snap := a.Snapshot(); len(snap.Stages) > 0 {
			log.Printf("planetd: latency attribution\n%s", snap.Table())
		}
	}
}

// openDB opens the DB both modes serve, with tracing, attribution and the
// flag-driven policies.
func openDB(f *flags, c *cluster.Cluster, reg *obs.Registry) (*planet.DB, error) {
	mode, _ := commitMode(f.mode)
	return planet.Open(planet.Config{
		Cluster:       c,
		Mode:          mode,
		Admission:     planet.AdmissionPolicy{MinLikelihood: f.admission, ProbeFraction: 0.05},
		Registry:      reg,
		Trace:         true,
		TraceCapacity: f.traceCap,
		TraceLog: obs.TraceLog{
			SlowThreshold: f.slowtxn,
			LogAborted:    f.logaborted,
			Logf:          log.Printf,
		},
		AttributionFeed: true,
	})
}

// runSimnet boots the whole cluster in-process over the simulated WAN, on a
// paced virtual clock. The main goroutine holds the clock's execution slot
// while it sets up, and hands it back before it serves: from then on HTTP
// handlers enter the clock through its outsider pin.
func runSimnet(f *flags) error {
	reg := obs.NewRegistry()
	var dbPtr atomic.Pointer[planet.DB]

	clk := vclock.NewPaced()
	defer clk.Shutdown()
	// WAL on: crash/restart chaos faults recover replica state by replay.
	c, err := cluster.New(cluster.Config{
		Clock:        clk,
		TimeScale:    f.scale,
		WAL:          true,
		MasterLeases: f.leases,
		LeaseTerm:    f.leaseterm,
		OnLeaseEvent: func(r simnet.Region, ev mdcc.LeaseEvent) {
			recordLeaseEvent(reg, &dbPtr, string(r), ev)
		},
	})
	if err != nil {
		return err
	}
	defer c.Close()

	db, err := openDB(f, c, reg)
	if err != nil {
		return err
	}
	dbPtr.Store(db)
	region := simnet.Region(f.region)
	sess, err := db.Session(region)
	if err != nil {
		return fmt.Errorf("%v (regions: %v)", err, c.Regions())
	}

	seedDemo(c)
	gw := httpapi.NewServer(db, sess)
	var eng *chaos.Engine
	if f.chaosAPI || f.chaosRun != "" {
		eng, err = chaos.New(chaos.Config{
			Cluster:  c,
			Registry: reg,
			Faults:   db.Spans().Faults(),
			Logf:     log.Printf,
		})
		if err != nil {
			return err
		}
		gw.EnableChaos(eng)
	}
	if f.chaosRun != "" {
		var sc chaos.Scenario
		if seedStr, ok := strings.CutPrefix(f.chaosRun, "seed:"); ok {
			seed, err := strconv.ParseInt(seedStr, 10, 64)
			if err != nil {
				return fmt.Errorf("planetd: bad -chaos seed %q: %v", seedStr, err)
			}
			sc, err = chaos.Generate(c.Regions(), chaos.GenConfig{Seed: seed})
			if err != nil {
				return err
			}
		} else {
			sc, err = chaos.Preset(f.chaosRun, c.Regions())
			if err != nil {
				return err
			}
		}
		if err := eng.Run(sc); err != nil {
			return err
		}
		defer eng.Stop()
	}

	fmt.Printf("planetd: %d-region cluster up, gateway for %s on %s\n",
		len(c.Regions()), f.region, f.addr)
	fmt.Printf("seeded keys: demo (bytes), demo-counter (int), demo-stock (bounded 0..100), acct-1..acct-8\n")
	if eng != nil {
		fmt.Printf("chaos: POST /v1/chaos/* enabled (presets: %v)\n", chaos.PresetNames())
	}
	clk.WorkDone()
	// Shutdown re-enters the clock: the deferred Stop waits out the chaos
	// engine's heals through it.
	defer clk.AddWork(1)
	return serve(f, gw, db, c.WALOf(region))
}

// runRealnet runs one region's node over real TCP (deployment mode).
func runRealnet(f *flags) error {
	peers, err := parsePeers(f.peers)
	if err != nil {
		return err
	}
	region := simnet.Region(f.region)
	if _, ok := peers[region]; !ok {
		return fmt.Errorf("planetd: -region %q has no -peers entry", f.region)
	}

	reg := obs.NewRegistry()

	var dbPtr atomic.Pointer[planet.DB]

	c, err := cluster.NewNode(cluster.NodeConfig{
		Region:        region,
		Peers:         peers,
		Listen:        f.listen,
		DataDir:       f.datadir,
		InboundDelay:  f.netdelay,
		MasterRegion:  simnet.Region(f.master),
		CommitTimeout: f.committo,
		MasterLeases:  f.leases,
		LeaseTerm:     f.leaseterm,
		OnLeaseEvent: func(ev mdcc.LeaseEvent) {
			if ev.Kind != mdcc.LeaseRenewed {
				log.Printf("planetd: lease %s: %s epoch %d holder %s", ev.Keyspace, ev.Kind, ev.Epoch, ev.Holder)
			}
			recordLeaseEvent(reg, &dbPtr, f.region, ev)
		},
		Logf: log.Printf,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	c.Coordinator(region).SetPeerObserver(func(r simnet.Region, down bool) {
		st := "up"
		if down {
			st = "down"
		}
		log.Printf("planetd: peer %s -> %s", r, st)
		// Every transition of the coordinator's failure detector lands in
		// the metrics (rate of flapping) and in the fault log — so a trace
		// of a transaction that stalled shows the peer going down
		// mid-flight.
		reg.Counter("planet_realnet_peer_transitions_total",
			"Peer transitions of the coordinator's failure detector.",
			obs.L("peer", string(r)), obs.L("state", st)).Inc()
		recordFault(&dbPtr, string(r), fmt.Sprintf("peer %s -> %s", r, st))
	})

	db, err := openDB(f, c, reg)
	if err != nil {
		return err
	}
	dbPtr.Store(db)
	sess, err := db.Session(region)
	if err != nil {
		return err
	}

	// Seed the image, then replay whatever the on-disk WAL recovered over
	// it: a restarted node rejoins with every decision it had durably
	// logged before the crash.
	seedDemo(c)
	if err := c.RestartReplica(region); err != nil {
		return err
	}
	if n := c.WALRecovered(); n > 0 || c.WALTorn() {
		log.Printf("planetd: WAL replay: %d decisions recovered (torn tail: %v)", n, c.WALTorn())
	}

	gw := httpapi.NewServer(db, sess)
	gw.EnableRealNet(c.RealNet, c.Replica(region))

	fmt.Printf("planetd: node %s up, transport on %s, gateway on %s, %d-region deployment\n",
		region, c.RealNet.ListenAddr(), f.addr, len(peers))
	return serve(f, gw, db, c.WALOf(region))
}

// serve runs the HTTP gateway until SIGINT/SIGTERM, then performs the
// hardened graceful shutdown both modes share: refuse new transactions,
// drain HTTP and in-flight transactions (bounded), fsync the WAL, exit 0.
func serve(f *flags, gw *httpapi.Server, db *planet.DB, wal *mdcc.WAL) error {
	srv := &http.Server{Addr: f.addr, Handler: gw}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if a := db.Attribution(); a != nil && f.attr > 0 {
		clk := db.Cluster().Clock()
		attrStop := clk.NewEvent()
		defer attrStop.Fire()
		clk.Go(func() { attrLogger(a, f.attr, attrStop) })
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Println("planetd: shutting down")
	// 1. Stop accepting new transactions; reads and status polls still work
	// so clients can observe their in-flight outcomes.
	gw.SetDraining(true)
	// 2. Let in-flight HTTP requests (including bounded waits) finish.
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("planetd: http shutdown: %v", err)
	}
	// 3. Drain in-flight transactions, bounded by -drain. Real time on
	// purpose: the bound must hold even if the cluster's clock is stalled.
	deadline := time.Now().Add(f.drain)
	for db.InFlight() > 0 {
		if time.Now().After(deadline) {
			log.Printf("planetd: drain bound hit with %d transactions in flight", db.InFlight())
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	// 4. Make the decision log durable before the deferred cluster Close.
	if wal != nil {
		if err := wal.Sync(); err != nil {
			return fmt.Errorf("planetd: wal sync: %w", err)
		}
	}
	fmt.Println("planetd: shutdown complete")
	return nil
}

// seedDemo installs the out-of-the-box records: the curl examples' keys and
// a small bank of bounded accounts the multi-process harness moves value
// between.
func seedDemo(c *cluster.Cluster) {
	c.SeedBytes("demo", []byte("hello from planetd"))
	c.SeedInt("demo-counter", 0, 0, 1<<40)
	c.SeedInt("demo-stock", 100, 0, 100)
	for i := 1; i <= 8; i++ {
		c.SeedInt(fmt.Sprintf("acct-%d", i), 100, 0, 10_000_000)
	}
}

// parsePeers parses "r1=host:port,r2=host:port" into the deployment map.
func parsePeers(s string) (map[simnet.Region]string, error) {
	if s == "" {
		return nil, fmt.Errorf("planetd: -realnet requires -peers")
	}
	out := make(map[simnet.Region]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("planetd: bad -peers entry %q (want region=host:port)", part)
		}
		r := simnet.Region(strings.TrimSpace(name))
		if _, dup := out[r]; dup {
			return nil, fmt.Errorf("planetd: duplicate -peers region %q", r)
		}
		out[r] = strings.TrimSpace(addr)
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("planetd: -peers needs at least 2 regions, got %d", len(out))
	}
	return out, nil
}

// recordLeaseEvent lands one lease transition in the metrics — the epoch
// gauge per keyspace and the takeover counter — and, for everything but a
// routine renewal, in the fault log: a trace of a transaction stalled across
// a failover shows the lease moving.
func recordLeaseEvent(reg *obs.Registry, dbp *atomic.Pointer[planet.DB], observer string, ev mdcc.LeaseEvent) {
	reg.Gauge("planet_lease_epoch",
		"Latest lease epoch observed, per keyspace.",
		obs.L("keyspace", string(ev.Keyspace))).Set(float64(ev.Epoch))
	if ev.Kind == mdcc.LeaseTakeover {
		reg.Counter("planet_lease_takeovers_total",
			"Keyspace lease takeovers won from a dead or deposed master.",
			obs.L("keyspace", string(ev.Keyspace))).Inc()
	}
	if ev.Kind == mdcc.LeaseRenewed {
		return
	}
	recordFault(dbp, observer, fmt.Sprintf("lease %s: %s epoch %d holder %s", ev.Keyspace, ev.Kind, ev.Epoch, ev.Holder))
}

// recordFault logs one fault in the deployment's fault log on the cluster
// clock. Before the DB is open there is no log, and no transaction to
// overlap, so the fault is dropped.
func recordFault(dbp *atomic.Pointer[planet.DB], region, note string) {
	if db := dbp.Load(); db != nil {
		db.Spans().Faults().Record(db.Cluster().Clock().Now(), region, note)
	}
}
