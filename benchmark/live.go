package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"planet/internal/httpapi"
	"planet/internal/simnet"
)

// The live workloads drive a three-process planetd fleet on loopback through
// its HTTP gateways. They are closed loops: each client sends its next
// request only after the reply to the previous one, over one keep-alive
// connection. No network delay is injected, so every latency here is
// processor and kernel time, not WAN time.

const (
	opTimeout      = 5 * time.Second
	setupRounds    = 5 // fleets launched and seeded per run: setup_s is their median
	measuredFleets = 3 // of which this many are measured; timings pool them
	liveWindows    = 3 // back-to-back timed windows per fleet; its printed rate is the median
	liveWarmup     = time.Second
	maxLoadgenCPU  = 0.8
	fastKeys       = 1000
	classicCounter = 100
	classicPrivate = 16   // private keys per client, written round-robin
	classicValue   = 1024 // bytes per set
	classicReads   = 4
)

// runOpts is what the command line fixes for a workload run.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
}

// liveClient is one closed-loop caller and everything it observed.
type liveClient struct {
	idx     int
	gateway simnet.Region
	api     *httpapi.Client
	keys    *keyStream

	iters   []sample // successful loop iterations
	commits []sample // successful commits
	reads   []sample // successful reads
	// attempted/failed count operations: one per commit, one per read.
	attempted int
	failed    int
	// unknown counts commits whose outcome the client never learned
	// (error or timeout after submit): the sum checks allow for them.
	unknown   int
	lateStart time.Duration

	// committedAdds counts acknowledged +1s per key.
	committedAdds map[string]int64
	// lastValue is the last acknowledged value per private key.
	lastValue map[string][]byte
	block     []byte
	writes    uint64
}

// newLiveClient gives client idx one keep-alive connection to its gateway.
func newLiveClient(f *fleet, idx int, gw simnet.Region, seed int64) *liveClient {
	api := f.net.Client(gw)
	api.HTTP = &http.Client{
		Timeout: 2 * opTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
	return &liveClient{
		idx:           idx,
		gateway:       gw,
		api:           api,
		committedAdds: make(map[string]int64),
		lastValue:     make(map[string][]byte),
		block:         payloadBlock(classicValue, clientSeed(seed, idx)),
	}
}

// commit submits ops and waits for the final decision; the workloads are
// conflict-free, so anything but a commit is a failed operation.
func (c *liveClient) commit(ops []httpapi.Op) (time.Time, bool) {
	c.attempted++
	start := time.Now()
	st, err := c.api.SubmitAndWait(httpapi.SubmitRequest{Ops: ops}, opTimeout)
	end := time.Now()
	if err != nil {
		c.failed++
		c.unknown++
		return end, false
	}
	if !st.Committed {
		c.failed++
		return end, false
	}
	c.commits = append(c.commits, sample{end: end, dur: end.Sub(start)})
	return end, true
}

// read issues one local read at the client's gateway.
func (c *liveClient) read(key string) bool {
	c.attempted++
	start := time.Now()
	_, err := c.api.Read(key)
	end := time.Now()
	if err != nil {
		c.failed++
		return false
	}
	c.reads = append(c.reads, sample{end: end, dur: end.Sub(start)})
	return true
}

// addFastIter is one live_add_fast iteration: a one-key commutative add.
func addFastIter(c *liveClient) {
	key := c.keys.next()
	start := time.Now()
	end, ok := c.commit([]httpapi.Op{{Kind: "add", Key: key, Delta: 1}})
	if ok {
		c.committedAdds[key]++
		c.iters = append(c.iters, sample{end: end, dur: end.Sub(start)})
	}
}

// setClassicIter is one live_set_classic iteration: a two-option
// transaction (1 KiB set on a private key + add on a shared counter), then
// four local reads.
func setClassicIter(c *liveClient) {
	priv := keyName(fmt.Sprintf("priv%d-", c.idx), int(c.writes%classicPrivate))
	counter := c.keys.next()
	c.writes++
	val := stampPayload(c.block, c.writes)
	start := time.Now()
	_, ok := c.commit([]httpapi.Op{
		{Kind: "set", Key: priv, Value: val},
		{Kind: "add", Key: counter, Delta: 1},
	})
	if ok {
		c.committedAdds[counter]++
		c.lastValue[priv] = val
	}
	for i := 0; i < classicReads; i++ {
		key := c.keys.next()
		if i%2 == 1 {
			key = keyName(fmt.Sprintf("priv%d-", c.idx), c.keys.rng.Intn(classicPrivate))
		}
		ok = c.read(key) && ok
	}
	if ok {
		end := time.Now()
		c.iters = append(c.iters, sample{end: end, dur: end.Sub(start)})
	}
}

// liveSpec describes one live workload.
type liveSpec struct {
	name     string
	fleet    fleetConfig
	gateways []simnet.Region // where the clients connect, in client order
	prefix   string
	nkeys    int
	// private is the number of client-private keys each client writes.
	private int
	iter    func(*liveClient)
}

var liveSpecs = map[string]liveSpec{
	"live_add_fast": {
		name:     "live_add_fast",
		fleet:    fleetConfig{mode: "fast"},
		gateways: []simnet.Region{"us-west", "eu-west"},
		prefix:   "k-",
		nkeys:    fastKeys,
		iter:     addFastIter,
	},
	"live_set_classic": {
		name:     "live_set_classic",
		fleet:    fleetConfig{mode: "classic", master: "us-east"},
		gateways: []simnet.Region{"us-west", "eu-west"},
		prefix:   "ctr-",
		nkeys:    classicCounter,
		private:  classicPrivate,
		iter:     setClassicIter,
	},
}

// seedLive creates every key of the workload with one commit each, the
// clients splitting the key space between them. It runs under the set-up
// timer; the commits count towards the output check like any other.
func seedLive(spec liveSpec, clients []*liveClient) error {
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for _, c := range clients {
		wg.Add(1)
		go func(c *liveClient) {
			defer wg.Done()
			for i := c.idx; i < spec.nkeys; i += len(clients) {
				key := keyName(spec.prefix, i)
				if _, ok := c.commit([]httpapi.Op{{Kind: "add", Key: key, Delta: 1}}); !ok {
					errs[c.idx] = fmt.Errorf("benchmark: seeding %s through %s failed", key, c.gateway)
					return
				}
				c.committedAdds[key]++
			}
			for i := 0; i < spec.private; i++ {
				key := keyName(fmt.Sprintf("priv%d-", c.idx), i)
				val := stampPayload(c.block, 0)
				if _, ok := c.commit([]httpapi.Op{{Kind: "set", Key: key, Value: val}}); !ok {
					errs[c.idx] = fmt.Errorf("benchmark: seeding %s through %s failed", key, c.gateway)
					return
				}
				c.lastValue[key] = val
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Seeding is set-up, not measurement: start the timed run with clean
	// operation counters and no latency samples.
	for _, c := range clients {
		c.commits, c.attempted, c.failed = nil, 0, 0
	}
	return nil
}

// liveScrape is what the traced run reads from the fleet at one instant.
type liveScrape struct {
	prom     map[simnet.Region]promScrape
	usage    procUsage
	walBytes int64
}

func scrapeFleet(f *fleet) (liveScrape, error) {
	s := liveScrape{prom: make(map[simnet.Region]promScrape), usage: f.usage(), walBytes: f.walBytes()}
	for _, r := range f.net.Regions() {
		text, err := f.net.Client(r).Metrics()
		if err != nil {
			return s, fmt.Errorf("benchmark: scrape %s: %w", r, err)
		}
		s.prom[r] = parseProm(text)
	}
	return s, nil
}

// sumAll adds a counter over every node of the scrape.
func (s liveScrape) sumAll(name string, want map[string]string) float64 {
	var t float64
	for _, p := range s.prom {
		t += p.sum(name, want)
	}
	return t
}

// fleetRun is what one fleet of a run measured.
type fleetRun struct {
	timed                 phase
	iters, commits, reads windowStats
	attempted, failed     int
	late                  time.Duration
	cpuFrac               float64
	before, after         liveScrape
	violations            []string
	dead                  []simnet.Region
}

// measureFleet drives one seeded fleet for a warm-up plus liveWindows timed
// windows that add up to dur, then checks its outputs.
func measureFleet(f *fleet, spec liveSpec, clients []*liveClient, o runOpts, dur time.Duration) (*fleetRun, error) {
	win := dur / liveWindows
	release := make(chan struct{})
	var t0, stopAt time.Time
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *liveClient) {
			defer wg.Done()
			<-release
			c.lateStart = time.Since(t0)
			for time.Now().Before(stopAt) {
				spec.iter(c)
			}
		}(c)
	}
	t0 = time.Now()
	winStart := t0.Add(liveWarmup)
	stopAt = winStart.Add(liveWindows * win)
	close(release)

	// The generator's own processor time over the timed windows, and (traced
	// run only) the fleet's counters at the same two instants.
	fr := &fleetRun{timed: phase{winStart, stopAt}}
	var scrapeErr error
	time.Sleep(time.Until(winStart))
	cpu0, wall0 := selfCPU(), time.Now()
	if o.trace {
		fr.before, scrapeErr = scrapeFleet(f)
	}
	time.Sleep(time.Until(stopAt))
	cpu1, wall1 := selfCPU(), time.Now()
	if o.trace && scrapeErr == nil {
		fr.after, scrapeErr = scrapeFleet(f)
	}
	wg.Wait()
	if scrapeErr != nil {
		return nil, scrapeErr
	}
	fr.cpuFrac = float64(cpu1-cpu0) / float64(wall1.Sub(wall0))

	var iters, commits, reads []sample
	unknown := 0
	for _, c := range clients {
		iters = append(iters, c.iters...)
		commits = append(commits, c.commits...)
		reads = append(reads, c.reads...)
		fr.attempted += c.attempted
		fr.failed += c.failed
		unknown += c.unknown
		if c.lateStart > fr.late {
			fr.late = c.lateStart
		}
	}
	fr.iters = reduceWindows(iters, winStart, win, liveWindows)
	fr.commits = reduceWindows(commits, winStart, win, liveWindows)
	fr.reads = reduceWindows(reads, winStart, win, liveWindows)
	if len(fr.iters.ms) == 0 {
		return nil, fmt.Errorf("benchmark: %s completed no operation inside the timed windows", spec.name)
	}
	fr.dead = f.dead()
	fr.violations = checkLive(f, spec, clients, unknown)
	return fr, nil
}

// pooled merges the timed windows of every fleet of a run: operations per
// second over all the timed seconds, and every in-window latency, ascending.
func pooled(stats []windowStats, seconds float64) (rate float64, ms []float64) {
	n := 0
	for _, ws := range stats {
		for _, c := range ws.perWindow {
			n += c
		}
		ms = append(ms, ws.ms...)
	}
	sort.Float64s(ms)
	return float64(n) / seconds, ms
}

// runLive runs one live workload end to end. A run launches setupRounds
// fleets one after the other: each launch plus seeding is one set-up sample,
// and each of the first measuredFleets is measured for its share of the
// timed seconds (the others are stopped as soon as they are seeded). The run
// pools the timed windows of all its fleets: the rate is every operation
// over every timed second and the percentiles are over every latency, so
// they cover exactly the seconds the calibrator's stretch is taken from.
func runLive(e *env, spec liveSpec, o runOpts) (*result, error) {
	res := newResult(spec.name)
	if err := e.buildPlanetd(); err != nil {
		return nil, err
	}

	// At most nproc client goroutines, one connection each.
	nclients := len(spec.gateways)
	if n := runtime.NumCPU(); n < nclients {
		nclients = n
	}

	dur := time.Duration(o.seconds / measuredFleets * float64(time.Second))
	var runs []*fleetRun
	for i := 0; i < setupRounds; i++ {
		setupStart := time.Now()
		f, s, err := e.startFleet(spec.fleet, fmt.Sprintf("%s-%d", spec.name, i))
		if err != nil {
			return nil, err
		}
		seedStart := time.Now()
		clients := make([]*liveClient, nclients)
		for j := range clients {
			clients[j] = newLiveClient(f, j, spec.gateways[j], o.seed+int64(i))
			clients[j].keys = newKeyStream(spec.prefix, spec.nkeys, clientSeed(o.seed+int64(i), j))
		}
		if err := seedLive(spec, clients); err != nil {
			f.stop()
			return nil, err
		}
		res.addSetup(s+time.Since(seedStart).Seconds(), setupStart, time.Now())
		if i >= measuredFleets {
			f.stop()
			continue
		}
		fr, err := measureFleet(f, spec, clients, o, dur)
		f.stop()
		if err != nil {
			return nil, err
		}
		runs = append(runs, fr)
		res.timed = append(res.timed, fr.timed)
	}

	var iters, commits, reads []windowStats
	var cpuFracs []float64
	var late time.Duration
	var timedS float64
	for i, fr := range runs {
		timedS += fr.timed.to.Sub(fr.timed.from).Seconds()
		iters = append(iters, fr.iters)
		commits = append(commits, fr.commits)
		reads = append(reads, fr.reads)
		cpuFracs = append(cpuFracs, fr.cpuFrac)
		if fr.late > late {
			late = fr.late
		}
		res.attempted += fr.attempted
		res.failed += fr.failed + len(fr.violations)
		for _, v := range fr.violations {
			res.fail("fleet %d: %s", i+1, v)
		}
		if len(fr.dead) > 0 {
			res.fail("fleet %d: planetd died during the run: %v", i+1, fr.dead)
		}
		// A smoke run checks the plumbing, not the numbers (and under the
		// race detector the generator is several times slower than planetd).
		if fr.cpuFrac > maxLoadgenCPU && !o.smoke {
			res.fail("fleet %d: load generator used %.2f of a core (limit %.1f): the run measured the generator", i+1, fr.cpuFrac, maxLoadgenCPU)
		}
	}
	rate, ms := pooled(iters, timedS)
	cRate, cMs := pooled(commits, timedS)
	_, rMs := pooled(reads, timedS)

	res.e2e["ops_per_s"] = rate
	res.e2e["op_p50_ms"] = percentile(ms, 50)

	res.add("setup_s", median(res.setupS), "s", len(res.setupS))
	res.add("build_s", e.buildS, "s", 0)
	res.add("timed_s", timedS, "s", len(runs))
	res.add("commits_per_s", cRate, "1/s", len(cMs))
	res.add("commit_p50_ms", percentile(cMs, 50), "ms", len(cMs))
	res.add("commit_p99_ms", percentile(cMs, 99), "ms", len(cMs))
	if len(rMs) > 0 {
		res.add("read_p50_ms", percentile(rMs, 50), "ms", len(rMs))
		res.add("read_p99_ms", percentile(rMs, 99), "ms", len(rMs))
	}
	res.add("op_p99_ms", percentile(ms, 99), "ms", len(ms))
	for i, fr := range runs {
		res.add(fmt.Sprintf("fleet%d_commits_per_s", i+1), fr.commits.rate, "1/s", len(fr.commits.ms))
	}
	res.add("clients", float64(nclients), "count", 0)
	res.add("injected_net_delay_ms", 0, "ms", 0)
	res.add("loadgen.cpu_frac", median(cpuFracs), "ratio", 0)
	res.add("loadgen.late_start_ms", float64(late)/float64(time.Millisecond), "ms", 0)

	if o.trace {
		L := res.layers
		L["live.commits_per_s"] = cRate
		L["live.commit_p50_ms"] = percentile(cMs, 50)
		L["live.commit_p99_ms"] = percentile(cMs, 99)
		if len(rMs) > 0 {
			L["httpapi.read_p50_ms"] = percentile(rMs, 50)
			L["httpapi.read_p99_ms"] = percentile(rMs, 99)
		}
		L["loadgen.cpu_frac"] = median(cpuFracs)
		L["loadgen.late_start_ms"] = float64(late) / float64(time.Millisecond)
		L["build_s"] = e.buildS
		fillLiveLayers(L, runs)
	}
	return res, nil
}

// fillLiveLayers derives the per-layer numbers of a live run from the
// scrapes that bracket each fleet's timed windows: counters are summed over
// the fleets, latency histograms merged.
func fillLiveLayers(L map[string]float64, runs []*fleetRun) {
	delta := func(name string, want map[string]string) float64 {
		var t float64
		for _, fr := range runs {
			t += fr.after.sumAll(name, want) - fr.before.sumAll(name, want)
		}
		return t
	}
	histDelta := func(name string, want map[string]string) promHist {
		var all promHist
		for _, fr := range runs {
			for r, p := range fr.after.prom {
				all = mergeHist(all, p.hist(name, want).sub(fr.before.prom[r].hist(name, want)))
			}
		}
		return all
	}
	var cpuMs, walBytes float64
	for _, fr := range runs {
		cpuMs += fr.after.usage.cpuMs - fr.before.usage.cpuMs
		walBytes += float64(fr.after.walBytes - fr.before.walBytes)
		if fr.after.usage.peakRSSMB > L["planetd.peak_rss_mb"] {
			L["planetd.peak_rss_mb"] = fr.after.usage.peakRSSMB
		}
	}
	L["httpapi.server_p50_ms"] = 1000 * histDelta("planet_http_request_duration_seconds", map[string]string{"route": "/v1/txn/{id}"}).quantile(0.5)
	L["core.txn_p50_ms"] = 1000 * histDelta("planet_txn_duration_seconds", map[string]string{"outcome": "committed"}).quantile(0.5)
	L["mdcc.decision_p50_ms"] = 1000 * histDelta("planet_mdcc_decision_latency_seconds", nil).quantile(0.5)
	L["realnet.dropped"] = delta("planet_realnet_dropped_total", nil)
	L["realnet.reconnects"] = delta("planet_realnet_reconnects_total", nil)
	if commits := delta("planet_mdcc_decisions_total", map[string]string{"outcome": "commit"}); commits > 0 {
		L["mdcc.fallbacks_per_commit"] = delta("planet_mdcc_fallbacks_total", nil) / commits
		L["mdcc.timeouts_per_commit"] = delta("planet_mdcc_timeouts_total", nil) / commits
		L["realnet.msgs_per_commit"] = delta("planet_realnet_sent_total", nil) / commits
		L["planetd.cpu_ms_per_commit"] = cpuMs / commits
		L["mdcc.wal.file_bytes_per_commit"] = walBytes / commits
	}
}

// mergeHist adds two cumulative histograms over the union of their bounds.
func mergeHist(a, b promHist) promHist {
	seen := make(map[float64]bool)
	var le []float64
	for _, h := range []promHist{a, b} {
		for _, x := range h.le {
			if !seen[x] {
				seen[x] = true
				le = append(le, x)
			}
		}
	}
	out := promHist{le: sortedCopy(le)}
	out.cum = make([]float64, len(out.le))
	for i, x := range out.le {
		out.cum[i] = a.at(x) + b.at(x)
	}
	return out
}

// checkLive verifies the workload's outputs once the clients have stopped:
// replicas agree key by key, the values add up to the acknowledged commits,
// private values read back byte for byte, and the decision maps of the three
// nodes never disagree. unknown commits (outcome never learned) widen the
// sum check by that many.
func checkLive(f *fleet, spec liveSpec, clients []*liveClient, unknown int) []string {
	var bad []string
	regions := f.net.Regions()
	wantAdds := make(map[string]int64)
	var wantTotal int64
	for _, c := range clients {
		for k, n := range c.committedAdds {
			wantAdds[k] += n
			wantTotal += n
		}
	}

	// Decisions reach the non-coordinating replicas a beat after the
	// client's acknowledgement: poll until the three nodes agree.
	var values map[simnet.Region]map[string]int64
	deadline := time.Now().Add(10 * time.Second)
	for {
		values = make(map[simnet.Region]map[string]int64)
		var readErr error
		for _, r := range regions {
			values[r] = make(map[string]int64)
			cl := f.net.Client(r)
			for i := 0; i < spec.nkeys && readErr == nil; i++ {
				key := keyName(spec.prefix, i)
				resp, err := cl.Read(key)
				if err != nil {
					readErr = fmt.Errorf("read %s at %s: %w", key, r, err)
					break
				}
				values[r][key] = resp.Int
			}
		}
		if readErr != nil {
			return append(bad, readErr.Error())
		}
		if replicasAgree(values, regions) && (unknown > 0 || sumValues(values[regions[0]]) == wantTotal) {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	for i := 0; i < spec.nkeys; i++ {
		key := keyName(spec.prefix, i)
		v0 := values[regions[0]][key]
		for _, r := range regions[1:] {
			if values[r][key] != v0 {
				bad = append(bad, fmt.Sprintf("key %s: %s has %d, %s has %d", key, regions[0], v0, r, values[r][key]))
			}
		}
		if unknown == 0 && v0 != wantAdds[key] {
			bad = append(bad, fmt.Sprintf("key %s: value %d, acknowledged adds %d", key, v0, wantAdds[key]))
		}
	}
	if got := sumValues(values[regions[0]]); got < wantTotal || got > wantTotal+int64(unknown) {
		bad = append(bad, fmt.Sprintf("values sum to %d, acknowledged adds %d (+%d unknown)", got, wantTotal, unknown))
	}

	// Every client's last acknowledged private value, on every node.
	for _, c := range clients {
		for key, want := range c.lastValue {
			for _, r := range regions {
				resp, err := f.net.Client(r).Read(key)
				if err != nil || !resp.Found || !bytes.Equal(resp.Bytes, want) {
					bad = append(bad, fmt.Sprintf("key %s at %s: last acknowledged value not readable (err=%v found=%v)", key, r, err, resp.Found))
				}
			}
		}
	}

	// Decision maps agree pairwise.
	decisions := make(map[simnet.Region]map[string]bool)
	for _, r := range regions {
		d, err := fetchDecisions(f.net.Client(r).Base)
		if err != nil {
			return append(bad, fmt.Sprintf("decisions at %s: %v", r, err))
		}
		decisions[r] = d
	}
	for i, a := range regions {
		for _, b := range regions[i+1:] {
			for id, va := range decisions[a] {
				if vb, ok := decisions[b][id]; ok && va != vb {
					bad = append(bad, fmt.Sprintf("dual decision on %s: %s=%v %s=%v", id, a, va, b, vb))
				}
			}
		}
	}
	if len(bad) > 20 {
		bad = append(bad[:20], fmt.Sprintf("... and %d more", len(bad)-20))
	}
	return bad
}

func replicasAgree(values map[simnet.Region]map[string]int64, regions []simnet.Region) bool {
	for _, r := range regions[1:] {
		for k, v := range values[regions[0]] {
			if values[r][k] != v {
				return false
			}
		}
	}
	return true
}

func sumValues(m map[string]int64) int64 {
	var t int64
	for _, v := range m {
		t += v
	}
	return t
}

// fetchDecisions reads /v1/net/decisions without httpapi.Client's 1 MiB
// response cap: a timed run retains tens of thousands of verdicts.
func fetchDecisions(base string) (map[string]bool, error) {
	resp, err := http.Get(base + "/v1/net/decisions")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	var out httpapi.NetDecisionsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Decisions, nil
}
