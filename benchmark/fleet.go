package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"planet/internal/multinet"
	"planet/internal/simnet"
)

// env is what one invocation of the benchmark owns on disk: a private temp
// directory inside the checkout (the benchmark writes nowhere else) and the
// planetd binary built into it.
type env struct {
	root    string // repository root: the directory holding cmd/planetd
	tmp     string
	planetd string
	buildS  float64

	mu       sync.Mutex
	cleanups []func()
}

// findRoot locates the repository root from the working directory: the
// contract runs the benchmark from the checkout root, `go run -C benchmark .`
// runs it from benchmark/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", fmt.Errorf("benchmark: working directory: %w", err)
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "planetd", "main.go")); err == nil && !st.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("benchmark: no cmd/planetd next to or above %s: run from the repository root", wd)
}

// newEnv creates the temp directory and arranges for it, and for every fleet
// registered later, to be torn down on exit and on SIGINT/SIGTERM.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, fmt.Errorf("benchmark: temp base: %w", err)
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, fmt.Errorf("benchmark: temp dir: %w", err)
	}
	e := &env{root: root, tmp: tmp}
	e.onExit(func() { os.RemoveAll(tmp) })

	// On SIGINT/SIGTERM tear down and exit; on a normal close stop watching.
	sig := make(chan os.Signal, 1)
	closed := make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	e.onExit(func() {
		signal.Stop(sig)
		close(closed)
	})
	go func() {
		select {
		case <-sig:
			e.close()
			os.Exit(130)
		case <-closed:
		}
	}()
	return e, nil
}

// onExit registers a teardown step; steps run last-registered first.
func (e *env) onExit(f func()) {
	e.mu.Lock()
	e.cleanups = append(e.cleanups, f)
	e.mu.Unlock()
}

// close runs every teardown step once.
func (e *env) close() {
	e.mu.Lock()
	steps := e.cleanups
	e.cleanups = nil
	e.mu.Unlock()
	for i := len(steps) - 1; i >= 0; i-- {
		steps[i]()
	}
}

// buildPlanetd builds cmd/planetd once per invocation into the temp dir.
// Its time is reported as build_s, apart from setup_s.
func (e *env) buildPlanetd() error {
	if e.planetd != "" {
		return nil
	}
	out := filepath.Join(e.tmp, "planetd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", out, "./cmd/planetd")
	cmd.Dir = e.root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("benchmark: build planetd: %w\n%s", err, stderr.String())
	}
	e.buildS = time.Since(start).Seconds()
	e.planetd = out
	return nil
}

// fleet is a live three-process planetd deployment on loopback.
type fleet struct {
	net  *multinet.Network
	dir  string
	pids map[simnet.Region]int
}

// fleetConfig selects the commit path of a fleet.
type fleetConfig struct {
	mode   string        // "fast" or "classic"
	master simnet.Region // pins every key's master; empty keeps hash mastership
}

// startFleet launches the fleet and returns once every gateway serves reads
// and every node sees both peers up; the elapsed time is one set-up sample.
func (e *env) startFleet(fc fleetConfig, name string) (*fleet, float64, error) {
	dir := filepath.Join(e.tmp, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("benchmark: fleet dir: %w", err)
	}
	start := time.Now()
	nw, err := multinet.Start(multinet.Config{
		Binary:       e.planetd,
		BaseDir:      dir,
		Mode:         fc.mode,
		MasterRegion: fc.master,
	})
	if err != nil {
		return nil, 0, err
	}
	f := &fleet{net: nw, dir: dir}
	e.onExit(f.stop)
	for _, a := range nw.Regions() {
		for _, b := range nw.Regions() {
			if a == b {
				continue
			}
			if err := nw.WaitPeerState(a, b, "up", 10*time.Second); err != nil {
				f.stop()
				return nil, 0, err
			}
		}
	}
	setup := time.Since(start).Seconds()
	if f.pids, err = childPIDs("planetd"); err != nil || len(f.pids) != len(nw.Regions()) {
		f.stop()
		return nil, 0, fmt.Errorf("benchmark: found planetd pids %v for %d regions: %v", f.pids, len(nw.Regions()), err)
	}
	return f, setup, nil
}

// stop kills every node (SIGKILL: nothing of the fleet is kept) and removes
// its data. It is safe to call twice.
func (f *fleet) stop() {
	f.net.Close()
	os.RemoveAll(f.dir)
	f.pids = nil
}

// dead reports the regions whose process is gone or a zombie.
func (f *fleet) dead() []simnet.Region {
	var out []simnet.Region
	for r, pid := range f.pids {
		st, err := readProcStat(pid)
		if err != nil || st.state == 'Z' || st.state == 'X' {
			out = append(out, r)
		}
	}
	return out
}

// walBytes sums the size of every WAL file the fleet has written.
func (f *fleet) walBytes() int64 {
	var total int64
	matches, _ := filepath.Glob(filepath.Join(f.dir, "*", "wal-*.jsonl"))
	for _, m := range matches {
		if st, err := os.Stat(m); err == nil {
			total += st.Size()
		}
	}
	return total
}

// procUsage is the summed processor time and peak memory of the fleet.
type procUsage struct {
	cpuMs     float64
	peakRSSMB float64
}

func (f *fleet) usage() procUsage {
	var u procUsage
	for _, pid := range f.pids {
		if st, err := readProcStat(pid); err == nil {
			u.cpuMs += st.cpuMs
		}
		if hwm, err := readVmHWM(pid); err == nil && hwm > u.peakRSSMB {
			u.peakRSSMB = hwm
		}
	}
	return u
}

// procStat is the slice of /proc/<pid>/stat the benchmark reads.
type procStat struct {
	comm  string
	state byte
	ppid  int
	cpuMs float64 // utime+stime
}

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat. Linux
// has fixed it at 100 for user space on every architecture Go supports.
const clockTick = 100

// parseProcStat parses one /proc/<pid>/stat line. The command name sits in
// parentheses and may itself contain spaces or parentheses, so fields are
// counted from the last ')'.
func parseProcStat(line string) (procStat, error) {
	open, close := strings.IndexByte(line, '('), strings.LastIndexByte(line, ')')
	if open < 0 || close < open {
		return procStat{}, fmt.Errorf("benchmark: malformed stat line %q", line)
	}
	rest := strings.Fields(line[close+1:])
	// rest[0]=state, [1]=ppid, ... utime and stime are fields 14 and 15 of
	// the whole line, i.e. rest[11] and rest[12].
	if len(rest) < 13 {
		return procStat{}, fmt.Errorf("benchmark: short stat line %q", line)
	}
	ppid, err := strconv.Atoi(rest[1])
	if err != nil {
		return procStat{}, fmt.Errorf("benchmark: stat ppid: %w", err)
	}
	ut, err1 := strconv.ParseFloat(rest[11], 64)
	st, err2 := strconv.ParseFloat(rest[12], 64)
	if err1 != nil || err2 != nil {
		return procStat{}, fmt.Errorf("benchmark: stat times in %q", line)
	}
	return procStat{
		comm:  line[open+1 : close],
		state: rest[0][0],
		ppid:  ppid,
		cpuMs: (ut + st) * 1000 / clockTick,
	}, nil
}

func readProcStat(pid int) (procStat, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	return parseProcStat(string(b))
}

// readVmHWM returns the process's peak resident set in MiB.
func readVmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("benchmark: no VmHWM for pid %d", pid)
}

// childPIDs finds this process's live children called comm and keys them by
// the -region argument on their command line. multinet does not export the
// pids of the nodes it starts; /proc does.
func childPIDs(comm string) (map[simnet.Region]int, error) {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	self := os.Getpid()
	out := make(map[simnet.Region]int)
	for _, ent := range ents {
		pid, err := strconv.Atoi(ent.Name())
		if err != nil {
			continue
		}
		st, err := readProcStat(pid)
		if err != nil || st.ppid != self || st.comm != comm || st.state == 'Z' {
			continue
		}
		cmdline, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
		if err != nil {
			continue
		}
		args := strings.Split(string(cmdline), "\x00")
		for i, a := range args {
			if a == "-region" && i+1 < len(args) {
				out[simnet.Region(args[i+1])] = pid
			}
		}
	}
	return out, nil
}

// selfCPU returns the processor time this process has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
