package mdcc

import (
	"cmp"
	"fmt"
	"hash"
	"hash/fnv"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"planet/internal/simnet"
	"planet/internal/txn"
	"planet/internal/vclock"
)

// A step is a function of the actor's state and its input: two copies of
// an actor in the same state, given the same input, emit equal output
// lists. Each script below builds its actors through the same inputs on a
// fresh stepNet; TestDoubleStep runs every script on two nets and requires
// equal transcripts, step by step. Between them the scripts feed every
// input kind the step tests build, the start input with and without
// leases, a coordinator crash with six transactions in flight, and a
// replica crash and restore with several keyspaces: the two steps that
// emit one output per map entry. Every step's transcript ends with a digest
// of the stepped actor's state.

// flood delivers st's wire messages and everything they cause, breadth
// first, dropping messages to drop's replica.
func (n *stepNet) flood(st stepped, drop simnet.Region) {
	for next := []stepped{st}; len(next) > 0; {
		var out []stepped
		for _, s := range next {
			var kept []sent
			for _, w := range s.wire {
				if w.to.Region != drop || w.to == n.coord.cfg.Addr {
					kept = append(kept, w)
				}
			}
			out = append(out, n.deliver(stepped{wire: kept})...)
		}
		next = out
	}
}

// multiLeaseNet is newStepNet with leases on three keyspaces, one per
// region, and every replica's lease views fed to the coordinator and
// recorded for the transcript. Its actors are not started.
func multiLeaseNet() *stepNet {
	return buildStepNet(func(n *stepNet) *LeaseConfig {
		return &LeaseConfig{Term: 3 * time.Second, Keyspaces: stepRegions,
			KeyspaceOf: func(k string) simnet.Region { return simnet.Region(k[:1]) },
			OnView: func(ks, holder simnet.Region, seq uint64) {
				n.calls = append(n.calls, fmt.Sprintf("view %s=%s #%d", ks, holder, seq))
				n.run(n.coord, leaseView{ks, holder, seq})
			}}
	})
}

// digest hashes the replica's state (stateDigest).
func (r *Replica) digest() uint64 { return stateDigest(r) }

// digest hashes the coordinator's state (stateDigest).
func (c *Coordinator) digest() uint64 { return stateDigest(c) }

// stateDigest hashes the actor p points to: every field, walked in
// declaration order, maps in sorted key order, pointers followed at their
// first visit. A step writes no configuration and locks nothing. Pointers
// into other packages (the transport, the clock, the span store, a
// waiter's event), the WAL exec appends to and the running step's buffer
// count only as set or unset.
func stateDigest(p any) uint64 {
	d := digester{Hash64: fnv.New64a(), seen: make(map[uintptr]int)}
	d.walk(reflect.ValueOf(p))
	return d.Sum64()
}

var (
	digestSkip = map[reflect.Type]bool{
		reflect.TypeFor[sync.Mutex](): true, reflect.TypeFor[sync.RWMutex](): true,
		reflect.TypeFor[ReplicaConfig](): true, reflect.TypeFor[CoordinatorConfig](): true,
	}
	digestSetOnly = map[reflect.Type]bool{reflect.TypeFor[*WAL](): true, reflect.TypeFor[*outBuf](): true}
)

type digester struct {
	hash.Hash64
	seen map[uintptr]int // pointers walked, numbered in walk order
}

func (d *digester) put(s string) { fmt.Fprintf(d, "%d:%s", len(s), s) }

func (d *digester) walk(v reflect.Value) {
	t := v.Type()
	if digestSkip[t] {
		return
	}
	if digestSetOnly[t] || t.Kind() == reflect.Func || t.Kind() == reflect.Chan ||
		t.Kind() == reflect.Pointer && !slices.Contains([]string{"", "planet/internal/mdcc", "planet/internal/txn"}, t.Elem().PkgPath()) {
		d.put(strconv.FormatBool(!v.IsNil()))
		return
	}
	switch t.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			d.put("nil")
			return
		}
		if n, ok := d.seen[v.Pointer()]; ok {
			d.put("@" + strconv.Itoa(n))
			return
		}
		d.seen[v.Pointer()] = len(d.seen)
		d.walk(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			d.put("nil")
			return
		}
		d.put(v.Elem().Type().String())
		d.walk(v.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			d.walk(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		d.put(strconv.Itoa(v.Len()))
		for i := range v.Len() {
			d.walk(v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int {
			switch a.Kind() {
			case reflect.String:
				return strings.Compare(a.String(), b.String())
			case reflect.Uint64:
				return cmp.Compare(a.Uint(), b.Uint())
			}
			panic("stateDigest: map key of kind " + a.Kind().String())
		})
		d.put(strconv.Itoa(len(keys)))
		for _, k := range keys {
			d.walk(k)
			d.walk(v.MapIndex(k))
		}
	case reflect.String:
		d.put(v.String())
	case reflect.Bool:
		d.put(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.put(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.put(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		d.put(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	default:
		panic("stateDigest: field of kind " + t.Kind().String())
	}
}

// doubleStepScripts name each script and the net it runs on.
var doubleStepScripts = []struct {
	name   string
	net    func() *stepNet
	script func(n *stepNet)
}{
	{"fast commit", newStepNet, func(n *stepNet) {
		n.flood(n.run(n.coord, submitInput(1, ModeFast, "k", "j")), "")
	}},
	{"classic round", newStepNet, func(n *stepNet) {
		n.flood(n.run(n.coord, submitInput(2, ModeClassic, "k", "j")), "")
	}},
	{"timeout", newStepNet, func(n *stepNet) {
		n.flood(n.run(n.coord, submitInput(3, ModeFast, "k")), "c")
		n.now = n.now.Add(time.Second)
		n.flood(n.run(n.coord, timeout{3}), "")
	}},
	{"quorum read", newStepNet, func(n *stepNet) {
		n.flood(n.run(n.coord, &quorumRead{key: "k", w: &readWaiter{need: 2, done: vclock.Real{}.NewEvent()}}), "")
	}},
	{"detector", newStepNet, func(n *stepNet) {
		n.flood(n.run(n.coord, submitInput(4, ModeFast, "k")), "c")
		n.now = n.now.Add(time.Second)
		n.flood(n.run(n.coord, &peerView{}), "")
		n.flood(n.run(n.coord, submitInput(5, ModeFast, "j")), "")
	}},
	{"coordinator crash with six in flight", newStepNet, func(n *stepNet) {
		for id := txn.ID(1); id <= 6; id++ {
			n.run(n.coord, submitInput(id, ModeFast, fmt.Sprint("k", id)))
		}
		n.run(n.coord, crash{})
		n.run(n.coord, start{})
	}},
	{"start", func() *stepNet { return buildStepNet(nil) }, func(n *stepNet) {
		n.start()
		n.flood(n.run(n.coord, submitInput(7, ModeFast, "k")), "")
	}},
	{"start with leases", multiLeaseNet, func(n *stepNet) {
		n.start()
		for _, r := range n.reps {
			n.flood(n.run(r, leaseTick{}), "")
		}
	}},
	{"leases, replica crash and restore", func() *stepNet { return multiLeaseNet().start() }, func(n *stepNet) {
		for _, r := range n.reps {
			n.flood(n.run(r, leaseTick{}), "")
		}
		n.flood(n.run(n.coord, submitInput(6, ModeClassic, "a1", "b1", "c1")), "")
		c := n.reps[2]
		n.run(c, crash{})
		var entries []Entry
		for _, ks := range stepRegions {
			entries = append(entries, Entry{Lease: &LeaseRecord{Keyspace: string(ks), Epoch: 1, Holder: string(ks)}})
		}
		n.run(c, restore{entries})
		n.now = n.now.Add(time.Second)
		for _, r := range n.reps {
			n.flood(n.run(r, leaseTick{}), "")
		}
		n.run(c, closeReplica{})
	}},
}

// TestDoubleStep runs every script on two fresh nets, ten times, and
// requires equal transcripts: equal outputs and, after every step, equal
// state digests.
func TestDoubleStep(t *testing.T) {
	for _, sc := range doubleStepScripts {
		t.Run(sc.name, func(t *testing.T) {
			for i := 0; i < 10; i++ {
				n1, n2 := sc.net(), sc.net()
				sc.script(n1)
				sc.script(n2)
				if len(n1.log) == 0 {
					t.Fatal("the script stepped nothing")
				}
				for j := 0; j < len(n1.log) || j < len(n2.log); j++ {
					var l1, l2 string
					if j < len(n1.log) {
						l1 = n1.log[j]
					}
					if j < len(n2.log) {
						l2 = n2.log[j]
					}
					if l1 != l2 {
						t.Fatalf("run %d: transcripts part at line %d:\n\t%s\n\t%s", i, j, l1, l2)
					}
				}
			}
		})
	}
}

// TestStateDigest: two copies in the same state digest equal, a step that
// writes state tells them apart, and the same step at the other copy makes
// them equal again; that holds for a replica's decide (records, memo,
// stats) and a coordinator's submit (the active map, the detector).
func TestStateDigest(t *testing.T) {
	n1, n2 := newStepNet(), newStepNet()
	check := func(what string, a, b stepActor, equal bool) {
		t.Helper()
		if (a.digest() == b.digest()) != equal {
			t.Errorf("%s: digests equal = %v, want %v", what, !equal, equal)
		}
	}
	check("fresh replicas", n1.reps[0], n2.reps[0], true)
	decide := decideMsg{Txn: 1, Commit: true, Options: []txn.Op{setOp("k", 0)}}
	n1.run(n1.reps[0], decide)
	check("one replica decided", n1.reps[0], n2.reps[0], false)
	n2.run(n2.reps[0], decide)
	check("both decided", n1.reps[0], n2.reps[0], true)

	check("fresh coordinators", n1.coord, n2.coord, true)
	n1.run(n1.coord, submitInput(2, ModeFast, "k", "j"))
	check("one coordinator submitted", n1.coord, n2.coord, false)
	n2.run(n2.coord, submitInput(2, ModeFast, "k", "j"))
	check("both submitted", n1.coord, n2.coord, true)
}
