package mdcc

import (
	"fmt"
	"time"

	"planet/internal/simnet"
	"planet/internal/vclock"
)

// A replica that was partitioned misses the decide messages broadcast while
// it was unreachable, leaving it permanently stale on the affected keys
// (decides are fire-and-forget). SyncFrom is the anti-entropy repair: pull
// a peer's committed snapshot and adopt any record with a higher version.
//
// Adopting committed state wholesale is safe: every snapshot entry is
// decided state from a replica that applied it, versions are per-key write
// counters identical across replicas for the same write history, and a
// higher version strictly extends the local history (two histories of the
// same key cannot diverge — conflicting options never both commit).
// Pending options are untouched; in-flight transactions keep their votes.

// wire messages for anti-entropy.
type syncReq struct {
	ReqID uint64
	From  simnet.Addr
}

type syncResp struct {
	ReqID   uint64
	Records map[string]Value
}

// syncWaiter holds the rendezvous for one SyncFrom call. resp is written
// once, inside a step, before done fires.
type syncWaiter struct {
	done *vclock.Event
	resp syncResp
	ok   bool
}

// syncCall is one of SyncFrom's two inputs. The first registers w under a
// fresh id and sends the request to peer. The second (retire) drops request
// id and, when w is set — the response arrived in time — adopts its
// snapshot.
type syncCall struct {
	peer     simnet.Addr
	w        *syncWaiter
	id       uint64
	retire   bool
	repaired int
}

// SyncFrom pulls peer's committed snapshot and applies every record whose
// version exceeds the local one. It blocks up to timeout (emulator time)
// and returns the number of records repaired.
func (r *Replica) SyncFrom(peer simnet.Addr, timeout time.Duration) (int, error) {
	c := syncCall{peer: peer, w: &syncWaiter{done: r.clk.NewEvent()}}
	r.exec("", &c)
	ok := c.w.done.WaitTimeout(timeout)
	c.retire = true
	if !ok {
		c.w = nil // the response, if any, came too late
	}
	r.exec("", &c)
	if !ok {
		return 0, fmt.Errorf("mdcc: sync from %s: %w", peer, ErrTimeout)
	}
	return c.repaired, nil
}

func (r *Replica) syncCall(c *syncCall) {
	if c.retire {
		delete(r.syncs, c.id)
		if c.w != nil {
			c.repaired = r.applySnapshot(c.w.resp.Records)
		}
		return
	}
	if r.syncs == nil {
		r.syncs = make(map[uint64]*syncWaiter)
	}
	r.syncSeq++
	c.id = r.syncSeq
	r.syncs[c.id] = c.w
	r.out.send(c.peer, syncReq{ReqID: c.id, From: r.cfg.Addr})
}

// applySnapshot adopts fresher committed records. A donor value at version 0
// is never fresher, so it builds no record.
func (r *Replica) applySnapshot(records map[string]Value) int {
	repaired := 0
	for key, v := range records { // order-free: each key is adopted alone; repaired counts
		if v.Version == 0 {
			continue
		}
		rc := r.acquire(key)
		if v.Version > rc.version {
			rc.version = v.Version
			rc.isInt = v.IsInt
			rc.ival = v.Int
			// Adopt the donor's slice directly: snapshot values are
			// immutable views (see record.value), never written in place
			// by either side.
			rc.bytes = v.Bytes
			repaired++
		}
	}
	return repaired
}

// onSyncResp routes the snapshot to its waiter.
func (r *Replica) onSyncResp(resp syncResp) {
	w := r.syncs[resp.ReqID]
	if w == nil || w.ok {
		return
	}
	w.resp = resp
	w.ok = true
	r.out.add(output{kind: outCall, fn: w.done.Fire})
}
