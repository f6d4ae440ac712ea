package mdcc

import (
	"fmt"
	"sync/atomic"
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

var syncSeq atomic.Uint64

// syncWaiter holds the rendezvous for one SyncFrom call. resp is written
// once under r.mu before done fires.
type syncWaiter struct {
	done *vclock.Event
	resp syncResp
	ok   bool
}

// SyncFrom pulls peer's committed snapshot and applies every record whose
// version exceeds the local one. It blocks up to timeout (emulator time)
// and returns the number of records repaired.
func (r *Replica) SyncFrom(peer simnet.Addr, timeout time.Duration) (int, error) {
	id := syncSeq.Add(1)
	w := &syncWaiter{done: r.clk.NewEvent()}

	r.mu.Lock()
	if r.syncs == nil {
		r.syncs = make(map[uint64]*syncWaiter)
	}
	r.syncs[id] = w
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.syncs, id)
		r.mu.Unlock()
	}()

	r.send(peer, syncReq{ReqID: id, From: r.cfg.Addr})

	if !w.done.WaitTimeout(timeout) {
		return 0, fmt.Errorf("mdcc: sync from %s: %w", peer, ErrTimeout)
	}
	r.mu.Lock()
	resp := w.resp
	r.mu.Unlock()
	return r.applySnapshot(resp.Records), nil
}

// applySnapshot adopts fresher committed records. A donor value at version 0
// is never fresher, so it builds no record.
func (r *Replica) applySnapshot(records map[string]Value) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	repaired := 0
	for key, v := range records {
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

// onSyncReq is the donor side: snapshot committed state and reply.
func (r *Replica) onSyncReq(q syncReq) {
	r.mu.Lock()
	snapshot := r.snapshotLocked()
	r.mu.Unlock()
	r.send(q.From, syncResp{ReqID: q.ReqID, Records: snapshot})
}

// onSyncResp routes the snapshot to its waiter.
func (r *Replica) onSyncResp(resp syncResp) {
	r.mu.Lock()
	w := r.syncs[resp.ReqID]
	if w == nil || w.ok {
		r.mu.Unlock()
		return
	}
	w.resp = resp
	w.ok = true
	r.mu.Unlock()
	w.done.Fire()
}
