package mdcc

import (
	"fmt"
	"time"

	"planet/internal/simnet"
	"planet/internal/vclock"
)

// PLANET serves reads from the client's local replica — fast, but a read
// can miss a commit whose decide message is still in flight. Quorum reads
// are the stronger alternative this file provides: ask every replica,
// wait for a majority, and return the freshest (highest-version) value
// seen. Any committed write is applied at a majority-overlapping set of
// replicas once its decide propagates, so a quorum read observes every
// write that was committed and fully propagated before the read began,
// at the price of one wide-area round trip.

// wire messages for reads. A readReq with ReqID 0 and no key is the failure
// detector's probe (detector.go): its answer matches no waiter.
type readReq struct {
	ReqID uint64
	Key   string
	From  simnet.Addr
}

type readResp struct {
	ReqID  uint64
	Key    string
	Found  bool
	Value  Value
	Region simnet.Region
}

// readWaiter collects responses for one quorum read.
type readWaiter struct {
	need    int
	got     int
	found   bool
	best    Value
	done    *vclock.Event
	settled bool
}

// quorumRead is one of QuorumRead's two inputs. The first registers w under
// a fresh id and asks every replica for key. The second (retire) drops the
// request and reads w's result.
type quorumRead struct {
	key    string
	w      *readWaiter
	id     uint64
	retire bool
	// The result, set by the retiring step.
	settled bool
	value   Value
	found   bool
}

// QuorumRead reads key from a majority of replicas and returns the value
// with the highest version among the responses. It blocks up to timeout
// (emulator time). found reports whether any responding replica had the
// key.
func (c *Coordinator) QuorumRead(key string, timeout time.Duration) (value Value, found bool, err error) {
	w := &readWaiter{need: ClassicQuorum(len(c.cfg.Replicas)), done: c.clk.NewEvent()}
	q := quorumRead{key: key, w: w}
	c.exec("", &q)
	fired := w.done.WaitTimeout(timeout)
	q.retire = true
	c.exec("", &q)
	if !fired && !q.settled {
		return Value{}, false, fmt.Errorf("mdcc: quorum read of %q: %w", key, ErrTimeout)
	}
	return q.value, q.found, nil
}

// quorumRead registers or retires a quorum read.
func (c *Coordinator) quorumRead(now time.Time, q *quorumRead) {
	if q.retire {
		delete(c.reads, q.id)
		q.settled, q.value, q.found = q.w.settled, q.w.best, q.w.found
		return
	}
	if c.reads == nil {
		c.reads = make(map[uint64]*readWaiter)
	}
	c.readSeq++
	q.id = c.readSeq
	c.reads[q.id] = q.w
	for i, rep := range c.cfg.Replicas {
		c.expect(now, i)
		c.out.send(rep, readReq{ReqID: q.id, Key: q.key, From: c.cfg.Addr})
	}
}

// onReadResp accumulates one replica's answer.
func (c *Coordinator) onReadResp(r readResp) {
	w := c.reads[r.ReqID]
	if w == nil || w.settled {
		return
	}
	w.got++
	if r.Found {
		if !w.found || r.Value.Version > w.best.Version {
			w.best = r.Value
		}
		w.found = true
	}
	if w.got >= w.need {
		w.settled = true
		c.out.add(output{kind: outCall, fn: w.done.Fire})
	}
}
