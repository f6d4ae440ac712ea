package vclock

import "time"

// Virtual is the serialized virtual clock: the sole partition of a
// one-partition World. With no peers its horizon is unbounded, so what is
// left of the scheduler is the FIFO run queue and the (deadline, insertion)
// timer order described in the package comment.
type Virtual = Partition

// NewVirtual returns a running serialized virtual clock whose time starts
// at the fixed epoch. The caller holds the execution slot; Shutdown on the
// returned clock stops it.
func NewVirtual() *Virtual {
	return newWorld([]string{"virtual"}, [][]time.Duration{{0}}).parts[0]
}
