package realnet

import "planet/internal/simnet"

// PeerState reports the health of one region's link. The local region (and
// any region without a configured peer) is always PeerUp.
func (t *Transport) PeerState(region simnet.Region) PeerState {
	p, ok := t.peerFor(region)
	if !ok {
		return PeerUp
	}
	return p.stateVal()
}
