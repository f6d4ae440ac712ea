package mdcc

import (
	"planet/internal/simnet"
	"planet/internal/vclock"
)

// Transport is the messaging substrate the commit protocol runs on. Two
// implementations exist: simnet.Network, the deterministic in-process WAN
// emulator every test and experiment defaults to, and realnet.Transport,
// which speaks the same message set over real TCP between planetd
// processes (internal/realnet).
//
// Semantics the protocol relies on, and which every implementation must
// provide:
//
//   - Sends are asynchronous and never block on delivery. A handler may
//     send from within a delivery callback without deadlocking, even when
//     the destination is co-located with the sender.
//   - Delivery is at-most-once and unordered; messages may be dropped
//     (losses, partitions, unreachable or deregistered destinations). The
//     protocol is built on idempotence and retry, never on reliability of
//     a single message.
//   - Register replaces any existing handler for the address; Deregister
//     drops in-flight deliveries to it (a dead process receives nothing).
//   - SendBatch delivers its payloads back to back in order, as one wire
//     message (one loss draw on simnet, one TCP frame on realnet).
type Transport interface {
	// Send schedules one payload for delivery from → to.
	Send(from, to simnet.Addr, payload any)
	// SendBatch schedules payloads for delivery from → to as one wire
	// message. An empty batch is a no-op.
	SendBatch(from, to simnet.Addr, payloads []any)
	// Register installs the handler for addr, replacing any previous one.
	Register(addr simnet.Addr, h simnet.Handler)
	// Deregister removes addr from the network.
	Deregister(addr simnet.Addr)
	// Clock is the time source shared by every layer above the transport.
	Clock() vclock.Clock
	// ClockFor returns Clock() for every region. Nothing in the stack calls
	// it; it stays because the benchmark's transport decorator forwards it.
	ClockFor(r simnet.Region) vclock.Clock
}
