package realnet

import (
	"encoding/binary"
	"fmt"

	"planet/internal/simnet"
)

// Wire framing: every TCP segment boundary is invisible to the protocol, so
// messages travel in self-delimiting frames:
//
//	u32 (big endian)  body length
//	body:
//	  addr   from     (uvarint-prefixed region, uvarint-prefixed name)
//	  addr   to
//	  uvarint count   number of payloads
//	  count × (uvarint length, codec-encoded payload)
//
// One frame corresponds to one Transport.Send or SendBatch call, preserving
// simnet's batching semantics: the payloads of one frame are handed to the
// destination handler back to back, in order. Any parse failure — truncated
// body, over-limit length, codec error, trailing bytes — condemns the whole
// connection: framing state is unrecoverable once desynced, and reconnect is
// cheap (see readLoop).

// frameHeaderLen is the byte length of the frame length prefix.
const frameHeaderLen = 4

// maxAddrString bounds region and name lengths inside a frame.
const maxAddrString = 1 << 12

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendAddr(dst []byte, a simnet.Addr) []byte {
	dst = appendString(dst, string(a.Region))
	return appendString(dst, a.Name)
}

// encodeFrame renders one send (from → to, one or more payloads) as a
// length-prefixed frame ready to write to a socket. Each payload is encoded
// in place, straight after a one-byte length slot that is widened when the
// payload turns out to need a longer length.
func (t *Transport) encodeFrame(from, to simnet.Addr, payloads []any) ([]byte, error) {
	buf := make([]byte, frameHeaderLen, 128)
	buf = appendAddr(buf, from)
	buf = appendAddr(buf, to)
	buf = binary.AppendUvarint(buf, uint64(len(payloads)))
	for _, p := range payloads {
		slot := len(buf)
		var err error
		if buf, err = t.cfg.Codec.Append(append(buf, 0), p); err != nil {
			return nil, fmt.Errorf("realnet: encode payload: %w", err)
		}
		buf = fillLength(buf, slot)
	}
	body := len(buf) - frameHeaderLen
	if body > t.cfg.MaxFrame {
		return nil, fmt.Errorf("realnet: frame body %d exceeds MaxFrame %d", body, t.cfg.MaxFrame)
	}
	binary.BigEndian.PutUint32(buf[:frameHeaderLen], uint32(body))
	return buf, nil
}

// fillLength writes the uvarint length of buf[slot+1:] into the one-byte
// slot at buf[slot], shifting those bytes right when the length needs more
// than one byte.
func fillLength(buf []byte, slot int) []byte {
	n := uint64(len(buf) - slot - 1)
	if n < 0x80 {
		buf[slot] = byte(n)
		return buf
	}
	var length [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(length[:], n)
	end := len(buf)
	buf = append(buf, length[1:w]...)
	copy(buf[slot+w:], buf[slot+1:end])
	copy(buf[slot:], length[:w])
	return buf
}

// frameReader is an error-latching cursor over one frame body.
type frameReader struct {
	data []byte
	off  int
	err  error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("realnet: frame: "+format, args...)
	}
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *frameReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxAddrString {
		r.fail("address string length %d exceeds %d", n, maxAddrString)
		return ""
	}
	if uint64(len(r.data)-r.off) < n {
		r.fail("truncated string at byte %d", r.off)
		return ""
	}
	s := simnet.Intern(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *frameReader) addr() simnet.Addr {
	var a simnet.Addr
	a.Region = simnet.Region(r.str())
	a.Name = r.str()
	return a
}

// decodeFrame parses one frame body into its envelope and payloads, which it
// appends to payloads. Nothing it returns aliases body: the addresses are
// interned and the codec copies what it keeps.
func (t *Transport) decodeFrame(body []byte, payloads []any) (from, to simnet.Addr, _ []any, err error) {
	r := &frameReader{data: body}
	from = r.addr()
	to = r.addr()
	count := r.uvarint()
	if r.err == nil && count > uint64(len(body)-r.off) {
		r.fail("payload count %d exceeds remaining %d bytes", count, len(body)-r.off)
	}
	if r.err != nil {
		return from, to, nil, r.err
	}
	for i := uint64(0); i < count; i++ {
		n := r.uvarint()
		if r.err != nil {
			return from, to, nil, r.err
		}
		if uint64(len(body)-r.off) < n {
			return from, to, nil, fmt.Errorf("realnet: frame: truncated payload %d", i)
		}
		p, derr := t.cfg.Codec.Decode(body[r.off : r.off+int(n)])
		if derr != nil {
			return from, to, nil, fmt.Errorf("realnet: frame: payload %d: %w", i, derr)
		}
		r.off += int(n)
		payloads = append(payloads, p)
	}
	if r.off != len(body) {
		return from, to, nil, fmt.Errorf("realnet: frame: %d trailing bytes", len(body)-r.off)
	}
	return from, to, payloads, nil
}
