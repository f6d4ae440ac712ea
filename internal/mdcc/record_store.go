package mdcc

import (
	"sync"

	"planet/internal/keyspace"
)

// SeedImage is a deployment's initial data, installed outside the protocol:
// key → the committed value a replica's record starts from. Every replica
// that starts from the same data shares one image (all regions of a
// simulated cluster; the one replica of a node process), and the image
// survives a replica crash, like a disk image. A replica builds a key's
// record from the image the first time the protocol touches it, so seeding
// builds no record on any replica.
//
// The image holds per-key seeds and range seeds. A range seed covers every
// key keyspace.Key(prefix, i), 0 ≤ i < n, and costs O(1) however large n is:
// the image keeps the rule that names the keys, never the keys. Seeds fold
// in call order, exactly as if each key had been seeded one at a time:
//   - a per-key seed first folds every earlier range covering the key into
//     the key's entry, then applies itself;
//   - a range seed applies itself to every per-key entry it covers;
//   - a key with an entry reads as that entry, and any other key as the
//     covering ranges folded in order (not seeded when none covers it);
//   - both kinds also apply to the records replicas already built for the
//     keys they cover (the replicas' reseed input).
//
// The zero value is an empty image.
type SeedImage struct {
	mu       sync.RWMutex
	seeds    map[string]record // per-key entries, value fields only: version 0, no pendings, no promise
	ranges   []rangeSeed       // in call order
	replicas []*Replica        // replicas built from this image, refreshed by a re-seed
}

// rangeSeed is one range Seed call: s applies to every key kr covers.
type rangeSeed struct {
	kr keyspace.Range
	s  seed
}

// seed is one Seed call's effect on a record. A byte seed replaces the bytes
// and marks the record non-integer; an integer seed replaces the integer and
// its bounds. Other value fields, the version, the pendings and the promise
// are kept, so re-seeding a key the protocol already touched leaves its
// protocol state alone.
type seed struct {
	isInt  bool
	bytes  []byte
	ival   int64
	lo, hi int64
}

func (s *seed) applyTo(rc *record) {
	if s.isInt {
		rc.ival, rc.isInt, rc.bounded, rc.lo, rc.hi = s.ival, true, true, s.lo, s.hi
		return
	}
	rc.bytes, rc.isInt = s.bytes, false
}

// bytesSeed seeds a private copy of value. A range shares that one copy
// among all its keys: committed slices are never written in place, so the
// sharing is invisible to readers.
func bytesSeed(value []byte) seed { return seed{bytes: append([]byte(nil), value...)} }

func intSeed(value, lo, hi int64) seed { return seed{isInt: true, ival: value, lo: lo, hi: hi} }

// SeedBytes seeds key with a private copy of value.
func (img *SeedImage) SeedBytes(key string, value []byte) { img.seedKey(key, bytesSeed(value)) }

// SeedInt seeds key with an integer value and its integrity bounds.
func (img *SeedImage) SeedInt(key string, value, lo, hi int64) {
	img.seedKey(key, intSeed(value, lo, hi))
}

// SeedBytesRange seeds keyspace.Key(prefix, i) for every 0 ≤ i < n with one
// private copy of value.
func (img *SeedImage) SeedBytesRange(prefix string, n int, value []byte) {
	img.seedRange(keyspace.Range{Prefix: prefix, N: n}, bytesSeed(value))
}

// SeedIntRange seeds keyspace.Key(prefix, i) for every 0 ≤ i < n with the
// same integer value and bounds.
func (img *SeedImage) SeedIntRange(prefix string, n int, value, lo, hi int64) {
	img.seedRange(keyspace.Range{Prefix: prefix, N: n}, intSeed(value, lo, hi))
}

// seedKey folds s into key's entry, then applies it to the records replicas
// already built for key.
func (img *SeedImage) seedKey(key string, s seed) {
	img.mu.Lock()
	rc, _ := img.lookupLocked(key)
	s.applyTo(&rc)
	if img.seeds == nil {
		img.seeds = make(map[string]record)
	}
	img.seeds[key] = rc
	replicas := img.replicas
	img.mu.Unlock()
	for _, r := range replicas {
		r.exec("", &reseed{key: key, s: s})
	}
}

// seedRange appends s over kr and folds it into the per-key entries kr
// covers, then applies it to the records replicas already built for them.
func (img *SeedImage) seedRange(kr keyspace.Range, s seed) {
	if kr.N <= 0 {
		return
	}
	img.mu.Lock()
	img.ranges = append(img.ranges, rangeSeed{kr: kr, s: s})
	for k, rc := range img.seeds { // order-free: each covered entry takes s alone
		if kr.Covers(k) {
			s.applyTo(&rc)
			img.seeds[k] = rc
		}
	}
	replicas := img.replicas
	img.mu.Unlock()
	for _, r := range replicas {
		r.exec("", &reseed{kr: kr, s: s})
	}
}

// lookup returns key's seeded value, or the zero record when key is not
// seeded.
func (img *SeedImage) lookup(key string) (record, bool) {
	img.mu.RLock()
	rc, ok := img.lookupLocked(key)
	img.mu.RUnlock()
	return rc, ok
}

// lookupLocked is lookup with img.mu held.
func (img *SeedImage) lookupLocked(key string) (record, bool) {
	rc, ok := img.seeds[key]
	if ok {
		return rc, true
	}
	for i := range img.ranges {
		if rs := &img.ranges[i]; rs.kr.Covers(key) {
			rs.s.applyTo(&rc)
			ok = true
		}
	}
	return rc, ok
}

// attach registers r as built from the image.
func (img *SeedImage) attach(r *Replica) {
	img.mu.Lock()
	img.replicas = append(img.replicas, r)
	img.mu.Unlock()
}

// recordSlab is how many records a replica allocates at once. Records are
// built one key at a time, on first touch; carving them from a slab keeps
// that from costing an allocation per key.
const recordSlab = 64

// acquire returns key's record, building it on first touch from the seed
// image (empty, for a key the image lacks).
func (r *Replica) acquire(key string) *record {
	if rc := r.records[key]; rc != nil {
		return rc
	}
	if len(r.slab) == 0 {
		r.slab = make([]record, recordSlab)
	}
	rc := &r.slab[0]
	r.slab = r.slab[1:]
	*rc, _ = r.cfg.Seeds.lookup(key)
	r.records[key] = rc
	return rc
}

// reseed applies a seed the image took to key's record, or for a range seed
// (kr.N > 0) to every record of a key kr covers, if this replica built it;
// an untouched key picks the seed up from the image when first touched.
type reseed struct {
	key string
	kr  keyspace.Range
	s   seed
}

func (r *Replica) reseed(p *reseed) {
	if p.kr.N == 0 {
		if rc := r.records[p.key]; rc != nil {
			p.s.applyTo(rc)
		}
		return
	}
	for k, rc := range r.records { // order-free: each covered record takes the seed alone
		if p.kr.Covers(k) {
			p.s.applyTo(rc)
		}
	}
}

// snapshot returns the committed state of every key this replica holds: its
// records, plus every seeded key it has not touched yet at version 0. A
// crashed replica holds nothing.
func (r *Replica) snapshot() map[string]Value {
	if r.crashed {
		return map[string]Value{}
	}
	img := r.cfg.Seeds
	img.mu.RLock()
	n := len(img.seeds)
	for _, rs := range img.ranges {
		n += rs.kr.N
	}
	out := make(map[string]Value, max(n, len(r.records)))
	for _, rs := range img.ranges {
		for i := range rs.kr.N {
			k := keyspace.Key(rs.kr.Prefix, i)
			rc, _ := img.lookupLocked(k)
			out[k] = rc.value()
		}
	}
	for k, rc := range img.seeds { // order-free: fills a map
		out[k] = rc.value()
	}
	img.mu.RUnlock()
	for k, rc := range r.records { // order-free: fills a map
		out[k] = rc.value()
	}
	return out
}
