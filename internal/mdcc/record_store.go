package mdcc

import "sync"

// SeedImage is a deployment's initial data, installed outside the protocol:
// key → the committed value a replica's record starts from. Every replica
// that starts from the same data shares one image (all regions of a
// simulated cluster; the one replica of a node process), and the image
// survives a replica crash, like a disk image. A replica builds a key's
// record from the image the first time the protocol touches the key, so
// seeding costs one image entry per key, not one record per key per replica.
// The zero value is an empty image.
type SeedImage struct {
	mu       sync.RWMutex
	seeds    map[string]record // value fields only: version 0, no pendings, no promise
	replicas []*Replica        // replicas built from this image, refreshed by a re-seed
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

// SeedBytes seeds key with a private copy of value.
func (img *SeedImage) SeedBytes(key string, value []byte) {
	img.SeedBytesAll([]string{key}, value)
}

// SeedInt seeds key with an integer value and its integrity bounds.
func (img *SeedImage) SeedInt(key string, value, lo, hi int64) {
	img.SeedIntAll([]string{key}, value, lo, hi)
}

// SeedBytesAll seeds every key with one private copy of value, shared by all
// of them: committed slices are never written in place, so the sharing is
// invisible to readers.
func (img *SeedImage) SeedBytesAll(keys []string, value []byte) {
	img.seed(keys, seed{bytes: append([]byte(nil), value...)})
}

// SeedIntAll seeds every key with the same integer value and bounds.
func (img *SeedImage) SeedIntAll(keys []string, value, lo, hi int64) {
	img.seed(keys, seed{isInt: true, ival: value, lo: lo, hi: hi})
}

// seed writes s under every key, then applies it to the records replicas
// already built for those keys.
func (img *SeedImage) seed(keys []string, s seed) {
	img.mu.Lock()
	if len(img.seeds) == 0 {
		img.seeds = make(map[string]record, len(keys))
	}
	for _, k := range keys {
		rc := img.seeds[k]
		s.applyTo(&rc)
		img.seeds[k] = rc
	}
	replicas := img.replicas
	img.mu.Unlock()
	for _, r := range replicas {
		r.reseed(keys, &s)
	}
}

// lookup returns key's seeded value, or the zero record when key is not
// seeded.
func (img *SeedImage) lookup(key string) (record, bool) {
	img.mu.RLock()
	rc, ok := img.seeds[key]
	img.mu.RUnlock()
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
// image (empty, for a key the image lacks). Caller holds r.mu.
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

// reseed applies s to the records this replica already built for keys.
// Untouched keys pick the seed up from the image when first touched.
func (r *Replica) reseed(keys []string, s *seed) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.records) == 0 {
		return
	}
	for _, k := range keys {
		if rc := r.records[k]; rc != nil {
			s.applyTo(rc)
		}
	}
}

// snapshotLocked returns the committed state of every key this replica
// holds: its records, plus every seeded key it has not touched yet at
// version 0. A crashed replica holds nothing. Caller holds r.mu.
func (r *Replica) snapshotLocked() map[string]Value {
	if r.crashed {
		return map[string]Value{}
	}
	img := r.cfg.Seeds
	img.mu.RLock()
	out := make(map[string]Value, max(len(img.seeds), len(r.records)))
	for k, rc := range img.seeds {
		out[k] = rc.value()
	}
	img.mu.RUnlock()
	for k, rc := range r.records {
		out[k] = rc.value()
	}
	return out
}
