package mdcc

import (
	"math/bits"

	"planet/internal/txn"
)

// decidedPageIDs is how many consecutive transaction ids one page of a
// decidedSet covers: two bits each, so a page is 128 bytes.
const decidedPageIDs = 512

// decidedPage holds the verdicts of decidedPageIDs consecutive ids.
type decidedPage struct {
	seen, commit [decidedPageIDs / 64]uint64
}

// decidedSet is a replica's decision memo: for each transaction it has
// decided, whether it committed. Verdicts are two bits (seen, commit) in
// pages of consecutive ids. A txn.IDSpace mints its ids in sequence, so a
// deployment's ids fill few pages densely and consecutive lookups mostly hit
// the page the previous one used, which the set caches. Pages are never
// freed: like the map it replaces, the memo grows with the transactions
// decided. The zero value is empty and allocates nothing until the first set.
type decidedSet struct {
	pages   map[uint64]*decidedPage
	last    *decidedPage // page lastIdx, or nil
	lastIdx uint64
	n       int // ids seen
}

// decidedSlot locates id's bits: its page index, the word within the page
// and the bit within the word.
func decidedSlot(id txn.ID) (page uint64, word int, bit uint64) {
	return uint64(id) / decidedPageIDs, int(uint64(id) % decidedPageIDs / 64), 1 << (uint64(id) % 64)
}

// page returns page idx, creating it when create is set (nil otherwise).
func (d *decidedSet) page(idx uint64, create bool) *decidedPage {
	if d.last != nil && d.lastIdx == idx {
		return d.last
	}
	p := d.pages[idx]
	if p == nil {
		if !create {
			return nil
		}
		if d.pages == nil {
			d.pages = make(map[uint64]*decidedPage)
		}
		p = new(decidedPage)
		d.pages[idx] = p
	}
	d.last, d.lastIdx = p, idx
	return p
}

// get returns id's verdict and whether one is recorded.
func (d *decidedSet) get(id txn.ID) (commit, seen bool) {
	idx, w, bit := decidedSlot(id)
	p := d.page(idx, false)
	if p == nil {
		return false, false
	}
	return p.commit[w]&bit != 0, p.seen[w]&bit != 0
}

// set records id's verdict, replacing any earlier one.
func (d *decidedSet) set(id txn.ID, commit bool) {
	idx, w, bit := decidedSlot(id)
	p := d.page(idx, true)
	if p.seen[w]&bit == 0 {
		p.seen[w] |= bit
		d.n++
	}
	if commit {
		p.commit[w] |= bit
	} else {
		p.commit[w] &^= bit
	}
}

// len returns the number of recorded verdicts.
func (d *decidedSet) len() int { return d.n }

// toMap copies every recorded verdict into a map.
func (d *decidedSet) toMap() map[txn.ID]bool {
	out := make(map[txn.ID]bool, d.n)
	for idx, p := range d.pages { // order-free: fills a map
		for w, seen := range p.seen {
			for ; seen != 0; seen &= seen - 1 {
				b := bits.TrailingZeros64(seen)
				id := txn.ID(idx*decidedPageIDs + uint64(w*64+b))
				out[id] = p.commit[w]&(1<<b) != 0
			}
		}
	}
	return out
}
