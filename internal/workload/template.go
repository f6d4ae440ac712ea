package workload

import (
	"math/rand"

	planet "planet/internal/core"
)

// Template builds one transaction on a session. Implementations must be
// safe for concurrent use (the RNG is per-client).
type Template interface {
	// Build assembles a transaction; it may read through the session.
	Build(s *planet.Session, rng *rand.Rand) (*planet.Txn, error)
	// Seed installs the template's key space into the cluster.
	Seed(seeder Seeder)
}

// Seeder is the subset of cluster setup a template needs. The range forms
// seed keyspace.Key(prefix, i) for every 0 ≤ i < n.
type Seeder interface {
	SeedBytes(key string, value []byte)
	SeedInt(key string, value, lo, hi int64)
	SeedBytesRange(prefix string, n int, value []byte)
	SeedIntRange(prefix string, n int, value, lo, hi int64)
}

// seedInts seeds g's whole key space with one integer and its bounds: range
// by range, or key by key when the key space is an explicit list.
func seedInts(s Seeder, g KeyGen, value, lo, hi int64) {
	ranges := g.Ranges()
	for _, r := range ranges {
		s.SeedIntRange(r.Prefix, r.N, value, lo, hi)
	}
	if ranges == nil {
		for _, k := range g.Keys() {
			s.SeedInt(k, value, lo, hi)
		}
	}
}

// seedBytes is seedInts for a byte value.
func seedBytes(s Seeder, g KeyGen, value []byte) {
	ranges := g.Ranges()
	for _, r := range ranges {
		s.SeedBytesRange(r.Prefix, r.N, value)
	}
	if ranges == nil {
		for _, k := range g.Keys() {
			s.SeedBytes(k, value)
		}
	}
}

// Buy models the paper's TPC-W-like microbenchmark: purchase Qty units of a
// product with bounded stock, as a commutative decrement. Contention comes
// from the product popularity distribution; integrity comes from the stock
// bound (never below zero).
type Buy struct {
	Products KeyGen
	Qty      int64
	// Stock is the initial per-product stock.
	Stock int64
}

// Build implements Template.
func (b Buy) Build(s *planet.Session, rng *rand.Rand) (*planet.Txn, error) {
	tx := s.Begin()
	tx.Add(b.Products.Next(rng), -b.qty())
	return tx, nil
}

func (b Buy) qty() int64 {
	if b.Qty <= 0 {
		return 1
	}
	return b.Qty
}

// Seed implements Template.
func (b Buy) Seed(seeder Seeder) {
	stock := b.Stock
	if stock <= 0 {
		stock = 1 << 40 // effectively unbounded
	}
	seedInts(seeder, b.Products, stock, 0, 1<<50)
}

// ReadModifyWrite reads NKeys records and writes them back — the classic
// optimistic-concurrency stressor (physical writes conflict).
type ReadModifyWrite struct {
	Keys  KeyGen
	NKeys int
	// ValueSize is the written payload size (default 16 bytes).
	ValueSize int
}

// Build implements Template.
func (w ReadModifyWrite) Build(s *planet.Session, rng *rand.Rand) (*planet.Txn, error) {
	n := w.NKeys
	if n <= 0 {
		n = 1
	}
	size := w.ValueSize
	if size <= 0 {
		size = 16
	}
	tx := s.Begin()
	seen := make(map[string]bool, n)
	for len(seen) < n {
		key := w.Keys.Next(rng)
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, err := tx.Read(key); err != nil {
			return nil, err
		}
		val := make([]byte, size)
		rng.Read(val)
		tx.Set(key, val)
	}
	return tx, nil
}

// Seed implements Template.
func (w ReadModifyWrite) Seed(seeder Seeder) {
	seedBytes(seeder, w.Keys, []byte("init"))
}

// Checkout models a shopping-cart purchase: commutative decrements on
// NItems distinct product stocks plus one physical write recording the
// order. It mixes both option kinds in one transaction, which is the shape
// PLANET's use-case discussion centers on.
type Checkout struct {
	Products KeyGen
	// Orders generates the order-record keys (physical writes).
	Orders KeyGen
	// NItems is the distinct products per checkout (default 2).
	NItems int
	// Stock is the initial per-product stock.
	Stock int64
}

// Build implements Template.
func (c Checkout) Build(s *planet.Session, rng *rand.Rand) (*planet.Txn, error) {
	n := c.NItems
	if n <= 0 {
		n = 2
	}
	tx := s.Begin()
	seen := make(map[string]bool, n)
	for len(seen) < n {
		p := c.Products.Next(rng)
		if seen[p] {
			continue
		}
		seen[p] = true
		tx.Add(p, -1)
	}
	order := c.Orders.Next(rng)
	if _, err := tx.Read(order); err != nil {
		return nil, err
	}
	receipt := make([]byte, 8)
	rng.Read(receipt)
	tx.Set(order, receipt)
	return tx, nil
}

// Seed implements Template.
func (c Checkout) Seed(seeder Seeder) {
	stock := c.Stock
	if stock <= 0 {
		stock = 1 << 40
	}
	seedInts(seeder, c.Products, stock, 0, 1<<50)
	seedBytes(seeder, c.Orders, []byte("empty"))
}

// Transfer moves one unit between two accounts with commutative deltas,
// conserving the total — the invariant the property tests check.
type Transfer struct {
	Accounts KeyGen
	// Balance is the initial per-account balance.
	Balance int64
}

// Build implements Template.
func (t Transfer) Build(s *planet.Session, rng *rand.Rand) (*planet.Txn, error) {
	from := t.Accounts.Next(rng)
	to := t.Accounts.Next(rng)
	for to == from {
		to = t.Accounts.Next(rng)
	}
	tx := s.Begin()
	tx.Add(from, -1)
	tx.Add(to, 1)
	return tx, nil
}

// Seed implements Template.
func (t Transfer) Seed(seeder Seeder) {
	bal := t.Balance
	if bal <= 0 {
		bal = 1000
	}
	seedInts(seeder, t.Accounts, bal, 0, 1<<50)
}
