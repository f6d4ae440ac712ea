package planet_test

import (
	"fmt"
	"testing"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/workload"
)

// TestSoakMixedWorkload runs a sustained mixed workload — checkouts
// (commutative + physical ops in one transaction) over a skewed keyspace
// from every region with speculation and admission enabled — and then
// audits global invariants. It is the closest thing to a production burn-in
// the suite has; skipped with -short.
func TestSoakMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped with -short")
	}
	c, err := cluster.New(cluster.Config{TimeScale: 0.005, Seed: 99, WAL: true, CommitTimeout: 120 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Close()
		c.Quiesce(5 * time.Second)
	}()
	db, err := planet.Open(planet.Config{
		Cluster:   c,
		Admission: planet.AdmissionPolicy{MinLikelihood: 0.2, ProbeFraction: 0.1},
		Calibrate: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	const products, orders, stock = 64, 512, 1 << 30
	tmpl := workload.Checkout{
		Products: workload.NewZipf("p-", products, 1.2),
		Orders:   workload.Uniform{Prefix: "o-", N: orders},
		NItems:   2,
		Stock:    stock,
	}
	rep, err := workload.Closed{
		Options: workload.Options{
			DB:          db,
			Template:    tmpl,
			SpeculateAt: 0.9,
			Seed:        100,
		},
		Clients: 32, PerClient: 25,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Quiesce(20 * time.Second) {
		t.Fatal("network did not quiesce")
	}

	st := db.Stats()
	t.Logf("soak: %s", rep)
	t.Logf("stats: %+v", st)
	if st.Submitted+st.Rejected != 32*25 {
		t.Errorf("accounting: submitted %d + rejected %d != %d",
			st.Submitted, st.Rejected, 32*25)
	}
	if st.Committed == 0 {
		t.Fatal("soak committed nothing")
	}

	// Invariant: total stock decrease equals 2 units per committed
	// checkout, identically at every replica.
	wantSold := 2 * int64(st.Committed)
	for _, r := range c.Regions() {
		s, err := db.Session(r)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for i := 0; i < products; i++ {
			v, _, err := s.ReadInt(fmt.Sprintf("p-%06d", i))
			if err != nil {
				t.Fatal(err)
			}
			total += v
		}
		if sold := int64(products)*stock - total; sold != wantSold {
			t.Errorf("%s: sold %d units, want %d", r, sold, wantSold)
		}
	}

	// Invariant: WALs agree on the committed set size everywhere.
	want := len(c.WALOf(c.Regions()[0]).Commits())
	for _, r := range c.Regions()[1:] {
		if got := len(c.WALOf(r).Commits()); got != want {
			t.Errorf("%s WAL has %d commits, want %d", r, got, want)
		}
	}
	if uint64(want) != st.Committed {
		t.Errorf("WAL commits %d != stats committed %d", want, st.Committed)
	}

	// The calibration table must have accumulated meaningful volume.
	if db.Calibration().MeanAbsoluteError() > 0.35 {
		t.Errorf("soak calibration MAE=%v", db.Calibration().MeanAbsoluteError())
	}
}
