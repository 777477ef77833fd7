package core

import (
	"testing"

	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/mltask"
	"repro/internal/workload"
	"repro/internal/wtp"
)

func TestNewPlatformDesignSelection(t *testing.T) {
	p, err := NewPlatform(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Design.Label != "external-vickrey" {
		t.Errorf("default design = %s", p.Design.Label)
	}
	if _, err := NewPlatform(Options{Design: "nope"}); err == nil {
		t.Error("unknown design must fail")
	}
	custom := &market.Design{Label: "c", Mechanism: market.PostedPrice{P: 1}, Allocator: market.Uniform{}}
	p2, err := NewPlatform(Options{CustomDesign: custom})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Design != custom {
		t.Error("custom design must win")
	}
}

func TestPlatformPaperScenario(t *testing.T) {
	p, err := NewPlatform(Options{Design: "posted-baseline", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex := workload.NewPaperExample(400, 2)

	s1 := p.Seller("seller1")
	if err := s1.Share("s1", ex.S1, license.Terms{Kind: license.Open}); err != nil {
		t.Fatal(err)
	}
	s3 := p.Seller("seller3")
	if err := s3.Share("s3", ex.S3, license.Terms{Kind: license.Open}); err != nil {
		t.Fatal(err)
	}
	// The buyer owns labels and wants features a,b,e to train a classifier.
	labels := ex.Truth
	b := p.Buyer("b1", 1000)
	_, err = b.Need("a", "b", "e").
		ForClassifier(mltask.ModelLogistic, []string{"b", "d", "e"}, "label", 3).
		Owning(labels).
		PayingAt(0.8, 100).
		PayingAt(0.9, 150).
		Submit()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.MatchRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transactions) != 1 {
		t.Fatalf("transactions = %d unsat %v", len(res.Transactions), res.Unsatisfied)
	}
	tx := res.Transactions[0]
	if tx.Satisfaction < 0.8 {
		t.Errorf("satisfaction = %v; features + owned labels should train well", tx.Satisfaction)
	}
	if b.Balance() >= 1000 {
		t.Error("buyer must have paid")
	}
	if s1.Earnings() <= 0 || s3.Earnings() <= 0 {
		t.Errorf("sellers must earn: %v / %v", s1.Earnings(), s3.Earnings())
	}
	if p.Summary() == "" {
		t.Error("summary must render")
	}
	// Idempotent accessors.
	if p.Seller("seller1") != s1 || p.Buyer("b1", 0) != b {
		t.Error("platform must cache participant handles")
	}
}

// TestDatasetStatesIgnoresAccessQuota: the platform's own catalog reads
// (snapshots, the federation's mirror builds) never count against a
// dataset's access quota — a dataset with quota 1 stays in two consecutive
// snapshots, and a buyer's read is still allowed afterwards.
func TestDatasetStatesIgnoresAccessQuota(t *testing.T) {
	p, err := NewPlatform(Options{Design: "posted-baseline"})
	if err != nil {
		t.Fatal(err)
	}
	ex := workload.NewPaperExample(20, 1)
	if err := p.ShareDataset("s1", "d1", ex.S1, wtp.DatasetMeta{Dataset: "d1"}, license.Terms{Kind: license.Open}); err != nil {
		t.Fatal(err)
	}
	if err := p.Arbiter.Catalog.SetQuota("d1", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if snap := p.Snapshot(); len(snap.Datasets) != 1 || snap.Datasets[0].ID != "d1" {
			t.Fatalf("snapshot %d lost the quota-1 dataset: %+v", i, snap.Datasets)
		}
	}
	if _, err := p.Arbiter.Catalog.Get("d1"); err != nil {
		t.Fatalf("buyer read after snapshots: %v", err)
	}
	if _, err := p.Arbiter.Catalog.Get("d1"); err == nil {
		t.Fatal("second buyer read should exceed quota 1")
	}
}
