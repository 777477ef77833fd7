package dmms

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
)

// TestEngineStatsExposeBuilderCounters: the /engine/stats surface carries
// the builder-pool split — BuildMillis, CacheHits, CacheStale,
// CacheRestamped and the configured worker count — so operators can see the
// build/price pipeline working over the wire.
func TestEngineStatsExposeBuilderCounters(t *testing.T) {
	_, _, c, done := asyncFixture(t, engine.Config{Shards: 2, DoDWorkers: 2})
	defer done()

	if _, err := c.RegisterAsync("b1", 5000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ShareDatasetAsync("s1", "s1/d1", asyncRelation("s1/d1", 30), "open"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.TriggerEpoch(); err != nil {
		t.Fatal(err)
	}

	req := RequestReq{
		Buyer:   "b1",
		Columns: []string{"x", "y"},
		Curve:   []CurvePointSpec{{MinSatisfaction: 0.5, Price: 150}},
	}
	var first engine.Stats
	for i := 0; i < 2; i++ {
		tk, err := c.SubmitRequestAsync(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.TriggerEpoch(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for {
			st, err := c.Ticket(tk)
			if err != nil {
				t.Fatal(err)
			}
			if st.Status.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("ticket %s never terminal", tk)
			}
			time.Sleep(time.Millisecond)
		}
		stats, err := c.EngineStats()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = stats
			if stats.BuildMillis <= 0 {
				t.Errorf("BuildMillis = %v after first build, want > 0", stats.BuildMillis)
			}
			if stats.DoDWorkers != 2 {
				t.Errorf("DoDWorkers = %d, want 2", stats.DoDWorkers)
			}
			// The pricing split of the pipeline: the settled request above ran
			// the price stage and its revenue allocator, so the new wire
			// fields carry live values.
			if stats.PriceMillis <= 0 {
				t.Errorf("PriceMillis = %v after a settled round, want > 0", stats.PriceMillis)
			}
			if stats.AllocEvals == 0 {
				t.Error("AllocEvals = 0 after a settlement, want > 0")
			}
		} else if stats.CacheHits <= first.CacheHits {
			t.Errorf("cache hits did not climb over the wire: %d -> %d", first.CacheHits, stats.CacheHits)
		}
	}

	// A share no cached want can use re-stamps the cached set instead of
	// invalidating it.
	other := relation.New("s1/d2", relation.NewSchema(
		relation.Col("memo", relation.KindString), relation.Col("grade", relation.KindFloat)))
	other.MustAppend(relation.String_("m"), relation.Float(1))
	if _, err := c.ShareDatasetAsync("s1", "s1/d2", other, "open"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.TriggerEpoch(); err != nil {
		t.Fatal(err)
	}
	stats, err := c.EngineStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheRestamped == 0 {
		t.Error("cache_restamped = 0 over the wire after an irrelevant share")
	}
}
