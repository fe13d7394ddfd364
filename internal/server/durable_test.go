package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/shard"
)

// durableFixture builds a durable server in dir over the standard
// planted-module database.
func durableFixture(t *testing.T, dir string, db *gene.Database) (*Server, *shard.Coordinator) {
	t.Helper()
	st, err := shard.OpenDurable(db, shard.Options{
		NumShards: 2,
		Index:     index.Options{D: 2, Samples: 24, Seed: 2},
	}, shard.DurableOptions{Dir: dir, DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	return New(st, nil), st
}

func testDB(t *testing.T, n int) *gene.Database {
	t.Helper()
	rng := randgen.New(1)
	db := gene.NewDatabase()
	for src := 0; src < n; src++ {
		l := 18
		cols := make([][]float64, 3)
		for j := range cols {
			col := make([]float64, l)
			for i := range col {
				col[i] = rng.Gaussian(0, 1)
			}
			cols[j] = col
		}
		m, err := gene.NewMatrix(src, []gene.ID{1, 2, gene.ID(100 + src)}, cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestDurableServerMutationSurvivesRestart: a mutation acknowledged over
// HTTP must be present after the server's store is reopened — the HTTP
// 200 is the durability boundary.
func TestDurableServerMutationSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, st := durableFixture(t, dir, testDB(t, 6))

	cols := [][]float64{
		{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2},
		{2, 1, 4, 3, 6, 5, 8, 7, 2, 1, 4, 3, 6, 5, 8, 7, 2, 1},
	}
	rec := postJSON(t, s, "/add-matrix", AddMatrixRequest{
		Source: 99, Genes: []string{"1", "2"}, Columns: cols,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("/add-matrix = %d: %s", rec.Code, rec.Body)
	}
	rec = postJSON(t, s, "/remove-matrix", RemoveMatrixRequest{Source: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("/remove-matrix = %d: %s", rec.Code, rec.Body)
	}
	// Simulated kill -9: abandon the store without Close — no checkpoint,
	// no rotation; the acked records are already in the WAL file.
	_ = st

	st2, err := shard.OpenDurable(nil, shard.Options{Index: index.Options{D: 2, Samples: 24, Seed: 2}},
		shard.DurableOptions{Dir: dir, DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, ok := st2.Placement(99); !ok {
		t.Error("acked /add-matrix lost across restart")
	}
	if _, ok := st2.Placement(3); ok {
		t.Error("acked /remove-matrix lost across restart")
	}
	ds := st2.DurableStats()
	if !ds.WarmBoot || ds.ReplayedRecords != 2 {
		t.Errorf("recovery stats = %+v, want warm boot with 2 replayed records", ds)
	}
}

// TestDurableServerStatsAndMetrics: the durability block appears in
// /stats and the imgrn_wal_* / imgrn_snapshot_* families in /metrics,
// tracking the store's counters.
func TestDurableServerStatsAndMetrics(t *testing.T) {
	s, st := durableFixture(t, t.TempDir(), testDB(t, 6))
	defer st.Close()

	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats = %d", rec.Code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Durability == nil {
		t.Fatal("/stats durability block missing on durable server")
	}
	if stats.Durability.Generation != 1 || stats.Durability.WarmBoot {
		t.Errorf("durability block = %+v, want cold boot at gen 1", stats.Durability)
	}

	rec2 := postJSON(t, s, "/remove-matrix", RemoveMatrixRequest{Source: 1})
	if rec2.Code != http.StatusOK {
		t.Fatalf("/remove-matrix = %d: %s", rec2.Code, rec2.Body)
	}

	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"imgrn_wal_appends_total 1",
		"imgrn_snapshot_generation 1",
		"imgrn_snapshot_warm_boot 0",
		"imgrn_wal_fsyncs_total",
		"imgrn_snapshot_checkpoints_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(body, "imgrn_wal_segment_bytes ") ||
		strings.Contains(body, "imgrn_wal_segment_bytes 0\n") {
		t.Errorf("/metrics: live WAL bytes should be nonzero after a mutation:\n%s",
			grepLines(body, "imgrn_wal_segment_bytes"))
	}
}

// TestNonDurableServerOmitsDurability: the plain server exposes neither
// the /stats block nor the WAL metric families.
func TestNonDurableServerOmitsDurability(t *testing.T) {
	s, _, _ := fixture(t)
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if strings.Contains(rec.Body.String(), "durability") {
		t.Error("/stats of non-durable server carries a durability block")
	}
	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if strings.Contains(rec.Body.String(), "imgrn_wal_") {
		t.Error("/metrics of non-durable server exposes imgrn_wal_* families")
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
