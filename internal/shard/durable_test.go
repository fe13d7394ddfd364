package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/synth"
)

// Durable-store crash tests are white-box: they use the unexported
// crash() seam (close file handles, flush nothing, commit nothing) to
// simulate kill -9, then mangle the data directory the way a real crash
// would — torn WAL tails, uncommitted snapshot generations, stray temp
// files — and assert the recovery protocol restores exactly the
// acknowledged state.

var durOpts = index.Options{D: 2, Samples: 16, Seed: 7, Bits: 256, BufferPages: 64}

// durDataset generates n small matrices; the first built go into the
// initial build, the rest arrive as online mutations.
func durDataset(t *testing.T, n int) *synth.Dataset {
	t.Helper()
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: n, NMin: 8, NMax: 12, LMin: 10, LMax: 14, Seed: 11, Dist: synth.Gaussian,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// splitDataset returns a database holding the first n sources and the
// remaining matrices as a mutation stream.
func splitDataset(t *testing.T, ds *synth.Dataset, n int) (*gene.Database, []*gene.Matrix) {
	t.Helper()
	db := gene.NewDatabase()
	for i := 0; i < n; i++ {
		if err := db.Add(ds.DB.Matrix(i)); err != nil {
			t.Fatal(err)
		}
	}
	return db, ds.DB.Matrices()[n:]
}

func openTestCoordinator(t *testing.T, db *gene.Database, p int, dir string) *Coordinator {
	t.Helper()
	st, err := OpenDurable(db, Options{NumShards: p, Index: durOpts},
		DurableOptions{Dir: dir, DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// durFingerprint renders a query result for exact equality comparison
// across a crash/reopen boundary.
func durFingerprint(t *testing.T, c *Coordinator, ds *synth.Dataset) string {
	t.Helper()
	params := core.Params{Gamma: 0.5, Alpha: 0.4, Seed: 9, Analytic: true}
	rng := randgen.New(321)
	var sb strings.Builder
	for i := 0; i < 3; i++ {
		mq, _, err := ds.ExtractQuery(rng, 4)
		if err != nil {
			t.Fatal(err)
		}
		answers, _, err := c.QueryContext(context.Background(), mq, params)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range answers {
			fmt.Fprintf(&sb, "q%d src=%d prob=%.17g edges=%d\n", i, a.Source, a.Prob, len(a.Edges))
		}
	}
	return sb.String()
}

func sources(c *Coordinator) map[int]bool {
	got := make(map[int]bool)
	for _, m := range c.Database().Matrices() {
		got[m.Source] = true
	}
	return got
}

// TestDurableCleanShutdownWarmBoot: Close checkpoints, so a reopen warm
// boots with zero WAL replay, zero re-embeddings, and byte-identical
// query answers.
func TestDurableCleanShutdownWarmBoot(t *testing.T) {
	ds := durDataset(t, 12)
	db, muts := splitDataset(t, ds, 10)
	dir := t.TempDir()

	st := openTestCoordinator(t, db, 2, dir)
	if stats := st.DurableStats(); stats.WarmBoot || stats.Gen != 1 {
		t.Fatalf("cold boot stats = %+v, want gen 1 cold", stats)
	}
	for _, m := range muts {
		if err := st.AddMatrix(m); err != nil {
			t.Fatal(err)
		}
	}
	want := durFingerprint(t, st, ds)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	before := index.EmbedCalls()
	st2 := openTestCoordinator(t, nil, 2, dir)
	defer st2.Close()
	embedded := index.EmbedCalls() - before
	stats := st2.DurableStats()
	if !stats.WarmBoot {
		t.Fatal("expected warm boot")
	}
	if stats.ReplayedRecords != 0 {
		t.Fatalf("clean shutdown replayed %d records, want 0", stats.ReplayedRecords)
	}
	if embedded != 0 {
		t.Fatalf("warm boot after clean shutdown embedded %d matrices, want 0", embedded)
	}
	if got := durFingerprint(t, st2, ds); got != want {
		t.Errorf("answers diverged across clean restart:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestDurableCrashRecoversAckedMutations: kill -9 after a mutation storm
// (adds and a remove, all acknowledged, no checkpoint) must lose
// nothing; the warm boot re-embeds only the WAL-replayed adds.
func TestDurableCrashRecoversAckedMutations(t *testing.T) {
	ds := durDataset(t, 14)
	db, muts := splitDataset(t, ds, 10)
	dir := t.TempDir()

	st := openTestCoordinator(t, db, 3, dir)
	for _, m := range muts {
		if err := st.AddMatrix(m); err != nil {
			t.Fatal(err)
		}
	}
	removed := ds.DB.Matrix(2).Source
	if err := st.RemoveMatrix(removed); err != nil {
		t.Fatal(err)
	}
	wantSources := sources(st)
	want := durFingerprint(t, st, ds)
	st.crash()

	before := index.EmbedCalls()
	st2 := openTestCoordinator(t, nil, 3, dir)
	defer st2.Close()
	embedded := index.EmbedCalls() - before
	stats := st2.DurableStats()
	if !stats.WarmBoot {
		t.Fatal("expected warm boot")
	}
	if wantRecs := len(muts) + 1; stats.ReplayedRecords != wantRecs {
		t.Fatalf("replayed %d records, want %d", stats.ReplayedRecords, wantRecs)
	}
	if stats.ReplayedAdds != len(muts) {
		t.Fatalf("replayed %d adds, want %d", stats.ReplayedAdds, len(muts))
	}
	if embedded != uint64(len(muts)) {
		t.Fatalf("warm boot embedded %d matrices, want only the %d replayed adds", embedded, len(muts))
	}
	gotSources := sources(st2)
	if len(gotSources) != len(wantSources) {
		t.Fatalf("recovered %d sources, want %d", len(gotSources), len(wantSources))
	}
	for s := range wantSources {
		if !gotSources[s] {
			t.Errorf("acked source %d lost in crash", s)
		}
	}
	if gotSources[removed] {
		t.Errorf("acked removal of source %d lost in crash", removed)
	}
	if got := durFingerprint(t, st2, ds); got != want {
		t.Errorf("answers diverged across crash:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestDurableConcurrentMutationsMatchFreshBuild races adds and removes,
// whose embeddings run outside every lock, against queries on a durable
// two-shard coordinator (run with -race in CI). Each writer owns its
// sources, so the final database does not depend on the interleaving;
// once the writers are done, the coordinator's answers must equal those
// of a fresh Build over that database, under both estimators.
func TestDurableConcurrentMutationsMatchFreshBuild(t *testing.T) {
	ds := durDataset(t, 36)
	db, muts := splitDataset(t, ds, 20)
	c := openTestCoordinator(t, db, 2, t.TempDir())
	defer c.Close()

	rng := randgen.New(33)
	var queries []*gene.Matrix
	for len(queries) < 8 {
		mq, _, err := ds.ExtractQuery(rng, 4)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, mq)
	}
	params := []core.Params{
		{Gamma: 0.4, Alpha: 0.2, Seed: 9, Analytic: true},
		{Gamma: 0.4, Alpha: 0.2, Seed: 9, Samples: 64},
	}

	// Writer w adds the mutations at positions ≡ w (mod 2), removes every
	// third of them again, and removes the initial sources at positions
	// ≡ w (mod 6).
	const writers = 2
	removed := make(map[int]bool)
	for w := 0; w < writers; w++ {
		for i, m := range muts {
			if i%writers == w && i/writers%3 == 0 {
				removed[m.Source] = true
			}
		}
		for i, m := range db.Matrices() {
			if i%6 == w {
				removed[m.Source] = true
			}
		}
	}
	initial := slices.Clone(db.Matrices())
	var writersWG, readersWG sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i, m := range muts {
				if i%writers != w {
					continue
				}
				if err := c.AddMatrix(m); err != nil {
					t.Error(err)
					return
				}
				if removed[m.Source] {
					if err := c.RemoveMatrix(m.Source); err != nil {
						t.Error(err)
						return
					}
				}
			}
			for i, m := range initial {
				if i%6 == w {
					if err := c.RemoveMatrix(m.Source); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			for n := r; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				if _, _, err := c.QueryContext(context.Background(), queries[n%len(queries)], params[n%len(params)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	writersWG.Wait()
	close(done)
	readersWG.Wait()

	final := gene.NewDatabase()
	for _, m := range append(initial, muts...) {
		if !removed[m.Source] {
			if err := final.Add(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := sources(c); len(got) != final.Len() {
		t.Fatalf("coordinator holds %d sources, want %d", len(got), final.Len())
	}
	fresh, err := Build(final, Options{NumShards: 2, Index: durOpts})
	if err != nil {
		t.Fatal(err)
	}
	answers := 0
	for qi, mq := range queries {
		for _, p := range params {
			got, _, err := c.QueryContext(context.Background(), mq, p)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := fresh.QueryContext(context.Background(), mq, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
				t.Errorf("query %d (analytic %v): %d answers after the race, a fresh build gives %d",
					qi, p.Analytic, len(got), len(want))
			}
			answers += len(want)
		}
	}
	if answers == 0 {
		t.Fatal("no query has an answer: the fixture does not compare anything")
	}
}

// TestDurableTornWALEveryOffset is the store-level kill-mid-append
// property test: a P=1 store's WAL is truncated at EVERY byte offset —
// every possible torn tail a crash mid-write can leave — and each
// truncated state must reopen with exactly the complete-frame prefix of
// mutations (the acknowledged ones) and nothing else.
func TestDurableTornWALEveryOffset(t *testing.T) {
	ds := durDataset(t, 9)
	db, muts := splitDataset(t, ds, 6)
	base := t.TempDir()
	dir := filepath.Join(base, "store")

	baseLen := db.Len() // Build adopts db as the global view, so it grows with the store
	st := openTestCoordinator(t, db, 1, dir)
	// Record WAL size after each acked mutation: the frame boundaries.
	var boundaries []int64
	for _, m := range muts {
		if err := st.AddMatrix(m); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, st.dur.wals[0].Size())
	}
	walFile := st.dur.wals[0].Path()
	st.crash()
	full, err := os.ReadFile(walFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(boundaries) == 0 || boundaries[len(boundaries)-1] != int64(len(full)) {
		t.Fatalf("boundary bookkeeping off: %v vs %d bytes", boundaries, len(full))
	}
	snapData, err := os.ReadFile(filepath.Join(dir, "shard-000", "snap-00000001.snap"))
	if err != nil {
		t.Fatal(err)
	}
	manData, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}

	ackedAt := func(n int64) int {
		k := 0
		for _, b := range boundaries {
			if b <= n {
				k++
			}
		}
		return k
	}

	for n := int64(0); n <= int64(len(full)); n++ {
		// Rebuild the post-crash directory with the WAL torn at offset n.
		tdir := filepath.Join(base, fmt.Sprintf("torn-%04d", n))
		shardDir := filepath.Join(tdir, "shard-000")
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tdir, "MANIFEST"), manData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shardDir, "snap-00000001.snap"), snapData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shardDir, "wal-00000001.log"), full[:n], 0o644); err != nil {
			t.Fatal(err)
		}

		st2 := openTestCoordinator(t, nil, 1, tdir)
		acked := ackedAt(n)
		stats := st2.DurableStats()
		if stats.ReplayedRecords != acked {
			t.Fatalf("offset %d: replayed %d mutations, want %d", n, stats.ReplayedRecords, acked)
		}
		if wantTorn := n - func() int64 {
			var v int64
			for _, b := range boundaries {
				if b <= n {
					v = b
				}
			}
			return v
		}(); stats.TornBytes != wantTorn {
			t.Fatalf("offset %d: torn bytes = %d, want %d", n, stats.TornBytes, wantTorn)
		}
		if got, want := st2.Database().Len(), baseLen+acked; got != want {
			t.Fatalf("offset %d: recovered %d sources, want %d", n, got, want)
		}
		// The first unacked mutation must be absent, all acked present.
		for i, m := range muts {
			if _, ok := st2.Placement(m.Source); ok != (i < acked) {
				t.Fatalf("offset %d: source %d placed=%v, want %v", n, m.Source, ok, i < acked)
			}
		}
		// The store must accept new mutations after recovery (torn tail
		// truncated, segment appendable).
		if acked < len(muts) {
			if err := st2.AddMatrix(muts[acked]); err != nil {
				t.Fatalf("offset %d: add after recovery: %v", n, err)
			}
		}
		st2.crash()
		os.RemoveAll(tdir)
	}
}

// TestDurableInterruptedCheckpoint walks the directory states a crash
// can leave at each phase of a checkpoint and asserts recovery lands on
// the committed generation every time.
func TestDurableInterruptedCheckpoint(t *testing.T) {
	ds := durDataset(t, 10)
	db, muts := splitDataset(t, ds, 8)
	dir := t.TempDir()
	st := openTestCoordinator(t, db, 2, dir)
	for _, m := range muts {
		if err := st.AddMatrix(m); err != nil {
			t.Fatal(err)
		}
	}
	want := durFingerprint(t, st, ds)
	wantSources := sources(st)
	st.crash()

	shard0 := filepath.Join(dir, "shard-000")
	snap1, err := os.ReadFile(filepath.Join(shard0, "snap-00000001.snap"))
	if err != nil {
		t.Fatal(err)
	}

	// Phase-1 crash: a temp snapshot mid-write and a complete-but-
	// uncommitted gen-2 snapshot exist; MANIFEST still names gen 1.
	// Recovery must delete both and replay gen 1 + WAL.
	if err := os.WriteFile(filepath.Join(shard0, "snap-00000002.snap.tmp"), snap1[:len(snap1)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shard0, "snap-00000002.snap"), snap1, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := openTestCoordinator(t, nil, 2, dir)
	if got := durFingerprint(t, st2, ds); got != want {
		t.Errorf("recovery over uncommitted checkpoint diverged:\n got:\n%s\nwant:\n%s", got, want)
	}
	for _, stray := range []string{"snap-00000002.snap.tmp", "snap-00000002.snap"} {
		if _, err := os.Stat(filepath.Join(shard0, stray)); !os.IsNotExist(err) {
			t.Errorf("uncommitted %s survived recovery", stray)
		}
	}

	// Phase-3 crash: commit a real checkpoint (now gen N), then plant a
	// stale previous-generation snapshot+wal as if cleanup never ran.
	if err := st2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	gen := st2.Gen()
	st2.crash()
	staleSnap := filepath.Join(shard0, fmt.Sprintf("snap-%08d.snap", gen-1))
	staleWAL := filepath.Join(shard0, fmt.Sprintf("wal-%08d.log", gen-1))
	if err := os.WriteFile(staleSnap, snap1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(staleWAL, []byte("garbage that must never be replayed"), 0o644); err != nil {
		t.Fatal(err)
	}
	st3 := openTestCoordinator(t, nil, 2, dir)
	defer st3.Close()
	stats := st3.DurableStats()
	if stats.Gen != gen || stats.ReplayedRecords != 0 {
		t.Fatalf("post-checkpoint recovery stats = %+v, want gen %d, no replay", stats, gen)
	}
	for _, stale := range []string{staleSnap, staleWAL} {
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Errorf("stale generation file %s survived recovery", stale)
		}
	}
	gotSources := sources(st3)
	if len(gotSources) != len(wantSources) {
		t.Fatalf("recovered %d sources, want %d", len(gotSources), len(wantSources))
	}
	if got := durFingerprint(t, st3, ds); got != want {
		t.Errorf("answers diverged after checkpoint+stale-file recovery:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestDurableCheckpointRotation: an explicit checkpoint bumps the
// generation, empties the live WAL, and deletes the superseded files.
func TestDurableCheckpointRotation(t *testing.T) {
	ds := durDataset(t, 10)
	db, muts := splitDataset(t, ds, 8)
	dir := t.TempDir()
	st := openTestCoordinator(t, db, 2, dir)
	defer st.Close()
	for _, m := range muts {
		if err := st.AddMatrix(m); err != nil {
			t.Fatal(err)
		}
	}
	if st.DurableStats().WALSegmentBytes == 0 {
		t.Fatal("mutations produced no WAL bytes")
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stats := st.DurableStats()
	if stats.Gen != 2 || stats.Checkpoints != 2 { // cold boot = checkpoint 1
		t.Fatalf("stats after checkpoint = %+v, want gen 2", stats)
	}
	if stats.WALSegmentBytes != 0 {
		t.Fatalf("live WAL holds %d bytes after checkpoint, want 0", stats.WALSegmentBytes)
	}
	for i := 0; i < 2; i++ {
		sd := shardDirPath(dir, i)
		if _, err := os.Stat(snapPath(sd, 1)); !os.IsNotExist(err) {
			t.Errorf("shard %d: superseded gen-1 snapshot not deleted", i)
		}
		if _, err := os.Stat(walPath(sd, 1)); !os.IsNotExist(err) {
			t.Errorf("shard %d: superseded gen-1 WAL not deleted", i)
		}
		if _, err := os.Stat(snapPath(sd, 2)); err != nil {
			t.Errorf("shard %d: gen-2 snapshot missing: %v", i, err)
		}
	}
}

// TestDurableCursorContinuity: round-robin placement must continue the
// same sequence across a crash — a store that crashed and recovered
// places future sources exactly like one that never did.
func TestDurableCursorContinuity(t *testing.T) {
	ds := durDataset(t, 16)
	db, muts := splitDataset(t, ds, 9)
	dirA := t.TempDir()
	dirB := t.TempDir()

	// Control: no crash.
	ctl := openTestCoordinator(t, db, 3, dirA)
	defer ctl.Close()
	// Crashing store: crash mid-stream, recover, continue.
	db2, _ := splitDataset(t, ds, 9)
	cr := openTestCoordinator(t, db2, 3, dirB)
	for i, m := range muts {
		if err := ctl.AddMatrix(m); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			cr.crash()
			cr = openTestCoordinator(t, nil, 3, dirB)
		}
		if err := cr.AddMatrix(m); err != nil {
			t.Fatal(err)
		}
	}
	defer cr.Close()
	for _, m := range ds.DB.Matrices() {
		wantSh, ok1 := ctl.Placement(m.Source)
		gotSh, ok2 := cr.Placement(m.Source)
		if !ok1 || !ok2 || wantSh != gotSh {
			t.Errorf("source %d: crashed store placed on %d (ok=%v), control on %d (ok=%v)",
				m.Source, gotSh, ok2, wantSh, ok1)
		}
	}
}

// TestDurableWarmBootKeepsPlacement: a warm boot keeps the caller's
// PlaceFunc, so sources added after a reopen land where the function
// says — not where the recovered round-robin cursor points. A cluster
// shard server hosting two local shards depends on this to file new
// sources under the right global shard after a restart.
func TestDurableWarmBootKeepsPlacement(t *testing.T) {
	ds := durDataset(t, 16)
	db, muts := splitDataset(t, ds, 8)
	place := func(src int) int {
		if src%3 == 0 {
			return 1
		}
		return 0
	}
	opts := Options{NumShards: 2, Index: durOpts, PlaceFunc: place}
	dopts := DurableOptions{Dir: t.TempDir(), DisableFsync: true}
	c, err := OpenDurable(db, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(c *Coordinator, ms []*gene.Matrix) {
		t.Helper()
		for _, m := range ms {
			if err := c.AddMatrix(m); err != nil {
				t.Fatal(err)
			}
			if sh, _ := c.Placement(m.Source); sh != place(m.Source) {
				t.Errorf("source %d added on shard %d, PlaceFunc says %d", m.Source, sh, place(m.Source))
			}
		}
	}
	check(c, muts[:2])
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c, err = OpenDurable(nil, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.DurableStats().WarmBoot {
		t.Fatal("reopen was not a warm boot")
	}
	check(c, muts[2:])
}

// TestDurableColdBootGuards: refuse a directory that has shard data but
// no MANIFEST, and refuse a warm boot at the wrong shard count.
func TestDurableColdBootGuards(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "shard-000"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := OpenDurable(gene.NewDatabase(), Options{NumShards: 1, Index: durOpts},
		DurableOptions{Dir: dir, DisableFsync: true})
	if err == nil || !strings.Contains(err.Error(), "MANIFEST") {
		t.Fatalf("cold boot over orphan shard dirs: err = %v, want MANIFEST refusal", err)
	}

	ds := durDataset(t, 6)
	dir2 := t.TempDir()
	st := openTestCoordinator(t, ds.DB, 2, dir2)
	st.Close()
	_, err = OpenDurable(nil, Options{NumShards: 3, Index: durOpts},
		DurableOptions{Dir: dir2, DisableFsync: true})
	if err == nil || !strings.Contains(err.Error(), "reshard") {
		t.Fatalf("warm boot at wrong P: err = %v, want reshard refusal", err)
	}
	// NumShards <= 1 adopts the on-disk count.
	st2, err := OpenDurable(nil, Options{Index: durOpts}, DurableOptions{Dir: dir2, DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.NumShards() != 2 {
		t.Errorf("adopted %d shards, want on-disk 2", st2.NumShards())
	}
}

// TestDurableRotationFailureLatchesReadOnly: a checkpoint that fails
// AFTER the manifest commit (phase 3) must latch the store read-only —
// the live segments belong to a generation recovery deletes, so acking
// further appends to them would silently lose acknowledged writes — and
// a reopen must recover every mutation acked before the failure.
func TestDurableRotationFailureLatchesReadOnly(t *testing.T) {
	ds := durDataset(t, 10)
	db, muts := splitDataset(t, ds, 8)
	dir := t.TempDir()
	st := openTestCoordinator(t, db, 1, dir)
	for _, m := range muts {
		if err := st.AddMatrix(m); err != nil {
			t.Fatal(err)
		}
	}
	wantSources := sources(st)

	// Make phase 3 fail: plant a directory where the gen-2 segment goes.
	// Phases 1-2 (snapshots + manifest commit) succeed, then wal.Open
	// hits the directory and errors.
	blocker := walPath(shardDirPath(dir, 0), 2)
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err == nil {
		t.Fatal("checkpoint over a blocked segment path succeeded")
	}
	stats := st.DurableStats()
	if stats.CheckpointFailures == 0 || stats.LastCheckpointError == "" {
		t.Errorf("checkpoint failure not counted in stats: %+v", stats)
	}
	if stats.Gen != 2 {
		t.Errorf("stats.Gen = %d after committed-but-unrotated checkpoint, want 2", stats.Gen)
	}
	// Further mutations and checkpoint retries must be refused: gen 2 is
	// committed, so an append to the live gen-1 segment would be dropped
	// by recovery, and a retried rotation could unlink a live segment.
	if err := st.AddMatrix(ds.DB.Matrix(8)); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("mutation after failed rotation: err = %v, want read-only latch", err)
	}
	if err := st.Checkpoint(); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("checkpoint retry after failed rotation: err = %v, want read-only latch", err)
	}
	st.crash()

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	st2 := openTestCoordinator(t, nil, 1, dir)
	defer st2.Close()
	if got := st2.Gen(); got != 2 {
		t.Errorf("recovered generation = %d, want committed 2", got)
	}
	gotSources := sources(st2)
	if len(gotSources) != len(wantSources) {
		t.Errorf("recovered %d sources, want %d", len(gotSources), len(wantSources))
	}
	for s := range wantSources {
		if !gotSources[s] {
			t.Errorf("acked source %d lost across failed rotation + reopen", s)
		}
	}
}

// TestDurableSizeTriggeredCheckpointFailureKeepsMutationAcked: a
// mutation whose append trips CheckpointBytes is applied, logged and
// fsynced before the checkpoint runs, so a pre-commit checkpoint failure
// must surface via stats — not as the mutation's result, which a client
// would retry into ErrSourceExists.
func TestDurableSizeTriggeredCheckpointFailureKeepsMutationAcked(t *testing.T) {
	ds := durDataset(t, 10)
	db, muts := splitDataset(t, ds, 8)
	dir := t.TempDir()
	st, err := OpenDurable(db, Options{NumShards: 1, Index: durOpts},
		DurableOptions{Dir: dir, DisableFsync: true, CheckpointBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Make the NEXT checkpoint fail in phase 1 (before the commit point):
	// a directory squats on the gen-2 snapshot's temp path.
	blocker := snapPath(shardDirPath(dir, 0), 2) + ".tmp"
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, m := range muts[:2] {
		if err := st.AddMatrix(m); err != nil {
			t.Fatalf("mutation %d failed because its size-triggered checkpoint failed: %v", i, err)
		}
	}
	stats := st.DurableStats()
	if stats.CheckpointFailures != 2 {
		t.Errorf("CheckpointFailures = %d, want 2", stats.CheckpointFailures)
	}
	if stats.Gen != 1 {
		t.Errorf("gen = %d after pre-commit checkpoint failures, want 1", stats.Gen)
	}
	// Pre-commit failures do not latch: once the obstruction clears, the
	// same store checkpoints fine.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after clearing obstruction: %v", err)
	}
	st.crash()

	st2 := openTestCoordinator(t, nil, 1, dir)
	defer st2.Close()
	for _, m := range muts[:2] {
		if _, ok := st2.Placement(m.Source); !ok {
			t.Errorf("acked source %d lost across checkpoint failures + reopen", m.Source)
		}
	}
}

// TestDurableOversizedMutationRejectedBeforeApply: a matrix whose WAL
// encoding exceeds wal.MaxRecord must be rejected as a client error
// before it is applied — not discovered at append time, which would
// latch the whole store read-only for one oversized request.
func TestDurableOversizedMutationRejectedBeforeApply(t *testing.T) {
	ds := durDataset(t, 7)
	db, muts := splitDataset(t, ds, 6)
	dir := t.TempDir()
	st := openTestCoordinator(t, db, 2, dir)
	defer st.Close()

	// 8 columns x 1.05M samples x 8 bytes ≈ 67.2 MB of float64 payload,
	// just over the 64 MiB record cap.
	const nGenes, nSamples = 8, 1_050_000
	ids := make([]gene.ID, nGenes)
	cols := make([][]float64, nGenes)
	for j := range cols {
		ids[j] = gene.ID(j)
		col := make([]float64, nSamples)
		for i := range col {
			col[i] = float64((i + j) % 97)
		}
		cols[j] = col
	}
	big, err := gene.NewMatrix(9999, ids, cols)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddMatrix(big); !errors.Is(err, ErrMutationTooLarge) {
		t.Fatalf("oversized AddMatrix err = %v, want ErrMutationTooLarge", err)
	}
	if _, ok := st.Placement(9999); ok {
		t.Error("oversized matrix was placed despite rejection")
	}
	if st.Database().BySource(9999) != nil {
		t.Error("oversized matrix reached the database despite rejection")
	}
	// The store is not latched: ordinary mutations still work.
	if err := st.AddMatrix(muts[0]); err != nil {
		t.Fatalf("mutation after oversized rejection: %v", err)
	}
}

// TestCursorRollbackOnFailedAdd: a failed AddMatrix must leave the
// round-robin cursor untouched so it keeps counting successful
// placements only — the invariant durable recovery reconstructs the
// cursor from (manifest cursor + replayed adds, which include no failed
// adds).
func TestCursorRollbackOnFailedAdd(t *testing.T) {
	ds := durDataset(t, 8)
	db, muts := splitDataset(t, ds, 6)
	coord, err := Build(db, Options{NumShards: 2, Index: durOpts})
	if err != nil {
		t.Fatal(err)
	}
	coord.mu.Lock()
	before := coord.cursor
	coord.mu.Unlock()

	// An empty matrix passes the coordinator's checks but is rejected by
	// index.AddMatrix — the rollback path.
	empty, err := gene.NewMatrix(7777, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.AddMatrix(empty); err == nil {
		t.Fatal("AddMatrix of an empty matrix succeeded")
	}
	coord.mu.Lock()
	after := coord.cursor
	coord.mu.Unlock()
	if after != before {
		t.Fatalf("cursor moved %d -> %d across a failed add", before, after)
	}
	if _, ok := coord.Placement(7777); ok {
		t.Error("failed add left a placement entry")
	}
	// Placement continues as if the failed add never happened.
	wantShard := after % coord.NumShards()
	if err := coord.AddMatrix(muts[0]); err != nil {
		t.Fatal(err)
	}
	if sh, _ := coord.Placement(muts[0].Source); sh != wantShard {
		t.Errorf("next add placed on shard %d, want %d", sh, wantShard)
	}
}

// TestMatchGenVariableWidth: generation parsing must accept the 9+ digit
// file names %08d emits once the generation passes 10^8 — a fixed-width
// parse would make cleanShardDir delete the committed generation's own
// files.
func TestMatchGenVariableWidth(t *testing.T) {
	cases := []struct {
		name string
		want uint64
		ok   bool
	}{
		{"snap-00000007.snap", 7, true},
		{"snap-99999999.snap", 99999999, true},
		{"snap-100000000.snap", 100000000, true},
		{"snap-123456789012.snap", 123456789012, true},
		{"snap-.snap", 0, false},
		{"snap-0000000x.snap", 0, false},
		{"snap-00000002.snap.tmp", 0, false},
		{"wal-00000002.log", 0, false}, // wrong prefix/suffix
	}
	for _, c := range cases {
		var g uint64
		ok := matchGen(c.name, "snap-", ".snap", &g)
		if ok != c.ok || (ok && g != c.want) {
			t.Errorf("matchGen(%q) = (%d, %v), want (%d, %v)", c.name, g, ok, c.want, c.ok)
		}
	}

	dir := t.TempDir()
	const gen = 100000000
	keepSnap := filepath.Join(dir, fmt.Sprintf("snap-%08d.snap", uint64(gen)))
	keepWAL := filepath.Join(dir, fmt.Sprintf("wal-%08d.log", uint64(gen)))
	stray := filepath.Join(dir, "snap-99999999.snap")
	for _, p := range []string{keepSnap, keepWAL, stray} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := cleanShardDir(dir, gen); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{keepSnap, keepWAL} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("committed-generation file %s deleted by cleanShardDir", filepath.Base(p))
		}
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Error("stale snap-99999999.snap survived cleanShardDir")
	}
}

// answered reports whether a query extracted from source m answers with m.
func answered(t *testing.T, c *Coordinator, ds *synth.Dataset, m *gene.Matrix) bool {
	t.Helper()
	rng := randgen.New(uint64(m.Source))
	q, origin, err := ds.ExtractQuery(rng, 3)
	for ; err == nil && origin != m.Source; q, origin, err = ds.ExtractQuery(rng, 3) {
	}
	if err != nil {
		t.Fatal(err)
	}
	answers, _, err := c.QueryContext(context.Background(), q,
		core.Params{Gamma: 0.5, Alpha: 0.1, Seed: 9, Analytic: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		if a.Source == m.Source {
			return true
		}
	}
	return false
}

// TestDurableUnloggedMutationStaysInvisible: a mutation whose WAL append
// fails is refused, and no read sees it — not before a restart, where the
// failure latches the coordinator read-only, and not after one.
func TestDurableUnloggedMutationStaysInvisible(t *testing.T) {
	ds := durDataset(t, 14)
	db, muts := splitDataset(t, ds, 10)
	added, kept := muts[0], ds.DB.Matrix(3)

	// The control: the query finds each source while it is indexed.
	ctl := openTestCoordinator(t, db, 3, t.TempDir())
	if err := ctl.AddMatrix(added); err != nil {
		t.Fatal(err)
	}
	if !answered(t, ctl, ds, added) || !answered(t, ctl, ds, kept) {
		t.Fatal("the query does not find an indexed source")
	}
	ctl.Close()

	for _, tc := range []struct {
		name    string
		mutate  func(*Coordinator) error
		m       *gene.Matrix
		visible bool
	}{
		{"add", func(c *Coordinator) error { return c.AddMatrix(added) }, added, false},
		{"remove", func(c *Coordinator) error { return c.RemoveMatrix(kept.Source) }, kept, true},
	} {
		db, _ := splitDataset(t, ds, 10)
		dir := t.TempDir()
		st := openTestCoordinator(t, db, 3, dir)
		st.dur.failAppend = errors.New("injected append failure")
		if err := tc.mutate(st); err == nil {
			t.Fatalf("%s: acknowledged with a failed append", tc.name)
		}
		check := func(c *Coordinator, when string) {
			_, placed := c.Placement(tc.m.Source)
			if placed != tc.visible || sources(c)[tc.m.Source] != tc.visible || answered(t, c, ds, tc.m) != tc.visible {
				t.Errorf("%s %s: source %d placed %v, in the database %v, answered %v; want %v",
					tc.name, when, tc.m.Source, placed, sources(c)[tc.m.Source], answered(t, c, ds, tc.m), tc.visible)
			}
		}
		check(st, "before the restart")
		if err := st.AddMatrix(muts[1]); err == nil {
			t.Errorf("%s: a mutation was acknowledged after the durability failure", tc.name)
		}
		st.crash()
		st2 := openTestCoordinator(t, nil, 3, dir)
		check(st2, "after the restart")
		st2.Close()
	}
}
