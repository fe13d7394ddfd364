package shard

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/imgrn/imgrn/internal/exec"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/wal"
)

// Durable state (DESIGN.md §12). OpenDurable returns a Coordinator whose
// mutations are crash safe: every acknowledged AddMatrix/RemoveMatrix is
// fsynced to a per-shard write-ahead log before the call returns, and the
// expensive composite index (Monte Carlo embeddings + R*-tree points) is
// checkpointed into per-shard snapshot files so a restart loads vectors
// instead of re-embedding them. The read path is the in-memory one:
// queries never touch the log.
//
// On-disk layout under DurableOptions.Dir:
//
//	MANIFEST                     JSON: format, generation, shard count,
//	                             placement cursor, full index options
//	shard-000/snap-0000000G.snap snapshot of shard 0 at generation G
//	shard-000/wal-0000000G.log   mutations since generation G
//	shard-001/…                  one directory per shard
//
// The generation G is directory-global: a checkpoint snapshots every shard,
// then commits by atomically renaming a new MANIFEST. WAL segments are
// named after the snapshot generation they follow, which ties log and
// snapshot together without any cross-file sequence numbers.
//
// Recovery protocol (OpenDurable):
//
//  1. Read MANIFEST; its generation G names the committed state. Files
//     from other generations are leftovers of an interrupted checkpoint
//     (gen > G: snapshots written but never committed) or an interrupted
//     cleanup (gen < G) and are deleted.
//  2. Per shard, in parallel: load snap-G.snap (partition database +
//     index; the Monte Carlo embedding is NOT recomputed), then replay
//     wal-G.log — truncating a torn tail first — through the index's
//     online mutation path.
//  3. Assemble the coordinator (newCoordinator, like Build and
//     FromIndex): placement of recovered sources falls out of which
//     shard's files each lives in; the round-robin cursor is the manifest
//     cursor plus the add records replayed; new sources are placed by the
//     caller's Options.PlaceFunc when set.
//
// Ordering guarantee: a mutation is applied to the in-memory engine,
// appended to its shard's WAL, fsynced, and only then acknowledged. A
// crash at any point therefore loses only unacknowledged mutations: an
// applied-but-unlogged mutation dies with the process memory, and a torn
// log tail is dropped by recovery. Conversely every acknowledged
// mutation is in the fsynced log (or in a newer snapshot) and survives
// kill -9.
//
// A snapshot generation G is safe to delete exactly when a MANIFEST with
// generation > G has been renamed into place and fsynced — which is the
// only moment a checkpoint deletes anything.

// Snapshot container format (little-endian), one file per shard:
//
//	magic     [8]byte  "IMGRNSS1"
//	gen       uint64   snapshot generation
//	shard     uint32   shard number in [0, numShards)
//	numShards uint32
//	dbLen     uint64   length of the database section
//	idxLen    uint64   length of the index section
//	crc       uint32   CRC-32C of the two sections
//	_         uint32   reserved (zero)
//	database  [dbLen]byte   IMGRNDB1 (gene.WriteDatabase)
//	index     [idxLen]byte  IMGRNIX1 (index.Save)
var snapMagic = [8]byte{'I', 'M', 'G', 'R', 'N', 'S', 'S', '1'}

const snapHeaderSize = 8 + 8 + 4 + 4 + 8 + 8 + 4 + 4

// manifestFormat versions the MANIFEST schema.
const manifestFormat = 1

// manifest is the committed-state pointer of a durable data directory. It is
// written with the same write-temp + rename + dir-fsync protocol as the
// snapshots it names.
type manifest struct {
	Format    int    `json:"format"`
	Gen       uint64 `json:"gen"`
	NumShards int    `json:"numShards"`
	// Cursor is the round-robin placement cursor at the checkpoint;
	// recovery adds the add-records replayed from the WALs so future
	// placements continue the same sequence.
	Cursor int `json:"cursor"`
	// Index is the full option set of the shard indexes. The snapshot
	// header carries only the structural fields; Seed, Samples and the
	// pivot-selection parameters live here so replayed and future
	// AddMatrix calls embed with the original randomness.
	Index index.Options `json:"index"`
}

// DurableOptions configures the durable lifecycle of a coordinator.
type DurableOptions struct {
	// Dir is the data directory (required). It is created if absent.
	Dir string
	// CheckpointBytes triggers a checkpoint when the live WAL segments
	// exceed this many bytes in total (64 MiB when 0; < 0 disables the
	// size trigger).
	CheckpointBytes int64
	// CheckpointEvery triggers a background checkpoint at this interval
	// while mutations are outstanding (0 disables the timer; the log is
	// also checkpointed on Close).
	CheckpointEvery time.Duration
	// DisableFsync skips every fsync (records are still written and
	// framed). Only for tests that reopen directories hundreds of times; a
	// server running with this set can lose acknowledged mutations on a
	// machine crash, though not on a process kill.
	DisableFsync bool
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 64 << 20
	}
	return o
}

// DurableStats is an observability snapshot of a durable coordinator (the
// imgrn_wal_* / imgrn_snapshot_* metric families and the /stats
// durability block).
type DurableStats struct {
	// Gen is the committed snapshot generation.
	Gen uint64
	// WarmBoot reports whether OpenDurable restored state from disk
	// (true) or built the index from scratch (false).
	WarmBoot bool
	// BootDuration is the wall-clock time of OpenDurable.
	BootDuration time.Duration
	// ReplayedRecords counts WAL records applied during recovery, and
	// ReplayedAdds the add-matrix subset (each of which re-embeds one
	// matrix; everything else loads from the snapshot).
	ReplayedRecords int
	ReplayedAdds    int
	// TornBytes is the total torn-tail length truncated at recovery.
	TornBytes int64
	// WALAppends, WALAppendBytes and WALFsyncs count logging activity
	// since open; WALSegmentBytes is the current total size of the live
	// segments (resets to 0 at each checkpoint).
	WALAppends      uint64
	WALAppendBytes  uint64
	WALFsyncs       uint64
	WALSegmentBytes int64
	// Checkpoints counts completed checkpoints since open;
	// LastCheckpointDuration and LastCheckpointBytes describe the most
	// recent one (bytes = total snapshot file size across shards).
	Checkpoints            uint64
	LastCheckpointDuration time.Duration
	LastCheckpointBytes    int64
	// CheckpointFailures counts checkpoint attempts that returned an
	// error since open (including ones swallowed by the size/timer
	// triggers, whose mutations are durable regardless);
	// LastCheckpointError describes the most recent failure.
	CheckpointFailures  uint64
	LastCheckpointError string
}

// durability is the write-ahead log and checkpoint state of a durable
// coordinator.
type durability struct {
	dopts DurableOptions

	// mu serializes mutations and checkpoints against each other.
	// Queries are not affected: they take per-shard read locks only.
	mu     sync.Mutex
	gen    uint64
	wals   []*wal.Writer
	dirty  int // appends since the last checkpoint
	closed bool
	// failed latches a durability failure: either a log-append error
	// (the in-memory engine is ahead of the log, and a checkpoint would
	// make the unacknowledged mutation durable) or a checkpoint error
	// past the manifest commit point (the live segments may no longer
	// belong to the committed generation, so recovery would discard
	// anything appended to them). Further mutations and checkpoints are
	// refused; the read path is unaffected.
	failed error

	// failAppend, set only by tests, makes every WAL append fail with it
	// and write nothing.
	failAppend error

	stopTicker chan struct{}
	tickerDone chan struct{}

	statsMu sync.Mutex
	stats   DurableStats
}

// OpenDurable opens (or initializes) a durable coordinator over the data
// directory dopts.Dir. When the directory holds a committed MANIFEST the
// coordinator warm-boots: per-shard snapshots are loaded (skipping the
// Monte Carlo embedding) and the WAL segments are replayed over them; db
// is ignored and may be nil. Otherwise it cold-boots: the coordinator is
// built from db exactly like Build, and a generation-1 checkpoint is
// written so the state is durable before OpenDurable returns.
//
// On a warm boot opts.NumShards must match the on-disk shard count
// (resharding a durable directory is an explicit offline rebuild), or be
// <= 1 to adopt it; the on-disk index options win over opts.Index except
// for the runtime-only Index.Workers field, and opts.PlaceFunc places the
// sources added from then on.
func OpenDurable(db *gene.Database, opts Options, dopts DurableOptions) (*Coordinator, error) {
	start := time.Now()
	if dopts.Dir == "" {
		return nil, fmt.Errorf("shard: durable coordinator requires a data directory")
	}
	dopts = dopts.withDefaults()
	if err := os.MkdirAll(dopts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: creating data dir: %w", err)
	}

	man, err := readManifest(filepath.Join(dopts.Dir, "MANIFEST"))
	if err != nil {
		return nil, err
	}
	var c *Coordinator
	if man != nil {
		c, err = openWarm(man, opts, dopts)
	} else {
		c, err = openCold(db, opts, dopts)
	}
	if err != nil {
		return nil, err
	}
	d := c.dur
	d.stats.BootDuration = time.Since(start)
	if dopts.CheckpointEvery > 0 {
		d.stopTicker = make(chan struct{})
		d.tickerDone = make(chan struct{})
		go c.checkpointLoop(d.stopTicker)
	}
	return c, nil
}

// openCold builds the coordinator from db and commits generation 1.
func openCold(db *gene.Database, opts Options, dopts DurableOptions) (*Coordinator, error) {
	// Refuse a directory with shard files but no manifest: that is not a
	// fresh directory, it is a corrupted one (or someone else's data).
	entries, err := os.ReadDir(dopts.Dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() && len(e.Name()) > 6 && e.Name()[:6] == "shard-" {
			return nil, fmt.Errorf("shard: %s has shard directories but no MANIFEST; refusing to overwrite", dopts.Dir)
		}
	}
	if db == nil {
		db = gene.NewDatabase()
	}
	c, err := Build(db, opts)
	if err != nil {
		return nil, err
	}
	c.dur = &durability{dopts: dopts, wals: make([]*wal.Writer, c.NumShards())}
	c.dur.mu.Lock()
	defer c.dur.mu.Unlock()
	if err := c.checkpointLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// openWarm restores the coordinator from the committed generation:
// snapshot load plus WAL replay, per shard in parallel.
func openWarm(man *manifest, opts Options, dopts DurableOptions) (*Coordinator, error) {
	if man.Format != manifestFormat {
		return nil, fmt.Errorf("shard: MANIFEST format %d not supported", man.Format)
	}
	opts = opts.withDefaults()
	if opts.NumShards > 1 && opts.NumShards != man.NumShards {
		return nil, fmt.Errorf("shard: data dir holds %d shards but %d requested; resharding requires an offline rebuild",
			man.NumShards, opts.NumShards)
	}
	p := man.NumShards
	workers := opts.Index.Workers // runtime knob, not persisted state
	opts.Index = man.Index
	opts.Index.Workers = workers

	type shardBoot struct {
		idx  *index.Index
		wal  *wal.Writer
		info wal.RecoveryInfo
		adds int
		recs int
	}
	boots := make([]shardBoot, p)
	recoverShard := func(i int) error {
		dir := shardDirPath(dopts.Dir, i)
		if err := cleanShardDir(dir, man.Gen); err != nil {
			return err
		}
		idx, err := readSnapshot(snapPath(dir, man.Gen), man.Gen, i, p)
		if err != nil {
			return err
		}
		if err := idx.RestoreOptions(opts.Index); err != nil {
			return err
		}
		b := shardBoot{idx: idx}
		w, info, err := wal.Open(walPath(dir, man.Gen), !dopts.DisableFsync, func(payload []byte) error {
			rec, err := wal.DecodeRecord(payload)
			if err != nil {
				return err
			}
			b.recs++
			switch rec.Op {
			case wal.OpAddMatrix:
				b.adds++
				return idx.AddMatrix(rec.Matrix)
			case wal.OpRemoveMatrix:
				return idx.RemoveMatrix(rec.Source)
			default:
				return fmt.Errorf("unknown op %v", rec.Op)
			}
		})
		if err != nil {
			return err
		}
		b.wal = w
		b.info = info
		boots[i] = b
		return nil
	}
	errs := forEachShard(p, recoverShard)
	for i, err := range errs {
		if err != nil {
			for _, b := range boots {
				if b.wal != nil {
					b.wal.Close()
				}
			}
			return nil, fmt.Errorf("shard: recovering shard %d: %w", i, err)
		}
	}

	// The global database view interleaves the partitions round-robin,
	// which reproduces the original insertion order for a directory that
	// has only grown.
	d := &durability{dopts: dopts, gen: man.Gen, wals: make([]*wal.Writer, p)}
	d.stats.Gen = man.Gen
	d.stats.WarmBoot = true
	idxs := make([]*index.Index, p)
	maxLen := 0
	for i, b := range boots {
		idxs[i] = b.idx
		d.wals[i] = b.wal
		d.stats.WALSegmentBytes += b.wal.Size()
		d.stats.ReplayedRecords += b.recs
		d.stats.ReplayedAdds += b.adds
		d.stats.TornBytes += b.info.TornBytes
		d.dirty += b.recs
		maxLen = max(maxLen, b.idx.DB().Len())
	}
	db := gene.NewDatabase()
	for j := 0; j < maxLen; j++ {
		for _, idx := range idxs {
			if part := idx.DB(); j < part.Len() {
				if err := db.Add(part.Matrix(j)); err != nil {
					return nil, fmt.Errorf("shard: reassembling database view: %w", err)
				}
			}
		}
	}
	c := newCoordinator(opts, idxs, db, man.Cursor+d.stats.ReplayedAdds)
	c.dur = d
	return c, nil
}

// forEachShard runs fn for shards 0..p-1 on an exec pool of p workers and
// returns each shard's error in its own slot. Every shard runs even when
// another fails, so callers report the lowest failing shard whatever the
// schedule.
func forEachShard(p int, fn func(i int) error) []error {
	errs := make([]error, p)
	// fn's errors land in errs, so the fan-out itself cannot fail.
	_ = exec.New(context.Background(), nil, p).ForEach(p, func(i int) error {
		errs[i] = fn(i)
		return nil
	})
	return errs
}

// checkpointLoop is the time-based checkpoint trigger: while mutations
// are outstanding, checkpoint every CheckpointEvery.
func (c *Coordinator) checkpointLoop(stop <-chan struct{}) {
	d := c.dur
	defer close(d.tickerDone)
	t := time.NewTicker(d.dopts.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			d.mu.Lock()
			if !d.closed && d.failed == nil && d.dirty > 0 {
				_ = c.checkpointLocked() // surfaced via stats; mutations keep logging
			}
			d.mu.Unlock()
		}
	}
}

// ErrMutationTooLarge rejects a mutation whose encoded WAL record would
// exceed wal.MaxRecord. The check runs before the mutation is applied,
// so an oversized request is an ordinary client error — it does not
// latch the coordinator read-only.
var ErrMutationTooLarge = errors.New("mutation exceeds WAL record limit")

// addRecordLocked encodes the WAL record of an add before it is applied.
// The size is validated here: a compact JSON body under the server's
// request limit can encode to a binary record over wal.MaxRecord (float64
// columns expand ~4x), and discovering that in logLocked — after the
// apply — would latch the whole coordinator read-only for one oversized
// request.
func (d *durability) addRecordLocked(m *gene.Matrix) ([]byte, error) {
	if err := d.usableLocked(); err != nil {
		return nil, err
	}
	payload, err := wal.EncodeAddMatrix(m)
	if err != nil {
		return nil, err
	}
	if len(payload) > wal.MaxRecord {
		return nil, fmt.Errorf("shard: matrix %d encodes to a %d-byte WAL record (limit %d): %w",
			m.Source, len(payload), wal.MaxRecord, ErrMutationTooLarge)
	}
	return payload, nil
}

func (d *durability) usableLocked() error {
	if d.closed {
		return fmt.Errorf("shard: durable coordinator is closed")
	}
	if d.failed != nil {
		return fmt.Errorf("shard: durable coordinator is read-only after durability failure: %w", d.failed)
	}
	return nil
}

// logLocked appends a checked mutation to shard sh's segment, fsyncs it,
// and only then runs apply, so no read sees a mutation that is not
// logged. An append failure latches the coordinator read-only and leaves
// the mutation unapplied and unacknowledged. Every check that can reject
// the mutation has run before the append, so apply cannot fail short of
// a bug; if it does, the log holds a record the engine lacks, and the
// coordinator latches read-only as well. The size-triggered checkpoint
// runs last: before the apply it would snapshot without the logged record
// and then truncate it.
func (c *Coordinator) logLocked(sh int, payload []byte, apply func() error) error {
	d := c.dur
	err := d.failAppend
	if err == nil {
		err = d.wals[sh].Append(payload)
	}
	if err != nil {
		d.failed = err
		return fmt.Errorf("shard: mutation not logged and not applied; coordinator is now read-only: %w", err)
	}
	d.dirty++
	var segBytes int64
	for _, w := range d.wals {
		segBytes += w.Size()
	}
	d.statsMu.Lock()
	d.stats.WALAppends++
	d.stats.WALAppendBytes += uint64(len(payload))
	if !d.dopts.DisableFsync {
		d.stats.WALFsyncs++
	}
	d.stats.WALSegmentBytes = segBytes
	d.statsMu.Unlock()
	if err := apply(); err != nil {
		d.failed = err
		return fmt.Errorf("shard: mutation logged but not applied; coordinator is now read-only: %w", err)
	}
	if d.dopts.CheckpointBytes > 0 && segBytes >= d.dopts.CheckpointBytes {
		// The mutation that tripped the size trigger is already logged,
		// fsynced and applied — it is durable whatever happens to the
		// checkpoint, so a checkpoint error must not become this
		// mutation's result (the client would retry an acked add and get
		// ErrSourceExists). Failures surface via CheckpointFailures and,
		// past the commit point, the read-only latch.
		_ = c.checkpointLocked()
	}
	return nil
}

// Checkpoint writes a new snapshot generation and truncates the WAL: all
// shards are snapshotted, the MANIFEST is atomically replaced, fresh
// (empty) segments are opened, and the previous generation's files are
// deleted. Queries proceed concurrently (snapshots take per-shard read
// locks); mutations wait. No-op (nil) on an in-memory coordinator.
func (c *Coordinator) Checkpoint() error {
	d := c.dur
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usableLocked(); err != nil {
		return err
	}
	return c.checkpointLocked()
}

// checkpointLocked runs one checkpoint and records any failure in the
// stats (so triggers that cannot return the error to anyone — the size
// threshold in logLocked, the timer loop — still surface it).
func (c *Coordinator) checkpointLocked() error {
	err := c.runCheckpointLocked()
	if err != nil {
		d := c.dur
		d.statsMu.Lock()
		d.stats.CheckpointFailures++
		d.stats.LastCheckpointError = err.Error()
		d.statsMu.Unlock()
	}
	return err
}

func (c *Coordinator) runCheckpointLocked() error {
	start := time.Now()
	d := c.dur
	newGen := d.gen + 1
	doSync := !d.dopts.DisableFsync

	// Phase 1: write every shard's snapshot (temp + rename). Nothing is
	// committed yet; a crash here leaves uncommitted gen-newGen files
	// that recovery deletes.
	sizes := make([]int64, c.NumShards())
	errs := forEachShard(c.NumShards(), func(i int) error {
		dir := shardDirPath(d.dopts.Dir, i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		s := c.shards[i]
		s.mu.RLock()
		n, err := writeSnapshot(snapPath(dir, newGen), newGen, i, c.NumShards(), s.idx, doSync)
		s.mu.RUnlock()
		sizes[i] = n
		return err
	})
	var snapBytes int64
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard: checkpointing shard %d: %w", i, err)
		}
		snapBytes += sizes[i]
	}

	// Phase 2: commit. The manifest rename is the atomic commit point;
	// after its directory fsync the new generation is the recovered one.
	c.mu.Lock()
	cursor := c.cursor
	c.mu.Unlock()
	man := manifest{
		Format:    manifestFormat,
		Gen:       newGen,
		NumShards: c.NumShards(),
		Cursor:    cursor,
		Index:     c.opts.Index,
	}
	committed, err := writeManifest(filepath.Join(d.dopts.Dir, "MANIFEST"), man, doSync)
	if err != nil {
		if !committed {
			// The old manifest still names the committed state: the new
			// generation's snapshots are strays recovery deletes, and the
			// live segments still belong to the committed generation, so
			// the coordinator keeps logging normally.
			return err
		}
		// The rename landed but its durability is unknown (the directory
		// fsync failed) — recovery may resurrect either generation, so no
		// further mutation may be acknowledged against segments one of
		// them would delete.
		d.failed = fmt.Errorf("shard: checkpoint commit for gen %d not durable: %w", newGen, err)
		return fmt.Errorf("shard: coordinator is now read-only: %w", d.failed)
	}

	// Phase 3: rotate segments and delete the superseded generation. A
	// *crash* anywhere here is repaired by recovery (missing new segments
	// are created empty; stale gen files are deleted). An *error* here
	// latches the coordinator read-only: gen newGen is already committed,
	// so recovery deletes the old segments — acking further appends to
	// them would silently lose those mutations, and a retried checkpoint
	// could os.Remove the very wal-newGen segment it had just opened.
	oldGen := d.gen
	d.gen = newGen
	d.statsMu.Lock()
	d.stats.Gen = newGen
	d.statsMu.Unlock()
	for i := range c.shards {
		dir := shardDirPath(d.dopts.Dir, i)
		w, _, err := wal.Open(walPath(dir, newGen), doSync, nil)
		if err != nil {
			d.failed = fmt.Errorf("shard: opening segment for gen %d after commit: %w", newGen, err)
			return fmt.Errorf("shard: coordinator is now read-only: %w", d.failed)
		}
		if old := d.wals[i]; old != nil {
			old.Close()
			// Path equality guards the defense-in-depth case of a rotation
			// retry: never unlink the segment the live writer holds.
			if old.Path() != w.Path() {
				os.Remove(old.Path())
			}
		}
		d.wals[i] = w
		if oldGen > 0 {
			os.Remove(snapPath(dir, oldGen))
		}
	}
	d.dirty = 0

	d.statsMu.Lock()
	d.stats.Checkpoints++
	d.stats.LastCheckpointDuration = time.Since(start)
	d.stats.LastCheckpointBytes = snapBytes
	d.stats.WALSegmentBytes = 0
	d.statsMu.Unlock()
	return nil
}

// Close releases the coordinator. A durable coordinator checkpoints
// outstanding mutations (clean-shutdown checkpointing, so the next boot
// replays nothing) and closes its log segments; it refuses mutations
// afterwards. Close of an in-memory coordinator is a no-op (nil).
func (c *Coordinator) Close() error {
	d := c.dur
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.stopTickerLocked()
	var err error
	if d.failed == nil && d.dirty > 0 {
		err = c.checkpointLocked()
	}
	d.closeSegmentsLocked()
	d.closed = true
	return err
}

// crash abandons a durable coordinator without checkpointing or syncing —
// the test seam simulating kill -9: file handles close (the OS would do
// that anyway) but nothing is flushed, rotated, or committed.
func (c *Coordinator) crash() {
	d := c.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.stopTickerLocked()
	d.closeSegmentsLocked()
	d.closed = true
}

func (d *durability) stopTickerLocked() {
	if d.stopTicker != nil {
		close(d.stopTicker)
		// The loop may be blocked on mu; it checks closed under the lock,
		// so just signal and let it drain.
		d.stopTicker = nil
	}
}

func (d *durability) closeSegmentsLocked() {
	for _, w := range d.wals {
		if w != nil {
			w.Close()
		}
	}
}

// Durable reports whether the coordinator was opened with OpenDurable.
func (c *Coordinator) Durable() bool { return c.dur != nil }

// Gen reports the committed snapshot generation (0 when in-memory).
func (c *Coordinator) Gen() uint64 { return c.DurableStats().Gen }

// Dir reports the data directory ("" when in-memory).
func (c *Coordinator) Dir() string {
	if c.dur == nil {
		return ""
	}
	return c.dur.dopts.Dir
}

// DurableStats reports the durability counters; the zero value for an
// in-memory coordinator.
func (c *Coordinator) DurableStats() DurableStats {
	d := c.dur
	if d == nil {
		return DurableStats{}
	}
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	return d.stats
}

// --- file layout helpers ---

func shardDirPath(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.snap", gen))
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", gen))
}

// cleanShardDir deletes temp files and files from generations other than
// the committed one: gen > committed are uncommitted checkpoint
// leftovers, gen < committed escaped a completed checkpoint's cleanup.
func cleanShardDir(dir string, gen uint64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("shard: missing shard directory %s", dir)
		}
		return err
	}
	for _, e := range entries {
		name := e.Name()
		var g uint64
		keep := false
		switch {
		case matchGen(name, "snap-", ".snap", &g):
			keep = g == gen
		case matchGen(name, "wal-", ".log", &g):
			keep = g == gen
		}
		if !keep {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("shard: removing stray %s: %w", name, err)
			}
		}
	}
	return nil
}

// matchGen parses `prefix<digits>suffix` file names. The digit run is
// variable-length: snapPath/walPath pad to 8 digits with %08d but emit 9+
// once the generation passes 10^8, and a fixed-width parse would make
// cleanShardDir mistake the committed generation's own files for strays.
func matchGen(name, prefix, suffix string, gen *uint64) bool {
	if len(name) <= len(prefix)+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	var g uint64
	for _, c := range name[len(prefix) : len(name)-len(suffix)] {
		if c < '0' || c > '9' {
			return false
		}
		g = g*10 + uint64(c-'0')
	}
	*gen = g
	return true
}

// --- manifest I/O ---

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard: reading MANIFEST: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("shard: parsing MANIFEST: %w", err)
	}
	if man.NumShards <= 0 || man.Gen == 0 {
		return nil, fmt.Errorf("shard: implausible MANIFEST (gen=%d shards=%d)", man.Gen, man.NumShards)
	}
	return &man, nil
}

func writeManifest(path string, man manifest, doSync bool) (committed bool, err error) {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return false, err
	}
	return atomicWrite(path, append(data, '\n'), doSync)
}

// atomicWrite is the crash-safe replace protocol of the manifest: write
// a temp file, fsync it, rename over the target, fsync the directory. A
// reader sees either the old complete file or the new complete file,
// never a partial one. committed reports whether the rename was issued:
// an error with committed=false left the old file in place, while an
// error with committed=true (the directory fsync failed) leaves the
// replace in an unknown durability state — the caller must treat the
// commit as ambiguous, not rolled back.
func atomicWrite(path string, data []byte, doSync bool) (committed bool, err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return false, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return false, err
	}
	if doSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return false, err
		}
	}
	if err := f.Close(); err != nil {
		return false, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return false, err
	}
	if doSync {
		return true, wal.SyncDir(filepath.Dir(path))
	}
	return true, nil
}

// --- snapshot I/O ---

// crcCounter accumulates a CRC-32C and byte count of everything written
// through it.
type crcCounter struct {
	w   io.Writer
	n   int64
	crc uint32
}

var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

func (c *crcCounter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.crc = crc32.Update(c.crc, snapCRCTable, p[:n])
	return n, err
}

type crcCountReader struct {
	r   io.Reader
	n   int64
	crc uint32
}

func (c *crcCountReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	c.crc = crc32.Update(c.crc, snapCRCTable, p[:n])
	return n, err
}

// writeSnapshot serializes one shard (partition database + index) into a
// generation-stamped snapshot file using the temp + rename protocol, and
// returns the file size.
func writeSnapshot(path string, gen uint64, shardID, numShards int, idx *index.Index, doSync bool) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	fail := func(err error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	// Header placeholder; lengths and CRC are patched in afterwards.
	if _, err := f.Write(make([]byte, snapHeaderSize)); err != nil {
		return fail(err)
	}
	cw := &crcCounter{w: f}
	if err := gene.WriteDatabase(cw, idx.DB()); err != nil {
		return fail(fmt.Errorf("snapshot database section: %w", err))
	}
	dbLen := cw.n
	if err := idx.Save(cw); err != nil {
		return fail(fmt.Errorf("snapshot index section: %w", err))
	}
	idxLen := cw.n - dbLen

	hdr := make([]byte, snapHeaderSize)
	copy(hdr, snapMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], gen)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(shardID))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(numShards))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(dbLen))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(idxLen))
	binary.LittleEndian.PutUint32(hdr[40:], cw.crc)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return fail(err)
	}
	if doSync {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	if doSync {
		if err := wal.SyncDir(filepath.Dir(path)); err != nil {
			return 0, err
		}
	}
	return snapHeaderSize + cw.n, nil
}

// readSnapshot loads one shard snapshot, validating generation, shard
// identity and the section checksum.
func readSnapshot(path string, wantGen uint64, wantShard, wantShards int) (*index.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hdr := make([]byte, snapHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, fmt.Errorf("snapshot header: %w", err)
	}
	if string(hdr[:8]) != string(snapMagic[:]) {
		return nil, fmt.Errorf("snapshot %s: bad magic %q", path, hdr[:8])
	}
	gen := binary.LittleEndian.Uint64(hdr[8:])
	shardID := binary.LittleEndian.Uint32(hdr[16:])
	numShards := binary.LittleEndian.Uint32(hdr[20:])
	dbLen := int64(binary.LittleEndian.Uint64(hdr[24:]))
	idxLen := int64(binary.LittleEndian.Uint64(hdr[32:]))
	wantCRC := binary.LittleEndian.Uint32(hdr[40:])
	if gen != wantGen || int(shardID) != wantShard || int(numShards) != wantShards {
		return nil, fmt.Errorf("snapshot %s: header (gen=%d shard=%d/%d) does not match manifest (gen=%d shard=%d/%d)",
			path, gen, shardID, numShards, wantGen, wantShard, wantShards)
	}
	cr := &crcCountReader{r: f}
	db, err := gene.ReadDatabase(io.LimitReader(cr, dbLen))
	if err != nil {
		return nil, fmt.Errorf("snapshot database section: %w", err)
	}
	// The database section's buffered reader consumed up to dbLen bytes
	// through cr; account for any it left behind before the index section.
	if cr.n < dbLen {
		if _, err := io.CopyN(io.Discard, cr, dbLen-cr.n); err != nil {
			return nil, err
		}
	}
	idx, err := index.Load(io.LimitReader(cr, idxLen), db)
	if err != nil {
		return nil, fmt.Errorf("snapshot index section: %w", err)
	}
	if cr.n < dbLen+idxLen {
		if _, err := io.CopyN(io.Discard, cr, dbLen+idxLen-cr.n); err != nil {
			return nil, err
		}
	}
	if cr.crc != wantCRC {
		return nil, fmt.Errorf("snapshot %s: checksum mismatch (corrupt file)", path)
	}
	return idx, nil
}
