package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"sort"
	"time"
)

// replayAdds is the exact number of adds appended before the kill -9 leg.
// At about 4 KB each they stay far below the default 64 MiB checkpoint
// trigger, so every one of them must come back through WAL replay.
const replayAdds = 400

// durableLegs are the two restart legs that follow durable-mixed's
// measured phase: SIGTERM and a clean warm boot (replay 0), then
// replayAdds acknowledged adds, kill -9, and a recovering boot that must
// replay exactly that many records. After each boot every acknowledged
// write is checked: a live source must be refused as a duplicate, a removed
// one as unknown.
func durableLegs(ctx context.Context, d *deployment, in *inputs, cfg runConfig, res *workloadResult, live map[int]bool) error {
	p := d.front
	dataDir := filepath.Join(p.dir, "data")
	before, err := fetchDurability(ctx, p)
	if err != nil {
		return err
	}
	res.Counts["checkpoints"] = before.Checkpoints
	if !cfg.quick && before.Checkpoints < 5 {
		res.fail("only %d checkpoints completed, the workload is built to complete at least 5", before.Checkpoints)
	}

	// Leg 1: clean shutdown, then a warm boot with the default
	// -checkpoint-bytes.
	p.stop(false)
	stored, err := dirBytes(dataDir)
	if err != nil {
		return err
	}
	liveBytes := float64(in.dbBytes)
	for src, alive := range live {
		if alive {
			liveBytes += float64(matrixBytes(in.addMatrix[src%addTemplates]))
		}
	}
	res.setE2E("space_amp", float64(stored)/liveBytes)
	args := dropFlag(p.args, "-checkpoint-bytes")
	if err := d.reboot(ctx, p, args); err != nil {
		return err
	}
	clean, err := fetchDurability(ctx, p)
	if err != nil {
		return err
	}
	if !clean.WarmBoot || clean.ReplayedRecords != 0 {
		res.fail("clean restart: want a warm boot replaying 0 records, /stats durability is %+v", *clean)
	}
	if err := verifyAcked(ctx, p.url, in, live, res); err != nil {
		return err
	}

	// Leg 2: a fixed number of acknowledged adds, none checkpointed, then
	// kill -9 and recovery.
	s := newStream(in, phaseReplay, 0, 1, false)
	n := cfg.scale(replayAdds)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opAdd, path: "/add-matrix", source: s.source(i)}
	}
	if err := sendAll(ctx, p.url, s, ops); err != nil {
		return fmt.Errorf("%s: replay leg: %w\n%s", in.w.name, err, d.logs())
	}
	res.Attempted += n
	for _, o := range ops {
		live[o.source] = true
	}
	killed := time.Now()
	p.stop(true)
	if err := d.reboot(ctx, p, args); err != nil {
		return err
	}
	res.setE2E("recover_s", time.Since(killed).Seconds())
	rec, err := fetchDurability(ctx, p)
	if err != nil {
		return err
	}
	if !rec.WarmBoot || rec.ReplayedRecords != n {
		res.fail("kill -9 restart: want a warm boot replaying %d records, /stats durability is %+v", n, *rec)
	}
	res.Counts["replayed_records"] = rec.ReplayedRecords
	res.setLayer("shard.warm_boot_ms", float64(clean.BootMillis))
	res.setLayer("shard.replay_ms_per_record", float64(rec.BootMillis-clean.BootMillis)/float64(n))
	return verifyAcked(ctx, p.url, in, live, res)
}

// verifyAcked checks, after a restart, that every acknowledged write
// survived: re-adding a live source must answer 409, removing an
// already-removed one 404. Each probe counts as an op.
func verifyAcked(ctx context.Context, url string, in *inputs, live map[int]bool, res *workloadResult) error {
	sources := make([]int, 0, len(live))
	for src := range live {
		sources = append(sources, src)
	}
	sort.Ints(sources)
	hc := newClient()
	defer hc.CloseIdleConnections()
	s := newStream(in, phaseReplay, 0, 1, false)
	var buf []byte
	var rbuf bytes.Buffer
	for _, src := range sources {
		o, want := op{kind: opAdd, path: "/add-matrix", source: src}, http.StatusConflict
		if !live[src] {
			o, want = op{kind: opRemove, path: "/remove-matrix", source: src}, http.StatusNotFound
		}
		buf = s.render(buf[:0], o)
		status, err := send(ctx, hc, url+o.path, buf, &rbuf)
		if err != nil {
			return fmt.Errorf("verifying source %d after restart: %w", src, err)
		}
		res.Attempted++
		if status != want {
			res.Failed++
			res.fail("after restart %s of source %d answered %d, want %d: an acknowledged write was lost", o.path, src, status, want)
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
