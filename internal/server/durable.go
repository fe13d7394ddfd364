package server

import (
	"github.com/imgrn/imgrn/internal/obs"
	"github.com/imgrn/imgrn/internal/shard"
)

// Durable serving. A server over a durable coordinator
// (shard.OpenDurable) serves the same handlers: the coordinator's own
// AddMatrix/RemoveMatrix put every acknowledged mutation in the fsynced
// write-ahead log before the HTTP 200 leaves the server. Such servers
// additionally expose the imgrn_wal_* and imgrn_snapshot_* metric
// families (refreshed from the coordinator on every /metrics scrape, like
// the per-shard gauges) and a "durability" block in /stats.

// durableMetrics are scrape-refreshed gauges mirroring
// shard.DurableStats; registered only on durable servers so non-durable
// deployments don't expose dead families.
type durableMetrics struct {
	walAppends     *obs.Gauge
	walAppendBytes *obs.Gauge
	walFsyncs      *obs.Gauge
	walSegBytes    *obs.Gauge
	walReplayed    *obs.Gauge
	walTornBytes   *obs.Gauge
	snapGen        *obs.Gauge
	snapCount      *obs.Gauge
	snapFailures   *obs.Gauge
	snapLastMillis *obs.Gauge
	snapLastBytes  *obs.Gauge
	snapWarmBoot   *obs.Gauge
	snapBootMillis *obs.Gauge
}

func (m *serverMetrics) initDurable(r *obs.Registry) {
	d := &m.durable
	d.walAppends = r.Gauge("imgrn_wal_appends_total",
		"Mutation records appended to the write-ahead log since boot.")
	d.walAppendBytes = r.Gauge("imgrn_wal_append_bytes_total",
		"Payload bytes appended to the write-ahead log since boot.")
	d.walFsyncs = r.Gauge("imgrn_wal_fsyncs_total",
		"WAL fsyncs issued since boot (one per acknowledged mutation unless fsync is disabled).")
	d.walSegBytes = r.Gauge("imgrn_wal_segment_bytes",
		"Total size of the live WAL segments across shards; falls to 0 at each checkpoint.")
	d.walReplayed = r.Gauge("imgrn_wal_replayed_records",
		"WAL records replayed over the snapshot at the last boot.")
	d.walTornBytes = r.Gauge("imgrn_wal_torn_bytes",
		"Torn-tail bytes truncated from the WAL at the last boot.")
	d.snapGen = r.Gauge("imgrn_snapshot_generation",
		"Committed snapshot generation of the durable store.")
	d.snapCount = r.Gauge("imgrn_snapshot_checkpoints_total",
		"Checkpoints completed since boot.")
	d.snapFailures = r.Gauge("imgrn_snapshot_checkpoint_failures_total",
		"Checkpoint attempts that failed since boot (the mutations that triggered them remain durable).")
	d.snapLastMillis = r.Gauge("imgrn_snapshot_last_duration_ms",
		"Wall-clock duration of the most recent checkpoint in milliseconds.")
	d.snapLastBytes = r.Gauge("imgrn_snapshot_last_bytes",
		"Total snapshot bytes written by the most recent checkpoint.")
	d.snapWarmBoot = r.Gauge("imgrn_snapshot_warm_boot",
		"1 when this process warm-booted from snapshots, 0 when it built the index from scratch.")
	d.snapBootMillis = r.Gauge("imgrn_snapshot_boot_duration_ms",
		"Wall-clock duration of OpenDurable (snapshot load + WAL replay, or full build) in milliseconds.")
}

// observeDurable refreshes the durability gauges from the coordinator; called
// on every /metrics scrape of a durable server.
func (m *serverMetrics) observeDurable(ds shard.DurableStats) {
	d := &m.durable
	d.walAppends.Set(int64(ds.WALAppends))
	d.walAppendBytes.Set(int64(ds.WALAppendBytes))
	d.walFsyncs.Set(int64(ds.WALFsyncs))
	d.walSegBytes.Set(ds.WALSegmentBytes)
	d.walReplayed.Set(int64(ds.ReplayedRecords))
	d.walTornBytes.Set(ds.TornBytes)
	d.snapGen.Set(int64(ds.Gen))
	d.snapCount.Set(int64(ds.Checkpoints))
	d.snapFailures.Set(int64(ds.CheckpointFailures))
	d.snapLastMillis.Set(ds.LastCheckpointDuration.Milliseconds())
	d.snapLastBytes.Set(ds.LastCheckpointBytes)
	if ds.WarmBoot {
		d.snapWarmBoot.Set(1)
	} else {
		d.snapWarmBoot.Set(0)
	}
	d.snapBootMillis.Set(ds.BootDuration.Milliseconds())
}

// DurabilityStatsJSON is the /stats "durability" block of a durable
// server: boot provenance plus WAL and checkpoint counters.
type DurabilityStatsJSON struct {
	Dir                string `json:"dir"`
	Generation         uint64 `json:"generation"`
	WarmBoot           bool   `json:"warmBoot"`
	BootMillis         int64  `json:"bootMillis"`
	ReplayedRecords    int    `json:"replayedRecords"`
	TornBytes          int64  `json:"tornBytes"`
	WALAppends         uint64 `json:"walAppends"`
	WALSegmentBytes    int64  `json:"walSegmentBytes"`
	Checkpoints        uint64 `json:"checkpoints"`
	CheckpointFailures uint64 `json:"checkpointFailures"`
	LastCheckpointErr  string `json:"lastCheckpointError,omitempty"`
	LastCheckpointMs   int64  `json:"lastCheckpointMillis"`
	LastCheckpointSize int64  `json:"lastCheckpointBytes"`
}

// durabilityStats builds the /stats block; nil for non-durable servers
// (the field is omitted from the JSON).
func (s *Server) durabilityStats() *DurabilityStatsJSON {
	if !s.coord.Durable() {
		return nil
	}
	ds := s.coord.DurableStats()
	return &DurabilityStatsJSON{
		Dir:                s.coord.Dir(),
		Generation:         ds.Gen,
		WarmBoot:           ds.WarmBoot,
		BootMillis:         ds.BootDuration.Milliseconds(),
		ReplayedRecords:    ds.ReplayedRecords,
		TornBytes:          ds.TornBytes,
		WALAppends:         ds.WALAppends,
		WALSegmentBytes:    ds.WALSegmentBytes,
		Checkpoints:        ds.Checkpoints,
		CheckpointFailures: ds.CheckpointFailures,
		LastCheckpointErr:  ds.LastCheckpointError,
		LastCheckpointMs:   ds.LastCheckpointDuration.Milliseconds(),
		LastCheckpointSize: ds.LastCheckpointBytes,
	}
}
