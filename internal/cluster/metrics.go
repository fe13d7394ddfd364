package cluster

import "github.com/imgrn/imgrn/internal/obs"

// Metrics are the coordinator-side cluster and RPC metric families
// (imgrn_cluster_*, imgrn_rpc_*). Like the server's families (PR 2
// convention) every series that can ever appear is pre-seeded at
// registration, so dashboards distinguish "healthy cluster, zero
// partial failures" from "metric not wired".
type Metrics struct {
	// Cluster shape and health.
	Members        *obs.Gauge // configured shard servers
	MembersHealthy *obs.Gauge // servers whose last health probe succeeded

	// Scatter-gather outcomes.
	Scatters        *obs.Counter // scatter-gather fan-outs issued
	PartialFailures *obs.Counter // scatters aborted by an unreachable shard
	FloorUpdates    *obs.Counter // top-k floor pushes to remote shards

	// Per-RPC accounting.
	Requests  obs.CounterVec // by outcome (ok, error, timeout)
	Retries   *obs.Counter   // idempotent-read retries after transient failures
	Hedges    *obs.Counter   // hedge attempts launched
	HedgeWins *obs.Counter   // hedge attempts that produced the winning reply
	Seconds   *obs.Histogram // per-RPC wall time (seconds)
}

// RPC outcome label values.
const (
	OutcomeOK      = "ok"
	OutcomeError   = "error"
	OutcomeTimeout = "timeout"
)

// NewMetrics registers the cluster families on r (nil-safe: a nil
// registry returns nil Metrics, and all Metrics methods tolerate nil).
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	m := &Metrics{
		Members: r.Gauge("imgrn_cluster_members",
			"Configured shard servers in the cluster topology."),
		MembersHealthy: r.Gauge("imgrn_cluster_members_healthy",
			"Shard servers whose most recent health probe succeeded."),
		Scatters: r.Counter("imgrn_cluster_scatters_total",
			"Scatter-gather query fan-outs issued by the coordinator."),
		PartialFailures: r.Counter("imgrn_cluster_partial_failures_total",
			"Scatters aborted because a shard was unreachable on every replica."),
		FloorUpdates: r.Counter("imgrn_cluster_floor_updates_total",
			"Top-k floor updates pushed to remote shard servers."),
		Requests: r.CounterVec("imgrn_rpc_requests_total",
			"Cluster RPC attempts by outcome.", "outcome"),
		Retries: r.Counter("imgrn_rpc_retries_total",
			"Cluster RPC retries of idempotent reads after transient failures."),
		Hedges: r.Counter("imgrn_rpc_hedges_total",
			"Hedged replica attempts launched before the primary answered."),
		HedgeWins: r.Counter("imgrn_rpc_hedge_wins_total",
			"Hedged replica attempts that produced the winning reply."),
		Seconds: r.Histogram("imgrn_rpc_seconds",
			"Cluster RPC wall time in seconds.", obs.DefLatencyBuckets),
	}
	for _, outcome := range []string{OutcomeOK, OutcomeError, OutcomeTimeout} {
		m.Requests.With(outcome)
	}
	return m
}

// The nil-safe recording helpers keep call sites branch-free.

func (m *Metrics) rpc(outcome string, seconds float64) {
	if m == nil {
		return
	}
	m.Requests.With(outcome).Inc()
	m.Seconds.Observe(seconds)
}

func (m *Metrics) retry() {
	if m != nil {
		m.Retries.Inc()
	}
}

func (m *Metrics) hedge() {
	if m != nil {
		m.Hedges.Inc()
	}
}

func (m *Metrics) hedgeWin() {
	if m != nil {
		m.HedgeWins.Inc()
	}
}

func (m *Metrics) scatter() {
	if m != nil {
		m.Scatters.Inc()
	}
}

func (m *Metrics) partialFailure() {
	if m != nil {
		m.PartialFailures.Inc()
	}
}

func (m *Metrics) floorUpdate() {
	if m != nil {
		m.FloorUpdates.Inc()
	}
}

func (m *Metrics) setMembers(total, healthy int) {
	if m == nil {
		return
	}
	m.Members.Set(int64(total))
	m.MembersHealthy.Set(int64(healthy))
}
