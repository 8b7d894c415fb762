package core

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// managerMetrics instruments the manager's hot paths. Counters are cheap
// (atomic adds); the latency histogram records every Execute call.
type managerMetrics struct {
	grants       metrics.Counter
	rejections   metrics.Counter
	releases     metrics.Counter
	expirations  metrics.Counter
	preemptions  metrics.Counter
	violations   metrics.Counter
	actionErrors metrics.Counter
	expiryErrors metrics.Counter // failed deadline-alarm expiry passes
	requests     metrics.Counter
	latency      metrics.Histogram
}

// Stats is a point-in-time snapshot of manager activity, for operators and
// experiment harnesses.
type Stats struct {
	// Requests is the number of Execute calls completed.
	Requests int64
	// Grants and Rejections count promise-request outcomes.
	Grants, Rejections int64
	// Releases counts promises handed back (including atomic modifies).
	Releases int64
	// Expirations counts promises lapsed by the sweep.
	Expirations int64
	// Preemptions counts preemptible promises revoked before their deadline
	// by higher-tier grants (preempt.go).
	Preemptions int64
	// Violations counts actions rolled back by the post-action check.
	Violations int64
	// ActionErrors counts actions that failed on their own.
	ActionErrors int64
	// DeadlockRetries is always 0: each store admits one transaction at a
	// time, so requests never deadlock and are never retried. The field
	// stays for callers that still read it.
	DeadlockRetries int64
	// ExpiryErrors counts deadline-alarm expiry passes that failed and were
	// re-armed on a backoff; a non-zero steady climb means promises are not
	// lapsing at their deadlines (the request-path check still frees them).
	ExpiryErrors int64
	// Latency summarises Execute latency. Count is the true number of
	// observations; percentiles come from bounded reservoir samples (exact
	// until a reservoir fills). For a sharded manager the percentiles merge
	// every shard's retained samples — see ShardedManager.Stats for the
	// weighting caveat under heavy shard skew.
	Latency metrics.Summary
	// PerShard holds each shard's own counters and latency histogram
	// summary, in shard order. Empty for the single-store Manager.
	PerShard []ShardStat
	// Imbalance is the shard-imbalance gauge: the busiest shard's request
	// count divided by the mean per-shard request count. 1.0 means
	// perfectly balanced load; N (the shard count) means one shard took
	// everything. Zero when idle or unsharded.
	Imbalance float64
	// PrefilterSkipped counts shards that the candidate-index pre-filter
	// excluded from cross-shard property reservations (each skipped shard
	// is one reservation, one open transaction and one commit that never
	// happened). Zero for the single-store Manager.
	PrefilterSkipped int64
}

// ShardStat is one shard's slice of a sharded manager's activity.
type ShardStat struct {
	// Shard is the shard index.
	Shard int
	// Requests, Grants and Rejections count the shard's own work; a
	// cross-shard pipeline counts once on every shard it reserved.
	Requests, Grants, Rejections int64
	// Latency summarises the shard's own request latency.
	Latency metrics.Summary
	// Epoch is the shard's store-snapshot epoch at capture time — the
	// event-bus sequence number the shard's committed state had reached.
	// Because all shards share one bus, comparing epochs bounds how much
	// the capture pass skewed across shards.
	Epoch uint64
}

// String renders the snapshot on one line (plus shard balance when sharded).
func (s Stats) String() string {
	out := fmt.Sprintf(
		"requests=%d grants=%d rejections=%d releases=%d expirations=%d violations=%d actionErrs=%d p50=%v p99=%v",
		s.Requests, s.Grants, s.Rejections, s.Releases, s.Expirations,
		s.Violations, s.ActionErrors, s.Latency.P50, s.Latency.P99)
	if s.Preemptions > 0 {
		out += fmt.Sprintf(" preemptions=%d", s.Preemptions)
	}
	if s.ExpiryErrors > 0 {
		out += fmt.Sprintf(" expiryErrs=%d", s.ExpiryErrors)
	}
	if len(s.PerShard) > 0 {
		out += fmt.Sprintf(" shards=%d imbalance=%.2f", len(s.PerShard), s.Imbalance)
	}
	if s.PrefilterSkipped > 0 {
		out += fmt.Sprintf(" prefilterSkipped=%d", s.PrefilterSkipped)
	}
	return out
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Requests:     m.metrics.requests.Value(),
		Grants:       m.metrics.grants.Value(),
		Rejections:   m.metrics.rejections.Value(),
		Releases:     m.metrics.releases.Value(),
		Expirations:  m.metrics.expirations.Value(),
		Preemptions:  m.metrics.preemptions.Value(),
		Violations:   m.metrics.violations.Value(),
		ActionErrors: m.metrics.actionErrors.Value(),
		ExpiryErrors: m.metrics.expiryErrors.Value(),
		Latency:      m.metrics.latency.Summarize(),
	}
}

// observeExecute records one completed Execute call.
func (m *Manager) observeExecute(start time.Time, resp *Response) {
	m.metrics.requests.Inc()
	m.metrics.latency.Observe(time.Since(start))
	if resp == nil {
		return
	}
	for _, pr := range resp.Promises {
		if pr.Accepted {
			m.metrics.grants.Inc()
		} else {
			m.metrics.rejections.Inc()
		}
	}
}
