package wal

import (
	"time"

	"relperf/internal/obs"
)

// Metrics bundles the WAL's instruments. Create one per registry with
// NewMetrics and attach it to a log with SetMetrics after recovery —
// the same ordering as SetWAL, so replay work is counted once, as
// recovery, never as live appends. A nil *Metrics (the default on every
// Log) records nothing.
type Metrics struct {
	reg           *obs.Registry
	appends       *obs.Counter
	appendErrors  *obs.Counter
	truncations   *obs.Counter
	replayed      *obs.Counter
	appendSeconds *obs.Histogram
	fsyncSeconds  *obs.Histogram
}

// NewMetrics registers the WAL series on reg. Nil reg yields a Metrics
// whose instruments are all no-ops, which keeps call sites branch-free.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		reg: reg,
		appends: reg.Counter("wal_appends_total",
			"Records durably appended (fsync completed)."),
		appendErrors: reg.Counter("wal_append_errors_total",
			"Appends that failed and were rolled back."),
		truncations: reg.Counter("wal_truncations_total",
			"Torn tails truncated during open-time recovery."),
		replayed: reg.Counter("wal_replayed_records_total",
			"Records recovered and replayed at open."),
		appendSeconds: reg.Histogram("wal_append_seconds",
			"Append latency of one encoded frame: lock wait, write, fsync (encoding is not timed).", nil),
		fsyncSeconds: reg.Histogram("wal_fsync_seconds",
			"fsync portion of append latency.", nil),
	}
}

// recordAppend observes one append outcome (nil-safe).
func (m *Metrics) recordAppend(d time.Duration, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.appendErrors.Inc()
		return
	}
	m.appends.Inc()
	m.appendSeconds.Observe(d.Seconds())
}

// recordFsync observes one successful fsync (nil-safe).
func (m *Metrics) recordFsync(d time.Duration) {
	if m == nil {
		return
	}
	m.fsyncSeconds.Observe(d.Seconds())
}

// SetMetrics attaches instruments to the log: future appends are timed
// and counted, the open-time recovery outcome (records replayed, tail
// truncated) is folded into the counters, and the log's durable size is
// exported as a gauge. Attach once, after Open, before traffic.
func (l *Log) SetMetrics(m *Metrics) {
	l.metrics.Store(m)
	if m == nil {
		return
	}
	if l.recoveredTruncation {
		m.truncations.Inc()
	}
	if l.recoveredRecords > 0 {
		m.replayed.Add(uint64(l.recoveredRecords))
	}
	m.reg.GaugeFunc("wal_size_bytes", "Durable log size in bytes.",
		func() float64 { return float64(l.Size()) })
}
