//! Metric handles for the maintenance paths.
//!
//! Each number has one source. [`CoreMeters`] caches the two per-query
//! histograms the execute path records into — the only hot-path
//! instruments, so recording is a couple of relaxed atomic ops with no
//! registry lock. Everything else is derived when the registry is
//! exported ([`crate::MaintCtx::observe_now`]): the propagation counters
//! are folded from one [`PropStatsSnapshot`] by a single table, the
//! lock and compaction series from their owners' snapshots, and the
//! frontier gauges from the live frontiers. Cold-path series (per-relation
//! interval widths, step counts) are registered on use.
//!
//! The headline gauges are the paper's asynchrony made visible (Fig. 3):
//!
//! * `rolljoin_propagation_lag_csn = capture_hwm − prop_hwm` — how far the
//!   view delta trails the captured log;
//! * `rolljoin_view_staleness_csn = capture_hwm − mat_time` — how far the
//!   materialized view itself trails.
//!
//! Both go to zero after propagation is drained and the view is rolled to
//! the HWM. All `*_csn` units are commit sequence numbers, `*_us`
//! histograms are microseconds.

use crate::stats::{CompactionReport, PropStatsSnapshot};
use rolljoin_obs::{Histogram, Meter};
use rolljoin_storage::LockStatsSnapshot;

/// A counter family rendered from [`PropStatsSnapshot`] fields: name,
/// help, label key (`""` for an unlabeled series), and one `(label value,
/// field)` per series.
type PropFamily = (
    &'static str,
    &'static str,
    &'static str,
    &'static [(&'static str, fn(&PropStatsSnapshot) -> u64)],
);

/// The counter series rendered from [`crate::PropStats`] at export.
const PROP_FAMILIES: &[PropFamily] = &[
    (
        "rolljoin_queries_total",
        "Propagation queries executed, by kind (forward vs compensation).",
        "kind",
        &[
            ("forward", |s| s.forward_queries),
            ("comp", |s| s.comp_queries),
        ],
    ),
    (
        "rolljoin_rows_read_total",
        "Rows fetched by propagation queries, by slot kind.",
        "slot",
        &[
            ("base", |s| s.base_rows_read),
            ("delta", |s| s.delta_rows_read),
        ],
    ),
    (
        "rolljoin_vd_rows_written_total",
        "Rows written into the view delta table.",
        "",
        &[("", |s| s.vd_rows_written)],
    ),
    (
        "rolljoin_scan_cache_total",
        "Delta-range fetches, by scan-cache outcome.",
        "outcome",
        &[
            ("hit", |s| s.scan_cache_hits),
            ("miss", |s| s.scan_cache_misses),
        ],
    ),
    (
        "rolljoin_delta_index_total",
        "Pending delta slots planned, by keyed-index decision.",
        "decision",
        &[
            ("probe", |s| s.delta_probe_decisions),
            ("scan", |s| s.delta_scan_decisions),
        ],
    ),
    (
        "rolljoin_delta_index_probe_rows_total",
        "Rows fetched through keyed delta-index probes.",
        "",
        &[("", |s| s.delta_probe_rows)],
    ),
    (
        "rolljoin_scan_compact_rows_in_total",
        "Raw delta rows that entered scan-level φ-compaction.",
        "",
        &[("", |s| s.compact_rows_in)],
    ),
    (
        "rolljoin_scan_compact_rows_saved_total",
        "Rows eliminated by scan-level φ-compaction.",
        "",
        &[("", |s| s.compact_rows_saved)],
    ),
];

/// Cached handles for the instruments the execute path records into.
pub struct CoreMeters {
    pub query_wall_us: Histogram,
    pub query_lock_wait_us: Histogram,
}

impl CoreMeters {
    /// Register (or look up) every hot-path instrument on `meter`.
    pub fn new(meter: &Meter) -> CoreMeters {
        CoreMeters {
            query_wall_us: meter.histogram(
                "rolljoin_query_wall_us",
                "Per-query wall time (capture wait + fetch + join + commit), microseconds.",
            ),
            query_lock_wait_us: meter.histogram(
                "rolljoin_query_lock_wait_us",
                "Per-query time blocked on locks, microseconds.",
            ),
        }
    }

    /// Record a step of the given kind (`"propagate"`, `"rolling"`,
    /// `"apply"`, `"compaction"`).
    pub fn record_step(&self, meter: &Meter, kind: &'static str, skipped_empty: bool) {
        meter
            .counter_l(
                "rolljoin_steps_total",
                Some(("kind", kind)),
                "Propagation/apply steps completed, by kind.",
            )
            .inc(1);
        if skipped_empty {
            meter
                .counter(
                    "rolljoin_steps_skipped_empty_total",
                    "Steps that advanced the frontier without issuing queries.",
                )
                .inc(1);
        }
    }

    /// Record the interval width a rolling step chose for a relation.
    pub fn record_interval_width(&self, meter: &Meter, rel: usize, width: u64) {
        meter
            .gauge_l(
                "rolljoin_interval_width_csn",
                Some(("rel", &rel.to_string())),
                "Width of the last forward-query interval, per relation, CSNs.",
            )
            .set(width as i64);
    }

    /// Mirror the lock manager's per-granularity counters and wait-time
    /// histograms into the registry (absolute fold: the lock manager owns
    /// the counters, the registry just exposes them).
    pub fn fold_lock_stats(&self, meter: &Meter, s: &LockStatsSnapshot) {
        for (gran, g) in [("table", &s.table), ("stripe", &s.stripe)] {
            let label = Some(("gran", gran));
            meter
                .counter_l(
                    "rolljoin_lock_waits_total",
                    label,
                    "Lock acquisitions that blocked, by granularity.",
                )
                .set(g.waits);
            meter
                .counter_l(
                    "rolljoin_lock_acquisitions_total",
                    label,
                    "Lock acquisitions, by granularity.",
                )
                .set(g.acquisitions);
            meter
                .counter_l(
                    "rolljoin_lock_timeouts_total",
                    label,
                    "Lock timeouts (deadlock resolutions), by granularity.",
                )
                .set(g.timeouts);
            meter
                .histogram_l(
                    "rolljoin_lock_wait_us",
                    label,
                    "Lock wait times, by granularity, microseconds.",
                )
                .set_buckets(&g.wait_hist_us, g.wait_nanos / 1_000);
        }
    }

    /// Mirror store-level φ-compaction totals into the registry.
    pub fn fold_compaction(&self, meter: &Meter, report: &CompactionReport) {
        for (store, s) in [("base", &report.base), ("vd", &report.vd)] {
            let label = Some(("store", store));
            meter
                .counter_l(
                    "rolljoin_compaction_rows_removed_total",
                    label,
                    "Records removed by store-level φ-compaction, by store.",
                )
                .set(s.rows_removed());
            meter
                .counter_l(
                    "rolljoin_compaction_bytes_reclaimed_total",
                    label,
                    "Estimated heap bytes reclaimed by φ-compaction, by store.",
                )
                .set(s.bytes_reclaimed);
        }
    }

    /// Render the propagation counters from one [`PropStatsSnapshot`]
    /// (absolute fold: [`crate::PropStats`] owns the counts).
    pub fn fold_prop_stats(&self, meter: &Meter, s: &PropStatsSnapshot) {
        for &(name, help, key, series) in PROP_FAMILIES {
            for &(value, field) in series {
                let label = (!key.is_empty()).then_some((key, value));
                meter.counter_l(name, label, help).set(field(s));
            }
        }
        meter
            .gauge(
                "rolljoin_max_txn_rows",
                "Largest row count read by any single propagation transaction.",
            )
            .set(s.max_txn_rows as i64);
    }

    /// Set the frontier gauges: the three frontiers, the lag gauges
    /// (saturating — apply and propagation commits themselves advance the
    /// engine clock past the capture HWM, so the raw differences can
    /// transiently run negative), and the postings-memory gauge.
    pub fn fold_frontiers(
        &self,
        meter: &Meter,
        capture_hwm: u64,
        prop_hwm: u64,
        mat_time: u64,
        postings_bytes: u64,
    ) {
        let set = |name, help, v: u64| meter.gauge(name, help).set(v as i64);
        set(
            "rolljoin_capture_hwm_csn",
            "Log-capture high-water mark, CSNs.",
            capture_hwm,
        );
        set(
            "rolljoin_prop_hwm_csn",
            "View-delta high-water mark (min tcomp, Theorem 4.3), CSNs.",
            prop_hwm,
        );
        set(
            "rolljoin_mat_time_csn",
            "Materialization time of the view, CSNs.",
            mat_time,
        );
        set(
            "rolljoin_propagation_lag_csn",
            "capture_hwm minus prop_hwm: how far the view delta trails capture, CSNs.",
            capture_hwm.saturating_sub(prop_hwm),
        );
        set(
            "rolljoin_view_staleness_csn",
            "capture_hwm minus mat_time: how far the materialized view trails, CSNs.",
            capture_hwm.saturating_sub(mat_time),
        );
        set(
            "rolljoin_delta_postings_bytes",
            "Approximate heap bytes held by keyed delta-index postings.",
            postings_bytes,
        );
    }
}
