//! The `Execute` primitive (paper Figs. 4/10) and the maintenance context.
//!
//! Each propagation query runs as its **own strict-2PL transaction**:
//! S locks on every base-table slot (acquired in `TableId` order to avoid
//! deadlocks among maintenance transactions), an X lock on the view delta
//! table, evaluation, insertion of the timestamped results, commit.
//! `Execute` returns the commit CSN — the paper's "execution time" — which
//! is exactly the time at which the base tables were seen, because the S
//! locks were held through commit.
//!
//! Before reading a delta range ending at `t`, the process must wait for
//! log capture to have ingested every commit ≤ `t` (the paper's prototype
//! likewise waits for DPropR to catch up, §5). [`CaptureWait`] selects
//! between stepping capture inline (single-process setups) and blocking on
//! a background capture driver.

use crate::control::MaterializedView;
use crate::metering::CoreMeters;
use crate::policy::{CompactionPolicy, ExecTuning};
use crate::query::{PropQuery, Slot};
use crate::stats::{CompactionReport, PropStats};
use rolljoin_common::{Csn, DeltaRow, Error, Result, TimeInterval};
use rolljoin_obs::{JournalEntry, Obs, ObsConfig};
use rolljoin_relalg::{compact_rows, exec, fetch, SlotSource};
use rolljoin_storage::{Engine, LockMode};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span context for one propagation query: where it sits in the
/// `ComputeDelta` recursion tree. Passed by the propagation drivers to
/// [`MaintCtx::execute_traced`] so every query span can be parented under
/// the span that caused it — even across worker threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuerySpanCtx {
    /// Span id of the causing span (`0` = parent from the thread-local
    /// span stack, or root).
    pub parent: u64,
    /// Recursion depth in the compensation tree (`0` = issued directly by
    /// the propagation loop).
    pub depth: u32,
    /// The view slot whose delta this query newly introduced, when known.
    pub rel: Option<usize>,
}

/// How maintenance waits for the capture high-water mark to reach a CSN.
#[derive(Debug, Clone, Copy, Default)]
pub enum CaptureWait {
    /// Step the capture process inline until it catches up. Right choice
    /// when no background capture driver is running.
    #[default]
    Inline,
    /// Block until a background capture driver catches up, giving up after
    /// the timeout (surfaced as [`Error::Internal`]). The wait wakes on
    /// the engine's capture-progress signal; `poll` only bounds the time
    /// between re-checks. Propagation steps under this mode cover only
    /// history capture has already made readable
    /// ([`MaintCtx::step_bound`]).
    Block { poll: Duration, timeout: Duration },
}

/// Outcome of one executed propagation query.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Commit CSN of the query's transaction — the time at which its base
    /// slots were seen.
    pub exec_csn: Csn,
    /// Rows read per slot / rows written.
    pub stats: exec::ExecStats,
}

/// Shared context for all maintenance algorithms operating on one view.
#[derive(Clone)]
pub struct MaintCtx {
    pub engine: Engine,
    pub mv: Arc<MaterializedView>,
    pub stats: Arc<PropStats>,
    pub capture_wait: CaptureWait,
    /// Skip a propagation query (and its entire compensation subtree) when
    /// its newly-introduced delta slot is empty — every query in the
    /// subtree contains that same empty slot, so all results are provably
    /// empty. On by default; experiments that count the *structural*
    /// number of queries (E5) turn it off.
    pub skip_empty: bool,
    /// Executor tuning: worker count, probe-vs-scan threshold.
    pub tuning: ExecTuning,
    /// Observability handle (spans, metrics, journal), at the level set by
    /// `tuning.obs`. Shared across clones, workers, and drivers.
    pub obs: Arc<Obs>,
    /// Cached metric handles for the hot execute path.
    pub meters: Arc<CoreMeters>,
}

impl MaintCtx {
    /// Build a context with inline capture.
    pub fn new(engine: Engine, mv: Arc<MaterializedView>) -> Self {
        let obs = Obs::disabled();
        let meters = Arc::new(CoreMeters::new(&obs.meter));
        MaintCtx {
            engine,
            mv,
            stats: Arc::new(PropStats::new()),
            capture_wait: CaptureWait::Inline,
            skip_empty: true,
            tuning: ExecTuning::default(),
            obs,
            meters,
        }
    }

    /// Use a blocking capture wait (background capture driver running):
    /// waits wake when capture advances, re-check at least every `poll`,
    /// and fail after `timeout`.
    pub fn with_blocking_capture(mut self, poll: Duration, timeout: Duration) -> Self {
        self.capture_wait = CaptureWait::Block { poll, timeout };
        self
    }

    /// Disable the empty-delta pruning optimization.
    pub fn without_empty_skip(mut self) -> Self {
        self.skip_empty = false;
        self
    }

    /// Replace the executor tuning. The lock granularity in the tuning is
    /// applied to the shared engine — set it before concurrent activity.
    /// A changed `tuning.obs` level rebuilds the observability handle, so
    /// set it before handing clones to drivers or workers.
    pub fn with_tuning(mut self, tuning: ExecTuning) -> Self {
        if tuning.obs != self.tuning.obs {
            self.obs = Obs::new(tuning.obs);
            self.meters = Arc::new(CoreMeters::new(&self.obs.meter));
        }
        self.tuning = tuning;
        self.engine.set_lock_granularity(tuning.lock_granularity);
        self
    }

    /// Set the observability level (rebuilds the handle — set it before
    /// concurrent activity starts).
    pub fn with_obs_config(self, config: ObsConfig) -> Self {
        let tuning = self.tuning.with_obs(config);
        self.with_tuning(tuning)
    }

    /// Set the parallel-executor worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.tuning.workers = workers.max(1);
        self
    }

    /// Set the lock granularity (applied to the shared engine — set it
    /// before concurrent activity starts).
    pub fn with_lock_granularity(mut self, g: rolljoin_storage::LockGranularity) -> Self {
        self.tuning.lock_granularity = g;
        self.engine.set_lock_granularity(g);
        self
    }

    /// Set the φ-compaction policy.
    pub fn with_compaction(mut self, policy: CompactionPolicy) -> Self {
        self.tuning.compaction = policy;
        self
    }

    /// The global compaction low-water mark: the largest CSN such that no
    /// future delta-range read or roll starts below it. Propagation reads
    /// start at per-relation frontiers, all ≥ the view-delta HWM; apply
    /// reads start at the materialization time. Store history at or below
    /// `min` of the two can be φ-compacted in place without changing what
    /// any consumer can observe.
    pub fn compaction_lwm(&self) -> Csn {
        self.mv.hwm().min(self.mv.mat_time())
    }

    /// φ-compact every store of this view below its safe bound: each base
    /// delta store below [`MaintCtx::compaction_lwm`] (clamped to the
    /// capture HWM, since compaction may not rewrite rows capture is still
    /// appending behind) and the view delta store below the apply
    /// position. A [`CompactionPolicy::Background`] threshold skips stores
    /// holding fewer records. Returns total records removed.
    pub fn compact_stores(&self) -> Result<usize> {
        let started = Instant::now();
        let mut span = self.obs.span("compaction_pass");
        let threshold = self.tuning.compaction.background_threshold().unwrap_or(0);
        let lwm = self.compaction_lwm().min(self.engine.capture_hwm());
        let mut removed = 0usize;
        let mut bases: Vec<_> = self.mv.view.bases.clone();
        bases.sort();
        bases.dedup();
        for base in bases {
            if self.engine.delta_store(base)?.len() >= threshold.max(1) {
                removed += self.engine.compact_delta_history(base, lwm)?;
            }
        }
        if self.engine.vd_len(self.mv.vd_table)? >= threshold.max(1) {
            removed += self
                .engine
                .vd_compact(self.mv.vd_table, self.mv.mat_time())?;
        }
        span.arg("removed", removed as i64);
        span.arg("lwm", lwm as i64);
        if self.obs.tracing_on() && removed > 0 {
            self.obs.journal_step(
                JournalEntry::new("compaction")
                    .with_rows(0, removed as u64)
                    .with_duration_ns(started.elapsed().as_nanos() as u64)
                    .with_hwm(lwm),
            );
        }
        Ok(removed)
    }

    /// Lifetime store-level compaction counters for this view's stores.
    pub fn compaction_report(&self) -> Result<CompactionReport> {
        let mut report = CompactionReport::default();
        let mut bases: Vec<_> = self.mv.view.bases.clone();
        bases.sort();
        bases.dedup();
        for base in bases {
            report
                .base
                .merge(&self.engine.delta_compaction_stats(base)?);
        }
        report.vd = self.engine.vd_compaction_stats(self.mv.vd_table)?;
        Ok(report)
    }

    /// The latest CSN a propagation step should cover. Under
    /// [`CaptureWait::Inline`] that is the latest commit (the step
    /// captures inline); under [`CaptureWait::Block`] it is the capture
    /// HWM, so a step's forward query never waits for the capture driver.
    pub fn step_bound(&self) -> Csn {
        match self.capture_wait {
            CaptureWait::Inline => self.engine.current_csn(),
            CaptureWait::Block { .. } => self.engine.capture_hwm(),
        }
    }

    /// Wait until the capture HWM reaches `csn`, inside a `capture_wait`
    /// span so every wait for capture is counted in one place.
    pub fn ensure_captured(&self, csn: Csn) -> Result<()> {
        let _s = self.obs.span("capture_wait");
        if csn > self.engine.current_csn() {
            return Err(Error::Internal(format!(
                "cannot capture through CSN {csn}: only {} commits exist",
                self.engine.current_csn()
            )));
        }
        match self.capture_wait {
            CaptureWait::Inline => {
                while self.engine.capture_hwm() < csn {
                    let n = self.engine.capture_step(4096)?;
                    if n == 0 && self.engine.capture_hwm() < csn {
                        return Err(Error::Internal(format!(
                            "capture exhausted the log below CSN {csn}"
                        )));
                    }
                }
                Ok(())
            }
            CaptureWait::Block { poll, timeout } => {
                let deadline = Instant::now() + timeout;
                while !self
                    .engine
                    .wait_captured(csn, deadline.min(Instant::now() + poll))
                {
                    if Instant::now() >= deadline {
                        return Err(Error::Internal(format!(
                            "timed out waiting for capture to reach CSN {csn} (hwm {})",
                            self.engine.capture_hwm()
                        )));
                    }
                }
                Ok(())
            }
        }
    }

    /// Fetch one delta slot's *full* range, φ-reducing the part above
    /// `compact_above` (see [`MaintCtx::compact_above`]): whole-range
    /// compaction is one compacted range, partial compaction concatenates
    /// a raw and a compacted sub-range.
    fn fetch_delta_full(
        &self,
        table: rolljoin_common::TableId,
        iv: TimeInterval,
        compact_above: Option<Csn>,
    ) -> Result<Vec<DeltaRow>> {
        match compact_above {
            Some(a) if a <= iv.lo => self.fetch_range(table, iv, true),
            Some(a) if a < iv.hi => {
                let mut rows = self.fetch_range(table, TimeInterval::new(iv.lo, a), false)?;
                rows.extend(self.fetch_range(table, TimeInterval::new(a, iv.hi), true)?);
                Ok(rows)
            }
            _ => self.fetch_range(table, iv, false),
        }
    }

    /// One delta-range fetch from the store, raw or φ-compacted, recording
    /// scan-compaction stats.
    fn fetch_range(
        &self,
        table: rolljoin_common::TableId,
        iv: TimeInterval,
        compact: bool,
    ) -> Result<Vec<DeltaRow>> {
        let rows = self.engine.delta_range(table, iv)?;
        if !compact {
            return Ok(rows);
        }
        let (merged, _) = compact_rows(&rows);
        self.stats
            .record_scan_compaction(rows.len() as u64, merged.len() as u64);
        Ok(merged)
    }

    /// Split a query so that scan-level compaction reaches the churn of
    /// every delta slot whose timestamps cannot surface. The delta slot
    /// with the earliest start is cut at `m`, the earliest start of the
    /// other delta slots: its rows at or below `m` are always the minimum
    /// of any joined row, so in that part every other delta slot is
    /// compacted whole; the rest follows the per-slot rule. The join
    /// distributes over the cut, so the parts' results sum to the query's.
    /// Without compaction, or with nothing to cut, the query is one part.
    fn compaction_parts(&self, q: &PropQuery) -> Vec<PropQuery> {
        let Some((p, piv)) = q.deltas().min_by_key(|(_, iv)| iv.lo) else {
            return vec![q.clone()];
        };
        let m = q
            .deltas()
            .filter(|&(i, _)| i != p)
            .map(|(_, iv)| iv.lo)
            .min();
        match m {
            Some(m) if self.tuning.compaction.compact_on_scan() && piv.lo < m && m < piv.hi => {
                vec![
                    q.with_delta(p, TimeInterval::new(piv.lo, m)),
                    q.with_delta(p, TimeInterval::new(m, piv.hi)),
                ]
            }
            _ => vec![q.clone()],
        }
    }

    /// Scan-level φ-compaction of delta rows: merge the same-tuple rows
    /// whose timestamps are above `above`. A joined row takes the minimum
    /// timestamp of its delta rows (§3.3), and `roll_to` may read the view
    /// delta at any CSN, so merging rows is exact only where a row's own
    /// timestamp can never reach the output — above the upper bound of
    /// another delta slot of the same query, whose row then always carries
    /// the minimum. `None` leaves the rows raw.
    fn compact_above(&self, rows: Vec<DeltaRow>, above: Option<Csn>) -> Vec<DeltaRow> {
        let Some(above) = above else {
            return rows;
        };
        let (merge, mut keep): (Vec<_>, Vec<_>) = rows
            .into_iter()
            .partition(|r| r.ts.is_some_and(|ts| ts > above));
        let (merged, _) = compact_rows(&merge);
        self.stats
            .record_scan_compaction(merge.len() as u64, merged.len() as u64);
        keep.extend(merged);
        keep
    }

    /// Fetch all slot row sets of a propagation query within `txn`: the
    /// smallest delta range first (the seed), then the rest in cascaded
    /// semi-join order — a slot equi-joined to an **already-fetched**
    /// neighbor with an index on its join column is probed by the
    /// neighbor's distinct key values instead of scanned. Base slots probe
    /// through their secondary index; delta slots probe through their
    /// keyed time-range index, resolving each key to a binary-search
    /// posting slice of `σ_{a,b}(Δ^R)`. Because fetched keyed slots become
    /// probe sources themselves, the keying cascades down a chain —
    /// `ΔR1`'s keys probe `σ`-ranges of `Δ^{R2}`, whose rows' keys probe
    /// `R3`, and so on — so the transaction touches (and, under striped
    /// locking, locks) rows proportional to the *delta*, not the tables or
    /// the delta history depth. Probe-vs-scan decisions: base slots use
    /// `keys × probe_scan_ratio < distinct table keys`; delta slots use
    /// the *exact* posting-slice count, `estimate × delta_probe_ratio <
    /// range rows`. Only when no fetched neighbor offers a cheap enough
    /// probe does a slot fall back to a full fetch (range scan for deltas,
    /// table-granularity S-locked scan for bases). Under table granularity
    /// callers must already hold the base-table locks; under striped
    /// granularity the fetches acquire IS + key-stripe S locks (or table S
    /// for scans) on demand — keyed delta probes take the same footprint
    /// as keyed base probes.
    pub fn fetch_slots(
        &self,
        txn: &mut rolljoin_storage::Txn,
        q: &PropQuery,
    ) -> Result<Vec<Vec<DeltaRow>>> {
        let view = &self.mv.view;
        let n = q.n();
        let offsets = view.spec.offsets();
        let slot_of = |col: usize| -> usize {
            offsets
                .windows(2)
                .position(|w| col >= w[0] && col < w[1])
                .expect("validated column")
        };
        // Scan-level φ-compaction bound of each delta slot: the lowest
        // upper bound of the *other* delta slots (see `compact_above`).
        let compact_above = |i: usize| -> Option<Csn> {
            if !self.tuning.compaction.compact_on_scan() {
                return None;
            }
            q.deltas()
                .filter(|&(k, _)| k != i)
                .map(|(_, iv)| iv.hi)
                .min()
        };
        let mut slot_rows: Vec<Option<Vec<DeltaRow>>> = (0..n).map(|_| None).collect();

        // Seed the cascade: only the smallest delta range is materialized
        // unconditionally — the others stay pending so the cascade may
        // resolve them as keyed probes.
        let seed = q.deltas().min_by_key(|&(i, iv)| {
            self.engine
                .delta_count(view.bases[i], iv)
                .unwrap_or(usize::MAX)
        });
        if let Some((i, iv)) = seed {
            slot_rows[i] = Some(self.fetch_delta_full(view.bases[i], iv, compact_above(i))?);
        }

        let mut remaining: Vec<usize> = (0..n).filter(|&i| slot_rows[i].is_none()).collect();
        while !remaining.is_empty() {
            // Find a remaining slot probeable from a fetched neighbor.
            // `Option<TimeInterval>` distinguishes a keyed delta probe
            // from a keyed base probe.
            type Picked = (
                usize,
                usize,
                Vec<rolljoin_common::Value>,
                Option<rolljoin_common::TimeInterval>,
            );
            let mut picked: Option<Picked> = None;
            'slots: for &i in &remaining {
                let base = view.bases[i];
                let delta_iv = match q.slots[i] {
                    Slot::Delta(iv) => Some(iv),
                    Slot::Base => None,
                };
                for &(a, b) in &view.spec.equi {
                    let (sa, sb) = (slot_of(a), slot_of(b));
                    let (bcol, nslot, ncol) = if sa == i && slot_rows[sb].is_some() {
                        (a, sb, b)
                    } else if sb == i && slot_rows[sa].is_some() {
                        (b, sa, a)
                    } else {
                        continue;
                    };
                    let local_col = bcol - offsets[i];
                    let indexed = match delta_iv {
                        Some(_) => self.engine.has_delta_index(base, local_col)?,
                        None => self.engine.has_index(base, local_col)?,
                    };
                    if !indexed {
                        continue;
                    }
                    let nrows = slot_rows[nslot].as_ref().expect("neighbor fetched");
                    let nlocal = ncol - offsets[nslot];
                    let keys: Vec<rolljoin_common::Value> = nrows
                        .iter()
                        .map(|r| r.tuple.get(nlocal).clone())
                        .filter(|v| !v.is_null())
                        .collect::<std::collections::HashSet<_>>()
                        .into_iter()
                        .collect();
                    match delta_iv {
                        // Delta side: the posting-slice count is exact, so
                        // compare estimated matching rows against the full
                        // range's row count directly.
                        Some(iv) => {
                            let est = self
                                .engine
                                .delta_keyed_estimate(base, iv, local_col, &keys)?
                                .unwrap_or(usize::MAX);
                            let range = self.engine.delta_count(base, iv)?;
                            if est.saturating_mul(self.tuning.delta_probe_ratio) >= range.max(1) {
                                continue;
                            }
                        }
                        // Base side: probing beats scanning only while the
                        // key set is small relative to the table.
                        None => {
                            if keys.len() * self.tuning.probe_scan_ratio
                                >= self.engine.table_distinct(base)?.max(1)
                            {
                                continue;
                            }
                        }
                    }
                    picked = Some((i, local_col, keys, delta_iv));
                    break 'slots;
                }
            }
            match picked {
                // Keyed delta probe: per-key posting slices.
                Some((i, col, keys, Some(iv))) => {
                    let source = SlotSource::DeltaKeyed {
                        table: view.bases[i],
                        interval: iv,
                        col,
                        keys: std::sync::Arc::new(keys),
                    };
                    let rows = fetch(&self.engine, txn, &source)?;
                    self.stats.record_delta_decision(true, rows.len() as u64);
                    slot_rows[i] = Some(self.compact_above(rows, compact_above(i)));
                    remaining.retain(|&x| x != i);
                }
                Some((i, col, keys, None)) => {
                    let source = SlotSource::BaseKeyed {
                        table: view.bases[i],
                        col,
                        keys: std::sync::Arc::new(keys),
                    };
                    slot_rows[i] = Some(fetch(&self.engine, txn, &source)?);
                    remaining.retain(|&x| x != i);
                }
                None => {
                    // No probeable slot. Pending delta slots fall back to a
                    // full range fetch (recorded as a scan decision); after
                    // that, full-scan the lowest-TableId base slot (its rows
                    // may make neighbors probeable next round).
                    if let Some(&i) = remaining
                        .iter()
                        .filter(|&&i| q.slots[i].is_delta())
                        .min_by_key(|&&i| view.bases[i])
                    {
                        let iv = match q.slots[i] {
                            Slot::Delta(iv) => iv,
                            Slot::Base => unreachable!("filtered to delta slots"),
                        };
                        slot_rows[i] =
                            Some(self.fetch_delta_full(view.bases[i], iv, compact_above(i))?);
                        self.stats.record_delta_decision(false, 0);
                        remaining.retain(|&x| x != i);
                    } else {
                        let &i = remaining
                            .iter()
                            .min_by_key(|&&i| view.bases[i])
                            .expect("remaining is non-empty");
                        let source = SlotSource::Base(view.bases[i]);
                        slot_rows[i] = Some(fetch(&self.engine, txn, &source)?);
                        remaining.retain(|&x| x != i);
                    }
                }
            }
        }
        Ok(slot_rows
            .into_iter()
            .map(|r| r.expect("all fetched"))
            .collect())
    }

    /// Execute one propagation query (≥ 1 delta slot) as a transaction and
    /// insert its results into the view delta table. `sign` scales counts
    /// (−1 for compensation).
    pub fn execute(&self, q: &PropQuery, sign: i64) -> Result<ExecOutcome> {
        self.execute_traced(q, sign, QuerySpanCtx::default())
            .map(|(outcome, _)| outcome)
    }

    /// [`MaintCtx::execute`] with span context: records one span per
    /// query (named `forward` or `comp`, tagged with relation, interval,
    /// recursion depth, and row counts) and returns its id so the caller
    /// can parent the query's compensation subtree under it. The id is
    /// `0` unless tracing is on.
    pub fn execute_traced(
        &self,
        q: &PropQuery,
        sign: i64,
        sctx: QuerySpanCtx,
    ) -> Result<(ExecOutcome, u64)> {
        let view = &self.mv.view;
        debug_assert_eq!(q.n(), view.n());
        let hi = q.max_delta_hi().ok_or_else(|| {
            Error::Invalid("propagation queries must contain a delta slot".into())
        })?;
        let is_forward = q.is_forward() && sign == 1;
        let mut qspan = if sctx.parent != 0 {
            self.obs
                .span_under(if is_forward { "forward" } else { "comp" }, sctx.parent)
        } else {
            self.obs.span(if is_forward { "forward" } else { "comp" })
        };
        let span_id = qspan.id();
        if !qspan.is_noop() {
            qspan.label(q.to_string());
            qspan.arg("depth", sctx.depth as i64);
            qspan.arg("sign", sign);
            if let Some(rel) = sctx.rel {
                qspan.arg("rel", rel as i64);
                if let Slot::Delta(iv) = q.slots[rel] {
                    qspan.arg("lo", iv.lo as i64);
                    qspan.arg("hi", iv.hi as i64);
                }
            }
        }
        let wall_start = Instant::now();
        self.ensure_captured(hi)?;

        let mut txn = self.engine.begin();
        // Table granularity: pre-lock base-table slots S in TableId order
        // (deadlock avoidance among maintenance transactions). The view
        // delta table's X lock is taken lazily by the first `vd_insert` —
        // after the fetch and join — so writers contend on it only for
        // the insert+commit tail of the query; the lock order is still
        // globally consistent because the view delta table was created
        // after every base (larger `TableId`).
        //
        // Striped granularity: no pre-lock. The fetches take IS + the S
        // stripes of their key sets (or table S for full scans) as they
        // run, so a keyed probe conflicts only with updaters of colliding
        // keys. Acquisition order is no longer global, but maintenance
        // transactions hold only shared/intent-shared base locks — which
        // are mutually compatible — plus the vd-table X last, so they
        // cannot deadlock each other; cycles through updaters are
        // resolved by lock timeout and retry, same as at table grain.
        if self.engine.lock_granularity() == rolljoin_storage::LockGranularity::Table {
            let mut lock_order: Vec<_> = q
                .slots
                .iter()
                .zip(&view.bases)
                .filter(|(s, _)| !s.is_delta())
                .map(|(_, t)| *t)
                .collect();
            lock_order.sort();
            lock_order.dedup();
            for t in lock_order {
                txn.lock(t, LockMode::Shared)?;
            }
        }

        let mut rows = Vec::new();
        let mut stats = exec::ExecStats::default();
        for part in self.compaction_parts(q) {
            let slot_rows = {
                let _s = self.obs.span("fetch");
                self.fetch_slots(&mut txn, &part)?
            };
            let (part_rows, part_stats) = {
                let _s = self.obs.span("join");
                exec::execute(slot_rows, &view.spec, sign)?
            };
            rows.extend(part_rows);
            stats.absorb(&part_stats);
        }
        // Sum rows with equal timestamp and tuple, dropping zero sums
        // (exact: one timestamp is one multiset). A compensation query
        // pairs each change of its earliest delta slot with many rows of
        // the others, all stamped with that change's timestamp.
        rows.sort_unstable_by_key(|r| r.ts);
        let rows = rows
            .chunk_by(|a, b| a.ts == b.ts)
            .flat_map(|run| compact_rows(run).0);
        let mut written = 0u64;
        for row in rows {
            let ts = row.ts.ok_or_else(|| {
                Error::Internal("propagation result row lost its timestamp".into())
            })?;
            txn.vd_insert(self.mv.vd_table, ts, row.count, row.tuple)?;
            written += 1;
        }
        let lock_wait = txn.lock_wait();
        let exec_csn = {
            let _s = self.obs.span("commit");
            txn.commit()?
        };
        let wall = wall_start.elapsed();
        self.stats.record_query_wall(wall.as_nanos() as u64);
        self.stats.record_lock_wait(lock_wait.as_nanos() as u64);

        let (mut base_rows, mut delta_rows) = (0u64, 0u64);
        for (slot, n) in q.slots.iter().zip(&stats.rows_in) {
            match slot {
                Slot::Base => base_rows += *n as u64,
                Slot::Delta(_) => delta_rows += *n as u64,
            }
        }
        self.stats
            .record_query(is_forward, base_rows, delta_rows, written);

        if self.obs.metrics_on() {
            let m = &self.meters;
            m.query_wall_us.observe(wall.as_micros() as u64);
            m.query_lock_wait_us.observe(lock_wait.as_micros() as u64);
        }
        if !qspan.is_noop() {
            qspan.arg("rows_read", (base_rows + delta_rows) as i64);
            qspan.arg("rows_out", written as i64);
            qspan.arg("lock_wait_us", lock_wait.as_micros() as i64);
            qspan.arg("csn", exec_csn as i64);
        }

        Ok((ExecOutcome { exec_csn, stats }, span_id))
    }

    /// Derive every registry series that has another owner — the
    /// propagation counters from one [`PropStats`] snapshot, the lock
    /// manager's per-granularity stats, store-level compaction totals —
    /// and the frontier gauges (`propagation_lag = capture_hwm − prop_hwm`,
    /// `view_staleness = capture_hwm − mat_time`, postings bytes) from
    /// the live state. Call before exporting the registry;
    /// [`MaintCtx::prometheus`] does. No-op unless metrics are on.
    pub fn observe_now(&self) -> Result<()> {
        if !self.obs.metrics_on() {
            return Ok(());
        }
        let m = &self.meters;
        let meter = &self.obs.meter;
        m.fold_prop_stats(meter, &self.stats.snapshot());
        m.fold_lock_stats(meter, &self.engine.locks().stats().snapshot_full());
        m.fold_compaction(meter, &self.compaction_report()?);
        m.fold_frontiers(
            meter,
            self.engine.capture_hwm(),
            self.mv.hwm(),
            self.mv.mat_time(),
            self.engine.delta_postings_bytes(),
        );
        Ok(())
    }

    /// Fold everything current and export the registry in Prometheus text
    /// format.
    pub fn prometheus(&self) -> Result<String> {
        self.observe_now()?;
        Ok(self.obs.meter.prometheus())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ViewDef;
    use rolljoin_common::{tup, ColumnType, Schema, TimeInterval};
    use rolljoin_relalg::JoinSpec;

    fn two_table_ctx() -> (MaintCtx, rolljoin_common::TableId, rolljoin_common::TableId) {
        let e = Engine::new();
        let r = e
            .create_table(
                "r",
                Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]),
            )
            .unwrap();
        let s = e
            .create_table(
                "s",
                Schema::new([("b", ColumnType::Int), ("c", ColumnType::Int)]),
            )
            .unwrap();
        let view = ViewDef::new(
            &e,
            "v",
            vec![r, s],
            JoinSpec {
                slot_schemas: vec![e.schema(r).unwrap(), e.schema(s).unwrap()],
                equi: vec![(1, 2)],
                filter: None,
                projection: vec![0, 3],
            },
        )
        .unwrap();
        let mv = MaterializedView::register(&e, view).unwrap();
        (MaintCtx::new(e, mv), r, s)
    }

    #[test]
    fn forward_query_writes_timestamped_vd_rows() {
        let (ctx, r, s) = two_table_ctx();
        let e = &ctx.engine;
        let mut w = e.begin();
        w.insert(s, tup![10, 100]).unwrap();
        w.commit().unwrap();
        let mut w = e.begin();
        w.insert(r, tup![1, 10]).unwrap();
        let c2 = w.commit().unwrap();

        // Forward query ΔR ⋈ S over (0, c2].
        let q = PropQuery::all_base(2).with_delta(0, TimeInterval::new(0, c2));
        let out = ctx.execute(&q, 1).unwrap();
        assert!(out.exec_csn > c2);
        let rows = e
            .vd_range(ctx.mv.vd_table, TimeInterval::new(0, c2))
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tuple, tup![1, 100]);
        assert_eq!(rows[0].ts, Some(c2), "timestamp from the delta side");
        let snap = ctx.stats.snapshot();
        assert_eq!(snap.forward_queries, 1);
        assert_eq!(snap.vd_rows_written, 1);
        assert!(snap.query_wall_nanos > 0);
    }

    #[test]
    fn execute_requires_a_delta_slot() {
        let (ctx, _r, _s) = two_table_ctx();
        let q = PropQuery::all_base(2);
        assert!(ctx.execute(&q, 1).is_err());
    }

    #[test]
    fn ensure_captured_rejects_future_csns() {
        let (ctx, _r, _s) = two_table_ctx();
        assert!(ctx.ensure_captured(99).is_err());
    }

    #[test]
    fn pushdown_probes_indexed_base_slots() {
        let (ctx, r, s) = two_table_ctx();
        let e = &ctx.engine;
        e.create_index(s, 0).unwrap();
        // 1000 s-rows, one r-row: the forward query ΔR ⋈ S should probe S
        // by ΔR's join keys instead of scanning it.
        let mut w = e.begin();
        for i in 0..1000i64 {
            w.insert(s, tup![i, i]).unwrap();
        }
        w.commit().unwrap();
        let mut w = e.begin();
        w.insert(r, tup![1, 77]).unwrap();
        let c = w.commit().unwrap();
        let q = PropQuery::all_base(2).with_delta(0, TimeInterval::new(c - 1, c));
        let out = ctx.execute(&q, 1).unwrap();
        assert_eq!(out.stats.rows_in, vec![1, 1], "probed, not scanned");
        assert_eq!(out.stats.rows_out, 1);
        let rows = e
            .vd_range(ctx.mv.vd_table, TimeInterval::new(0, c))
            .unwrap();
        assert_eq!(rows[0].tuple, tup![1, 77]);
    }

    #[test]
    fn pushdown_falls_back_without_index_or_with_wide_keys() {
        let (ctx, r, s) = two_table_ctx();
        let e = &ctx.engine;
        // No index: full scan of the S side.
        let mut w = e.begin();
        for i in 0..50i64 {
            w.insert(s, tup![i, i]).unwrap();
        }
        w.insert(r, tup![1, 7]).unwrap();
        let c = w.commit().unwrap();
        let q = PropQuery::all_base(2).with_delta(0, TimeInterval::new(0, c));
        let out = ctx.execute(&q, 1).unwrap();
        assert_eq!(out.stats.rows_in[1], 50, "no index → scan");
        // With an index but keys covering most of the table, the planner
        // heuristic also scans.
        e.create_index(s, 0).unwrap();
        let mut w = e.begin();
        for i in 0..60i64 {
            w.insert(r, tup![100 + i, i % 50]).unwrap();
        }
        let c2 = w.commit().unwrap();
        let q = PropQuery::all_base(2).with_delta(0, TimeInterval::new(c, c2));
        let out = ctx.execute(&q, 1).unwrap();
        assert_eq!(out.stats.rows_in[1], 50, "wide key set → scan");
    }

    #[test]
    fn probe_scan_ratio_tunes_pushdown_boundary() {
        let (ctx, r, s) = two_table_ctx();
        let e = &ctx.engine;
        e.create_index(s, 0).unwrap();
        // 50 distinct s-rows; the delta carries 10 distinct join keys, so
        // the probe/scan decision flips exactly at ratio 5 (10×5 ≥ 50).
        let mut w = e.begin();
        for i in 0..50i64 {
            w.insert(s, tup![i, i]).unwrap();
        }
        w.commit().unwrap();
        let mut w = e.begin();
        for i in 0..10i64 {
            w.insert(r, tup![i, i]).unwrap();
        }
        let c = w.commit().unwrap();
        let q = PropQuery::all_base(2).with_delta(0, TimeInterval::new(c - 1, c));

        let probing = ctx
            .clone()
            .with_tuning(crate::policy::ExecTuning::sequential().with_probe_scan_ratio(4));
        let out = probing.execute(&q, 1).unwrap();
        assert_eq!(out.stats.rows_in[1], 10, "10×4 < 50 → probe");

        let scanning = ctx
            .clone()
            .with_tuning(crate::policy::ExecTuning::sequential().with_probe_scan_ratio(5));
        let out = scanning.execute(&q, 1).unwrap();
        assert_eq!(out.stats.rows_in[1], 50, "10×5 ≥ 50 → scan");
    }

    #[test]
    fn pushdown_probes_indexed_delta_slots() {
        let (ctx, r, s) = two_table_ctx();
        let e = &ctx.engine;
        e.create_delta_index(s, 0).unwrap();
        // Deep Δ^S history: 200 single-row commits on distinct keys, then
        // one ΔR row joining key 77. The compensation query ΔR ⋈ Δ^S
        // should resolve the Δ^S slot by a keyed posting probe.
        let mut last = 0;
        for i in 0..200i64 {
            let mut w = e.begin();
            w.insert(s, tup![i, i]).unwrap();
            last = w.commit().unwrap();
        }
        let mut w = e.begin();
        w.insert(r, tup![1, 77]).unwrap();
        let c = w.commit().unwrap();
        let q = PropQuery::all_base(2)
            .with_delta(0, TimeInterval::new(last, c))
            .with_delta(1, TimeInterval::new(0, last));
        let out = ctx.execute(&q, -1).unwrap();
        assert_eq!(
            out.stats.rows_in,
            vec![1, 1],
            "ΔR's key probed Δ^S's postings, not the 200-row range"
        );
        assert_eq!(out.stats.rows_out, 1);
        let snap = ctx.stats.snapshot();
        assert_eq!(snap.delta_probe_decisions, 1);
        assert_eq!(snap.delta_scan_decisions, 0);
        assert_eq!(snap.delta_probe_rows, 1);
        assert!(snap.delta_probe_rate() > 0.99);

        // With a ratio no slice can beat, the same query scans the whole
        // Δ^S range.
        let scanning = ctx.clone().with_tuning(
            crate::policy::ExecTuning::sequential().with_delta_probe_ratio(usize::MAX),
        );
        let out = scanning.execute(&q, -1).unwrap();
        assert_eq!(out.stats.rows_in, vec![1, 200], "ratio MAX → range scan");
    }

    #[test]
    fn delta_probe_estimate_rejects_hot_key_ranges() {
        let (ctx, r, s) = two_table_ctx();
        let e = &ctx.engine;
        e.create_delta_index(s, 0).unwrap();
        // Every Δ^S row carries the probe key: the posting-slice estimate
        // equals the range size, so probing cannot win and the planner
        // falls back to the range scan (recorded as a scan decision).
        let mut last = 0;
        for i in 0..20i64 {
            let mut w = e.begin();
            w.insert(s, tup![77, i]).unwrap();
            last = w.commit().unwrap();
        }
        let mut w = e.begin();
        w.insert(r, tup![1, 77]).unwrap();
        let c = w.commit().unwrap();
        let q = PropQuery::all_base(2)
            .with_delta(0, TimeInterval::new(last, c))
            .with_delta(1, TimeInterval::new(0, last));
        let out = ctx.execute(&q, -1).unwrap();
        assert_eq!(
            out.stats.rows_in,
            vec![1, 20],
            "hot key → estimate says scan"
        );
        let snap = ctx.stats.snapshot();
        assert_eq!(snap.delta_probe_decisions, 0);
        assert_eq!(snap.delta_scan_decisions, 1);
    }

    #[test]
    fn delta_index_metrics_reach_prometheus() {
        let (ctx, r, s) = two_table_ctx();
        let ctx = ctx.with_obs_config(rolljoin_obs::ObsConfig::Metrics);
        let e = &ctx.engine;
        e.create_delta_index(s, 0).unwrap();
        let mut last = 0;
        for i in 0..50i64 {
            let mut w = e.begin();
            w.insert(s, tup![i, i]).unwrap();
            last = w.commit().unwrap();
        }
        let mut w = e.begin();
        w.insert(r, tup![1, 7]).unwrap();
        let c = w.commit().unwrap();
        let q = PropQuery::all_base(2)
            .with_delta(0, TimeInterval::new(last, c))
            .with_delta(1, TimeInterval::new(0, last));
        ctx.execute(&q, -1).unwrap();
        let text = ctx.prometheus().unwrap();
        assert!(text.contains("rolljoin_delta_index_total{decision=\"probe\"} 1"));
        assert!(text.contains("rolljoin_delta_index_total{decision=\"scan\"} 0"));
        assert!(text.contains("rolljoin_delta_index_probe_rows_total 1"));
        // The postings gauge reflects live index memory.
        let line = text
            .lines()
            .find(|l| l.starts_with("rolljoin_delta_postings_bytes"))
            .expect("postings gauge rendered");
        let bytes: i64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(bytes > 0, "postings bytes gauge is live: {line}");
    }

    #[test]
    fn compacted_fetch_keeps_min_timestamp() {
        let (ctx, r, _s) = two_table_ctx();
        let e = &ctx.engine;
        // Hot-key churn netting to +1 of (1, 10) plus +1 of (2, 20).
        let mut w = e.begin();
        w.insert(r, tup![1, 10]).unwrap();
        let c1 = w.commit().unwrap();
        let mut w = e.begin();
        w.delete_one(r, &tup![1, 10]).unwrap();
        w.commit().unwrap();
        let mut w = e.begin();
        w.insert(r, tup![1, 10]).unwrap();
        w.insert(r, tup![2, 20]).unwrap();
        let c3 = w.commit().unwrap();
        ctx.ensure_captured(c3).unwrap();
        let iv = TimeInterval::new(0, c3);

        let rows = ctx.fetch_range(r, iv, true).unwrap();
        assert_eq!(rows.len(), 2, "the fetch returns the φ-reduced run");
        let snap = ctx.stats.snapshot();
        assert_eq!(snap.compact_rows_in, 4, "raw churn counted");
        assert_eq!(snap.compact_rows_saved, 2);
        // Min-timestamp rule: the surviving (1, 10) row carries c1.
        let one = rows.iter().find(|r| r.tuple == tup![1, 10]).unwrap();
        assert_eq!((one.ts, one.count), (Some(c1), 1));

        // Every compacted fetch reads the store and is counted again; a
        // raw fetch of the same range is neither merged nor counted.
        assert_eq!(ctx.fetch_range(r, iv, true).unwrap(), rows);
        assert_eq!(ctx.fetch_range(r, iv, false).unwrap().len(), 4);
        assert_eq!(ctx.stats.snapshot().compact_rows_in, 8);
    }

    #[test]
    fn compensation_sign_negates_counts() {
        let (ctx, r, s) = two_table_ctx();
        let e = &ctx.engine;
        let mut w = e.begin();
        w.insert(r, tup![1, 10]).unwrap();
        w.insert(s, tup![10, 100]).unwrap();
        let c = w.commit().unwrap();
        // All-delta compensation over (0, c] with sign −1.
        let q = PropQuery::all_base(2)
            .with_delta(0, TimeInterval::new(0, c))
            .with_delta(1, TimeInterval::new(0, c));
        ctx.execute(&q, -1).unwrap();
        let rows = e
            .vd_range(ctx.mv.vd_table, TimeInterval::new(0, c))
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, -1);
        assert_eq!(ctx.stats.snapshot().comp_queries, 1);
    }
}
