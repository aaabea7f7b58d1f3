//! `RollingPropagate` — the paper's headline algorithm (Fig. 10).
//!
//! Rolling propagation refines `Propagate` in two ways (paper §3.4):
//!
//! 1. **Per-relation propagation intervals.** Each relation `R^i` has its
//!    own forward-query frontier `tfwd[i]`, so a rarely-updated dimension
//!    table can be swept in wide strides while a hot fact table moves in
//!    small steps.
//! 2. **Deferred, merged compensation.** Instead of compensating each
//!    forward query immediately (as `ComputeDelta` does when driven by
//!    `Propagate`), a forward query for `R^i` compensates — at its own
//!    execution time — for overlap with *all* not-yet-compensated forward
//!    queries of lower-numbered relations. Because the overlap region is
//!    generally not rectangular, it is split at the lower queries'
//!    execution times (`ComInterval`) and each rectangular piece is
//!    compensated with one `ComputeDelta` call whose intended times come
//!    from `CompTime`.
//!
//! Bookkeeping (all per Fig. 10):
//!
//! * `tfwd[i]` — frontier of forward queries for `R^i`;
//! * `querylist[i]` — forward queries of `R^i` not yet fully compensated
//!   (only relations `i < n` are recorded: nothing compensates against the
//!   last relation's queries, they always see lower relations correctly
//!   compensated);
//! * `tcomp[i]` — start of the oldest uncompensated query (or `tfwd[i]`),
//!   maintained by `PruneQueryLists`;
//! * the **view-delta high-water mark** is `min_i tcomp[i]` (Theorem 4.3).
//!
//! # Compensation modes
//!
//! The **deferred** compensation of Fig. 10 is presented in the paper
//! through two-relation figures; for `n ≥ 3` its `CompTime` bookkeeping is
//! under-specified on one point: a lower relation's recorded forward query
//! covers higher-numbered axes only up to its *own* execution time, while
//! the single intended timestamp `τ_d[j]` cannot express that bound — our
//! randomized oracle tests exhibit three-relation interleavings where a
//! literal reading under-covers the delta region (see DESIGN.md). We
//! therefore run Fig. 10's deferred scheme exactly for `n = 2` (where it
//! is airtight and matches Fig. 9), and for `n ≥ 3` use the provably
//! correct **immediate frontier-vector** variant: each forward query for
//! `R^i` over `(x, y]` is immediately compensated by
//! `ComputeDelta(−Q, τ, t_e)` with `τ[j] = tfwd[j]` for every `j ≠ i`, so
//! its net coverage is exactly the box
//! `{p_i ∈ (x, y]} × ∏_{j≠i} (−∞, tfwd[j]]` — the boxes tile the frontier
//! staircase with no overlap, every property of the paper (per-relation
//! intervals, asynchrony, timestamped delta, point-in-time refresh) is
//! preserved, and the HWM is simply `min_i tfwd[i]`.

use crate::compute_delta::DeltaWorker;
use crate::execute::{MaintCtx, QuerySpanCtx};
use crate::policy::IntervalPolicy;
use crate::query::PropQuery;
use crate::stats::PropStatsSnapshot;
use rolljoin_common::{Csn, Error, Result, TimeInterval};
use rolljoin_obs::JournalEntry;
use std::collections::VecDeque;
use std::time::Instant;

/// A recorded forward query awaiting compensation.
#[derive(Debug, Clone, Copy)]
struct FwdQuery {
    /// The propagation interval on the relation's own axis.
    interval: TimeInterval,
    /// Execution (commit) time of the query.
    exec: Csn,
}

/// What one rolling step did (for logging/experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollingStep {
    /// Relation the forward query targeted.
    pub relation: usize,
    /// Width of the forward query's interval.
    pub width: u64,
    /// `true` if the step was skipped because the delta range was empty.
    pub skipped_empty: bool,
    /// The view-delta HWM after the step.
    pub hwm: Csn,
}

/// In-flight state of one rolling step whose compensation has not yet
/// fully committed — kept so a failed step resumes instead of
/// re-executing committed work.
#[derive(Debug, Clone, Copy)]
struct PendingStep {
    rel: usize,
    width: u64,
    /// End of the forward interval (`tfwd[rel]` advances to this).
    t_hi: Csn,
    /// Execution time of the forward query.
    t_e: Csn,
    /// Compensation progress along the relation's axis (deferred mode).
    t_s: Csn,
    rem: u64,
    /// Width of the segment currently enqueued in the worker.
    seg: Option<u64>,
    /// Span id of the forward query — parent of the compensation spans.
    span: u64,
    /// Stats at step start, for the journal's per-step query/row counts.
    stats0: PropStatsSnapshot,
    /// Wall clock at step start.
    started: Instant,
}

/// How a forward query's overlap with other relations is compensated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompensationMode {
    /// Fig. 10's deferred/merged compensation (querylists, `ComInterval`,
    /// `CompTime`). Sound for two-relation views; the default there.
    Deferred,
    /// Immediate frontier-vector compensation (net coverage = exact boxes
    /// on the frontier staircase). Sound for any `n`; the default for
    /// `n ≥ 3`.
    ImmediateBox,
}

/// The `RollingPropagate` process state.
pub struct RollingPropagator {
    ctx: MaintCtx,
    tfwd: Vec<Csn>,
    querylist: Vec<VecDeque<FwdQuery>>,
    worker: DeltaWorker,
    pending: Option<PendingStep>,
    mode: CompensationMode,
}

impl RollingPropagator {
    /// Start rolling propagation at `t_initial` (normally the view's
    /// materialization time).
    pub fn new(ctx: MaintCtx, t_initial: Csn) -> Self {
        let n = ctx.mv.n();
        let mode = if n <= 2 {
            CompensationMode::Deferred
        } else {
            CompensationMode::ImmediateBox
        };
        Self::with_mode(ctx, t_initial, mode)
    }

    /// Start with an explicit compensation mode. `Deferred` is rejected
    /// for views over more than two relations (see the module docs).
    pub fn with_mode(ctx: MaintCtx, t_initial: Csn, mode: CompensationMode) -> Self {
        let n = ctx.mv.n();
        assert!(
            !(mode == CompensationMode::Deferred && n > 2),
            "deferred compensation is only sound for n ≤ 2 relations"
        );
        RollingPropagator {
            ctx,
            tfwd: vec![t_initial; n],
            querylist: vec![VecDeque::new(); n],
            worker: DeltaWorker::new(),
            pending: None,
            mode,
        }
    }

    /// The compensation mode in use.
    pub fn mode(&self) -> CompensationMode {
        self.mode
    }

    /// Shared maintenance context.
    pub fn ctx(&self) -> &MaintCtx {
        &self.ctx
    }

    /// Forward-query frontiers, one per relation.
    pub fn tfwd(&self) -> &[Csn] {
        &self.tfwd
    }

    /// `tcomp[i]`: the oldest uncompensated forward query's interval start,
    /// or `tfwd[i]` when everything is compensated.
    pub fn tcomp(&self, i: usize) -> Csn {
        self.querylist[i]
            .front()
            .map(|q| q.interval.lo)
            .unwrap_or(self.tfwd[i])
    }

    /// The view-delta high-water mark: `min_i tcomp[i]` (Theorem 4.3).
    pub fn hwm(&self) -> Csn {
        (0..self.tfwd.len())
            .map(|i| self.tcomp(i))
            .min()
            .expect("views have ≥ 1 relation")
    }

    /// `PruneQueryLists` (Fig. 10): drop fully-compensated queries — those
    /// whose execution time is at or below every frontier, so no future
    /// compensation segment can start below them.
    fn prune_query_lists(&mut self) {
        let t = *self.tfwd.iter().min().expect("≥ 1 relation");
        for ql in &mut self.querylist {
            while ql.front().is_some_and(|q| q.exec <= t) {
                ql.pop_front();
            }
        }
    }

    /// `ComInterval` (Fig. 10): widest rectangular compensation starting at
    /// `t_s` for relation `i` — bounded by the smallest execution time
    /// greater than `t_s` among uncompensated queries of relations below
    /// `i` (`None` = unbounded).
    fn com_interval(&self, i: usize, t_s: Csn) -> Option<u64> {
        self.querylist[..i]
            .iter()
            .flatten()
            .map(|q| q.exec)
            .filter(|&e| e > t_s)
            .min()
            .map(|e| e - t_s)
    }

    /// `CompTime` (Fig. 10): how far back a compensation segment at `t_s`
    /// must roll relation `j` — the interval start of `j`'s earliest
    /// uncompensated query executed after `t_s`, else `tfwd[j]`.
    fn comp_time(&self, j: usize, t_s: Csn) -> Csn {
        self.querylist[j]
            .iter()
            .filter(|q| q.exec > t_s)
            .min_by_key(|q| q.exec)
            .map(|q| q.interval.lo)
            .unwrap_or(self.tfwd[j])
    }

    /// Finish a step whose compensation previously failed partway: drain
    /// the worker and continue enqueuing the remaining rectangular
    /// segments. No-op when nothing is pending.
    pub fn finish_pending(&mut self) -> Result<Option<RollingStep>> {
        let Some(mut p) = self.pending else {
            return Ok(None);
        };
        loop {
            self.worker.run(&self.ctx)?;
            if let Some(seg) = p.seg.take() {
                p.t_s += seg;
                p.rem -= seg;
                self.pending = Some(p);
            }
            if p.rem == 0 {
                break;
            }
            // Next rectangular compensation segment (Fig. 10's
            // repeat/until loop).
            let d2 = self
                .com_interval(p.rel, p.t_s)
                .map_or(p.rem, |w| w.min(p.rem));
            let n = self.tfwd.len();
            let tau: Vec<Csn> = (0..n)
                .map(|j| {
                    if j < p.rel {
                        self.comp_time(j, p.t_s)
                    } else {
                        p.t_e
                    }
                })
                .collect();
            let cq = PropQuery::all_base(n).with_delta(p.rel, TimeInterval::new(p.t_s, p.t_s + d2));
            self.worker.enqueue_under(cq, -1, tau, p.t_e, p.span, 1);
            p.seg = Some(d2);
            self.pending = Some(p);
        }
        self.tfwd[p.rel] = p.t_hi;
        self.pending = None;
        let hwm = self.hwm();
        self.ctx.mv.set_hwm(hwm);
        if self.ctx.obs.tracing_on() {
            let d = self.ctx.stats.snapshot().since(&p.stats0);
            self.ctx.obs.journal_step(
                JournalEntry::new("rolling")
                    .with_relation(p.rel)
                    .with_interval(p.t_hi - p.width, p.t_hi)
                    .with_queries(d.total_queries(), d.comp_queries)
                    .with_rows(d.total_rows_read(), d.vd_rows_written)
                    .with_duration_ns(p.started.elapsed().as_nanos() as u64)
                    .with_hwm(hwm),
            );
        }
        if self.ctx.obs.metrics_on() {
            self.ctx
                .meters
                .record_step(&self.ctx.obs.meter, "rolling", false);
        }
        Ok(Some(RollingStep {
            relation: p.rel,
            width: p.width,
            skipped_empty: false,
            hwm,
        }))
    }

    /// One iteration of Fig. 10's loop body for a *caller-chosen* relation:
    /// execute `R^i`'s next forward query over `(tfwd[i], tfwd[i]+delta]`,
    /// then compensate its overlap with lower-numbered relations' queries.
    ///
    /// If a previous step failed partway (lock timeout), it is resumed and
    /// completed first; the new step then proceeds as asked.
    pub fn step_relation(&mut self, i: usize, delta: u64) -> Result<RollingStep> {
        self.finish_pending()?;
        let n = self.tfwd.len();
        if i >= n {
            return Err(Error::Invalid(format!("relation {i} of {n}")));
        }
        if delta == 0 {
            return Err(Error::Invalid("forward interval must be > 0".into()));
        }
        let t_s0 = self.tfwd[i];
        let t_hi = t_s0 + delta;
        let interval = TimeInterval::new(t_s0, t_hi);
        let started = Instant::now();
        let stats0 = self.ctx.stats.snapshot();
        let obs = self.ctx.obs.clone();
        let mut step_span = obs.span("rolling_step");
        step_span.arg("rel", i as i64);
        step_span.arg("lo", t_s0 as i64);
        step_span.arg("hi", t_hi as i64);
        if self.ctx.obs.metrics_on() {
            self.ctx
                .meters
                .record_interval_width(&self.ctx.obs.meter, i, delta);
        }
        self.ctx.ensure_captured(t_hi)?;
        self.prune_query_lists();

        // Empty-delta fast path: every query this step would issue (the
        // forward query and all its compensations) contains the same empty
        // delta slot, so all are empty. The frontier still advances; the
        // unrecorded query needs no querylist entry because compensating
        // against it would also be empty.
        if self.ctx.skip_empty
            && self
                .ctx
                .engine
                .delta_count(self.ctx.mv.view.bases[i], interval)?
                == 0
        {
            self.tfwd[i] = t_hi;
            let hwm = self.hwm();
            self.ctx.mv.set_hwm(hwm);
            step_span.arg("skipped_empty", 1);
            if self.ctx.obs.tracing_on() {
                self.ctx.obs.journal_step(
                    JournalEntry::new("rolling")
                        .with_relation(i)
                        .with_interval(t_s0, t_hi)
                        .with_skipped_empty(true)
                        .with_duration_ns(started.elapsed().as_nanos() as u64)
                        .with_hwm(hwm),
                );
            }
            if self.ctx.obs.metrics_on() {
                self.ctx
                    .meters
                    .record_step(&self.ctx.obs.meter, "rolling", true);
            }
            return Ok(RollingStep {
                relation: i,
                width: delta,
                skipped_empty: true,
                hwm,
            });
        }

        // The forward query is a single transaction: a failure here leaves
        // no durable state, so the caller can simply retry the step.
        let fq = PropQuery::all_base(n).with_delta(i, interval);
        let fctx = QuerySpanCtx {
            parent: step_span.id(),
            depth: 0,
            rel: Some(i),
        };
        let (outcome, fwd_span) = self.ctx.execute_traced(&fq, 1, fctx)?;
        let t_e = outcome.exec_csn;

        match self.mode {
            CompensationMode::Deferred => {
                if i < n - 1 {
                    self.querylist[i].push_back(FwdQuery {
                        interval,
                        exec: t_e,
                    });
                }
                // Compensation (for i > 0) runs as resumable pending work.
                self.pending = Some(PendingStep {
                    rel: i,
                    width: delta,
                    t_hi,
                    t_e,
                    t_s: t_s0,
                    rem: if i > 0 { delta } else { 0 },
                    seg: None,
                    span: fwd_span,
                    stats0,
                    started,
                });
            }
            CompensationMode::ImmediateBox => {
                // Roll every other relation back from t_e to its current
                // frontier: the query's net coverage becomes the exact box
                // (x, y] × ∏_{j≠i} (−∞, tfwd[j]].
                let tau: Vec<Csn> = (0..n)
                    .map(|j| if j == i { 0 } else { self.tfwd[j] })
                    .collect();
                self.worker.enqueue_under(fq, -1, tau, t_e, fwd_span, 1);
                self.pending = Some(PendingStep {
                    rel: i,
                    width: delta,
                    t_hi,
                    t_e,
                    t_s: t_s0,
                    rem: 0,
                    seg: None,
                    span: fwd_span,
                    stats0,
                    started,
                });
            }
        }
        Ok(self
            .finish_pending()?
            .expect("pending step was just installed"))
    }

    /// One iteration of Fig. 10's loop: pick the relation with the smallest
    /// `tfwd` (ties → lowest index), size its interval with `policy`, and
    /// run [`RollingPropagator::step_relation`]. Intervals end at or below
    /// [`MaintCtx::step_bound`]. Returns `None` when that relation is
    /// already caught up to the bound (nothing to do).
    pub fn step(&mut self, policy: &mut dyn IntervalPolicy) -> Result<Option<RollingStep>> {
        if let Some(resumed) = self.finish_pending()? {
            return Ok(Some(resumed));
        }
        let i = self.next_relation();
        let now = self.ctx.step_bound();
        let available = now.saturating_sub(self.tfwd[i]);
        if available == 0 {
            // Caught up. Frontiers may have passed recorded execution
            // times since the last step — prune so the HWM is released
            // even while idle.
            self.prune_query_lists();
            self.ctx.mv.set_hwm(self.hwm());
            return Ok(None);
        }
        let from = self.tfwd[i];
        let delta = policy
            .choose(&self.ctx, i, from, available)?
            .clamp(1, available);
        let started = std::time::Instant::now();
        let step = self.step_relation(i, delta)?;
        policy.observe(i, delta, started.elapsed());
        Ok(Some(step))
    }

    /// The relation Fig. 10's loop would pick next (smallest `tfwd`).
    pub fn next_relation(&self) -> usize {
        (0..self.tfwd.len())
            .min_by_key(|&i| self.tfwd[i])
            .expect("≥ 1 relation")
    }

    /// Keep stepping until every frontier reaches `target` (which must be
    /// at or below the latest commit). Returns the final HWM ≥ `target`.
    pub fn propagate_to(&mut self, target: Csn, policy: &mut dyn IntervalPolicy) -> Result<Csn> {
        if target > self.ctx.engine.current_csn() {
            return Err(Error::Invalid(format!(
                "target {target} beyond the latest commit {}",
                self.ctx.engine.current_csn()
            )));
        }
        while self.tfwd.iter().any(|&t| t < target) {
            let i = self.next_relation();
            let from = self.tfwd[i];
            if from >= target {
                // This relation is done; others lag — step the laggard.
                continue;
            }
            let available = target - from;
            let delta = policy
                .choose(&self.ctx, i, from, available)?
                .clamp(1, available);
            self.step_relation(i, delta)?;
        }
        Ok(self.hwm())
    }

    /// Number of uncompensated forward queries currently tracked.
    pub fn pending_compensation(&self) -> usize {
        self.querylist.iter().map(VecDeque::len).sum()
    }

    /// True when a failed step is awaiting resumption.
    pub fn has_pending_step(&self) -> bool {
        self.pending.is_some() || !self.worker.is_idle()
    }

    /// Propagate until the **high-water mark** reaches `target`, i.e. until
    /// the view can actually be rolled to `target`.
    ///
    /// One [`RollingPropagator::propagate_to`] sweep moves every frontier
    /// past `target`, but recorded forward queries keep the HWM at their
    /// interval starts until every frontier passes their *execution* times
    /// (Fig. 10's prune criterion) — the HWM trails the frontiers exactly
    /// as Fig. 3 depicts. Because propagation transactions write only the
    /// (uncaptured) view delta table, repeated sweeps over a quiescent
    /// database converge: the final sweep sees only empty deltas, issues no
    /// transactions, and prunes everything. With concurrent updaters this
    /// keeps sweeping until it observes an HWM ≥ `target`.
    pub fn drain_to(&mut self, target: Csn, policy: &mut dyn IntervalPolicy) -> Result<Csn> {
        if target > self.ctx.engine.current_csn() {
            return Err(Error::Invalid(format!(
                "target {target} beyond the latest commit {}",
                self.ctx.engine.current_csn()
            )));
        }
        while self.hwm() < target {
            let now = self.ctx.engine.current_csn();
            self.propagate_to(now.max(target), policy)?;
            // Frontiers moved; re-run pruning so the HWM reflects it even
            // when the next loop iteration exits.
            self.prune_query_lists();
        }
        self.ctx.mv.set_hwm(self.hwm());
        Ok(self.hwm())
    }
}
