//! E18 — early φ-compaction: policy × Zipf skew × workers.
//!
//! A hot-key churn workload is where raw delta streams are most wasteful:
//! the same tuple is inserted and deleted over and over, every row flows
//! through every propagation join, and almost all of it cancels. φ is
//! linear over SPJ propagation (Definition 4.1 / Lemma 4.2), so the
//! net-effect reduction can be taken *early* — at scan time, before rows
//! reach a join (the `on-scan` arm:
//! `CompactionPolicy::Background(1)` with no store pass), and in the
//! stores themselves below the global LWM (the `background` arm: the same
//! policy plus `compact_stores` between windows) — without changing any
//! net effect. This experiment drives a two-way
//! join with Zipf-skewed insert/delete churn (90% of ops are a paired
//! insert+delete of one tuple, netting to zero), propagates the history in
//! rolling windows under each policy, and reports the propagate-phase wall
//! time, rows entering joins, view-delta rows written, and store sizes.
//! The view-delta net effect is asserted identical across policies, and
//! the rolled MV is verified against the oracle.

use crate::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rolljoin_common::{tup, Error, Result, TimeInterval};
use rolljoin_core::{compute_delta, materialize, roll_to, CompactionPolicy, PropQuery};
use rolljoin_relalg::{net_effect, NetEffect};
use rolljoin_workload::{TwoWay, Zipf};
use std::time::{Duration, Instant};

/// Matching rows seeded per join key on the S side — the join fan-out a
/// delta row pays, so wasted delta rows cost real join work.
const SEED_MULT: usize = 4;
/// Churn key domain (join keys `0..KEY_DOMAIN`).
const KEY_DOMAIN: usize = 64;
/// Churn operations; each is a paired insert+delete (two commits, net
/// zero) with probability `PAIR_FRAC`, else a lone insert.
const CHURN_OPS: usize = 600;
const PAIR_FRAC: f64 = 0.9;
/// Rolling windows the history is propagated in.
const WINDOWS: usize = 8;
/// Trials per configuration; the median-propagate-wall trial is reported.
const TRIALS: usize = 3;

/// One churn operation: (side, key, paired-with-delete).
type ChurnOp = (usize, i64, bool);

/// The deterministic churn history for one skew setting — identical
/// across policies, workers, and trials so their deltas are comparable.
fn churn_ops(theta: f64) -> Vec<ChurnOp> {
    let zipf = Zipf::new(KEY_DOMAIN, theta);
    let mut rng = StdRng::seed_from_u64(18_000 + (theta * 100.0) as u64);
    (0..CHURN_OPS)
        .map(|i| {
            let k = zipf.sample(&mut rng) as i64;
            (i % 2, k, rng.gen::<f64>() < PAIR_FRAC)
        })
        .collect()
}

struct RunOutcome {
    /// Wall time of the propagate phase (all windows' `ComputeDelta`s).
    propagate_wall: Duration,
    /// Wall time of the apply phase (per-window `roll_to`s).
    apply_wall: Duration,
    /// Rows fetched from delta slots into joins across the whole run.
    delta_rows: u64,
    /// Total rows fetched from any slot.
    rows_read: u64,
    /// View-delta rows written by propagation.
    vd_written: u64,
    /// Raw delta rows eliminated by scan-level φ-compaction.
    scan_saved: u64,
    /// Records left in both base delta stores after the run.
    store_rows: usize,
    /// Records left in the view delta store after the run.
    vd_rows: usize,
    /// Estimated heap bytes reclaimed by store-level compaction.
    bytes_reclaimed: u64,
    /// Net effect of the full produced view delta.
    phi: NetEffect,
    /// Oracle verification of the rolled MV ("ok" / "MISMATCH").
    verify: String,
}

/// One compared arm: its label, the tuning's policy, and whether store
/// history is compacted between windows.
#[derive(Debug, Clone, Copy)]
struct Arm {
    name: &'static str,
    policy: CompactionPolicy,
    store_pass: bool,
}

const ARMS: [Arm; 3] = [
    Arm {
        name: "off",
        policy: CompactionPolicy::Off,
        store_pass: false,
    },
    Arm {
        name: "on-scan",
        policy: CompactionPolicy::Background(1),
        store_pass: false,
    },
    Arm {
        name: "background",
        policy: CompactionPolicy::Background(1),
        store_pass: true,
    },
];

/// Median-propagate-wall trial of a configuration (row counts are
/// deterministic; only wall time is trial-noisy).
fn run_best(arm: Arm, theta: f64, workers: usize) -> Result<RunOutcome> {
    let mut outs = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS {
        outs.push(run_config(arm, theta, workers, trial)?);
    }
    outs.sort_by_key(|o| o.propagate_wall);
    Ok(outs.swap_remove(TRIALS / 2))
}

/// One configuration: seed, materialize, replay the skew's churn history,
/// then propagate it in `WINDOWS` rolling windows with a roll after each —
/// in the `background` arm, also compacting the stores below the LWM
/// between windows, exactly what `spawn_compaction_driver` does
/// asynchronously.
fn run_config(arm: Arm, theta: f64, workers: usize, trial: usize) -> Result<RunOutcome> {
    let w = TwoWay::setup(&format!(
        "e18p{}t{}w{workers}x{trial}",
        arm.name,
        (theta * 100.0) as u64
    ))?;
    let ctx = w.ctx().with_workers(workers).with_compaction(arm.policy);

    // Seed before materializing so the propagated windows contain only
    // churn: every key joins, and S carries SEED_MULT rows per key.
    let mut txn = ctx.engine.begin();
    for k in 0..KEY_DOMAIN as i64 {
        txn.insert(w.r, tup![k, k])?;
        for m in 0..SEED_MULT as i64 {
            txn.insert(w.s, tup![k, 100 * k + m])?;
        }
    }
    txn.commit()?;
    let mat = materialize(&ctx)?;

    for (side, k, paired) in churn_ops(theta) {
        let (table, tuple) = if side == 0 {
            (w.r, tup![k + 500, k])
        } else {
            (w.s, tup![k, -1])
        };
        let mut txn = ctx.engine.begin();
        txn.insert(table, tuple.clone())?;
        txn.commit()?;
        if paired {
            let mut txn = ctx.engine.begin();
            txn.delete_one(table, &tuple)?;
            txn.commit()?;
        }
    }
    let end = ctx.engine.current_csn();
    // Catch capture up front so the measured windows never step it inline.
    ctx.engine.capture_catch_up()?;

    let before = ctx.stats.snapshot();
    let span = end - mat;
    let mut frontier = mat;
    let mut propagate_wall = Duration::ZERO;
    let mut apply_wall = Duration::ZERO;
    for s in 1..=WINDOWS {
        let hi = if s == WINDOWS {
            end
        } else {
            mat + span * s as u64 / WINDOWS as u64
        };
        if hi <= frontier {
            continue;
        }
        let t0 = Instant::now();
        compute_delta(&ctx, &PropQuery::all_base(2), 1, &[frontier; 2], hi)?;
        propagate_wall += t0.elapsed();
        ctx.mv.set_hwm(hi);
        frontier = hi;
        let t0 = Instant::now();
        roll_to(&ctx, hi)?;
        apply_wall += t0.elapsed();
        if arm.store_pass {
            ctx.compact_stores()?;
        }
    }
    let since = ctx.stats.snapshot().since(&before);

    let phi = net_effect(
        ctx.engine
            .vd_range(ctx.mv.vd_table, TimeInterval::new(mat, end))?,
    );
    let verify = crate::experiments::verify_cell(&ctx);
    let report = ctx.compaction_report()?;
    Ok(RunOutcome {
        propagate_wall,
        apply_wall,
        delta_rows: since.delta_rows_read,
        rows_read: since.total_rows_read(),
        vd_written: since.vd_rows_written,
        scan_saved: since.compact_rows_saved,
        store_rows: ctx.engine.delta_store(w.r)?.len() + ctx.engine.delta_store(w.s)?.len(),
        vd_rows: ctx.engine.vd_len(ctx.mv.vd_table)?,
        bytes_reclaimed: report.bytes_reclaimed(),
        phi,
        verify,
    })
}

/// E18: sweep compaction policy × Zipf skew × workers on Zipf hot-key
/// churn; emit the results table and `BENCH_compaction.json`.
pub fn e18() -> Result<()> {
    let mut t = Table::new(&[
        "policy",
        "theta",
        "workers",
        "propagate wall",
        "wall vs off",
        "delta rows",
        "rows vs off",
        "vd written",
        "scan saved",
        "store rows",
        "verify",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    let mut headline: Vec<String> = Vec::new();

    for theta in [0.0f64, 0.99] {
        for workers in [1usize, 2] {
            let mut baseline: Option<(Duration, u64, NetEffect)> = None;
            for arm in ARMS {
                let out = run_best(arm, theta, workers)?;
                let (base_wall, base_delta, base_phi) = baseline
                    .get_or_insert((out.propagate_wall, out.delta_rows, out.phi.clone()))
                    .clone();
                assert_eq!(
                    out.phi, base_phi,
                    "view-delta divergence: {} vs off at theta={theta}",
                    arm.name
                );
                assert_eq!(out.verify, "ok", "oracle mismatch under {}", arm.name);
                let wall_ratio =
                    out.propagate_wall.as_secs_f64() / base_wall.as_secs_f64().max(1e-9);
                let rows_ratio = out.delta_rows as f64 / (base_delta as f64).max(1e-9);
                t.row(vec![
                    arm.name.to_string(),
                    format!("{theta}"),
                    workers.to_string(),
                    format!("{:.2} ms", out.propagate_wall.as_secs_f64() * 1e3),
                    format!("{:.2}x", wall_ratio),
                    out.delta_rows.to_string(),
                    format!("{:.2}x", rows_ratio),
                    out.vd_written.to_string(),
                    out.scan_saved.to_string(),
                    out.store_rows.to_string(),
                    out.verify.clone(),
                ]);
                json_rows.push(format!(
                    concat!(
                        "    {{\"policy\": \"{}\", \"theta\": {}, \"workers\": {}, ",
                        "\"propagate_wall_ms\": {:.3}, \"wall_vs_off\": {:.3}, ",
                        "\"apply_wall_ms\": {:.3}, ",
                        "\"delta_rows_joined\": {}, \"rows_vs_off\": {:.3}, ",
                        "\"total_rows_read\": {}, \"vd_rows_written\": {}, ",
                        "\"scan_rows_saved\": {}, \"store_rows_end\": {}, ",
                        "\"vd_rows_end\": {}, \"bytes_reclaimed\": {}, ",
                        "\"view_delta_divergence\": false, \"oracle\": \"{}\"}}"
                    ),
                    arm.name,
                    theta,
                    workers,
                    out.propagate_wall.as_secs_f64() * 1e3,
                    wall_ratio,
                    out.apply_wall.as_secs_f64() * 1e3,
                    out.delta_rows,
                    rows_ratio,
                    out.rows_read,
                    out.vd_written,
                    out.scan_saved,
                    out.store_rows,
                    out.vd_rows,
                    out.bytes_reclaimed,
                    out.verify,
                ));
                if theta == 0.99 && arm.policy != CompactionPolicy::Off {
                    headline.push(format!(
                        concat!(
                            "    {{\"policy\": \"{}\", \"workers\": {}, ",
                            "\"wall_reduction_pct\": {:.1}, \"rows_joined_reduction_pct\": {:.1}}}"
                        ),
                        arm.name,
                        workers,
                        (1.0 - wall_ratio) * 100.0,
                        (1.0 - rows_ratio) * 100.0,
                    ));
                }
            }
        }
    }

    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"e18\",\n",
            "  \"description\": \"early phi-compaction on a two-way join under Zipf hot-key ",
            "insert/delete churn (90% of ops net to zero); policy x skew x workers, ",
            "propagated in rolling windows with a roll after each\",\n",
            "  \"key_domain\": {}, \"churn_ops\": {}, \"pair_frac\": {}, ",
            "\"windows\": {}, \"seed_mult\": {},\n",
            "  \"criterion_compaction_on_vs_off_at_theta_0_99\": [\n{}\n  ],\n",
            "  \"results\": [\n{}\n  ]\n}}\n"
        ),
        KEY_DOMAIN,
        CHURN_OPS,
        PAIR_FRAC,
        WINDOWS,
        SEED_MULT,
        headline.join(",\n"),
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_compaction.json", json)
        .map_err(|e| Error::Internal(format!("writing BENCH_compaction.json: {e}")))?;

    t.print(&format!(
        "E18: early φ-compaction under Zipf hot-key churn ({CHURN_OPS} ops, \
         {:.0}% paired insert+delete, {WINDOWS} rolling windows); wall/row ratios \
         are vs CompactionPolicy::Off within each (theta, workers) cell",
        PAIR_FRAC * 100.0
    ));
    println!("  [wrote BENCH_compaction.json]");
    Ok(())
}
