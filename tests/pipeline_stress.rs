//! Long-running concurrent pipeline stress: updater threads, a background
//! capture driver, a rolling propagate driver, an apply driver (plus, in
//! the churn case, a compaction driver), and a foreground checker that
//! repeatedly point-in-time-verifies the materialized view against the
//! oracle while everything is moving.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rolljoin::common::{tup, TableId, Tuple};
use rolljoin::core::{
    materialize, oracle, spawn_apply_driver, spawn_capture_driver, spawn_compaction_driver,
    spawn_rolling_driver, CompactionPolicy, DriverHandle, ExecTuning, MaintCtx, ObsConfig,
    TargetRows,
};
use rolljoin::storage::Engine;
use rolljoin::workload::{int_pair_stream, TwoWay, UpdateMix, Zipf};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// While the world churns, repeatedly verify that the MV at its (moving)
/// materialization time equals φ(V_t) — reading MV and mat_time under one
/// S lock so they are consistent. Returns the number of checks made.
fn check_live(ctx: &MaintCtx, run: Duration) -> usize {
    let deadline = Instant::now() + run;
    let mut checks = 0;
    while Instant::now() < deadline {
        let mut txn = ctx.engine.begin();
        txn.lock(ctx.mv.mv_table, rolljoin::storage::LockMode::Shared)
            .unwrap();
        let t = ctx.mv.mat_time();
        let got: rolljoin::relalg::NetEffect = txn
            .scan_counts(ctx.mv.mv_table)
            .unwrap()
            .into_iter()
            .collect();
        drop(txn);
        // The oracle needs capture ≥ t; the background capture driver is
        // running, so wait for it rather than stepping inline.
        while ctx.engine.capture_hwm() < t {
            std::thread::sleep(Duration::from_micros(200));
        }
        // A background compactor may have moved the delta-history floor
        // past `t` since it was read (the view rolled on); skip the sample.
        match oracle::view_at(&ctx.engine, &ctx.mv.view, t) {
            Ok(want) => {
                assert_eq!(got, want, "MV inconsistent with oracle at t={t}");
                checks += 1;
            }
            Err(rolljoin::Error::HistoryPruned { .. }) => {}
            Err(e) => panic!("oracle at t={t}: {e}"),
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    checks
}

/// Quiesce and verify: with the updaters stopped and the drivers still
/// running, wait until the view is rolled through the last commit, stop
/// the drivers (each must exit cleanly), and compare the MV with the
/// oracle once more.
fn quiesce_and_verify(ctx: &MaintCtx, drivers: Vec<DriverHandle>) {
    let end = ctx.engine.current_csn();
    let deadline = Instant::now() + Duration::from_secs(30);
    while ctx.mv.mat_time() < end {
        assert!(
            Instant::now() < deadline,
            "view stuck at {} < {end}",
            ctx.mv.mat_time()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    for d in drivers {
        d.stop().unwrap();
    }
    ctx.engine.capture_catch_up().unwrap();
    let t = ctx.mv.mat_time();
    assert_eq!(
        oracle::mv_state(&ctx.engine, &ctx.mv).unwrap(),
        oracle::view_at(&ctx.engine, &ctx.mv.view, t).unwrap(),
        "final state at t={t}"
    );
}

#[test]
fn concurrent_pipeline_stays_oracle_exact() {
    let w = TwoWay::setup("stress").unwrap();
    let ctx = w
        .ctx()
        .with_blocking_capture(Duration::from_micros(500), Duration::from_secs(30));
    let mat = materialize(&ctx).unwrap();

    let capture = spawn_capture_driver(w.engine.clone(), Duration::from_micros(500), 4096);
    let prop = spawn_rolling_driver(
        ctx.clone(),
        mat,
        Box::new(TargetRows { target_rows: 48 }),
        Duration::from_micros(500),
    );
    let apply = spawn_apply_driver(ctx.clone(), Duration::from_millis(3));

    // Updater threads.
    let stop = Arc::new(AtomicBool::new(false));
    let mut updaters = Vec::new();
    for k in 0..3u64 {
        let engine = w.engine.clone();
        let (r, s) = (w.r, w.s);
        let stop = stop.clone();
        updaters.push(std::thread::spawn(move || {
            let mix = UpdateMix {
                delete_frac: 0.25,
                update_frac: 0.25,
            };
            let mut sr = int_pair_stream(r, 1000 + k, mix, 64);
            let mut ss = int_pair_stream(s, 2000 + k, mix, 64);
            let mut ops = 0u64;
            while !stop.load(Ordering::Acquire) {
                sr.step(&engine).unwrap();
                ss.step(&engine).unwrap();
                ops += 2;
                std::thread::sleep(Duration::from_micros(200));
            }
            ops
        }));
    }

    let checks = check_live(&ctx, Duration::from_secs(4));
    assert!(checks >= 20, "expected many live checks, got {checks}");

    stop.store(true, Ordering::Release);
    let total_ops: u64 = updaters.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_ops > 1_000, "stress too small: {total_ops} ops");

    quiesce_and_verify(&ctx, vec![prop, apply, capture]);
    // Sanity: tables aren't trivially empty.
    let mut txn = ctx.engine.begin();
    assert!(txn.scan(w.r).unwrap().len() > 100);
    drop(txn);
    let _ = tup![0];
}

/// Churn-cancel updater: single-row transactions on a two-way join whose
/// Zipf(0.99) hot keys are inserted and, for 90% of inserts, deleted again
/// within 64 transactions. Returns the number of committed transactions.
fn churn_updater(engine: Engine, tables: [TableId; 2], seed: u64, stop: &AtomicBool) -> u64 {
    let zipf = Zipf::new(64, 0.99);
    let mut rng = StdRng::seed_from_u64(seed);
    // Scheduled deletes keyed by (due transaction, insert sequence).
    let mut due: BTreeMap<(u64, u64), (usize, Tuple)> = BTreeMap::new();
    let mut i = 0u64;
    while !stop.load(Ordering::Acquire) {
        let mut txn = engine.begin();
        match due.first_entry() {
            Some(entry) if entry.key().0 <= i => {
                let (side, t) = entry.remove();
                txn.delete_one(tables[side], &t).unwrap();
            }
            _ => {
                let side = rng.gen_range(0..2usize);
                let k = zipf.sample(&mut rng) as i64;
                let t = if side == 0 {
                    tup![k + 500, k]
                } else {
                    tup![k, -1]
                };
                if rng.gen_bool(0.9) {
                    due.insert((i + rng.gen_range(1u64..=64), i), (side, t.clone()));
                }
                txn.insert(tables[side], t).unwrap();
            }
        }
        txn.commit().unwrap();
        i += 1;
        std::thread::sleep(Duration::from_micros(500));
    }
    i
}

/// The driver set of the steady-state benchmark — capture, rolling
/// propagate, apply and a background compactor with a small store
/// threshold — on hot-key churn where most inserts are later deleted,
/// with keyed base and delta indexes on the join columns. The MV is
/// checked against the oracle while the drivers run; every driver must
/// stop cleanly (an apply that meets a view delta inconsistent with the
/// MV fails its driver).
#[test]
fn compacting_churn_pipeline_stays_oracle_exact() {
    for (workers, seed) in [(1usize, 11u64), (2, 12)] {
        let w = TwoWay::setup(&format!("churn{workers}")).unwrap();
        w.engine.create_delta_index(w.r, 1).unwrap();
        w.engine.create_delta_index(w.s, 0).unwrap();
        let mut txn = w.engine.begin();
        for k in 0..64i64 {
            txn.insert(w.r, tup![k + 500, k]).unwrap();
            for m in 0..4i64 {
                txn.insert(w.s, tup![k, 100 * k + m]).unwrap();
            }
        }
        txn.commit().unwrap();
        let ctx = w
            .ctx()
            .with_tuning(
                ExecTuning::default()
                    .with_workers(workers)
                    .with_compaction(CompactionPolicy::Background(16))
                    .with_obs(ObsConfig::Metrics),
            )
            .with_blocking_capture(Duration::from_micros(500), Duration::from_secs(30));
        let mat = materialize(&ctx).unwrap();

        let capture = spawn_capture_driver(w.engine.clone(), Duration::from_micros(500), 4096);
        let prop = spawn_rolling_driver(
            ctx.clone(),
            mat,
            Box::new(TargetRows { target_rows: 32 }),
            Duration::from_micros(500),
        );
        let apply = spawn_apply_driver(ctx.clone(), Duration::from_millis(3));
        let compact = spawn_compaction_driver(ctx.clone(), Duration::from_millis(5));

        let stop = Arc::new(AtomicBool::new(false));
        let updater = {
            let (engine, tables, stop) = (w.engine.clone(), [w.r, w.s], stop.clone());
            std::thread::spawn(move || churn_updater(engine, tables, seed, &stop))
        };

        let checks = check_live(&ctx, Duration::from_secs(3));
        assert!(checks >= 15, "expected many live checks, got {checks}");
        stop.store(true, Ordering::Release);
        let txns = updater.join().unwrap();
        assert!(txns > 500, "churn too small: {txns} txns");

        quiesce_and_verify(&ctx, vec![compact, prop, apply, capture]);
        let removed = ctx.compaction_report().unwrap().rows_removed();
        assert!(removed > 0, "the compactor never removed a row");
    }
}
