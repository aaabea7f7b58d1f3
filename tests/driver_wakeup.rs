//! The drivers hand work on by signal, not by timer. Capture → propagate:
//! an idle rolling driver wakes when capture ingests a commit, not when its
//! idle period ends, and under a blocking capture wait a step covers only
//! captured history. Propagate → apply: each apply tick waits on the
//! view-delta HWM for the commits made before it (until the next tick is
//! due), and an idle pipeline commits nothing.

use rolljoin::common::{tup, Csn};
use rolljoin::core::{
    materialize, oracle, roll_to, spawn_apply_driver, spawn_capture_driver, spawn_rolling_driver,
    MaintCtx, RollingPropagator, UniformInterval,
};
use rolljoin::workload::TwoWay;
use std::time::{Duration, Instant};

/// Commit one joining pair of rows; returns its CSN.
fn commit_pair(w: &TwoWay, k: i64) -> Csn {
    let mut txn = w.engine.begin();
    txn.insert(w.s, tup![k, 10 * k]).unwrap();
    txn.insert(w.r, tup![100 + k, k]).unwrap();
    txn.commit().unwrap()
}

/// Poll until the view is materialized at or past `csn`, failing after
/// `limit`.
fn await_mat_time(ctx: &MaintCtx, csn: Csn, limit: Duration) {
    let deadline = Instant::now() + limit;
    while ctx.mv.mat_time() < csn {
        assert!(
            Instant::now() < deadline,
            "mat_time stuck at {} below {csn} (view-delta hwm {})",
            ctx.mv.mat_time(),
            ctx.mv.hwm()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn assert_mv_exact(ctx: &MaintCtx) {
    assert_eq!(
        oracle::mv_state(&ctx.engine, &ctx.mv).unwrap(),
        oracle::view_at(&ctx.engine, &ctx.mv.view, ctx.mv.mat_time()).unwrap()
    );
}

#[test]
fn idle_rolling_driver_wakes_on_capture_progress() {
    let w = TwoWay::setup("wake").unwrap();
    let ctx = w
        .ctx()
        .with_blocking_capture(Duration::from_millis(1), Duration::from_secs(30));
    let mat = materialize(&ctx).unwrap();
    let capture = spawn_capture_driver(w.engine.clone(), Duration::from_millis(5), 4096);
    // An idle period far longer than the test's deadline: only the
    // capture-progress signal can get the driver moving in time.
    let prop = spawn_rolling_driver(
        ctx.clone(),
        mat,
        Box::new(UniformInterval(8)),
        Duration::from_secs(10),
    );
    // Let the driver find nothing to do and go idle.
    std::thread::sleep(Duration::from_millis(100));

    let mut txn = ctx.engine.begin();
    txn.insert(w.s, tup![1, 10]).unwrap();
    txn.insert(w.r, tup![5, 1]).unwrap();
    let csn = txn.commit().unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while ctx.mv.hwm() < csn {
        assert!(
            Instant::now() < deadline,
            "view-delta hwm stuck at {} below commit {csn} (capture hwm {})",
            ctx.mv.hwm(),
            ctx.engine.capture_hwm()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    prop.stop().unwrap();
    capture.stop().unwrap();

    roll_to(&ctx, csn).unwrap();
    assert_eq!(
        oracle::mv_state(&ctx.engine, &ctx.mv).unwrap(),
        oracle::view_at(&ctx.engine, &ctx.mv.view, csn).unwrap()
    );
}

#[test]
fn blocking_step_covers_only_captured_history() {
    let w = TwoWay::setup("bound").unwrap();
    // A short timeout: a step that waited for the (absent) capture driver
    // would fail instead of returning.
    let ctx = w
        .ctx()
        .with_blocking_capture(Duration::from_millis(1), Duration::from_millis(200));
    let mat = materialize(&ctx).unwrap();
    ctx.engine.capture_catch_up().unwrap();
    for i in 0..4i64 {
        let mut txn = ctx.engine.begin();
        txn.insert(w.r, tup![i, i % 2]).unwrap();
        txn.commit().unwrap();
    }
    // Each commit is three records (begin, insert, commit): capture two.
    ctx.engine.capture_step(6).unwrap();
    let captured = ctx.engine.capture_hwm();
    assert!(mat < captured && captured < ctx.engine.current_csn());
    assert_eq!(ctx.step_bound(), captured);

    let mut rp = RollingPropagator::new(ctx.clone(), mat);
    let mut policy = UniformInterval(100);
    while rp.step(&mut policy).unwrap().is_some() {}
    assert!(rp.tfwd().iter().all(|&t| t == captured));

    // Once capture catches up, the same propagator continues past it.
    ctx.engine.capture_catch_up().unwrap();
    while rp.step(&mut policy).unwrap().is_some() {}
    assert!(rp.tfwd().iter().all(|&t| t >= ctx.engine.capture_hwm()));
}

#[test]
fn apply_tick_covers_commits_made_before_it() {
    let w = TwoWay::setup("tick").unwrap();
    let ctx = w
        .ctx()
        .with_blocking_capture(Duration::from_millis(1), Duration::from_secs(30));
    let mat = materialize(&ctx).unwrap();
    let capture = spawn_capture_driver(w.engine.clone(), Duration::from_millis(2), 4096);
    let prop = spawn_rolling_driver(
        ctx.clone(),
        mat,
        Box::new(UniformInterval(8)),
        Duration::from_millis(2),
    );
    prop.suspend();
    // Let any step in flight finish before the commit.
    std::thread::sleep(Duration::from_millis(50));
    let csn = commit_pair(&w, 1);
    assert!(ctx.mv.hwm() < csn);

    // A period far longer than the test's deadline: only the first tick,
    // which starts before propagation covers the commit, can show it.
    let apply = spawn_apply_driver(ctx.clone(), Duration::from_secs(10));
    prop.resume();
    await_mat_time(&ctx, csn, Duration::from_secs(2));
    let stopping = Instant::now();
    apply.stop().unwrap();
    assert!(
        stopping.elapsed() < Duration::from_secs(2),
        "stop wakes a sleeping driver"
    );
    prop.stop().unwrap();
    capture.stop().unwrap();
    assert_mv_exact(&ctx);
}

#[test]
fn apply_tick_rolls_partial_hwm_at_deadline() {
    let w = TwoWay::setup("partial").unwrap();
    let ctx = w.ctx();
    let mat = materialize(&ctx).unwrap();
    let first = commit_pair(&w, 1);
    let mut rp = RollingPropagator::new(ctx.clone(), mat);
    while rp.step(&mut UniformInterval(100)).unwrap().is_some() {}
    // Propagation's own commits are covered too.
    let covered = ctx.mv.hwm();
    assert!(covered >= first);
    // Propagation stops here: this commit never reaches the view delta.
    let uncovered = commit_pair(&w, 2);

    let period = Duration::from_millis(200);
    let apply = spawn_apply_driver(ctx.clone(), period);
    await_mat_time(&ctx, covered, 2 * period);
    // The driver is now waiting for the next tick's target; that wait
    // ends by the tick after it.
    let stopping = Instant::now();
    apply.stop().unwrap();
    assert!(stopping.elapsed() < 2 * period, "stopped within a period");
    assert_eq!(ctx.mv.mat_time(), covered, "rolled to the HWM, not past it");
    assert!(ctx.mv.hwm() < uncovered);
    assert_mv_exact(&ctx);
}

#[test]
fn idle_apply_driver_commits_nothing() {
    let w = TwoWay::setup("idle").unwrap();
    let ctx = w
        .ctx()
        .with_blocking_capture(Duration::from_millis(1), Duration::from_secs(30));
    let mat = materialize(&ctx).unwrap();
    let capture = spawn_capture_driver(w.engine.clone(), Duration::from_millis(2), 4096);
    let prop = spawn_rolling_driver(
        ctx.clone(),
        mat,
        Box::new(UniformInterval(8)),
        Duration::from_millis(2),
    );
    let period = Duration::from_millis(20);
    let apply = spawn_apply_driver(ctx.clone(), period);
    let csn = commit_pair(&w, 1);
    await_mat_time(&ctx, csn, Duration::from_secs(2));
    // Drained: at most the roll in flight is left to commit.
    std::thread::sleep(3 * period);
    let (csn_before, wal_before) = (ctx.engine.current_csn(), ctx.engine.wal().byte_len());
    std::thread::sleep(10 * period);
    assert_eq!(
        ctx.engine.current_csn(),
        csn_before,
        "idle drivers committed"
    );
    assert_eq!(
        ctx.engine.wal().byte_len(),
        wal_before,
        "idle drivers wrote the WAL"
    );
    apply.stop().unwrap();
    prop.stop().unwrap();
    capture.stop().unwrap();
    assert_mv_exact(&ctx);
}
