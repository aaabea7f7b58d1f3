//! The capture → propagate handoff is event-driven: an idle rolling driver
//! wakes when capture ingests a commit, not when its idle period ends, and
//! under a blocking capture wait a step covers only captured history.

use rolljoin::common::tup;
use rolljoin::core::{
    materialize, oracle, roll_to, spawn_capture_driver, spawn_rolling_driver, RollingPropagator,
    UniformInterval,
};
use rolljoin::workload::TwoWay;
use std::time::{Duration, Instant};

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
