//! Pool size does not change φ: under any update history, `ComputeDelta`
//! run by a `DeltaWorker` pool of N workers must produce a view delta with
//! the same net effect (`φ`, Definition 4.1) as a pool of one (which runs
//! its units inline), and point-in-time refresh from either delta must
//! land the MV exactly on the oracle state at random roll targets
//! (Definition 4.2 / Theorem 4.1).
//!
//! This is the property that makes the parallelism safe to ship: unit
//! execution order changes each constituent query's execution time, but
//! every drift is compensated relative to that unit's *own* commit CSN,
//! so the interleavings differ only by compensation pairs that cancel
//! under `φ`.

use proptest::prelude::*;
use rolljoin::common::{tup, Csn, TableId, TimeInterval, Tuple};
use rolljoin::core::{compute_delta, materialize, oracle, roll_to, MaintCtx, PropQuery};
use rolljoin::relalg::{net_effect, NetEffect};
use rolljoin::workload::{Chain, TwoWay};

/// One base-table operation in a generated history.
#[derive(Debug, Clone)]
enum Op {
    /// Insert (table_idx, key, payload).
    Insert(usize, i64, i64),
    /// Delete an arbitrary live tuple of table_idx (by index).
    Delete(usize, usize),
}

fn arb_ops(tables: usize, len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0..tables, 0i64..4, 0i64..50).prop_map(|(t, k, p)| Op::Insert(t, k, p)),
            1 => (0..tables, any::<prop::sample::Index>())
                .prop_map(|(t, i)| Op::Delete(t, i.index(1 << 20))),
        ],
        0..len,
    )
}

fn apply_ops(
    ctx: &MaintCtx,
    tables: &[TableId],
    ops: &[Op],
    make: impl Fn(usize, i64, i64) -> Tuple,
) {
    let mut live: Vec<Vec<Tuple>> = vec![Vec::new(); tables.len()];
    for op in ops {
        match op {
            Op::Insert(t, k, p) => {
                let tuple = make(*t, *k, *p);
                let mut txn = ctx.engine.begin();
                txn.insert(tables[*t], tuple.clone()).unwrap();
                txn.commit().unwrap();
                live[*t].push(tuple);
            }
            Op::Delete(t, i) => {
                if live[*t].is_empty() {
                    continue;
                }
                let idx = i % live[*t].len();
                let victim = live[*t].swap_remove(idx);
                let mut txn = ctx.engine.begin();
                txn.delete_one(tables[*t], &victim).unwrap();
                txn.commit().unwrap();
            }
        }
    }
}

/// Replay `ops` on a fresh n-way chain engine and run one `ComputeDelta`
/// over the whole history with the given worker count. Returns the
/// context, the materialization time, the history end, and `φ` of the
/// produced view delta over `(mat, end]`.
fn run_chain(n: usize, ops: &[Op], workers: usize) -> (MaintCtx, Csn, Csn, NetEffect) {
    let c = Chain::setup("pp", n).unwrap();
    let ctx = c.ctx().with_workers(workers);
    let mat = materialize(&ctx).unwrap();
    apply_ops(&ctx, &c.tables, ops, |_t, k, p| tup![k, p % 4]);
    let end = ctx.engine.current_csn();
    compute_delta(&ctx, &PropQuery::all_base(n), 1, &vec![mat; n], end).unwrap();
    ctx.mv.set_hwm(end);
    let vd = ctx
        .engine
        .vd_range(ctx.mv.vd_table, TimeInterval::new(mat, end))
        .unwrap();
    (ctx, mat, end, net_effect(vd))
}

/// Roll the MV to random targets and compare against the oracle state.
fn check_roll_targets(
    ctx: &MaintCtx,
    mat: Csn,
    end: Csn,
    stops: &[prop::sample::Index],
) -> Result<(), TestCaseError> {
    ctx.engine.capture_catch_up().unwrap();
    let mut targets: Vec<Csn> = stops
        .iter()
        .map(|i| mat + i.index((end - mat) as usize + 1) as Csn)
        .collect();
    targets.sort();
    for t in targets {
        if t <= ctx.mv.mat_time() {
            continue;
        }
        roll_to(ctx, t).unwrap();
        let got = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
        let want = oracle::view_at(&ctx.engine, &ctx.mv.view, t).unwrap();
        prop_assert_eq!(got, want, "MV diverged from oracle at t={}", t);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two-way: a pool of N φ-matches a pool of one, and refresh from
    /// either delta hits the oracle at random targets.
    #[test]
    fn pool_size_preserves_phi_two_way(
        ops in arb_ops(2, 30),
        workers in 2usize..9,
        stops in prop::collection::vec(any::<prop::sample::Index>(), 1..4),
    ) {
        let run = |workers: usize| {
            let w = TwoWay::setup("pp2").unwrap();
            let ctx = w.ctx().with_workers(workers);
            let mat = materialize(&ctx).unwrap();
            apply_ops(&ctx, &[w.r, w.s], &ops, |t, k, p| {
                if t == 0 { tup![p, k] } else { tup![k, p] }
            });
            let end = ctx.engine.current_csn();
            compute_delta(&ctx, &PropQuery::all_base(2), 1, &[mat, mat], end).unwrap();
            ctx.mv.set_hwm(end);
            let vd = ctx
                .engine
                .vd_range(ctx.mv.vd_table, TimeInterval::new(mat, end))
                .unwrap();
            (ctx, mat, end, net_effect(vd))
        };
        let (ctx_one, mat_s, end_s, phi_one) = run(1);
        let (ctx, mat, end, phi_pool) = run(workers);
        prop_assert_eq!((mat_s, end_s), (mat, end), "identical histories");
        prop_assert_eq!(phi_one, phi_pool, "φ(pool of {}) ≠ φ(pool of one)", workers);
        check_roll_targets(&ctx_one, mat, end, &stops)?;
        check_roll_targets(&ctx, mat, end, &stops)?;
    }

    /// Three-way chain.
    #[test]
    fn pool_size_preserves_phi_chain3(
        ops in arb_ops(3, 24),
        workers in 2usize..9,
        stops in prop::collection::vec(any::<prop::sample::Index>(), 1..4),
    ) {
        let (ctx_one, mat_s, end_s, phi_one) = run_chain(3, &ops, 1);
        let (ctx, mat, end, phi_pool) = run_chain(3, &ops, workers);
        prop_assert_eq!((mat_s, end_s), (mat, end), "identical histories");
        prop_assert_eq!(phi_one, phi_pool, "φ(pool of {}) ≠ φ(pool of one)", workers);
        check_roll_targets(&ctx_one, mat, end, &stops)?;
        check_roll_targets(&ctx, mat, end, &stops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Four-way chain — T(4) = 64 constituent queries per case, so fewer
    /// cases.
    #[test]
    fn pool_size_preserves_phi_chain4(
        ops in arb_ops(4, 18),
        workers in 2usize..9,
        stops in prop::collection::vec(any::<prop::sample::Index>(), 1..3),
    ) {
        let (ctx_one, mat_s, end_s, phi_one) = run_chain(4, &ops, 1);
        let (ctx, mat, end, phi_pool) = run_chain(4, &ops, workers);
        prop_assert_eq!((mat_s, end_s), (mat, end), "identical histories");
        prop_assert_eq!(phi_one, phi_pool, "φ(pool of {}) ≠ φ(pool of one)", workers);
        check_roll_targets(&ctx_one, mat, end, &stops)?;
        check_roll_targets(&ctx, mat, end, &stops)?;
    }
}
