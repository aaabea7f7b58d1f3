//! One source per number: the propagation counters in the Prometheus
//! export are rendered from `PropStats` at export time, and the headline
//! lag gauges are sampled from the live frontiers at export time — so the
//! registry and `PropStats` cannot disagree, and the gauges need no
//! refresh call on any maintenance path.

use rolljoin::core::{
    materialize, roll_to, CompactionPolicy, ExecTuning, ObsConfig, PropStatsSnapshot,
    RollingPropagator, UniformInterval,
};
use rolljoin::workload::{int_pair_stream, TwoWay, UpdateMix};

/// The value of one series line (`name{label} value`) in Prometheus text.
fn series(prom: &str, name: &str) -> i64 {
    let prefix = format!("{name} ");
    prom.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("series {name} not exported:\n{prom}"))
        .parse()
        .unwrap()
}

#[test]
fn prometheus_counters_and_gauges_have_one_source() {
    let w = TwoWay::setup("one_source").unwrap();
    w.engine.create_delta_index(w.r, 1).unwrap();
    w.engine.create_delta_index(w.s, 0).unwrap();
    let ctx = w.ctx().with_tuning(
        ExecTuning::default()
            .with_workers(2)
            .with_compaction(CompactionPolicy::Background(1))
            .with_obs(ObsConfig::Metrics),
    );
    let load = UpdateMix {
        delete_frac: 0.0,
        update_frac: 0.0,
    };
    int_pair_stream(w.r, 1, load, 16)
        .load(&w.engine, 100)
        .unwrap();
    int_pair_stream(w.s, 2, load, 16)
        .load(&w.engine, 100)
        .unwrap();
    let t0 = materialize(&ctx).unwrap();

    // Updater churn interleaved with single-relation rolling steps, so the
    // frontiers diverge and compensation queries (with keyed delta probes
    // and scan-level compaction) fire.
    let churn = UpdateMix {
        delete_frac: 0.3,
        update_frac: 0.3,
    };
    let mut sr = int_pair_stream(w.r, 7, churn, 16);
    let mut ss = int_pair_stream(w.s, 8, churn, 16);
    let mut roller = RollingPropagator::new(ctx.clone(), t0);
    let mut policy = UniformInterval(3);
    for _ in 0..10 {
        for _ in 0..5 {
            sr.step(&w.engine).unwrap();
            ss.step(&w.engine).unwrap();
        }
        roller.step(&mut policy).unwrap();
    }

    // Quiesce: drain propagation to the last commit and roll to the HWM.
    w.engine.capture_catch_up().unwrap();
    let now = w.engine.current_csn();
    let hwm = roller.drain_to(now, &mut policy).unwrap();
    roll_to(&ctx, hwm).unwrap();

    let prom = ctx.prometheus().unwrap();
    let s = ctx.stats.snapshot();
    type Field = fn(&PropStatsSnapshot) -> u64;
    let folded: [(&str, Field); 8] = [
        ("rolljoin_queries_total{kind=\"forward\"}", |s| {
            s.forward_queries
        }),
        ("rolljoin_queries_total{kind=\"comp\"}", |s| s.comp_queries),
        ("rolljoin_rows_read_total{slot=\"base\"}", |s| {
            s.base_rows_read
        }),
        ("rolljoin_rows_read_total{slot=\"delta\"}", |s| {
            s.delta_rows_read
        }),
        ("rolljoin_vd_rows_written_total", |s| s.vd_rows_written),
        ("rolljoin_delta_index_total{decision=\"probe\"}", |s| {
            s.delta_probe_decisions
        }),
        ("rolljoin_delta_index_total{decision=\"scan\"}", |s| {
            s.delta_scan_decisions
        }),
        ("rolljoin_delta_index_probe_rows_total", |s| {
            s.delta_probe_rows
        }),
    ];
    for (name, field) in folded {
        assert_eq!(series(&prom, name), field(&s) as i64, "{name}");
    }
    assert!(s.comp_queries > 0, "compensation queries fired");
    assert!(s.delta_probe_decisions > 0, "keyed delta probes fired");

    // The lag gauges were never refreshed by a maintenance path; export
    // sampled them from the quiesced frontiers.
    assert_eq!(series(&prom, "rolljoin_propagation_lag_csn"), 0);
    assert_eq!(series(&prom, "rolljoin_view_staleness_csn"), 0);
    assert_eq!(series(&prom, "rolljoin_prop_hwm_csn"), hwm as i64);
    assert_eq!(series(&prom, "rolljoin_mat_time_csn"), hwm as i64);
}
