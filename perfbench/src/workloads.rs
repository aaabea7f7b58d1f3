//! The three traffic shapes and their seeded input generators.
//!
//! Every input the engine sees — the initial load, the steady-phase
//! transactions and the catch-up backlog — is generated here from the
//! workload seed before the system is set up, so one seed always gives
//! one input sequence. Each transaction is a single-row change.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rolljoin_common::{tup, Result, Tuple};
use rolljoin_core::MaterializedView;
use rolljoin_storage::Engine;
use rolljoin_workload::{Chain, Star, TwoWay, Zipf};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One single-row updater transaction against view slot `.0`.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Insert(usize, Tuple),
    Delete(usize, Tuple),
    Update(usize, Tuple, Tuple),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    StarSkew,
    ChurnCancel,
    ChainAll,
}

/// A named traffic shape with its offered load and catch-up backlog.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Offered load of the steady phase, commits per second.
    pub rate: f64,
    /// Transactions committed back to back in each catch-up round while
    /// propagation and apply are suspended.
    pub backlog: usize,
    /// Human-readable sizes, printed with every run.
    pub sizes: &'static str,
    shape: Shape,
}

/// Star: dimensions, rows per dimension, loaded fact rows, share of
/// transactions that update a dimension attribute.
const STAR_DIMS: usize = 4;
const STAR_DIM_SIZE: usize = 1_000;
const STAR_FACT_LOAD: usize = 5_000;
const STAR_DIM_UPDATE_FRAC: f64 = 0.02;
/// Dimension updates pick a key uniformly among all but this many of the
/// hottest fact keys. One update's view delta is proportional to the
/// facts carrying its key, and under Zipf(0.99) the hottest key carries
/// ~13% of them; with hot keys eligible, a run's cost would hinge on
/// whether a handful of draws hit them.
const STAR_HOT_KEYS: usize = 32;
/// Churn: join-key domain, S rows per key, share of inserts later deleted,
/// largest distance (in transactions) from an insert to its delete.
const CHURN_KEYS: usize = 64;
const CHURN_S_PER_KEY: usize = 4;
const CHURN_CANCEL_FRAC: f64 = 0.9;
const CHURN_MAX_LAG: usize = 64;
/// Chain: relations, key domain, loaded rows per relation.
const CHAIN_N: usize = 4;
const CHAIN_KEYS: i64 = 4_000;
const CHAIN_LOAD: usize = 4_000;
/// Zipf exponent of the skewed shapes.
const THETA: f64 = 0.99;

pub const ALL: [Workload; 3] = [
    Workload {
        name: "star-skew",
        rate: 300.0,
        backlog: 6_000,
        sizes: "4-dim star, 1000 rows/dim, 5000 loaded facts; 98% Zipf(0.99) fact inserts, \
                2% dimension-attribute updates (uniform over all but the 32 hottest keys); base and delta indexes on every join column",
        shape: Shape::StarSkew,
    },
    Workload {
        name: "churn-cancel",
        rate: 400.0,
        backlog: 30_000,
        sizes: "two-way join, 64 Zipf(0.99) keys, 64 R + 256 S loaded rows; 90% of inserts \
                deleted within 64 txns; base and delta indexes on the join column",
        shape: Shape::ChurnCancel,
    },
    Workload {
        name: "chain-all",
        rate: 150.0,
        backlog: 8_000,
        sizes: "chain-4, 4000 uniform keys, 4000 loaded rows/relation; uniform \
                insert/delete/update on all four relations; base indexes on every column",
        shape: Shape::ChainAll,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

/// The generated inputs of one run.
pub struct Inputs {
    /// Rows loaded before materialization, as `(slot, tuple)`.
    pub load: Vec<(usize, Tuple)>,
    pub steady: Vec<Op>,
    pub backlog: Vec<Op>,
}

/// A registered view over a freshly created schema.
pub struct Schema {
    pub engine: Engine,
    pub mv: Arc<MaterializedView>,
}

impl Workload {
    /// Create tables, base indexes, delta indexes and the view.
    pub fn create_schema(&self, tag: &str) -> Result<Schema> {
        let name = format!("{}_{tag}", self.name.replace('-', "_"));
        match self.shape {
            Shape::StarSkew => {
                let s = Star::setup(&name, STAR_DIMS, STAR_DIM_SIZE)?;
                for col in 0..STAR_DIMS {
                    s.engine.create_delta_index(s.fact, col)?;
                }
                for dim in &s.dims {
                    s.engine.create_delta_index(*dim, 0)?;
                }
                Ok(Schema {
                    engine: s.engine,
                    mv: s.mv,
                })
            }
            Shape::ChurnCancel => {
                let w = TwoWay::setup(&name)?;
                w.engine.create_delta_index(w.r, 1)?;
                w.engine.create_delta_index(w.s, 0)?;
                Ok(Schema {
                    engine: w.engine,
                    mv: w.mv,
                })
            }
            Shape::ChainAll => {
                let c = Chain::setup(&name, CHAIN_N)?;
                Ok(Schema {
                    engine: c.engine,
                    mv: c.mv,
                })
            }
        }
    }

    /// Generate the load, `steady` steady-phase transactions and the
    /// backlogs of `rounds` catch-up rounds from `seed`. The backlogs
    /// continue the steady stream.
    pub fn generate(&self, seed: u64, steady: usize, rounds: usize) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let total = steady + rounds * self.backlog;
        let (load, mut ops) = match self.shape {
            Shape::StarSkew => gen_star(&mut rng, total),
            Shape::ChurnCancel => gen_churn(&mut rng, total),
            Shape::ChainAll => gen_chain(&mut rng, total),
        };
        let backlog = ops.split_off(steady);
        Inputs {
            load,
            steady: ops,
            backlog,
        }
    }
}

fn gen_star(rng: &mut StdRng, n: usize) -> (Vec<(usize, Tuple)>, Vec<Op>) {
    let zipf = Zipf::new(STAR_DIM_SIZE, THETA);
    let mut measure = 0i64;
    let mut fact = |rng: &mut StdRng| {
        let mut vals: Vec<i64> = (0..STAR_DIMS).map(|_| zipf.sample(rng) as i64).collect();
        vals.push(measure);
        measure += 1;
        Tuple::new(
            vals.into_iter()
                .map(rolljoin_common::Value::Int)
                .collect::<Vec<_>>(),
        )
    };
    let load = (0..STAR_FACT_LOAD).map(|_| (0, fact(rng))).collect();
    // `Star::setup` loads dimension rows `(pk, 10·pk)`.
    let mut attr: Vec<Vec<i64>> = (0..STAR_DIMS)
        .map(|_| (0..STAR_DIM_SIZE as i64).map(|pk| pk * 10).collect())
        .collect();
    let ops = (0..n)
        .map(|_| {
            if rng.gen_bool(STAR_DIM_UPDATE_FRAC) {
                let d = rng.gen_range(0..STAR_DIMS);
                let pk = rng.gen_range(STAR_HOT_KEYS..STAR_DIM_SIZE);
                let old = attr[d][pk];
                attr[d][pk] = old + 1;
                Op::Update(d + 1, tup![pk as i64, old], tup![pk as i64, old + 1])
            } else {
                Op::Insert(0, fact(rng))
            }
        })
        .collect();
    (load, ops)
}

fn churn_tuple(side: usize, k: i64) -> Tuple {
    if side == 0 {
        tup![k + 500, k]
    } else {
        tup![k, -1]
    }
}

fn gen_churn(rng: &mut StdRng, n: usize) -> (Vec<(usize, Tuple)>, Vec<Op>) {
    let mut load = Vec::new();
    for k in 0..CHURN_KEYS as i64 {
        load.push((0, tup![k + 500, k]));
        for m in 0..CHURN_S_PER_KEY as i64 {
            load.push((1, tup![k, 100 * k + m]));
        }
    }
    let zipf = Zipf::new(CHURN_KEYS, THETA);
    // Scheduled deletes keyed by (due transaction, insert sequence).
    let mut due: BTreeMap<(usize, usize), (usize, Tuple)> = BTreeMap::new();
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        if let Some(entry) = due.first_entry() {
            if entry.key().0 <= i {
                let (side, t) = entry.remove();
                ops.push(Op::Delete(side, t));
                continue;
            }
        }
        let side = rng.gen_range(0..2usize);
        let t = churn_tuple(side, zipf.sample(rng) as i64);
        if rng.gen_bool(CHURN_CANCEL_FRAC) {
            let lag = rng.gen_range(1..=CHURN_MAX_LAG);
            due.insert((i + lag, i), (side, t.clone()));
        }
        ops.push(Op::Insert(side, t));
    }
    (load, ops)
}

fn gen_chain(rng: &mut StdRng, n: usize) -> (Vec<(usize, Tuple)>, Vec<Op>) {
    let row = |rng: &mut StdRng| tup![rng.gen_range(0..CHAIN_KEYS), rng.gen_range(0..CHAIN_KEYS)];
    let mut live: Vec<Vec<Tuple>> = (0..CHAIN_N)
        .map(|_| (0..CHAIN_LOAD).map(|_| row(rng)).collect())
        .collect();
    let load = live
        .iter()
        .enumerate()
        .flat_map(|(slot, rows)| rows.iter().map(move |t| (slot, t.clone())))
        .collect();
    let ops = (0..n)
        .map(|_| {
            let slot = rng.gen_range(0..CHAIN_N);
            let rows = &mut live[slot];
            match rng.gen_range(0..3u32) {
                0 => {
                    let t = row(rng);
                    rows.push(t.clone());
                    Op::Insert(slot, t)
                }
                1 => {
                    let i = rng.gen_range(0..rows.len());
                    Op::Delete(slot, rows.swap_remove(i))
                }
                _ => {
                    let i = rng.gen_range(0..rows.len());
                    let new = row(rng);
                    let old = std::mem::replace(&mut rows[i], new.clone());
                    Op::Update(slot, old, new)
                }
            }
        })
        .collect();
    (load, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in ALL {
            let a = w.generate(7, 300, 2);
            let b = w.generate(7, 300, 2);
            let c = w.generate(8, 300, 2);
            assert_eq!(a.load, b.load, "{}", w.name);
            assert_eq!(a.steady, b.steady, "{}", w.name);
            assert_eq!(a.backlog, b.backlog, "{}", w.name);
            assert_eq!(a.steady.len(), 300);
            assert_eq!(a.backlog.len(), 2 * w.backlog);
            assert_ne!(a.steady, c.steady, "{}", w.name);
        }
    }

    /// Every delete and update removes a row that is present at that
    /// point, so no generated transaction can fail on a missing row.
    #[test]
    fn deletes_only_touch_live_rows() {
        for w in ALL {
            let inp = w.generate(3, 2_000, 1);
            let mut live: HashMap<(usize, Tuple), i64> = HashMap::new();
            for (slot, t) in &inp.load {
                *live.entry((*slot, t.clone())).or_default() += 1;
            }
            if w.shape == Shape::StarSkew {
                for d in 1..=STAR_DIMS {
                    for pk in 0..STAR_DIM_SIZE as i64 {
                        live.insert((d, tup![pk, pk * 10]), 1);
                    }
                }
            }
            for op in inp.steady.iter().chain(&inp.backlog) {
                let (slot, gone, added) = match op {
                    Op::Insert(s, t) => (*s, None, Some(t)),
                    Op::Delete(s, t) => (*s, Some(t), None),
                    Op::Update(s, o, n) => (*s, Some(o), Some(n)),
                };
                if let Some(t) = gone {
                    let c = live.entry((slot, t.clone())).or_default();
                    assert!(*c > 0, "{}: removes absent row {t:?}", w.name);
                    *c -= 1;
                }
                if let Some(t) = added {
                    *live.entry((slot, t.clone())).or_default() += 1;
                }
            }
        }
    }

    #[test]
    fn churn_cancels_most_inserts() {
        let w = by_name("churn-cancel").unwrap();
        let inp = w.generate(11, 20_000, 1);
        let ins = inp
            .steady
            .iter()
            .filter(|o| matches!(o, Op::Insert(..)))
            .count();
        let del = inp
            .steady
            .iter()
            .filter(|o| matches!(o, Op::Delete(..)))
            .count();
        let frac = del as f64 / ins as f64;
        assert!((0.85..0.95).contains(&frac), "cancel fraction {frac}");
    }

    #[test]
    fn star_mix_is_mostly_fact_inserts() {
        let w = by_name("star-skew").unwrap();
        let inp = w.generate(5, 20_000, 1);
        let dim = inp
            .steady
            .iter()
            .filter(|o| matches!(o, Op::Update(..)))
            .count();
        let frac = dim as f64 / inp.steady.len() as f64;
        assert!(
            (0.01..0.03).contains(&frac),
            "dimension-update share {frac}"
        );
    }
}
