//! Propagation-query execution: SPJ joins over slot row sets.
//!
//! A propagation query has the same *shape* as the view definition — `n`
//! slots joined by equi predicates, an optional selection, and a projection
//! — with each slot bound to either a base table or a delta range (paper
//! §2). This module plans and executes that shape over already-fetched slot
//! row sets: a left-deep hash-join pipeline with residual predicates as
//! filters, then selection, then projection.

use crate::expr::Expr;
use crate::ops;
use rolljoin_common::{DeltaRow, Error, Result, Schema};

/// The join shape shared by a view definition and all its propagation
/// queries.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Per-slot schemas; slot `i`'s columns occupy the global index range
    /// `[offset(i), offset(i) + arity_i)`.
    pub slot_schemas: Vec<Schema>,
    /// Equi-join predicates as global column index pairs.
    pub equi: Vec<(usize, usize)>,
    /// Optional selection over the global column space.
    pub filter: Option<Expr>,
    /// Projection (global column indexes). Count and timestamp are always
    /// carried through (paper §4's projection requirement).
    pub projection: Vec<usize>,
}

impl JoinSpec {
    /// Number of join slots.
    pub fn arity(&self) -> usize {
        self.slot_schemas.len()
    }

    /// Global column offset of each slot (plus one past the end).
    pub fn offsets(&self) -> Vec<usize> {
        let mut offs = Vec::with_capacity(self.slot_schemas.len() + 1);
        let mut acc = 0;
        for s in &self.slot_schemas {
            offs.push(acc);
            acc += s.arity();
        }
        offs.push(acc);
        offs
    }

    /// Total width of the global column space.
    pub fn total_cols(&self) -> usize {
        self.slot_schemas.iter().map(Schema::arity).sum()
    }

    /// Which slot owns global column `col`.
    fn slot_of(&self, col: usize, offsets: &[usize]) -> usize {
        offsets
            .windows(2)
            .position(|w| col >= w[0] && col < w[1])
            .expect("column index validated")
    }

    /// Output schema after projection.
    pub fn output_schema(&self) -> Schema {
        let mut global = Schema::empty();
        for s in &self.slot_schemas {
            global = global.concat(s);
        }
        global.project(&self.projection)
    }

    /// Validate column references.
    pub fn validate(&self) -> Result<()> {
        if self.slot_schemas.is_empty() {
            return Err(Error::Invalid("join needs at least one slot".into()));
        }
        let total = self.total_cols();
        for &(a, b) in &self.equi {
            if a >= total || b >= total {
                return Err(Error::Invalid(format!(
                    "equi pair ({a},{b}) out of range (total {total})"
                )));
            }
        }
        for &c in &self.projection {
            if c >= total {
                return Err(Error::Invalid(format!(
                    "projection column {c} out of range (total {total})"
                )));
            }
        }
        if let Some(f) = &self.filter {
            if let Some(m) = f.max_col() {
                if m >= total {
                    return Err(Error::Invalid(format!(
                        "filter references column {m}, total {total}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Execution statistics, consumed by the experiment harness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows fetched per slot.
    pub rows_in: Vec<usize>,
    /// Rows produced after join+selection+projection.
    pub rows_out: usize,
}

impl ExecStats {
    /// Total input rows across slots.
    pub fn total_in(&self) -> usize {
        self.rows_in.iter().sum()
    }

    /// Merge another query's stats into this one (accumulators).
    pub fn absorb(&mut self, other: &ExecStats) {
        if self.rows_in.len() < other.rows_in.len() {
            self.rows_in.resize(other.rows_in.len(), 0);
        }
        for (a, b) in self.rows_in.iter_mut().zip(&other.rows_in) {
            *a += b;
        }
        self.rows_out += other.rows_out;
    }
}

/// Execute the join over per-slot row sets. `sign` scales output counts
/// (−1 for compensation queries).
pub fn execute(
    slot_rows: Vec<Vec<DeltaRow>>,
    spec: &JoinSpec,
    sign: i64,
) -> Result<(Vec<DeltaRow>, ExecStats)> {
    spec.validate()?;
    if slot_rows.len() != spec.arity() {
        return Err(Error::Invalid(format!(
            "{} slot row sets for {}-way join",
            slot_rows.len(),
            spec.arity()
        )));
    }
    let offsets = spec.offsets();
    let rows_in: Vec<usize> = slot_rows.iter().map(Vec::len).collect();

    // Assign each equi pair to the first left-deep step where both sides
    // are available; pairs within a single slot become residual filters.
    let n = spec.arity();
    let mut step_keys: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (acc_col, local_col)
    let mut residual: Vec<(usize, usize)> = Vec::new();
    for &(a, b) in &spec.equi {
        let (sa, sb) = (spec.slot_of(a, &offsets), spec.slot_of(b, &offsets));
        if sa == sb {
            residual.push((a, b));
            continue;
        }
        // The later slot decides the join step.
        let (acc_col, late_col, late_slot) = if sa < sb { (a, b, sb) } else { (b, a, sa) };
        step_keys[late_slot].push((acc_col, late_col - offsets[late_slot]));
    }

    let mut rows_iter = slot_rows.into_iter();
    let mut pipeline = ops::scan(rows_iter.next().expect("≥1 slot"));
    for (k, build) in rows_iter.enumerate() {
        let k = k + 1;
        let (probe_keys, build_keys): (Vec<usize>, Vec<usize>) =
            step_keys[k].iter().copied().unzip();
        pipeline = ops::hash_join(pipeline, build, probe_keys, build_keys);
    }
    for (a, b) in residual {
        pipeline = ops::filter(pipeline, Expr::col(a).eq(Expr::col(b)));
    }
    if let Some(f) = &spec.filter {
        pipeline = ops::filter(pipeline, f.clone());
    }
    if sign != 1 {
        pipeline = ops::scale(pipeline, sign);
    }
    pipeline = ops::project(pipeline, spec.projection.clone());

    let out: Vec<DeltaRow> = pipeline.collect();
    let stats = ExecStats {
        rows_in,
        rows_out: out.len(),
    };
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net_effect::net_effect;
    use rolljoin_common::{tup, ColumnType, Tuple};

    fn schema2(a: &str, b: &str) -> Schema {
        Schema::new([(a, ColumnType::Int), (b, ColumnType::Int)])
    }

    fn base_rows(rows: &[(i64, i64)]) -> Vec<DeltaRow> {
        rows.iter()
            .map(|&(x, y)| DeltaRow::base(tup![x, y]))
            .collect()
    }

    fn spec_rs() -> JoinSpec {
        // R(a,b) ⋈ S(c,d) on b = c, project (a, d).
        JoinSpec {
            slot_schemas: vec![schema2("a", "b"), schema2("c", "d")],
            equi: vec![(1, 2)],
            filter: None,
            projection: vec![0, 3],
        }
    }

    #[test]
    fn two_way_equi_join() {
        let r = base_rows(&[(1, 10), (2, 20), (3, 30)]);
        let s = base_rows(&[(10, 100), (20, 200), (20, 201)]);
        let (out, stats) = execute(vec![r, s], &spec_rs(), 1).unwrap();
        let net = net_effect(out);
        assert_eq!(net.len(), 3);
        assert_eq!(net[&tup![1, 100]], 1);
        assert_eq!(net[&tup![2, 200]], 1);
        assert_eq!(net[&tup![2, 201]], 1);
        assert_eq!(stats.rows_in, vec![3, 3]);
        assert_eq!(stats.rows_out, 3);
    }

    #[test]
    fn three_way_chain_join() {
        // R(a,b) ⋈ S(b,c) ⋈ T(c,d): global cols R=(0,1) S=(2,3) T=(4,5).
        let spec = JoinSpec {
            slot_schemas: vec![schema2("a", "b"), schema2("b", "c"), schema2("c", "d")],
            equi: vec![(1, 2), (3, 4)],
            filter: None,
            projection: vec![0, 5],
        };
        let r = base_rows(&[(1, 10)]);
        let s = base_rows(&[(10, 100), (10, 101)]);
        let t = base_rows(&[(100, 7), (101, 8), (999, 9)]);
        let (out, _) = execute(vec![r, s, t], &spec, 1).unwrap();
        let net = net_effect(out);
        assert_eq!(net.len(), 2);
        assert_eq!(net[&tup![1, 7]], 1);
        assert_eq!(net[&tup![1, 8]], 1);
    }

    #[test]
    fn selection_and_sign() {
        let spec = JoinSpec {
            filter: Some(Expr::col(0).gt(Expr::lit(1))),
            ..spec_rs()
        };
        let r = base_rows(&[(1, 10), (2, 10)]);
        let s = base_rows(&[(10, 100)]);
        let (out, _) = execute(vec![r, s], &spec, -1).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].count, -1);
        assert_eq!(out[0].tuple, tup![2, 100]);
    }

    #[test]
    fn counts_multiply_and_min_ts_wins() {
        let spec = spec_rs();
        let r = vec![DeltaRow::change(9, -1, tup![1, 10])];
        let s = vec![DeltaRow::change(4, -2, tup![10, 100])];
        let (out, _) = execute(vec![r, s], &spec, 1).unwrap();
        assert_eq!(out[0].count, 2);
        assert_eq!(out[0].ts, Some(4));
    }

    #[test]
    fn residual_same_slot_predicate() {
        // R(a,b) with a = b as an in-slot equi pair.
        let spec = JoinSpec {
            slot_schemas: vec![schema2("a", "b")],
            equi: vec![(0, 1)],
            filter: None,
            projection: vec![0],
        };
        let r = base_rows(&[(1, 1), (2, 3)]);
        let (out, _) = execute(vec![r], &spec, 1).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple, tup![1]);
    }

    #[test]
    fn cross_join_when_no_keys() {
        let spec = JoinSpec {
            slot_schemas: vec![schema2("a", "b"), schema2("c", "d")],
            equi: vec![],
            filter: None,
            projection: vec![0, 2],
        };
        let r = base_rows(&[(1, 0), (2, 0)]);
        let s = base_rows(&[(7, 0), (8, 0), (9, 0)]);
        let (out, _) = execute(vec![r, s], &spec, 1).unwrap();
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn validation_catches_bad_references() {
        let mut spec = spec_rs();
        spec.equi = vec![(1, 99)];
        assert!(spec.validate().is_err());
        let mut spec = spec_rs();
        spec.projection = vec![99];
        assert!(spec.validate().is_err());
        let mut spec = spec_rs();
        spec.filter = Some(Expr::col(99).eq(Expr::lit(1)));
        assert!(spec.validate().is_err());
    }

    #[test]
    fn output_schema_projects_names() {
        let s = spec_rs().output_schema();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.name(0), "a");
        assert_eq!(s.name(1), "d");
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = ExecStats {
            rows_in: vec![1, 2],
            rows_out: 3,
        };
        let b = ExecStats {
            rows_in: vec![10, 20, 30],
            rows_out: 5,
        };
        a.absorb(&b);
        assert_eq!(a.rows_in, vec![11, 22, 30]);
        assert_eq!(a.rows_out, 8);
        assert_eq!(a.total_in(), 63);
    }

    #[test]
    fn join_with_deleted_rows_cancels_in_net_effect() {
        // Insert then delete the same S row: the join contributions cancel.
        let spec = spec_rs();
        let r = base_rows(&[(1, 10)]);
        let s = vec![
            DeltaRow::change(2, 1, tup![10, 100]),
            DeltaRow::change(5, -1, tup![10, 100]),
        ];
        let (out, _) = execute(vec![r, s], &spec, 1).unwrap();
        assert_eq!(out.len(), 2);
        assert!(net_effect(out).is_empty());
        let _ = Tuple::empty();
    }
}
