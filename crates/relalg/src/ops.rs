//! Volcano-style operators over streams of [`DeltaRow`]s.
//!
//! Every operator consumes and produces `(timestamp, count, tuple)` rows,
//! implementing the paper's delta-table algebra:
//!
//! * joins multiply counts and take the **minimum** non-null timestamp
//!   (paper §2/§3.3 — the load-bearing rule that makes asynchronous
//!   compensation sound);
//! * `negate` flips count signs (the `-R` operator);
//! * `union` is multiset union `R + S`;
//! * `project` keeps count and timestamp (paper §4 requires projections not
//!   to eliminate them);
//! * `ts_range` is the `σ_{a,b}` timestamp selection.

use crate::expr::Expr;
use rolljoin_common::{DeltaRow, TimeInterval, Tuple, Value};
use std::collections::HashMap;

/// A stream of delta rows.
pub type RowIter = Box<dyn Iterator<Item = DeltaRow>>;

/// Scan a materialized vector.
pub fn scan(rows: Vec<DeltaRow>) -> RowIter {
    Box::new(rows.into_iter())
}

/// Selection `σ_pred`. The predicate sees only attribute columns, never
/// count or timestamp.
pub fn filter(input: RowIter, pred: Expr) -> RowIter {
    Box::new(input.filter(move |r| pred.eval_bool(&r.tuple)))
}

/// Projection `π_cols`, keeping count and timestamp. An identity
/// projection (`cols = 0..arity`) passes rows through untouched, reusing
/// the tuple allocation — count and timestamp are mutated in place either
/// way, so no row is reconstructed.
pub fn project(input: RowIter, cols: Vec<usize>) -> RowIter {
    let identity = cols.iter().enumerate().all(|(i, &c)| i == c);
    Box::new(input.map(move |mut r| {
        if !(identity && r.tuple.arity() == cols.len()) {
            r.tuple = r.tuple.project(&cols);
        }
        r
    }))
}

/// Negation `-R`: flip every count in place (no tuple clone).
pub fn negate(input: RowIter) -> RowIter {
    Box::new(input.map(|mut r| {
        r.count = -r.count;
        r
    }))
}

/// Scale counts by a signed factor in place (used to carry the
/// compensation sign through recursive `ComputeDelta` calls; factor `-1`
/// ≡ [`negate`]).
pub fn scale(input: RowIter, factor: i64) -> RowIter {
    Box::new(input.map(move |mut r| {
        r.count *= factor;
        r
    }))
}

/// Multiset union `R + S`.
pub fn union(a: RowIter, b: RowIter) -> RowIter {
    Box::new(a.chain(b))
}

/// Timestamp selection `σ_{a,b}`: rows with `ts ∈ (a, b]`. Rows with null
/// timestamps (base rows) are never selected.
pub fn ts_range(input: RowIter, interval: TimeInterval) -> RowIter {
    Box::new(input.filter(move |r| r.ts.is_some_and(|t| interval.contains(t))))
}

/// An equi-join key whose hash is computed once at construction. `Hash`
/// replays the stored value, so hash-table growth (which re-hashes every
/// resident key) costs one `u64` write instead of re-walking every
/// [`Value`] — the build side of a join hashes each key exactly once.
#[derive(PartialEq, Eq)]
pub(crate) struct JoinKey {
    hash: u64,
    vals: Vec<Value>,
}

impl JoinKey {
    fn new(vals: Vec<Value>) -> JoinKey {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        vals.hash(&mut h);
        JoinKey {
            hash: h.finish(),
            vals,
        }
    }
}

impl std::hash::Hash for JoinKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

fn key_of(tuple: &Tuple, cols: &[usize]) -> Option<JoinKey> {
    let mut key = Vec::with_capacity(cols.len());
    for &c in cols {
        let v = tuple.get(c);
        if v.is_null() {
            return None; // NULL never equi-joins
        }
        key.push(v.clone());
    }
    Some(JoinKey::new(key))
}

/// Hash equi-join.
///
/// Builds a hash table on `build` keyed by `build_keys`, probes with the
/// `probe` stream keyed by `probe_keys`, and emits
/// `probe_row.join_combine(build_row)` — so output columns are probe's then
/// build's, counts multiply, and the output timestamp is the minimum of the
/// non-null input timestamps.
///
/// With empty key lists this degenerates to a cross product (every row
/// matches), which is what a join with no equi predicate means here; any
/// non-equi join condition is applied as a residual filter downstream.
pub fn hash_join(
    probe: RowIter,
    build: Vec<DeltaRow>,
    probe_keys: Vec<usize>,
    build_keys: Vec<usize>,
) -> RowIter {
    assert_eq!(probe_keys.len(), build_keys.len(), "key arity mismatch");
    let mut table: HashMap<JoinKey, Vec<DeltaRow>> = HashMap::new();
    for row in build {
        if let Some(key) = key_of(&row.tuple, &build_keys) {
            table.entry(key).or_default().push(row);
        }
    }
    Box::new(probe.flat_map(move |p| {
        let matches: Vec<DeltaRow> = match key_of(&p.tuple, &probe_keys) {
            Some(key) => table
                .get(&key)
                .map(|rows| rows.iter().map(|b| p.join_combine(b)).collect())
                .unwrap_or_default(),
            None => Vec::new(),
        };
        matches.into_iter()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolljoin_common::tup;

    fn base(rows: Vec<(i64, Tuple)>) -> Vec<DeltaRow> {
        rows.into_iter()
            .map(|(c, t)| DeltaRow {
                ts: None,
                count: c,
                tuple: t,
            })
            .collect()
    }

    #[test]
    fn filter_selects() {
        let rows = base(vec![(1, tup![1]), (1, tup![2]), (1, tup![3])]);
        let out: Vec<_> = filter(scan(rows), Expr::col(0).gt(Expr::lit(1))).collect();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn project_keeps_count_and_ts() {
        let rows = vec![DeltaRow::change(7, -2, tup![1, "x"])];
        let out: Vec<_> = project(scan(rows), vec![1]).collect();
        assert_eq!(out[0].ts, Some(7));
        assert_eq!(out[0].count, -2);
        assert_eq!(out[0].tuple, tup!["x"]);
    }

    #[test]
    fn ts_range_excludes_base_rows() {
        let rows = vec![
            DeltaRow::base(tup![1]),
            DeltaRow::change(3, 1, tup![2]),
            DeltaRow::change(5, 1, tup![3]),
        ];
        let out: Vec<_> = ts_range(scan(rows), TimeInterval::new(2, 4)).collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple, tup![2]);
    }

    #[test]
    fn hash_join_equi_semantics() {
        // R(a,b) ⋈ S(b,c) on b.
        let r = base(vec![(1, tup![1, 10]), (2, tup![2, 20])]);
        let s = vec![
            DeltaRow::change(5, 1, tup![10, "x"]),
            DeltaRow::change(3, -1, tup![20, "y"]),
            DeltaRow::change(9, 1, tup![30, "z"]),
        ];
        let out: Vec<_> = hash_join(scan(r), s, vec![1], vec![0]).collect();
        assert_eq!(out.len(), 2);
        let first = out.iter().find(|r| r.tuple[0] == Value::Int(1)).unwrap();
        assert_eq!(first.tuple, tup![1, 10, 10, "x"]);
        assert_eq!(first.count, 1);
        assert_eq!(first.ts, Some(5));
        let second = out.iter().find(|r| r.tuple[0] == Value::Int(2)).unwrap();
        assert_eq!(second.count, -2, "counts multiply");
        assert_eq!(second.ts, Some(3));
    }

    #[test]
    fn hash_join_min_timestamp() {
        let r = vec![DeltaRow::change(8, 1, tup![1])];
        let s = vec![DeltaRow::change(3, 1, tup![1])];
        let out: Vec<_> = hash_join(scan(r), s, vec![0], vec![0]).collect();
        assert_eq!(out[0].ts, Some(3), "minimum of the two timestamps");
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let r = base(vec![(1, tup![Value::Null])]);
        let s = vec![DeltaRow::base(tup![Value::Null])];
        let out: Vec<_> = hash_join(scan(r), s, vec![0], vec![0]).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn empty_keys_is_cross_product() {
        let r = base(vec![(1, tup![1]), (1, tup![2])]);
        let s = base(vec![(1, tup!["a"]), (1, tup!["b"]), (1, tup!["c"])]);
        let out: Vec<_> = hash_join(scan(r), s, vec![], vec![]).collect();
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn negate_and_scale() {
        let rows = vec![DeltaRow::change(1, 2, tup![1])];
        let out: Vec<_> = negate(scan(rows.clone())).collect();
        assert_eq!(out[0].count, -2);
        let out: Vec<_> = scale(scan(rows), -3).collect();
        assert_eq!(out[0].count, -6);
    }

    #[test]
    fn identity_projection_reuses_tuples() {
        let t = tup![1, 2];
        let rows = vec![DeltaRow::change(3, 1, t.clone())];
        let out: Vec<_> = project(scan(rows), vec![0, 1]).collect();
        assert_eq!(out[0].tuple, t);
        // Non-identity still projects.
        let rows = vec![DeltaRow::change(3, 1, tup![1, 2])];
        let out: Vec<_> = project(scan(rows), vec![1]).collect();
        assert_eq!(out[0].tuple, tup![2]);
    }

    #[test]
    fn union_concatenates() {
        let a = vec![DeltaRow::change(1, 1, tup![1])];
        let b = vec![DeltaRow::change(2, -1, tup![1])];
        let out: Vec<_> = union(scan(a), scan(b)).collect();
        assert_eq!(out.len(), 2);
    }
}
