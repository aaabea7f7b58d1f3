//! The net-effect operator `φ` (paper Definition 4.1) and multiset-table
//! algebra helpers.
//!
//! `φ(R)` groups a delta table on all attributes except count and
//! timestamp, sums counts within each group, nulls the timestamps, and
//! drops zero-count groups. It is the canonicalization that makes two
//! representations of the same change comparable, and it is the vocabulary
//! of every correctness statement in the paper (Definition 4.2, Lemmas
//! 4.1–4.2, Theorems 4.1–4.3) — so it is also the vocabulary of this
//! reproduction's oracles and property tests.

use rolljoin_common::{DeltaRow, Tuple};
use std::collections::{BTreeMap, HashMap};

/// Canonical net effect: `tuple → summed count`, zero counts dropped.
///
/// A `BTreeMap` so two net effects compare (and print) deterministically.
pub type NetEffect = BTreeMap<Tuple, i64>;

/// `φ(R)` over an iterator of delta rows.
pub fn net_effect<I>(rows: I) -> NetEffect
where
    I: IntoIterator<Item = DeltaRow>,
{
    let mut out = NetEffect::new();
    for row in rows {
        let e = out.entry(row.tuple).or_insert(0);
        *e += row.count;
        // Defer zero-removal to the end: intermediate zeros may be revived.
    }
    out.retain(|_, c| *c != 0);
    out
}

/// `φ` over borrowed rows. Clones each tuple only on its group's first
/// occurrence (a cheap `Arc` bump, but done once per *group*, not per
/// row), never the full row — this is the form hot paths should use.
pub fn net_effect_ref<'a, I>(rows: I) -> NetEffect
where
    I: IntoIterator<Item = &'a DeltaRow>,
{
    let mut out = NetEffect::new();
    for row in rows {
        match out.get_mut(&row.tuple) {
            Some(e) => *e += row.count,
            None => {
                out.insert(row.tuple.clone(), row.count);
            }
        }
    }
    out.retain(|_, c| *c != 0);
    out
}

/// Counters from one scan-level φ-compaction ([`compact_rows`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Rows in the raw stream.
    pub rows_in: usize,
    /// Rows after merging and zero-dropping.
    pub rows_out: usize,
    /// Groups whose counts summed to zero.
    pub zero_groups: usize,
}

impl CompactionOutcome {
    /// Rows eliminated before they could reach a join.
    pub fn rows_saved(&self) -> usize {
        self.rows_in - self.rows_out
    }
}

/// Timestamp-preserving `φ` over a timestamp-ordered delta slice:
/// same-tuple rows merge into one row carrying the summed count and the
/// group's **minimum** timestamp (the §3.3 rule — the first occurrence,
/// since the input is ordered), and zero-sum groups are dropped. Output
/// stays timestamp-ordered.
///
/// Unlike [`net_effect`], which nulls timestamps and produces a canonical
/// map, the result is still a delta-row stream usable as a join input:
/// joined result rows inherit a real (minimum) timestamp, which the
/// propagation executor requires. The trade-off is granularity — within
/// the compacted stream, intermediate per-timestamp states are collapsed,
/// so the stream is exact for consumers reading it whole (a propagation
/// step reads its delta slot whole) but not for sub-interval reads.
pub fn compact_rows(rows: &[DeltaRow]) -> (Vec<DeltaRow>, CompactionOutcome) {
    let mut pos: HashMap<Tuple, usize> = HashMap::with_capacity(rows.len());
    let mut out: Vec<DeltaRow> = Vec::with_capacity(rows.len());
    for r in rows {
        match pos.get(&r.tuple) {
            Some(&i) => out[i].count += r.count,
            None => {
                pos.insert(r.tuple.clone(), out.len());
                out.push(r.clone());
            }
        }
    }
    let groups = out.len();
    out.retain(|r| r.count != 0);
    let outcome = CompactionOutcome {
        rows_in: rows.len(),
        rows_out: out.len(),
        zero_groups: groups - out.len(),
    };
    (out, outcome)
}

/// Multiset union `R + S` on canonical forms: counts add, zeros drop.
pub fn add(a: &NetEffect, b: &NetEffect) -> NetEffect {
    let mut out = a.clone();
    for (t, c) in b {
        let e = out.entry(t.clone()).or_insert(0);
        *e += c;
        if *e == 0 {
            out.remove(t);
        }
    }
    out
}

/// Negation `-R` on canonical form.
pub fn negate(a: &NetEffect) -> NetEffect {
    a.iter().map(|(t, c)| (t.clone(), -c)).collect()
}

/// Render a canonical form back into delta rows (null timestamps).
pub fn to_rows(a: &NetEffect) -> Vec<DeltaRow> {
    a.iter()
        .map(|(t, c)| DeltaRow {
            ts: None,
            count: *c,
            tuple: t.clone(),
        })
        .collect()
}

/// True iff the net effect describes a legal multiset (no negative counts)
/// — the state of a real table must satisfy this.
pub fn is_multiset(a: &NetEffect) -> bool {
    a.values().all(|c| *c > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolljoin_common::tup;

    fn rows(spec: &[(i64, i64)]) -> Vec<DeltaRow> {
        // (count, key) pairs at arbitrary timestamps.
        spec.iter()
            .enumerate()
            .map(|(i, (c, k))| DeltaRow::change(i as u64 + 1, *c, tup![*k]))
            .collect()
    }

    #[test]
    fn groups_sums_and_drops_zeros() {
        let r = rows(&[(1, 10), (2, 10), (-3, 10), (1, 20)]);
        let n = net_effect(r);
        assert_eq!(n.len(), 1);
        assert_eq!(n[&tup![20]], 1);
    }

    #[test]
    fn ref_form_matches_owned_form() {
        let r = rows(&[(1, 10), (2, 10), (-3, 10), (1, 20), (-1, 30)]);
        assert_eq!(net_effect_ref(&r), net_effect(r.clone()));
        assert_eq!(net_effect_ref(&Vec::new()), NetEffect::new());
    }

    #[test]
    fn compact_rows_merges_at_min_ts_and_drops_zeros() {
        // rows() stamps ts = position + 1.
        let r = rows(&[(1, 10), (1, 20), (2, 10), (-1, 20), (1, 30)]);
        let (c, o) = compact_rows(&r);
        assert_eq!(c.len(), 2);
        assert_eq!((c[0].ts, c[0].count, &c[0].tuple), (Some(1), 3, &tup![10]));
        assert_eq!((c[1].ts, c[1].count, &c[1].tuple), (Some(5), 1, &tup![30]));
        assert_eq!((o.rows_in, o.rows_out, o.zero_groups), (5, 2, 1));
        assert_eq!(o.rows_saved(), 3);
        // φ of the compacted stream equals φ of the raw stream.
        assert_eq!(net_effect_ref(&c), net_effect_ref(&r));
    }

    #[test]
    fn compact_rows_is_idempotent() {
        let r = rows(&[(1, 1), (1, 1), (-2, 2), (1, 2)]);
        let (once, _) = compact_rows(&r);
        let (twice, o) = compact_rows(&once);
        assert_eq!(once, twice);
        assert_eq!(o.rows_saved(), 0);
    }

    #[test]
    fn idempotent() {
        // φ(φ(R)) = φ(R)
        let r = rows(&[(2, 1), (-1, 1), (4, 2)]);
        let once = net_effect(r);
        let twice = net_effect(to_rows(&once));
        assert_eq!(once, twice);
    }

    #[test]
    fn distributes_over_union() {
        // φ(R + S) = φ(φ(R) + φ(S))
        let r = rows(&[(1, 1), (1, 2), (-1, 3)]);
        let s = rows(&[(-1, 1), (2, 3), (5, 4)]);
        let both: Vec<_> = r.iter().chain(s.iter()).cloned().collect();
        let lhs = net_effect(both);
        let rhs = add(&net_effect(r), &net_effect(s));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn negation_is_involutive_and_cancels() {
        let n = net_effect(rows(&[(2, 1), (1, 2)]));
        assert_eq!(negate(&negate(&n)), n);
        assert!(add(&n, &negate(&n)).is_empty());
    }

    #[test]
    fn multiset_check() {
        assert!(is_multiset(&net_effect(rows(&[(1, 1)]))));
        assert!(!is_multiset(&net_effect(rows(&[(-1, 1)]))));
        assert!(is_multiset(&NetEffect::new()));
    }
}
