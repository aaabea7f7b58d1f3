//! Delta stores.
//!
//! [`DeltaStore`] is the base-table delta `Δ^R` of paper §2: an append-only
//! sequence of `(timestamp, count, tuple)` change records in commit (CSN)
//! order, populated exclusively by the log-capture process. Because records
//! arrive in CSN order, the paper's `σ_{a,b}` timestamp selection is a
//! binary-search slice, and reading any range at or below the capture
//! high-water mark needs no locks (the range is immutable).
//!
//! [`ViewDeltaStore`] holds a **view** delta. Unlike base deltas, view-delta
//! tuples arrive *out of timestamp order* (asynchronous propagation inserts
//! compensations for old timestamps after newer forward results), so it is
//! keyed by timestamp in a B-tree. Inserts are transactional: the engine
//! records undo positions so an aborted propagation transaction leaves no
//! trace.

use parking_lot::RwLock;
use rolljoin_common::{Csn, DeltaRow, Error, Result, TableId, TimeInterval, Tuple, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Snapshot that replaces pruned history: the table's multiset state as
/// of `through`.
#[derive(Default)]
struct DeltaBase {
    through: Csn,
    counts: HashMap<Tuple, i64>,
}

/// Point-in-time copy of a store's φ-compaction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Change records folded into an earlier same-tuple record.
    pub rows_merged: u64,
    /// Tuple groups whose counts summed to zero and were dropped outright.
    pub zero_runs_dropped: u64,
    /// Estimated heap bytes released by removed records.
    pub bytes_reclaimed: u64,
}

impl CompactionStats {
    /// Fold another snapshot into this one (aggregation across stores).
    pub fn merge(&mut self, o: &CompactionStats) {
        self.rows_merged += o.rows_merged;
        self.zero_runs_dropped += o.zero_runs_dropped;
        self.bytes_reclaimed += o.bytes_reclaimed;
    }

    /// Total records physically removed (merged duplicates + zero groups).
    pub fn rows_removed(&self) -> u64 {
        self.rows_merged + self.zero_runs_dropped
    }
}

/// Live compaction counters (one set per store).
#[derive(Default)]
struct CompactionCounters {
    rows_merged: AtomicU64,
    zero_runs_dropped: AtomicU64,
    bytes_reclaimed: AtomicU64,
}

impl CompactionCounters {
    fn record(&self, merged: u64, zeros: u64, bytes: u64) {
        self.rows_merged.fetch_add(merged, Ordering::Relaxed);
        self.zero_runs_dropped.fetch_add(zeros, Ordering::Relaxed);
        self.bytes_reclaimed.fetch_add(bytes, Ordering::Relaxed);
    }

    fn snapshot(&self) -> CompactionStats {
        CompactionStats {
            rows_merged: self.rows_merged.load(Ordering::Relaxed),
            zero_runs_dropped: self.zero_runs_dropped.load(Ordering::Relaxed),
            bytes_reclaimed: self.bytes_reclaimed.load(Ordering::Relaxed),
        }
    }
}

/// Rough heap footprint of a tuple's value payload, used only for the
/// `bytes_reclaimed` counter.
fn approx_tuple_bytes(t: &Tuple) -> u64 {
    t.values()
        .iter()
        .map(|v| {
            (std::mem::size_of::<Value>()
                + match v {
                    Value::Str(s) => s.len(),
                    _ => 0,
                }) as u64
        })
        .sum()
}

/// Rough heap footprint of one change record (shallow struct + payload).
fn approx_row_bytes(r: &DeltaRow) -> u64 {
    std::mem::size_of::<DeltaRow>() as u64 + approx_tuple_bytes(&r.tuple)
}

/// One posting: the row's position in the store's CSN-ordered `rows`
/// vector plus its commit timestamp. Lists are kept in (position, csn)
/// ascending order, so a `σ_{a,b}` selection over one key is a
/// binary-search slice of its list.
type Posting = (usize, Csn);

/// Keyed time-range index: per indexed column, `key value → postings`.
///
/// Lock order: every mutator holds `rows`' write lock *before* touching
/// the index, and readers take `rows`' read lock first too, so postings
/// can never dangle — positions are only remapped (prune) or rebuilt
/// (compaction) inside the same critical section that rewrites the rows.
#[derive(Default)]
struct KeyIndex {
    cols: HashMap<usize, HashMap<Value, Vec<Posting>>>,
}

impl KeyIndex {
    /// Add postings for rows appended at `[start..start+n)`.
    fn append(&mut self, rows: &[DeltaRow], start: usize) {
        for (col, map) in &mut self.cols {
            for (i, r) in rows[start..].iter().enumerate() {
                let v = r.tuple.get(*col);
                if *v == Value::Null {
                    continue; // NULL never equi-joins; keep it out of postings
                }
                map.entry(v.clone())
                    .or_default()
                    .push((start + i, r.ts.expect("delta rows are timestamped")));
            }
        }
    }

    /// Rebuild every indexed column's postings from scratch (compaction
    /// rewrote the prefix, so positions and timestamps both moved).
    fn rebuild(&mut self, rows: &[DeltaRow]) {
        for map in self.cols.values_mut() {
            map.clear();
        }
        self.append(rows, 0);
    }

    /// Shift postings left by `pruned` dropped prefix rows, discarding
    /// postings that pointed into the prefix.
    fn remap_pruned(&mut self, pruned: usize) {
        for map in self.cols.values_mut() {
            map.retain(|_, list| {
                list.retain_mut(|(pos, _)| {
                    if *pos < pruned {
                        false
                    } else {
                        *pos -= pruned;
                        true
                    }
                });
                !list.is_empty()
            });
        }
    }

    /// `[lo, hi)` bounds of one key's postings with csn in `(a, b]`.
    fn slice(list: &[Posting], interval: TimeInterval) -> (usize, usize) {
        (
            list.partition_point(|&(_, csn)| csn <= interval.lo),
            list.partition_point(|&(_, csn)| csn <= interval.hi),
        )
    }

    /// Approximate heap bytes held by postings (capacity is ignored; this
    /// feeds a monitoring gauge, not an allocator).
    fn approx_bytes(&self) -> u64 {
        let mut total = 0u64;
        for map in self.cols.values() {
            for (key, list) in map {
                total += std::mem::size_of::<Value>() as u64
                    + match key {
                        Value::Str(s) => s.len() as u64,
                        _ => 0,
                    }
                    + (list.len() * std::mem::size_of::<Posting>()) as u64;
            }
        }
        total
    }
}

/// Append-only, CSN-ordered base-table delta (`Δ^R`).
pub struct DeltaStore {
    table: TableId,
    rows: RwLock<Vec<DeltaRow>>,
    base: RwLock<DeltaBase>,
    /// Highest CSN below which same-tuple records may have been merged
    /// (min-timestamp rule). Reads that dip below it would see rewritten
    /// timestamps, so they are refused like pruned history.
    compacted_through: AtomicU64,
    /// Bumped whenever held rows are rewritten in place (prune or compact);
    /// lets range caches detect that a cached `(table, interval)` entry no
    /// longer matches the store contents.
    version: AtomicU64,
    /// Keyed time-range index (posting lists per indexed column). Always
    /// acquired *after* `rows` — see [`KeyIndex`].
    index: RwLock<KeyIndex>,
    compaction: CompactionCounters,
}

/// Index of the first row with timestamp strictly greater than `t` —
/// equivalently, the count of rows with timestamp ≤ `t`. Rows are in CSN
/// order, so this is a binary search.
fn lower_bound(rows: &[DeltaRow], t: Csn) -> usize {
    rows.partition_point(|r| r.ts.expect("delta rows are timestamped") <= t)
}

/// `[lo, hi)` slice bounds of the records with timestamp in `(a, b]` —
/// the paper's `σ_{a,b}` selection as index arithmetic.
fn interval_bounds(rows: &[DeltaRow], interval: TimeInterval) -> (usize, usize) {
    (
        lower_bound(rows, interval.lo),
        lower_bound(rows, interval.hi),
    )
}

impl DeltaStore {
    pub fn new(table: TableId) -> Self {
        DeltaStore {
            table,
            rows: RwLock::new(Vec::new()),
            base: RwLock::new(DeltaBase::default()),
            compacted_through: AtomicU64::new(0),
            version: AtomicU64::new(0),
            index: RwLock::new(KeyIndex::default()),
            compaction: CompactionCounters::default(),
        }
    }

    /// History at or below this CSN has been folded into a snapshot:
    /// `range`/`reconstruct_at` below it are unavailable.
    pub fn pruned_through(&self) -> Csn {
        self.base.read().through
    }

    /// Highest CSN below which same-tuple records may have been merged.
    pub fn compacted_through(&self) -> Csn {
        self.compacted_through.load(Ordering::Acquire)
    }

    /// The read floor: ranges starting below this (and reconstructions at
    /// times below it) are refused — history there has been pruned away or
    /// rewritten by compaction.
    pub fn floor(&self) -> Csn {
        self.pruned_through().max(self.compacted_through())
    }

    /// Content version: bumped whenever held rows are rewritten in place
    /// (prune or compaction). Range caches key their entries on this so a
    /// rewrite invalidates them.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Compaction counters accumulated over the store's lifetime.
    pub fn compaction_stats(&self) -> CompactionStats {
        self.compaction.snapshot()
    }

    /// Fold all change records with timestamp ≤ `through` into the base
    /// snapshot, reclaiming their space. Returns the number of records
    /// folded. Maintenance must no longer need ranges starting below
    /// `through` (i.e. every propagation frontier has passed it).
    pub fn prune_through(&self, through: Csn) -> usize {
        let mut rows = self.rows.write();
        let mut base = self.base.write();
        let hi = lower_bound(&rows, through);
        for r in rows.drain(..hi) {
            *base.counts.entry(r.tuple).or_insert(0) += r.count;
        }
        base.counts.retain(|_, c| *c != 0);
        base.through = base.through.max(through);
        if hi > 0 {
            self.index.write().remap_pruned(hi);
            self.version.fetch_add(1, Ordering::AcqRel);
        }
        hi
    }

    /// φ-compact held history: merge same-tuple change records with
    /// timestamp ≤ `lwm` into one record each (counts summed, **minimum**
    /// timestamp kept per the §3.3 rule) and drop groups whose counts sum
    /// to zero. Returns the number of records removed.
    ///
    /// Sound only when `lwm` is a *global low-water mark*: every
    /// propagation frontier and the apply position have passed it, so no
    /// future read's interval starts below `lwm` — any `σ_{a,b}` with
    /// `a ≥ lwm` excludes whole groups and any reconstruction at `t ≥ lwm`
    /// includes whole groups, both of which φ-commute with the merge
    /// (Definition 4.1 linearity). If nothing merges, the store is left
    /// untouched and stays fully readable below `lwm`.
    pub fn compact_through(&self, lwm: Csn) -> usize {
        let mut rows = self.rows.write();
        let hi = lower_bound(&rows, lwm);
        if hi < 2 {
            return 0;
        }
        // Group by tuple in first-occurrence order: rows are CSN-sorted, so
        // the first occurrence carries the group's minimum timestamp and
        // the merged prefix stays timestamp-sorted.
        let mut pos: HashMap<Tuple, usize> = HashMap::with_capacity(hi);
        let mut merged: Vec<DeltaRow> = Vec::with_capacity(hi);
        for r in &rows[..hi] {
            match pos.get(&r.tuple) {
                Some(&i) => merged[i].count += r.count,
                None => {
                    pos.insert(r.tuple.clone(), merged.len());
                    merged.push(r.clone());
                }
            }
        }
        let groups = merged.len();
        let zeros = merged.iter().filter(|r| r.count == 0).count();
        if groups == hi && zeros == 0 {
            return 0;
        }
        merged.retain(|r| r.count != 0);
        let removed = hi - merged.len();
        let before: u64 = rows[..hi].iter().map(approx_row_bytes).sum();
        let after: u64 = merged.iter().map(approx_row_bytes).sum();
        rows.splice(..hi, merged);
        self.index.write().rebuild(&rows);
        self.compaction.record(
            (hi - groups) as u64,
            zeros as u64,
            before.saturating_sub(after),
        );
        self.compacted_through.fetch_max(lwm, Ordering::AcqRel);
        self.version.fetch_add(1, Ordering::AcqRel);
        removed
    }

    /// The base table this delta describes.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Append the changes of one committed transaction. `ts` must be
    /// non-decreasing across calls (capture processes commits in order).
    pub fn append_commit(&self, ts: Csn, changes: impl IntoIterator<Item = (i64, Tuple)>) {
        let mut rows = self.rows.write();
        debug_assert!(
            rows.last().and_then(|r| r.ts).is_none_or(|last| last <= ts),
            "delta rows must be appended in CSN order"
        );
        let start = rows.len();
        for (count, tuple) in changes {
            rows.push(DeltaRow::change(ts, count, tuple));
        }
        if rows.len() > start {
            self.index.write().append(&rows, start);
        }
    }

    /// `σ_{a,b}(Δ^R)`: all change records with timestamp in `(a, b]`.
    /// Bounds are computed first so only the selected slice is cloned.
    pub fn range(&self, interval: TimeInterval) -> Vec<DeltaRow> {
        let rows = self.rows.read();
        let (lo, hi) = interval_bounds(&rows, interval);
        rows[lo..hi].to_vec()
    }

    /// Create a keyed time-range index on `col`, back-filling postings for
    /// already-captured history. Idempotent.
    pub fn create_key_index(&self, col: usize) {
        let rows = self.rows.read();
        let mut index = self.index.write();
        if index.cols.contains_key(&col) {
            return;
        }
        index.cols.insert(col, HashMap::new());
        // Back-fill just the new column (append walks every indexed col,
        // but the others' postings are already position-correct — rebuild
        // via a single-col scratch map instead).
        let map = index.cols.get_mut(&col).expect("just inserted");
        for (i, r) in rows.iter().enumerate() {
            let v = r.tuple.get(col);
            if *v != Value::Null {
                map.entry(v.clone())
                    .or_default()
                    .push((i, r.ts.expect("delta rows are timestamped")));
            }
        }
    }

    /// Whether `col` has a keyed time-range index.
    pub fn has_key_index(&self, col: usize) -> bool {
        self.index.read().cols.contains_key(&col)
    }

    /// Columns carrying a keyed time-range index.
    pub fn indexed_key_cols(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.index.read().cols.keys().copied().collect();
        cols.sort_unstable();
        cols
    }

    /// `σ_{a,b}(Δ^R) ⋉ keys` on `col`: the change records with timestamp
    /// in `(a, b]` whose `col` value is in `keys`, in CSN order — a per-key
    /// binary-search slice of the posting lists instead of a range scan.
    /// `None` when `col` has no key index (caller falls back to
    /// [`DeltaStore::range`]).
    pub fn range_keyed(
        &self,
        interval: TimeInterval,
        col: usize,
        keys: &[Value],
    ) -> Option<Vec<DeltaRow>> {
        let rows = self.rows.read();
        let index = self.index.read();
        let map = index.cols.get(&col)?;
        let mut positions: Vec<usize> = Vec::new();
        for key in keys {
            if let Some(list) = map.get(key) {
                let (lo, hi) = KeyIndex::slice(list, interval);
                positions.extend(list[lo..hi].iter().map(|&(pos, _)| pos));
            }
        }
        // Distinct keys never share a posting, so sorting positions is
        // enough to restore global CSN order (rows are CSN-sorted and the
        // min-timestamp rule downstream depends on it).
        positions.sort_unstable();
        Some(positions.into_iter().map(|p| rows[p].clone()).collect())
    }

    /// Total posting-list length for `keys` on `col` within `(a, b]` — the
    /// exact row count [`DeltaStore::range_keyed`] would return, at binary
    /// search cost. `None` when `col` has no key index.
    pub fn keyed_count_estimate(
        &self,
        interval: TimeInterval,
        col: usize,
        keys: &[Value],
    ) -> Option<usize> {
        let index = self.index.read();
        let map = index.cols.get(&col)?;
        let mut total = 0usize;
        for key in keys {
            if let Some(list) = map.get(key) {
                let (lo, hi) = KeyIndex::slice(list, interval);
                total += hi - lo;
            }
        }
        Some(total)
    }

    /// Approximate heap bytes held by the keyed index's postings (feeds
    /// the `rolljoin_delta_postings_bytes` gauge).
    pub fn postings_bytes(&self) -> u64 {
        self.index.read().approx_bytes()
    }

    /// Number of change records with timestamp in `(a, b]` (cheap; used by
    /// adaptive interval policies).
    pub fn count_in(&self, interval: TimeInterval) -> usize {
        let rows = self.rows.read();
        let (lo, hi) = interval_bounds(&rows, interval);
        hi - lo
    }

    /// Timestamp of the latest captured change (not the capture HWM — a
    /// quiet table's delta can trail the HWM arbitrarily).
    pub fn last_ts(&self) -> Option<Csn> {
        self.rows.read().last().and_then(|r| r.ts)
    }

    /// Timestamp of the `k`-th change record (1-based) strictly after `t`,
    /// if that many exist. Adaptive interval policies use this to size a
    /// propagation interval to a target number of delta rows.
    pub fn nth_ts_after(&self, t: Csn, k: usize) -> Option<Csn> {
        if k == 0 {
            return None;
        }
        let rows = self.rows.read();
        let lo = lower_bound(&rows, t);
        rows.get(lo + k - 1).map(|r| r.ts.expect("timestamped"))
    }

    /// Total number of change records held.
    pub fn len(&self) -> usize {
        self.rows.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reconstruct the base table's multiset state at time `t` by
    /// net-effecting `σ_{0,t}(Δ^R)` (Definition 4.1 applied from the empty
    /// table). This is the time-travel primitive used by the test oracle
    /// and by the (paper-acknowledged-unrealizable) Equation 2 baseline —
    /// the rolling algorithms themselves never need it.
    pub fn reconstruct_at(&self, t: Csn) -> Result<HashMap<Tuple, i64>> {
        let rows = self.rows.read();
        let base = self.base.read();
        let floor = base.through.max(self.compacted_through());
        if t < floor {
            return Err(Error::HistoryPruned {
                table: self.table,
                requested: t,
                pruned_through: floor,
            });
        }
        let hi = lower_bound(&rows, t);
        let mut out: HashMap<Tuple, i64> = base.counts.clone();
        for r in &rows[..hi] {
            let e = out.entry(r.tuple.clone()).or_insert(0);
            *e += r.count;
            if *e == 0 {
                out.remove(&r.tuple);
            }
        }
        Ok(out)
    }
}

/// A view delta table, keyed by timestamp.
pub struct ViewDeltaStore {
    table: TableId,
    rows: RwLock<BTreeMap<Csn, Vec<(i64, Tuple)>>>,
    compaction: CompactionCounters,
}

/// Undo handle for transactional view-delta inserts: positions to truncate
/// on abort.
#[derive(Debug, Clone, Copy)]
pub struct VdUndo {
    pub ts: Csn,
    pub index: usize,
}

impl ViewDeltaStore {
    pub fn new(table: TableId) -> Self {
        ViewDeltaStore {
            table,
            rows: RwLock::new(BTreeMap::new()),
            compaction: CompactionCounters::default(),
        }
    }

    /// Compaction counters accumulated over the store's lifetime.
    pub fn compaction_stats(&self) -> CompactionStats {
        self.compaction.snapshot()
    }

    pub fn table(&self) -> TableId {
        self.table
    }

    /// Insert one view-delta record; returns an undo handle.
    pub fn insert(&self, ts: Csn, count: i64, tuple: Tuple) -> VdUndo {
        let mut rows = self.rows.write();
        let bucket = rows.entry(ts).or_default();
        bucket.push((count, tuple));
        VdUndo {
            ts,
            index: bucket.len() - 1,
        }
    }

    /// Remove a record previously inserted (abort path). Undos must be
    /// applied in reverse insertion order.
    pub fn undo(&self, u: VdUndo) -> Result<()> {
        let mut rows = self.rows.write();
        let bucket = rows
            .get_mut(&u.ts)
            .ok_or_else(|| Error::Internal(format!("vd undo: no bucket at ts {}", u.ts)))?;
        if bucket.len() != u.index + 1 {
            return Err(Error::Internal("vd undo applied out of order".to_string()));
        }
        bucket.pop();
        if bucket.is_empty() {
            rows.remove(&u.ts);
        }
        Ok(())
    }

    /// Sum the same-tuple records of each bucket in `ts` (first-seen
    /// order), dropping zero sums. Exact: records at one timestamp are one
    /// multiset, and every reader nets counts per tuple. Called when a
    /// writing transaction commits, so no undo handle points into a
    /// merged bucket.
    pub fn merge_buckets(&self, ts: impl IntoIterator<Item = Csn>) {
        let mut rows = self.rows.write();
        for ts in ts {
            let Some(bucket) = rows.get_mut(&ts) else {
                continue;
            };
            if bucket.len() < 2 {
                continue;
            }
            let mut pos: HashMap<Tuple, usize> = HashMap::with_capacity(bucket.len());
            let mut merged: Vec<(i64, Tuple)> = Vec::with_capacity(bucket.len());
            for (count, tuple) in bucket.drain(..) {
                match pos.get(&tuple) {
                    Some(&i) => merged[i].0 += count,
                    None => {
                        pos.insert(tuple.clone(), merged.len());
                        merged.push((count, tuple));
                    }
                }
            }
            merged.retain(|(c, _)| *c != 0);
            if merged.is_empty() {
                rows.remove(&ts);
            } else {
                *bucket = merged;
            }
        }
    }

    /// `σ_{a,b}` over the view delta: records with timestamp in `(a, b]`,
    /// as [`DeltaRow`]s.
    pub fn range(&self, interval: TimeInterval) -> Vec<DeltaRow> {
        let rows = self.rows.read();
        let mut out = Vec::new();
        for (&ts, bucket) in rows.range((
            std::ops::Bound::Excluded(interval.lo),
            std::ops::Bound::Included(interval.hi),
        )) {
            out.extend(
                bucket
                    .iter()
                    .map(|(count, tuple)| DeltaRow::change(ts, *count, tuple.clone())),
            );
        }
        out
    }

    /// Net effect `φ(σ_{a,b}(VD))`: tuple → summed count, zeros dropped.
    /// This is what the apply process installs into the materialized view.
    pub fn net_range(&self, interval: TimeInterval) -> HashMap<Tuple, i64> {
        let mut out: HashMap<Tuple, i64> = HashMap::new();
        for row in self.range(interval) {
            let e = out.entry(row.tuple).or_insert(0);
            *e += row.count;
        }
        out.retain(|_, c| *c != 0);
        out
    }

    /// Drop all records with timestamp ≤ `t` (space reclamation after the
    /// view has been rolled past them).
    pub fn prune_through(&self, t: Csn) -> usize {
        let mut rows = self.rows.write();
        let keep = rows.split_off(&(t + 1));
        let dropped = rows.values().map(Vec::len).sum();
        *rows = keep;
        dropped
    }

    /// φ-compact all records with timestamp ≤ `t` (the apply position):
    /// merge same-tuple records into one at the group's minimum timestamp,
    /// drop zero-sum groups. Unlike [`ViewDeltaStore::prune_through`] the
    /// net effect of the compacted region is preserved, so `range`/
    /// `net_range` over any interval containing the whole region — in
    /// particular the `(mat_time, target]` windows apply reads, since
    /// `t ≤ mat_time` — are unchanged. Returns records removed.
    pub fn compact_through(&self, t: Csn) -> usize {
        let mut rows = self.rows.write();
        let keep = rows.split_off(&(t + 1));
        let before: usize = rows.values().map(Vec::len).sum();
        if before < 2 {
            rows.extend(keep);
            return 0;
        }
        // Buckets iterate in timestamp order, so a group's first
        // occurrence carries its minimum timestamp (§3.3 rule).
        let mut pos: HashMap<Tuple, usize> = HashMap::with_capacity(before);
        let mut groups: Vec<(Csn, i64, Tuple)> = Vec::with_capacity(before);
        let row_overhead = std::mem::size_of::<(i64, Tuple)>() as u64;
        let mut bytes_before = 0u64;
        for (&ts, bucket) in rows.iter() {
            for (count, tuple) in bucket {
                bytes_before += row_overhead + approx_tuple_bytes(tuple);
                match pos.get(tuple) {
                    Some(&i) => groups[i].1 += *count,
                    None => {
                        pos.insert(tuple.clone(), groups.len());
                        groups.push((ts, *count, tuple.clone()));
                    }
                }
            }
        }
        let n_groups = groups.len();
        let zeros = groups.iter().filter(|g| g.1 == 0).count();
        let mut rebuilt: BTreeMap<Csn, Vec<(i64, Tuple)>> = BTreeMap::new();
        let mut after = 0usize;
        let mut bytes_after = 0u64;
        for (ts, count, tuple) in groups {
            if count == 0 {
                continue;
            }
            bytes_after += row_overhead + approx_tuple_bytes(&tuple);
            rebuilt.entry(ts).or_default().push((count, tuple));
            after += 1;
        }
        rebuilt.extend(keep);
        *rows = rebuilt;
        self.compaction.record(
            (before - n_groups) as u64,
            zeros as u64,
            bytes_before.saturating_sub(bytes_after),
        );
        before - after
    }

    /// Total records held.
    pub fn len(&self) -> usize {
        self.rows.read().values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.read().is_empty()
    }
}

/// Counters of one cache (point-in-time copy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to materialize the range.
    pub misses: u64,
    /// Rows served from cached entries (what the cache saved copying).
    pub rows_served: u64,
    /// Live entries.
    pub entries: u64,
}

impl ScanCacheStats {
    /// Hit fraction in `[0, 1]`; `0` when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A cached range scan: the [`DeltaStore::version`] it was fetched at
/// plus the materialized rows.
type VersionedRows = (u64, Arc<Vec<DeltaRow>>);

#[derive(Default)]
struct ScanCacheInner {
    /// Epoch (the caller's propagation HWM) the live entries were
    /// materialized under.
    epoch: Csn,
    /// Entries carry the version they were fetched at, so a store
    /// rewrite (prune or φ-compaction) makes them unservable.
    ranges: HashMap<(TableId, TimeInterval), VersionedRows>,
}

/// Step-scoped cache of materialized delta-range scans.
///
/// A propagation step executes many constituent queries that re-read the
/// *same* delta ranges (the forward query and every compensation query in
/// its subtree share delta slots). Each [`DeltaStore::range`] call copies
/// the slice; this cache materializes a range once per step and hands out
/// shared read-only [`Arc`]s instead.
///
/// Soundness: a range `(a, b]` with `b` at or below the capture HWM is
/// immutable against *appends* (capture appends in CSN order), but prune
/// and φ-compaction rewrite held rows in place. Every entry therefore
/// records the [`DeltaStore::version`] it was fetched at, and a lookup
/// whose caller-supplied version differs is a miss that *replaces* the
/// stale entry — a cached range can never be served across a rewrite.
/// Epoch advancement is then purely a *memory bound*: when the caller's
/// epoch — the propagation HWM, which advances only as steps complete —
/// moves past the one the entries were computed under, the step that
/// shared them has moved on and the whole cache is dropped
/// ([`ScanCache::advance_epoch`]). The *capture* HWM would be the wrong
/// epoch: it advances on every concurrent updater commit and would evict a
/// live step's working set.
#[derive(Default)]
pub struct ScanCache {
    inner: RwLock<ScanCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    rows_served: AtomicU64,
}

impl ScanCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// The capture HWM the current entries were materialized under.
    pub fn epoch(&self) -> Csn {
        self.inner.read().epoch
    }

    /// Step-scope the cache: when the capture HWM has advanced past the
    /// epoch of the live entries, drop them all. Entries stay correct
    /// regardless (cached ranges are immutable); this bounds memory to one
    /// step's working set.
    pub fn advance_epoch(&self, hwm: Csn) {
        if self.inner.read().epoch >= hwm {
            return;
        }
        let mut inner = self.inner.write();
        if inner.epoch < hwm {
            inner.epoch = hwm;
            inner.ranges.clear();
        }
    }

    /// Drop every entry (a new step starts).
    pub fn clear(&self) {
        self.inner.write().ranges.clear();
    }

    /// Look up `(table, interval)` at the store's current content
    /// `version`, materializing it with `fetch` on a miss. A cached entry
    /// fetched at a different version is stale (the store was pruned or
    /// compacted since) and is replaced. Returns the shared rows and
    /// whether this was a hit.
    pub fn get_or_fetch(
        &self,
        table: TableId,
        interval: TimeInterval,
        version: u64,
        fetch: impl FnOnce() -> Result<Vec<DeltaRow>>,
    ) -> Result<(Arc<Vec<DeltaRow>>, bool)> {
        let key = (table, interval);
        if let Some((v, rows)) = self.inner.read().ranges.get(&key) {
            if *v == version {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.rows_served
                    .fetch_add(rows.len() as u64, Ordering::Relaxed);
                return Ok((rows.clone(), true));
            }
        }
        // Materialize outside the write lock; racing fetchers of the same
        // range do duplicate work at most once.
        let rows = Arc::new(fetch()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.write();
        let entry = inner
            .ranges
            .entry(key)
            .and_modify(|e| {
                // Replace (never keep) an entry from another version —
                // `or_insert` semantics would re-serve the stale rows.
                if e.0 != version {
                    *e = (version, rows.clone());
                }
            })
            .or_insert_with(|| (version, rows.clone()));
        Ok((entry.1.clone(), false))
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.read().ranges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> ScanCacheStats {
        ScanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rows_served: self.rows_served.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolljoin_common::tup;

    #[test]
    fn delta_store_range_is_half_open() {
        let d = DeltaStore::new(TableId(1));
        d.append_commit(1, [(1, tup![10])]);
        d.append_commit(3, [(1, tup![30]), (-1, tup![10])]);
        d.append_commit(5, [(1, tup![50])]);
        let r = d.range(TimeInterval::new(1, 3));
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|x| x.ts == Some(3)));
        assert_eq!(d.count_in(TimeInterval::new(0, 5)), 4);
        assert_eq!(d.count_in(TimeInterval::new(5, 5)), 0);
        assert_eq!(d.last_ts(), Some(5));
    }

    #[test]
    fn reconstruct_replays_history() {
        let d = DeltaStore::new(TableId(1));
        d.append_commit(1, [(1, tup![1]), (1, tup![2])]);
        d.append_commit(2, [(-1, tup![1])]);
        d.append_commit(4, [(2, tup![2])]);
        let s0 = d.reconstruct_at(0).unwrap();
        assert!(s0.is_empty());
        let s1 = d.reconstruct_at(1).unwrap();
        assert_eq!(s1[&tup![1]], 1);
        assert_eq!(s1[&tup![2]], 1);
        let s2 = d.reconstruct_at(2).unwrap();
        assert!(!s2.contains_key(&tup![1]), "zero counts dropped");
        let s4 = d.reconstruct_at(4).unwrap();
        assert_eq!(s4[&tup![2]], 3);
    }

    #[test]
    fn prune_folds_history_into_snapshot() {
        let d = DeltaStore::new(TableId(1));
        d.append_commit(1, [(1, tup![1]), (1, tup![2])]);
        d.append_commit(2, [(-1, tup![1])]);
        d.append_commit(4, [(2, tup![2])]);
        d.append_commit(6, [(1, tup![3])]);
        assert_eq!(d.prune_through(4), 4);
        assert_eq!(d.pruned_through(), 4);
        assert_eq!(d.len(), 1, "only the ts=6 record remains");
        // Reconstruction at or after the prune point still works…
        let s4 = d.reconstruct_at(4).unwrap();
        assert_eq!(s4[&tup![2]], 3);
        assert!(!s4.contains_key(&tup![1]));
        let s6 = d.reconstruct_at(6).unwrap();
        assert_eq!(s6[&tup![3]], 1);
        // …but below it the history is gone.
        assert!(matches!(
            d.reconstruct_at(3),
            Err(Error::HistoryPruned {
                pruned_through: 4,
                ..
            })
        ));
        // Ranges above the prune point are unaffected.
        assert_eq!(d.range(TimeInterval::new(4, 6)).len(), 1);
        // Pruning is idempotent / monotone.
        assert_eq!(d.prune_through(2), 0);
        assert_eq!(d.pruned_through(), 4);
    }

    #[test]
    fn view_delta_out_of_order_inserts_and_range() {
        let vd = ViewDeltaStore::new(TableId(9));
        vd.insert(5, 1, tup!["late"]);
        vd.insert(2, -1, tup!["early"]); // compensation for an old time
        vd.insert(5, 1, tup!["late2"]);
        let r = vd.range(TimeInterval::new(0, 5));
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].ts, Some(2), "range is timestamp-ordered");
        let r = vd.range(TimeInterval::new(2, 5));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn view_delta_net_range_cancels() {
        let vd = ViewDeltaStore::new(TableId(9));
        vd.insert(3, 1, tup!["x"]);
        vd.insert(4, -1, tup!["x"]);
        vd.insert(4, 1, tup!["y"]);
        let net = vd.net_range(TimeInterval::new(0, 4));
        assert_eq!(net.len(), 1);
        assert_eq!(net[&tup!["y"]], 1);
    }

    #[test]
    fn view_delta_undo_reverses_insert() {
        let vd = ViewDeltaStore::new(TableId(9));
        let u1 = vd.insert(3, 1, tup!["a"]);
        let u2 = vd.insert(3, 1, tup!["b"]);
        vd.undo(u2).unwrap();
        vd.undo(u1).unwrap();
        assert!(vd.is_empty());
        // Out-of-order undo is an internal error.
        let u3 = vd.insert(3, 1, tup!["a"]);
        let _u4 = vd.insert(3, 1, tup!["b"]);
        assert!(vd.undo(u3).is_err());
    }

    #[test]
    fn scan_cache_hits_and_serves_shared_rows() {
        let d = DeltaStore::new(TableId(1));
        d.append_commit(1, [(1, tup![10])]);
        d.append_commit(2, [(1, tup![20])]);
        let cache = ScanCache::new();
        let iv = TimeInterval::new(0, 2);
        let (a, hit) = cache
            .get_or_fetch(TableId(1), iv, d.version(), || Ok(d.range(iv)))
            .unwrap();
        assert!(!hit);
        assert_eq!(a.len(), 2);
        let (b, hit) = cache
            .get_or_fetch(TableId(1), iv, d.version(), || panic!("must not refetch"))
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &b), "hit returns the same allocation");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.rows_served, s.entries), (1, 1, 2, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn scan_cache_epoch_advance_clears() {
        let cache = ScanCache::new();
        let iv = TimeInterval::new(0, 3);
        cache
            .get_or_fetch(TableId(1), iv, 0, || {
                Ok(vec![DeltaRow::change(1, 1, tup![1])])
            })
            .unwrap();
        cache.advance_epoch(3);
        assert_eq!(cache.len(), 0, "newer HWM drops the step's entries");
        assert_eq!(cache.epoch(), 3);
        // Same HWM again: entries from the current step survive.
        cache
            .get_or_fetch(TableId(1), iv, 0, || {
                Ok(vec![DeltaRow::change(1, 1, tup![1])])
            })
            .unwrap();
        cache.advance_epoch(3);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn scan_cache_version_mismatch_replaces_stale_entry() {
        let d = DeltaStore::new(TableId(1));
        d.append_commit(1, [(1, tup![7])]);
        d.append_commit(2, [(-1, tup![7])]);
        d.append_commit(3, [(1, tup![8])]);
        let cache = ScanCache::new();
        let iv = TimeInterval::new(0, 3);
        let v0 = d.version();
        let (a, _) = cache
            .get_or_fetch(TableId(1), iv, v0, || Ok(d.range(iv)))
            .unwrap();
        assert_eq!(a.len(), 3);
        // A rewrite (compaction) bumps the version; the old entry must not
        // be served, and the refetched rows must replace it.
        assert_eq!(d.compact_through(3), 2);
        let v1 = d.version();
        assert_ne!(v0, v1);
        let (b, hit) = cache
            .get_or_fetch(TableId(1), iv, v1, || Ok(d.range(iv)))
            .unwrap();
        assert!(!hit, "stale version must miss");
        assert_eq!(b.len(), 1, "compacted range served after refetch");
        // The replacement is now the live entry for the new version.
        let (c, hit) = cache
            .get_or_fetch(TableId(1), iv, v1, || panic!("must not refetch"))
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&b, &c));
    }

    #[test]
    fn compact_merges_sums_counts_and_keeps_min_ts() {
        let d = DeltaStore::new(TableId(1));
        d.append_commit(1, [(1, tup![1])]);
        d.append_commit(2, [(1, tup![1]), (1, tup![2])]);
        d.append_commit(3, [(-1, tup![2])]);
        d.append_commit(5, [(1, tup![1])]);
        // Compact through 3: tup![1] merges (2 rows → 1, min ts 1), tup![2]
        // nets to zero and vanishes; the ts=5 row is above the LWM.
        assert_eq!(d.compact_through(3), 3);
        let rows = d.range(TimeInterval::new(0, 5));
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].ts, rows[0].count, &rows[0].tuple),
            (Some(1), 2, &tup![1])
        );
        assert_eq!(rows[1].ts, Some(5));
        let s = d.compaction_stats();
        assert_eq!(s.rows_merged, 2, "one fold for tup![1], one for tup![2]");
        assert_eq!(s.zero_runs_dropped, 1);
        assert!(s.bytes_reclaimed > 0);
        assert_eq!(s.rows_removed(), 3);
    }

    #[test]
    fn compact_preserves_reconstruction_at_and_above_lwm() {
        let d = DeltaStore::new(TableId(1));
        d.append_commit(1, [(1, tup![1]), (1, tup![2])]);
        d.append_commit(2, [(-1, tup![1])]);
        d.append_commit(4, [(2, tup![2])]);
        let want4 = d.reconstruct_at(4).unwrap();
        assert!(d.compact_through(4) > 0);
        assert_eq!(d.reconstruct_at(4).unwrap(), want4);
        assert_eq!(d.compacted_through(), 4);
        assert_eq!(d.floor(), 4);
        // Below the LWM timestamps were rewritten: refuse, like pruning.
        assert!(matches!(
            d.reconstruct_at(2),
            Err(Error::HistoryPruned {
                pruned_through: 4,
                ..
            })
        ));
    }

    #[test]
    fn compact_noop_leaves_history_readable() {
        let d = DeltaStore::new(TableId(1));
        d.append_commit(1, [(1, tup![1])]);
        d.append_commit(2, [(1, tup![2])]);
        let v = d.version();
        assert_eq!(d.compact_through(2), 0, "distinct tuples: nothing merges");
        assert_eq!(d.compacted_through(), 0, "floor not raised on a no-op");
        assert_eq!(d.version(), v, "no rewrite, no invalidation");
        assert_eq!(d.reconstruct_at(1).unwrap().len(), 1);
    }

    #[test]
    fn recompaction_merges_across_earlier_lwm() {
        let d = DeltaStore::new(TableId(1));
        d.append_commit(1, [(1, tup![1])]);
        d.append_commit(2, [(1, tup![1])]);
        assert_eq!(d.compact_through(2), 1);
        d.append_commit(5, [(1, tup![1])]);
        // The hot key keeps collapsing into the single min-ts row.
        assert_eq!(d.compact_through(5), 1);
        let rows = d.range(TimeInterval::new(0, 9));
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].ts, rows[0].count), (Some(1), 3));
    }

    #[test]
    fn view_delta_compact_merges_below_apply_position() {
        let vd = ViewDeltaStore::new(TableId(9));
        vd.insert(1, 1, tup!["x"]);
        vd.insert(2, -1, tup!["x"]);
        vd.insert(2, 1, tup!["y"]);
        vd.insert(3, 2, tup!["y"]);
        vd.insert(7, 1, tup!["z"]);
        let net_all = vd.net_range(TimeInterval::new(0, 7));
        assert_eq!(vd.compact_through(3), 3, "x nets to zero, y folds to one");
        assert_eq!(vd.len(), 2);
        let rows = vd.range(TimeInterval::new(0, 7));
        assert_eq!(rows[0], DeltaRow::change(2, 3, tup!["y"]), "min ts kept");
        assert_eq!(vd.net_range(TimeInterval::new(0, 7)), net_all);
        let s = vd.compaction_stats();
        assert_eq!((s.rows_merged, s.zero_runs_dropped), (2, 1));
        assert!(s.bytes_reclaimed > 0);
    }

    #[test]
    fn key_index_range_keyed_matches_filtered_scan() {
        let d = DeltaStore::new(TableId(1));
        d.append_commit(1, [(1, tup![7, 70]), (1, tup![8, 80])]);
        d.append_commit(3, [(-1, tup![7, 70]), (1, tup![9, 90])]);
        d.create_key_index(0);
        assert!(d.has_key_index(0));
        assert!(!d.has_key_index(1));
        assert_eq!(d.indexed_key_cols(), vec![0]);
        d.append_commit(5, [(1, tup![7, 71])]);
        let iv = TimeInterval::new(0, 5);
        let keys = [Value::Int(7)];
        let got = d.range_keyed(iv, 0, &keys).unwrap();
        let want: Vec<DeltaRow> = d
            .range(iv)
            .into_iter()
            .filter(|r| *r.tuple.get(0) == Value::Int(7))
            .collect();
        assert_eq!(got, want, "keyed slice equals the filtered scan");
        assert_eq!(d.keyed_count_estimate(iv, 0, &keys), Some(got.len()));
        // The (a, b] bounds cut posting lists, not just the scan.
        let tight = TimeInterval::new(1, 3);
        assert_eq!(d.range_keyed(tight, 0, &keys).unwrap().len(), 1);
        assert_eq!(d.keyed_count_estimate(tight, 0, &keys), Some(1));
        // Unindexed column: caller must fall back to a scan.
        assert!(d.range_keyed(iv, 1, &keys).is_none());
        assert!(d.keyed_count_estimate(iv, 1, &keys).is_none());
        assert!(d.postings_bytes() > 0);
    }

    #[test]
    fn key_index_multi_key_output_stays_csn_ordered() {
        let d = DeltaStore::new(TableId(1));
        d.create_key_index(0);
        d.append_commit(1, [(1, tup![2, 0])]);
        d.append_commit(2, [(1, tup![1, 0])]);
        d.append_commit(3, [(1, tup![2, 1])]);
        let got = d
            .range_keyed(TimeInterval::new(0, 3), 0, &[Value::Int(1), Value::Int(2)])
            .unwrap();
        let ts: Vec<_> = got.iter().map(|r| r.ts.unwrap()).collect();
        assert_eq!(ts, vec![1, 2, 3], "merged postings stay CSN-sorted");
    }

    #[test]
    fn key_index_skips_null_keys() {
        let d = DeltaStore::new(TableId(1));
        d.create_key_index(0);
        d.append_commit(1, [(1, Tuple::new([Value::Null, Value::Int(9)]))]);
        d.append_commit(2, [(1, tup![4, 9])]);
        let iv = TimeInterval::new(0, 2);
        assert_eq!(d.range_keyed(iv, 0, &[Value::Null]).unwrap().len(), 0);
        assert_eq!(d.range_keyed(iv, 0, &[Value::Int(4)]).unwrap().len(), 1);
    }

    #[test]
    fn key_index_survives_prune_remap() {
        let d = DeltaStore::new(TableId(1));
        d.create_key_index(0);
        d.append_commit(1, [(1, tup![1, 0])]);
        d.append_commit(2, [(1, tup![2, 0])]);
        d.append_commit(4, [(1, tup![1, 1]), (1, tup![3, 0])]);
        d.append_commit(6, [(1, tup![1, 2])]);
        assert_eq!(d.prune_through(2), 2);
        let iv = TimeInterval::new(2, 6);
        let keys = [Value::Int(1)];
        let got = d.range_keyed(iv, 0, &keys).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(
            got.iter().map(|r| r.ts.unwrap()).collect::<Vec<_>>(),
            vec![4, 6]
        );
        assert_eq!(d.keyed_count_estimate(iv, 0, &keys), Some(2));
        // tup![2, 0]'s posting pointed into the pruned prefix and is gone.
        assert_eq!(d.keyed_count_estimate(iv, 0, &[Value::Int(2)]), Some(0));
    }

    #[test]
    fn key_index_rebuilt_by_compaction() {
        let d = DeltaStore::new(TableId(1));
        d.create_key_index(0);
        d.append_commit(1, [(1, tup![1, 0])]);
        d.append_commit(2, [(1, tup![1, 0]), (1, tup![2, 0])]);
        d.append_commit(3, [(-1, tup![2, 0])]);
        d.append_commit(5, [(1, tup![1, 0])]);
        assert_eq!(d.compact_through(3), 3);
        let iv = TimeInterval::new(0, 5);
        let got = d.range_keyed(iv, 0, &[Value::Int(1)]).unwrap();
        assert_eq!(got, d.range(iv), "only key 1 survives compaction");
        assert_eq!((got[0].ts, got[0].count), (Some(1), 2), "min ts kept");
        // Key 2 netted to zero: postings must not resurrect it.
        assert_eq!(d.keyed_count_estimate(iv, 0, &[Value::Int(2)]), Some(0));
    }

    #[test]
    fn create_key_index_backfills_and_is_idempotent() {
        let d = DeltaStore::new(TableId(1));
        d.append_commit(1, [(1, tup![5, 0])]);
        d.append_commit(2, [(1, tup![5, 1])]);
        d.create_key_index(0);
        d.create_key_index(0);
        assert_eq!(
            d.keyed_count_estimate(TimeInterval::new(0, 2), 0, &[Value::Int(5)]),
            Some(2)
        );
    }

    #[test]
    fn prune_drops_old_records() {
        let vd = ViewDeltaStore::new(TableId(9));
        vd.insert(1, 1, tup![1]);
        vd.insert(2, 1, tup![2]);
        vd.insert(3, 1, tup![3]);
        assert_eq!(vd.prune_through(2), 2);
        assert_eq!(vd.len(), 1);
        assert_eq!(vd.range(TimeInterval::new(0, 10)).len(), 1);
    }
}
