//! Span collection and the per-layer table of the traced run.
//!
//! The library keeps finished spans in a bounded ring. A collector thread
//! drains it every few milliseconds into a compact in-memory list, so a
//! whole run's spans survive; spans lost to ring overflow, or that finish
//! between a drain's copy and its clear, are counted from gaps in the
//! span ids. Everything is written out when the run ends.

use crate::measure::percentile;
use rolljoin_core::Obs;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const DRAIN_PERIOD: Duration = Duration::from_millis(10);

/// Flag bits kept from span arguments.
pub const STEPPED: u8 = 1;
pub const SKIPPED_EMPTY: u8 = 2;

/// One finished span without its label and free-form arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub flags: u8,
}

impl Span {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Drains an [`Obs`] span ring on a background thread.
pub struct Collector {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<Span>>>,
    obs: Arc<Obs>,
}

fn drain(obs: &Obs, out: &mut Vec<Span>) {
    let batch = obs.spans.finished();
    obs.spans.clear();
    out.extend(batch.into_iter().map(|s| {
        let flag = |k: &str| s.args.iter().any(|(a, v)| *a == k && *v != 0);
        let flags =
            (STEPPED * flag("stepped") as u8) | (SKIPPED_EMPTY * flag("skipped_empty") as u8);
        Span {
            id: s.id,
            parent: s.parent,
            name: s.name,
            tid: s.tid,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
            flags,
        }
    }));
}

impl Collector {
    pub fn start(obs: Arc<Obs>) -> Collector {
        let stop = Arc::new(AtomicBool::new(false));
        let (s, o) = (stop.clone(), obs.clone());
        let handle = std::thread::Builder::new()
            .name("span-collector".into())
            .spawn(move || {
                let mut out = Vec::new();
                while !s.load(Ordering::Acquire) {
                    drain(&o, &mut out);
                    std::thread::sleep(DRAIN_PERIOD);
                }
                out
            })
            .expect("spawn span collector");
        Collector {
            stop,
            handle: Some(handle),
            obs,
        }
    }

    /// Stop draining, collect what is left and return the whole trace.
    /// Call after every traced thread has ended.
    pub fn finish(mut self) -> Trace {
        self.stop.store(true, Ordering::Release);
        let mut spans = self
            .handle
            .take()
            .expect("collector joined once")
            .join()
            .expect("span collector panicked");
        drain(&self.obs, &mut spans);
        let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
        let max_id = ids.iter().copied().max().unwrap_or(0);
        let lost = max_id - ids.len() as u64;
        Trace {
            spans,
            dropped: lost.max(self.obs.spans.dropped()),
        }
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One row of the per-layer table: a span name over a window.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
    pub p99_ms: f64,
    /// Inclusive time over window length (can exceed 1 when the span
    /// runs on several threads at once).
    pub busy_frac: f64,
}

/// All spans of one traced run.
pub struct Trace {
    pub spans: Vec<Span>,
    /// Spans lost to ring overflow or drain races.
    pub dropped: u64,
}

impl Trace {
    /// `[start, end)` of the first span called `name`.
    pub fn window_of(&self, name: &str) -> Option<(u64, u64)> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.start_ns, s.end_ns()))
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (children on other threads
    /// included, overlaps counted once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns()));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let Some(kids) = children.get(&s.id) else {
                    return s.dur_ns;
                };
                let (lo, hi) = (s.start_ns, s.end_ns());
                let mut ivs: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&(a, b)| (a.max(lo), b.min(hi)))
                    .filter(|(a, b)| a < b)
                    .collect();
                ivs.sort_unstable();
                let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
                for (a, b) in ivs {
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                s.dur_ns - covered
            })
            .collect()
    }

    /// Durations in ms of spans called `name` that start inside
    /// `[lo, hi)` and carry every bit of `flags`.
    pub fn durations_ms(&self, name: &str, lo: u64, hi: u64, flags: u8) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.start_ns >= lo && s.start_ns < hi)
            .filter(|s| s.flags & flags == flags)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Count of spans called `name` in `[lo, hi)` with every bit of `flags`.
    pub fn count(&self, name: &str, lo: u64, hi: u64, flags: u8) -> u64 {
        self.durations_ms(name, lo, hi, flags).len() as u64
    }

    /// Per-name totals of the spans that start inside `[lo, hi)`, by total
    /// self time, largest first.
    pub fn layer_rows(&self, lo: u64, hi: u64) -> Vec<LayerRow> {
        let self_ns = self.self_ns();
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            if s.start_ns < lo || s.start_ns >= hi {
                continue;
            }
            let e = by_name.entry(s.name).or_default();
            e.0.push(s.dur_ns as f64 / 1e6);
            e.1 += s.dur_ns;
            e.2 += own;
        }
        let window = (hi - lo).max(1) as f64;
        let mut rows: Vec<LayerRow> = by_name
            .into_iter()
            .map(|(name, (durs, total, own))| LayerRow {
                name,
                count: durs.len() as u64,
                total_ms: total as f64 / 1e6,
                self_ms: own as f64 / 1e6,
                p99_ms: percentile(&durs, 0.99),
                busy_frac: total as f64 / window,
            })
            .collect();
        rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms).then(a.name.cmp(b.name)));
        rows
    }

    /// Chrome `trace_event` JSON of at most `cap` spans starting at or
    /// after `from_ns`, earliest first.
    pub fn chrome_json(&self, from_ns: u64, cap: usize) -> String {
        let mut picked: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.start_ns >= from_ns)
            .collect();
        picked.sort_by_key(|s| s.start_ns);
        picked.truncate(cap);
        let events: Vec<String> = picked
            .iter()
            .map(|s| {
                format!(
                    "  {{\"name\": \"{}\", \"cat\": \"rolljoin\", \"ph\": \"X\", \"pid\": 1, \
                     \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                     \"args\": {{\"span\": {}, \"parent\": {}}}}}",
                    s.name,
                    s.tid,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                    s.id,
                    s.parent
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

/// Render layer rows as an aligned text table.
pub fn format_layers(rows: &[LayerRow]) -> String {
    let mut out = format!(
        "{:<24} {:>9} {:>12} {:>12} {:>10} {:>9}\n",
        "span", "count", "total_ms", "self_ms", "p99_ms", "busy"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<24} {:>9} {:>12.3} {:>12.3} {:>10.3} {:>9.4}\n",
            r.name, r.count, r.total_ms, r.self_ms, r.p99_ms, r.busy_frac
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, dur: u64) -> Span {
        Span {
            id,
            parent,
            name,
            tid: 1,
            start_ns: start,
            dur_ns: dur,
            flags: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let t = Trace {
            spans: vec![
                span(1, 0, "step", 0, 100),
                // Two overlapping children on different threads: [10,40)
                // and [30,60) cover 50 ns together.
                span(2, 1, "fetch", 10, 30),
                span(3, 1, "fetch", 30, 30),
                // A child that outlives its parent only counts inside it.
                span(4, 1, "join", 90, 50),
            ],
            dropped: 0,
        };
        assert_eq!(t.self_ns(), vec![100 - 50 - 10, 30, 30, 50]);
    }

    #[test]
    fn layer_rows_filter_by_window_and_sum_per_name() {
        let t = Trace {
            spans: vec![
                span(1, 0, "a", 0, 1_000_000),
                span(2, 0, "a", 5_000_000, 3_000_000),
                span(3, 0, "b", 20_000_000, 1_000_000),
            ],
            dropped: 0,
        };
        let rows = t.layer_rows(0, 10_000_000);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "a");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total_ms, 4.0);
        assert_eq!(rows[0].busy_frac, 0.4);
        assert_eq!(t.count("b", 0, 30_000_000, 0), 1);
    }

    #[test]
    fn chrome_json_caps_and_orders_events() {
        let t = Trace {
            spans: vec![span(2, 0, "b", 50, 1), span(1, 0, "a", 10, 1)],
            dropped: 0,
        };
        let j = t.chrome_json(0, 1);
        assert!(j.contains("\"name\": \"a\""));
        assert!(!j.contains("\"name\": \"b\""));
    }
}
