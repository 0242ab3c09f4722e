//! In-memory span trace for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer of the program; the monitor's existing `Collector` span
//! records are folded in beneath them. Every span carries the id of the
//! job (`digest#attempt`) or device it belongs to, and the whole trace is
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pllbist_telemetry::Record;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    /// Job or device id the span belongs to.
    pub key: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started but not yet ended.
#[must_use]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>) -> Open {
        Open {
            id: self.fresh_id(),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Ends `open` now, filing it under `key`.
    pub fn close(&self, open: Open, key: &str) {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name.to_string(),
            key: key.to_string(),
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("trace lock poisoned").push(span);
    }

    /// Files the `Span` records of one `Collector` drain beneath
    /// `parent`. Collector times are relative to the collector's own
    /// epoch, which is taken to be `base_ns` on this trace's clock.
    ///
    /// Parents are rebuilt from the per-thread nesting depth: a span's
    /// parent is the shortest span on its thread one level up that
    /// contains it; an outermost span on a worker thread hangs under the
    /// shortest span of another thread that contains it (the scope that
    /// spawned the worker), and otherwise under `parent`.
    pub fn fold_collector(&self, records: &[Record], parent: u64, key: &str, base_ns: u64) {
        struct Raw<'a> {
            name: &'a str,
            thread: &'a str,
            depth: u32,
            start: u64,
            end: u64,
        }
        let raw: Vec<Raw> = records
            .iter()
            .filter_map(|r| match r {
                Record::Span {
                    name,
                    thread,
                    depth,
                    t_ns,
                    dur_ns,
                    ..
                } => Some(Raw {
                    name,
                    thread,
                    depth: *depth,
                    start: base_ns + t_ns,
                    end: base_ns + t_ns + dur_ns,
                }),
                _ => None,
            })
            .collect();
        let ids: Vec<u64> = raw.iter().map(|_| self.fresh_id()).collect();
        let folded: Vec<Span> = raw
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let container = raw
                    .iter()
                    .enumerate()
                    .filter(|(j, c)| {
                        *j != i
                            && c.start <= s.start
                            && c.end >= s.end
                            && if s.depth == 0 {
                                c.thread != s.thread
                            } else {
                                c.thread == s.thread && c.depth + 1 == s.depth
                            }
                    })
                    .min_by_key(|(_, c)| c.end - c.start)
                    .map(|(j, _)| ids[j]);
                Span {
                    id: ids[i],
                    parent: Some(container.unwrap_or(parent)),
                    name: s.name.to_string(),
                    key: key.to_string(),
                    start_ns: s.start,
                    end_ns: s.end,
                }
            })
            .collect();
        self.spans
            .lock()
            .expect("trace lock poisoned")
            .extend(folded);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("trace lock poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals. Children running
/// concurrently on several threads therefore never drive it negative.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Self time summed per span name, in seconds.
pub fn self_secs_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let own = self_times(spans);
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name.clone()).or_default() += own[&s.id] as f64 * 1e-9;
    }
    out
}

/// Durations (seconds) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .collect()
}

/// Writes the trace as JSON lines: one span per line with its self time,
/// then the `details` lines (what the program reported per job or device).
pub fn write_jsonl(spans: &[Span], details: &[String], path: &Path) -> std::io::Result<()> {
    let own = self_times(spans);
    let mut out = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"key\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
            s.id, s.name, s.key, s.start_ns, s.end_ns, own[&s.id]
        ));
    }
    for line in details {
        out.push_str(line);
        out.push('\n');
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            key: "k".to_string(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "job", 0, 100),
            // Two children overlapping each other (parallel workers) and
            // one running past the parent's end.
            span(2, Some(1), "work", 10, 40),
            span(3, Some(1), "work", 30, 60),
            span(4, Some(1), "tail", 90, 120),
            span(5, Some(2), "leaf", 15, 25),
        ];
        let own = self_times(&spans);
        // Covered: [10, 60) and [90, 100) → 60 of 100.
        assert_eq!(own[&1], 40);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&4], 30);
        assert_eq!(own[&5], 10);
        let by_name = self_secs_by_name(&spans);
        assert!((by_name["work"] - 50e-9).abs() < 1e-15);
        assert_eq!(durations(&spans, "work").len(), 2);
    }

    #[test]
    fn nested_children_are_not_subtracted_twice() {
        let spans = vec![
            span(1, None, "a", 0, 50),
            span(2, Some(1), "b", 0, 50),
            span(3, Some(2), "c", 10, 20),
        ];
        let own = self_times(&spans);
        assert_eq!((own[&1], own[&2], own[&3]), (0, 40, 10));
    }

    #[test]
    fn collector_spans_fold_under_their_containers() {
        let tracer = Tracer::new();
        let rec = |name: &str, thread: &str, depth: u32, t: u64, d: u64| Record::Span {
            name: name.to_string(),
            thread: thread.to_string(),
            depth,
            t_ns: t,
            dur_ns: d,
            fields: Vec::new(),
        };
        let records = vec![
            rec("monitor.nominal", "main", 0, 0, 10),
            rec("parallel.scope", "main", 0, 10, 90),
            rec("parallel.worker", "w0", 0, 12, 80),
            rec("monitor.tone", "w0", 1, 15, 40),
            rec("monitor.settle", "w0", 2, 15, 20),
        ];
        tracer.fold_collector(&records, 999, "dev-1", 1000);
        let spans = tracer.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span").clone();
        assert_eq!(by_name("monitor.nominal").parent, Some(999));
        assert_eq!(by_name("parallel.scope").parent, Some(999));
        assert_eq!(
            by_name("parallel.worker").parent,
            Some(by_name("parallel.scope").id)
        );
        assert_eq!(
            by_name("monitor.tone").parent,
            Some(by_name("parallel.worker").id)
        );
        assert_eq!(
            by_name("monitor.settle").parent,
            Some(by_name("monitor.tone").id)
        );
        assert_eq!(by_name("monitor.settle").start_ns, 1015);
        assert!(spans.iter().all(|s| s.key == "dev-1"));
    }
}
