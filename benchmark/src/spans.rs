//! The benchmark's own in-memory span recorder (`--trace 1`).
//!
//! Spans are recorded around the calls into each layer, from the benchmark's
//! side of the public API: `workload → cell → setup | epoch → round →
//! launch.malloc | launch.free → op.malloc | op.free`. Nothing here touches
//! `core::trace`, which is a layer under test. Spans stay in memory and are
//! written as one JSON file when the run ends.
//!
//! The per-call `op.*` spans are clock pairs written into pre-allocated
//! per-thread slots inside the kernel; after each launch they are folded into
//! one *aggregate* span (count, summed duration, first start, last end) and a
//! log-linear histogram, because a run makes tens of millions of them.

use crate::json::{obj, Json};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Cell name, or the index of an epoch/round/repetition.
    pub label: String,
    pub parent: Option<usize>,
    /// Wall nanoseconds since the recorder was created.
    pub start: u64,
    pub end: u64,
    /// Spans this record stands for (1, or the calls of a launch).
    pub count: u64,
    /// Summed duration of the spans this record stands for; for a span that
    /// was resumed, of its stretches.
    pub busy: u64,
    /// Start of the stretch that is open now.
    stretch: u64,
}

pub struct Recorder {
    enabled: bool,
    origin: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool, origin: u64) -> Recorder {
        Recorder { enabled, origin, spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, label: impl ToString, wall: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let start = wall - self.origin;
        self.spans.push(Span {
            name,
            label: label.to_string(),
            parent: self.open.last().copied(),
            start,
            end: start,
            count: 1,
            busy: 0,
            stretch: start,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Reopens a closed span for another stretch: what is opened next nests
    /// under it, and only its stretches count as its duration.
    pub fn resume(&mut self, id: usize, wall: u64) {
        if !self.enabled {
            return;
        }
        self.spans[id].stretch = wall - self.origin;
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self, wall: u64) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("close without open");
        let span = &mut self.spans[id];
        span.end = wall - self.origin;
        span.busy += span.end - span.stretch;
    }

    /// Records `count` sibling leaf spans under the innermost open span as
    /// one aggregate.
    pub fn leaves(&mut self, name: &'static str, count: u64, busy: u64, first: u64, last: u64) {
        if !self.enabled || count == 0 {
            return;
        }
        self.spans.push(Span {
            name,
            label: String::new(),
            parent: self.open.last().copied(),
            start: first - self.origin,
            end: last - self.origin,
            count,
            busy,
            stretch: 0,
        });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its children
    /// cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.busy).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.busy);
            }
        }
        own
    }

    /// The span file: one array entry per span, parents by index.
    pub fn to_json(&self) -> Json {
        let own = self.self_times();
        let spans: Vec<Json> = self
            .spans
            .iter()
            .zip(&own)
            .enumerate()
            .map(|(id, (s, own))| {
                obj([
                    ("id", id.into()),
                    ("parent", s.parent.map_or(Json::Null, Into::into)),
                    ("name", s.name.into()),
                    ("label", s.label.as_str().into()),
                    ("start_ns", s.start.into()),
                    ("end_ns", s.end.into()),
                    ("count", s.count.into()),
                    ("busy_ns", s.busy.into()),
                    ("self_ns", (*own).into()),
                ])
            })
            .collect();
        Json::Arr(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new(true, 1000);
        r.open("round", 0, 1000);
        r.open("launch.malloc", "", 1100);
        // 4 calls of 50 ns each inside a 300 ns launch.
        r.leaves("op.malloc", 4, 200, 1110, 1390);
        r.close(1400);
        r.open("launch.free", "", 1500);
        r.close(1600);
        r.close(2000);
        let own = r.self_times();
        let by_name = |n: &str| own[r.spans().iter().position(|s| s.name == n).unwrap()];
        assert_eq!(by_name("round"), 1000 - 300 - 100);
        assert_eq!(by_name("launch.malloc"), 300 - 200);
        assert_eq!(by_name("op.malloc"), 200);
        assert_eq!(by_name("launch.free"), 100);
        // Parents point at the enclosing span; times are relative to origin.
        let spans = r.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!((spans[1].start, spans[1].end), (100, 400));
        // Children can never drive a self time below zero.
        let mut r = Recorder::new(true, 0);
        r.open("launch", "", 0);
        r.leaves("op", 2, 500, 0, 10);
        r.close(100);
        assert_eq!(r.self_times()[0], 0);
    }

    #[test]
    fn a_resumed_span_counts_only_its_stretches() {
        let mut r = Recorder::new(true, 0);
        r.open("workload", "w", 0);
        let a = r.open("cell", "a", 0);
        r.close(10);
        let b = r.open("cell", "b", 10);
        r.close(30);
        r.resume(a, 30);
        r.open("epoch", 0, 32);
        r.close(38);
        r.close(40);
        r.close(50);
        let spans = r.spans();
        assert_eq!((spans[a].start, spans[a].end, spans[a].busy), (0, 40, 20));
        assert_eq!(spans[b].busy, 20);
        assert_eq!(spans[3].parent, Some(a));
        let own = r.self_times();
        assert_eq!(own[a], 20 - 6);
        assert_eq!(own[0], 50 - 20 - 20);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false, 0);
        r.open("cell", "x", 5);
        r.leaves("op", 3, 9, 5, 9);
        r.close(10);
        assert!(r.spans().is_empty());
        assert_eq!(r.to_json(), Json::Arr(vec![]));
    }

    #[test]
    fn span_file_carries_name_times_and_parent() {
        let mut r = Recorder::new(true, 0);
        r.open("workload", "thread_fixed", 0);
        r.open("cell", "Atomic/s16", 10);
        r.close(20);
        r.close(30);
        let doc = r.to_json();
        let cell = &doc.items()[1];
        assert_eq!(cell.get("name").and_then(Json::as_str), Some("cell"));
        assert_eq!(cell.get("label").and_then(Json::as_str), Some("Atomic/s16"));
        assert_eq!(cell.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(cell.get("self_ns").and_then(Json::as_f64), Some(10.0));
        assert_eq!(doc.items()[0].get("self_ns").and_then(Json::as_f64), Some(20.0));
    }
}
