//! The benchmark's own span recorder. Spans are recorded from the
//! benchmark's files around each call into a layer (the program's own
//! `obs` tracing stays off), kept in memory, and exported as Chrome-trace
//! JSON when the run ends.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the recorder; 0 is never used.
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// Layer name, e.g. `techmap.map`.
    pub name: &'static str,
    /// Offsets from the recorder's epoch.
    pub start: Duration,
    /// End offset (≥ `start`).
    pub end: Duration,
    /// Recording thread (small dense numbers).
    pub thread: u64,
    /// The server's request id, on `serve-mixed` request spans.
    pub request_id: Option<u64>,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static NUMBER: Cell<u64> = const { Cell::new(0) };
    }
    NUMBER.with(|n| {
        if n.get() == 0 {
            n.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        n.get()
    })
}

impl Tracer {
    /// A fresh span id, for a span whose children are recorded before it
    /// closes.
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records span `id`, which began at `start` and ends now.
    pub fn close(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        request_id: Option<u64>,
    ) {
        let span = Span {
            id,
            parent,
            name,
            start: start.saturating_duration_since(self.epoch),
            end: self.epoch.elapsed(),
            thread: thread_number(),
            request_id,
        };
        self.spans.lock().expect("span list").push(span);
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<R>(&self, parent: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open();
        let start = Instant::now();
        let result = f();
        self.close(id, parent, name, start, None);
        result
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list").clone()
    }

    /// Self time per span name in seconds: each span's duration minus the
    /// part of its interval that its children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: HashMap<u64, Vec<(Duration, Duration)>> = HashMap::new();
        for s in &spans {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get(&s.id)
                .map_or(Duration::ZERO, |c| covered(s.start, s.end, c));
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start - covered).as_secs_f64();
        }
        out
    }

    /// The spans as Chrome trace-event JSON (loadable in Perfetto).
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans()
            .iter()
            .map(|s| {
                let request = s
                    .request_id
                    .map(|r| format!(", \"request_id\": {r}"))
                    .unwrap_or_default();
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \
                     \"dur\": {}, \"args\": {{\"id\": {}, \"parent\": {}{request}}}}}",
                    s.name,
                    s.thread,
                    s.start.as_micros(),
                    (s.end - s.start).as_micros(),
                    s.id,
                    s.parent,
                )
            })
            .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered(start: Duration, end: Duration, intervals: &[(Duration, Duration)]) -> Duration {
    let mut clipped: Vec<(Duration, Duration)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort();
    let mut total = Duration::ZERO;
    let mut reach = start;
    for (s, e) in clipped {
        let from = s.max(reach);
        if e > from {
            total += e - from;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn overlapping_children_count_once() {
        let c = [(ms(1), ms(4)), (ms(2), ms(6)), (ms(8), ms(12))];
        assert_eq!(covered(ms(0), ms(10), &c), ms(7));
        assert_eq!(covered(ms(0), ms(10), &[]), Duration::ZERO);
    }

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::default();
        let root = tracer.open();
        let start = Instant::now();
        tracer.span(root, "child", || std::thread::sleep(ms(20)));
        tracer.close(root, 0, "root", start, None);
        let selfs = tracer.self_seconds();
        assert!(selfs["child"] >= 0.02);
        assert!(selfs["root"] < selfs["child"], "{selfs:?}");
        assert!(tracer.chrome_json().contains("\"name\": \"child\""));
    }
}
