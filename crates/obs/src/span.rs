//! Span guards, the bounded event ring, and the Chrome-trace exporter.

use crate::context;
use crate::metrics::{counter, Counter};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Completed events the ring retains; older events are dropped first.
/// Sized for a full `loadgen` smoke run (hundreds of requests, tens of
/// spans each) while bounding memory to a few megabytes.
const RING_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether tracing is recording. The one branch every disabled
/// instrumentation site pays.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Turns span recording on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// The process trace epoch: every timestamp is microseconds since the
/// first call into the tracing layer.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Span-id allocator (0 is reserved for "no span").
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Trace thread-id allocator (small dense ids, stable per thread).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Child-duration accumulator per open span on this thread's stack
    /// (self time = own duration − accumulated child durations).
    /// Cross-thread children (spans on rayon workers) deliberately do
    /// not subtract: the launching thread is busy working, not waiting.
    static CHILD_ACC: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's trace id.
    static TRACE_TID: Cell<u64> = const { Cell::new(0) };
}

fn trace_tid() -> u64 {
    TRACE_TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Relaxed));
        }
        t.get()
    })
}

/// One recorded argument value.
#[derive(Clone, Debug)]
enum ArgVal {
    U64(u64),
    Str(String),
}

/// One completed ring entry: a closed span or an instant event.
#[derive(Clone, Debug)]
struct Event {
    name: String,
    ts_us: u64,
    /// `Some(duration)` for a completed span, `None` for an instant.
    dur_us: Option<u64>,
    tid: u64,
    id: u64,
    parent: u64,
    args: Vec<(&'static str, ArgVal)>,
}

/// The recorder's state, behind one lock.
struct Ring {
    events: VecDeque<Event>,
    /// Events evicted since the last [`reset`].
    dropped: u64,
    /// Every eviction over the process lifetime, in the metrics frame.
    dropped_total: &'static Counter,
    /// Aggregated per-name statistics: (count, total µs, self µs).
    stats: HashMap<String, (u64, u64, u64)>,
}

impl Ring {
    fn push(&mut self, event: Event) {
        if self.events.len() >= RING_CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
            self.dropped_total.inc();
        }
        self.events.push_back(event);
    }
}

fn ring() -> MutexGuard<'static, Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    let ring = RING.get_or_init(|| {
        Mutex::new(Ring {
            events: VecDeque::new(),
            dropped: 0,
            dropped_total: counter("obs_trace_events_dropped_total"),
            stats: HashMap::new(),
        })
    });
    ring.lock().expect("trace ring")
}

/// An open span. Closing (dropping) the guard records one complete
/// event with the span's duration. Spans are thread-bound: the guard
/// must drop on the thread that opened it (guaranteed for the
/// stack-scoped guards the [`span!`](crate::span!) macro produces).
pub struct Span {
    live: Option<LiveSpan>,
    /// Thread-bound by construction (thread-local parent bookkeeping).
    _not_send: PhantomData<*const ()>,
}

struct LiveSpan {
    name: String,
    id: u64,
    parent: u64,
    start_us: u64,
    args: Vec<(&'static str, ArgVal)>,
}

impl Span {
    /// The inert guard a disabled site returns — no allocation, no
    /// clock read, nothing on drop.
    #[inline]
    pub fn disabled() -> Span {
        Span {
            live: None,
            _not_send: PhantomData,
        }
    }

    /// Attaches a numeric argument (rendered into the trace event's
    /// `args` object). No-op on a disabled guard.
    pub fn record(&mut self, key: &'static str, value: u64) -> &mut Self {
        if let Some(live) = &mut self.live {
            live.args.push((key, ArgVal::U64(value)));
        }
        self
    }

    /// Attaches a string argument. No-op on a disabled guard.
    pub fn record_str(&mut self, key: &'static str, value: &str) -> &mut Self {
        if let Some(live) = &mut self.live {
            live.args.push((key, ArgVal::Str(value.to_owned())));
        }
        self
    }

    /// The span's id (0 on a disabled guard) — what child events will
    /// carry as their parent link.
    pub fn id(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.id)
    }
}

/// Opens a live span (the enabled arm of [`span!`](crate::span!)).
/// Prefer the macro: it skips name formatting when tracing is off.
pub fn span_begin(name: String) -> Span {
    context::propagate();
    let id = NEXT_SPAN.fetch_add(1, Relaxed);
    let parent = context::swap_span(id);
    CHILD_ACC.with(|acc| acc.borrow_mut().push(0));
    Span {
        live: Some(LiveSpan {
            name,
            id,
            parent,
            start_us: now_us(),
            args: Vec::new(),
        }),
        _not_send: PhantomData,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let dur_us = now_us().saturating_sub(live.start_us);
        context::swap_span(live.parent);
        let child_us = CHILD_ACC.with(|acc| {
            let mut acc = acc.borrow_mut();
            let child = acc.pop().unwrap_or(0);
            if let Some(parent_acc) = acc.last_mut() {
                *parent_acc += dur_us;
            }
            child
        });
        let self_us = dur_us.saturating_sub(child_us);
        let mut ring = ring();
        let entry = ring.stats.entry(live.name.clone()).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += dur_us;
        entry.2 += self_us;
        ring.push(Event {
            name: live.name,
            ts_us: live.start_us,
            dur_us: Some(dur_us),
            tid: trace_tid(),
            id: live.id,
            parent: live.parent,
            args: live.args,
        });
    }
}

/// Records an instant event (queue admission, deadline lapse, cache
/// leader/follower election, …) parented to the innermost open span.
/// One atomic load when tracing is off.
pub fn event(name: &str) {
    if !enabled() {
        return;
    }
    ring().push(Event {
        name: name.to_owned(),
        ts_us: now_us(),
        dur_us: None,
        tid: trace_tid(),
        id: 0,
        parent: context::current_span(),
        args: Vec::new(),
    });
}

/// Aggregated statistics of one span name across the process lifetime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanStat {
    /// The span name.
    pub name: String,
    /// How many spans closed under this name.
    pub count: u64,
    /// Summed wall-clock duration, microseconds.
    pub total_us: u64,
    /// Summed self time (duration minus same-thread child durations),
    /// microseconds.
    pub self_us: u64,
}

/// Every span name's aggregated statistics, ordered by self time
/// descending (ties broken by name for a stable order).
pub fn span_stats() -> Vec<SpanStat> {
    let mut out: Vec<SpanStat> = ring()
        .stats
        .iter()
        .map(|(name, &(count, total_us, self_us))| SpanStat {
            name: name.clone(),
            count,
            total_us,
            self_us,
        })
        .collect();
    out.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.name.cmp(&b.name)));
    out
}

/// Clears the event ring, its drop count and the aggregated statistics
/// (the enabled flag is untouched). Open spans still close into the
/// fresh ring.
pub fn reset() {
    let mut ring = ring();
    ring.events.clear();
    ring.dropped = 0;
    ring.stats.clear();
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the ring as Chrome trace-event JSON — loadable in Perfetto
/// or `chrome://tracing`. Spans are complete (`"ph": "X"`) events with
/// microsecond `ts`/`dur`; instants are `"ph": "i"`. Every event's
/// `args` carries the span `id` and `parent` link, so cross-thread
/// nesting (parallel fan-outs) is machine-checkable even where the
/// viewer would only infer nesting from per-thread time containment.
/// The top-level `otherData` object carries `dropped_events`: how many
/// events the ring evicted since the last [`reset`].
pub fn export_trace() -> String {
    let ring = ring();
    let mut out = String::with_capacity(128 + ring.events.len() * 160);
    out.push_str("{\"traceEvents\":[\n");
    for (i, e) in ring.events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"obs\",\"ph\":\"{}\",\"ts\":{},",
            escape_json(&e.name),
            if e.dur_us.is_some() { "X" } else { "i" },
            e.ts_us,
        ));
        if let Some(dur) = e.dur_us {
            out.push_str(&format!("\"dur\":{dur},"));
        } else {
            out.push_str("\"s\":\"t\",");
        }
        out.push_str(&format!(
            "\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}",
            e.tid, e.id, e.parent
        ));
        for (key, value) in &e.args {
            match value {
                ArgVal::U64(v) => out.push_str(&format!(",\"{key}\":{v}")),
                ArgVal::Str(v) => out.push_str(&format!(",\"{key}\":\"{}\"", escape_json(v))),
            }
        }
        out.push_str("}}");
    }
    out.push_str(&format!(
        "\n],\"otherData\":{{\"dropped_events\":{}}}}}\n",
        ring.dropped
    ));
    out
}

/// Writes [`export_trace`] to a file.
///
/// # Errors
///
/// I/O errors from creating or writing the file.
pub fn write_trace(path: &str) -> std::io::Result<()> {
    std::fs::write(path, export_trace())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing state is process-global; serialize the tests that
    /// enable it.
    static TRACE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_nest_and_link_parents() {
        let _guard = TRACE_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        let (outer_id, inner_id) = {
            let outer = crate::span!("outer");
            let inner = crate::span!("inner/{}", 7);
            (outer.id(), inner.id())
        };
        set_enabled(false);
        let trace = export_trace();
        assert!(trace.contains("\"outer\""), "{trace}");
        assert!(trace.contains("\"inner/7\""), "{trace}");
        assert!(
            trace.contains(&format!("\"id\":{inner_id},\"parent\":{outer_id}")),
            "inner must link to outer: {trace}"
        );
        let stats = span_stats();
        let outer = stats.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(outer.count, 1);
        assert!(
            outer.self_us <= outer.total_us,
            "self time cannot exceed total"
        );
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TRACE_LOCK.lock().unwrap();
        set_enabled(false);
        reset();
        {
            let mut s = crate::span!("ghost");
            s.record("x", 1);
            assert_eq!(s.id(), 0);
        }
        event("ghost-event");
        assert!(!export_trace().contains("ghost"));
        assert!(span_stats().is_empty());
    }

    #[test]
    fn spans_propagate_to_parallel_workers() {
        use rayon::prelude::*;
        let _guard = TRACE_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        let root_id = {
            let root = crate::span!("par-root");
            (0..32usize).into_par_iter().for_each(|i| {
                let _child = crate::span!("par-child/{}", i % 2);
            });
            root.id()
        };
        set_enabled(false);
        let trace = export_trace();
        // Every worker-side span must link to the launching span.
        let needle = format!("\"parent\":{root_id}");
        let linked = trace.matches(&needle).count();
        assert!(
            linked >= 32,
            "all 32 worker spans must parent to the root: {linked} in {trace}"
        );
    }

    /// The shim's one hook carries the whole context: every worker task
    /// sees both the launching span and the launching scope.
    #[test]
    fn one_hook_carries_span_and_scope() {
        use rayon::prelude::*;
        let _guard = TRACE_LOCK.lock().unwrap();
        let bumps = counter("obs_test_hook_bumps");
        set_enabled(true);
        reset();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build();
        let scope = crate::JobScope::begin();
        let root = crate::span!("hook-root");
        pool.expect("shim pools build").install(|| {
            (0..32usize).into_par_iter().for_each(|_| {
                let _child = crate::span!("hook-child");
                bumps.inc();
            });
        });
        set_enabled(false);
        let link = format!("\"parent\":{}}}", root.id());
        let trace = export_trace();
        let children = trace.lines().filter(|l| l.contains("\"hook-child\""));
        assert_eq!(
            children.filter(|l| l.contains(&link)).count(),
            32,
            "{trace}"
        );
        assert_eq!(scope.get(bumps), 32, "every worker bump lands in the scope");
    }

    #[test]
    fn events_and_args_render() {
        let _guard = TRACE_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        {
            let mut s = crate::span!("request");
            s.record("request_id", 42).record_str("name", "C1355");
            event("cache/leader");
        }
        set_enabled(false);
        let trace = export_trace();
        assert!(trace.contains("\"request_id\":42"), "{trace}");
        assert!(trace.contains("\"name\":\"C1355\""), "{trace}");
        assert!(trace.contains("\"cache/leader\""), "{trace}");
        assert!(trace.contains("\"ph\":\"i\""), "{trace}");
    }

    #[test]
    fn ring_is_bounded() {
        let _guard = TRACE_LOCK.lock().unwrap();
        let dropped_total = counter("obs_trace_events_dropped_total");
        set_enabled(true);
        reset();
        let before = dropped_total.get();
        for i in 0..(RING_CAPACITY + 100) {
            event(&format!("e{i}"));
        }
        set_enabled(false);
        let len = ring().events.len();
        assert!(len <= RING_CAPACITY, "ring overflowed: {len}");
        assert_eq!(dropped_total.get() - before, 100, "every eviction counts");
        assert!(export_trace().ends_with(",\"otherData\":{\"dropped_events\":100}}\n"));
        reset();
        assert!(export_trace().contains("\"dropped_events\":0"));
    }
}
