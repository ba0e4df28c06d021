//! The workspace flight recorder: *where time went* and *how much work
//! ran*, per request, as structured data.
//!
//! Two pillars, joined by one per-thread task context:
//!
//! * **Tracing** ([`span!`], [`Span`], [`export_trace`]): lightweight
//!   span guards with monotonic timestamps, thread IDs, and parent
//!   links, recorded into a bounded in-memory ring buffer and exported
//!   as Chrome trace-event JSON (loadable in Perfetto or
//!   `chrome://tracing`). Tracing is off by default and zero-cost when disabled: every
//!   instrumentation site is gated on one relaxed atomic load, before
//!   any allocation or formatting.
//!
//! * **Metrics** ([`counter`], [`histogram`], [`render_prometheus`]):
//!   a process-wide registry of named monotone counters and
//!   fixed-bucket log-scale (powers of two) histograms, rendered in
//!   the Prometheus text exposition format. Metrics are always on.
//!
//! * **The task context**: each thread's innermost open span and
//!   current [`JobScope`], which collects every [`Counter`] bump made
//!   under it. The rayon shim's one hook, set here, copies the context
//!   onto every worker a parallel operation spawns.
//!
//! Spans answer "which pass/phase was slow on *this* request"; scoped
//! counters answer "how much work did *this* request run"; metrics
//! answer "what does the process look like over its lifetime".

mod context;
mod metrics;
mod span;

pub use context::JobScope;
pub use metrics::{counter, histogram, render_prometheus, Counter, Histogram, BUCKET_COUNT};
pub use span::{
    enabled, event, export_trace, reset, set_enabled, span_begin, span_stats, write_trace, Span,
    SpanStat,
};

/// Opens a [`Span`] guard named by a format string. The span measures
/// from the macro invocation to the guard's drop.
///
/// When tracing is disabled ([`set_enabled`]) the format arguments are
/// **not evaluated** — the whole site costs one relaxed atomic load.
///
/// ```
/// obs::set_enabled(true);
/// {
///     let _outer = obs::span!("flow/{}", "rw");
///     let _inner = obs::span!("map/select");
/// } // both close here
/// let trace = obs::export_trace();
/// assert!(trace.contains("\"flow/rw\""));
/// obs::set_enabled(false);
/// ```
#[macro_export]
macro_rules! span {
    ($($arg:tt)*) => {
        if $crate::enabled() {
            $crate::span_begin(::std::format!($($arg)*))
        } else {
            $crate::Span::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    // The macro is exercised from an integration-style path (`$crate`
    // expands to `obs`): tracing state is process-global, so the span
    // tests live in span.rs under one serializing lock.
}
