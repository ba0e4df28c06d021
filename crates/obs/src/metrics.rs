//! The process-wide metrics registry: named monotone counters and
//! fixed-bucket log-scale histograms, rendered in the Prometheus text
//! exposition format.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Finite histogram buckets. Bucket `i` has upper bound `2^i`
/// (1 µs … ~134 s for microsecond observations); one extra overflow
/// bucket catches everything larger, so no observation is dropped.
pub const BUCKET_COUNT: usize = 28;

/// A monotone counter. Obtain a handle once via [`counter`]; bumping
/// is one relaxed atomic add (and an add to the thread's open
/// [`JobScope`](crate::JobScope), if any).
pub struct Counter {
    value: AtomicU64,
    /// Dense registration index: the counter's slot in a scope.
    pub(crate) id: usize,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
        crate::context::record(self.id, n);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// A fixed-bucket log-scale histogram (powers of two). Obtain a handle
/// once via [`histogram`]; observing is two relaxed atomic adds.
pub struct Histogram {
    /// Per-bucket counts; index [`BUCKET_COUNT`] is the overflow
    /// (`+Inf`) bucket.
    buckets: [AtomicU64; BUCKET_COUNT + 1],
    sum: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        // Upper bound 2^i holds values with ilog2 < i … i.e. the first
        // bucket whose bound is >= value. 0 and 1 land in bucket 0.
        let idx = if value <= 1 {
            0
        } else {
            let lg = 63 - u64::leading_zeros(value - 1) as usize;
            (lg + 1).min(BUCKET_COUNT)
        };
        self.buckets[idx].fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }
}

enum Metric {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
}

/// Name → interned metric. `BTreeMap` keeps [`render_prometheus`]
/// output deterministically ordered. A type-confusion panic fires under
/// the lock but after the map is complete, so a poisoned lock is entered
/// anyway instead of failing every later metric call in the process.
fn registry() -> MutexGuard<'static, BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()));
    registry.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Returns the counter registered under `name`, creating (and leaking
/// — the registry lives for the process) it on first use. Call once
/// per site and reuse the handle in hot loops.
///
/// # Panics
///
/// If `name` is already registered as a histogram.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry();
    let id = reg.len();
    match reg.entry(name.to_owned()).or_insert_with(|| {
        Metric::Counter(Box::leak(Box::new(Counter {
            value: AtomicU64::new(0),
            id,
        })))
    }) {
        Metric::Counter(c) => c,
        Metric::Histogram(_) => panic!("metric {name:?} is a histogram, not a counter"),
    }
}

/// Returns the histogram registered under `name`, creating it on first
/// use. Same interning contract as [`counter`].
///
/// # Panics
///
/// If `name` is already registered as a counter.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut reg = registry();
    match reg.entry(name.to_owned()).or_insert_with(|| {
        Metric::Histogram(Box::leak(Box::new(Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKET_COUNT + 1],
            sum: AtomicU64::new(0),
        })))
    }) {
        Metric::Histogram(h) => h,
        Metric::Counter(_) => panic!("metric {name:?} is a counter, not a histogram"),
    }
}

/// Renders every registered metric in the Prometheus text exposition
/// format (v0.0.4): `# TYPE` lines, cumulative `_bucket{le="..."}`
/// series, `_sum` and `_count`. Metric order is name-sorted and thus
/// stable across runs.
pub fn render_prometheus() -> String {
    let reg = registry();
    let mut out = String::new();
    for (name, metric) in reg.iter() {
        match metric {
            Metric::Counter(c) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
            }
            Metric::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let mut cumulative = 0u64;
                for (i, bucket) in h.buckets.iter().enumerate() {
                    cumulative += bucket.load(Relaxed);
                    if i < BUCKET_COUNT {
                        out.push_str(&format!(
                            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                            1u64 << i
                        ));
                    } else {
                        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                    }
                }
                out.push_str(&format!("{name}_sum {}\n", h.sum()));
                out.push_str(&format!("{name}_count {}\n", h.count()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_and_accumulate() {
        let c = counter("obs_test_counter");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        // Same name returns the same interned handle.
        assert!(std::ptr::eq(c, counter("obs_test_counter")));
    }

    #[test]
    fn histogram_buckets_values_by_power_of_two() {
        let h = histogram("obs_test_hist_buckets");
        // Bucket bound 2^i: 1 → bucket 0, 2 → bucket 1, 3..=4 → 2, …
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(4);
        h.observe(5);
        h.observe(u64::MAX); // overflow bucket
        assert_eq!(h.buckets[0].load(Relaxed), 2); // 0, 1
        assert_eq!(h.buckets[1].load(Relaxed), 1); // 2
        assert_eq!(h.buckets[2].load(Relaxed), 2); // 3, 4
        assert_eq!(h.buckets[3].load(Relaxed), 1); // 5
        assert_eq!(h.buckets[BUCKET_COUNT].load(Relaxed), 1);
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_sorted() {
        counter("obs_test_render_a").add(3);
        let h = histogram("obs_test_render_b");
        h.observe(1);
        h.observe(100);
        let text = render_prometheus();
        assert!(text.contains("# TYPE obs_test_render_a counter\nobs_test_render_a 3\n"));
        assert!(text.contains("# TYPE obs_test_render_b histogram\n"));
        assert!(text.contains("obs_test_render_b_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("obs_test_render_b_sum 101\n"));
        assert!(text.contains("obs_test_render_b_count 2\n"));
        // Cumulative: the le="128" bucket already includes both.
        assert!(text.contains("obs_test_render_b_bucket{le=\"128\"} 2\n"));
        // Sorted: _a renders before _b.
        let a = text.find("obs_test_render_a ").unwrap();
        let b = text.find("obs_test_render_b_sum").unwrap();
        assert!(a < b);
    }

    #[test]
    #[should_panic(expected = "is a counter")]
    fn type_confusion_panics() {
        counter("obs_test_confused");
        histogram("obs_test_confused");
    }
}
