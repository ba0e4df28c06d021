//! The engine's work counters: eight `obs` counters, `aig_cuts_reused_total`
//! … `aig_refine_rounds_total`, bumped by the hot loops (cut enumeration,
//! SAT sweeping, signature simulation). [`Counters`] is their typed view:
//! [`snapshot`] reads the monotone process-wide totals (consumers work
//! with deltas between two snapshots), and [`scoped`] reads exactly one
//! job's share, as collected by an [`obs::JobScope`].

use obs::{Counter, JobScope};
use std::sync::OnceLock;

/// One value per engine counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Cut sets a [`CutDb::ensure`](crate::CutDb::ensure) found already
    /// filled (a warm mapper database mapping one network again).
    pub cuts_reused: u64,
    /// Cut sets enumerated from fanin cut sets.
    pub cuts_computed: u64,
    /// SAT equivalence queries issued by the sweeper.
    pub sat_merge_calls: u64,
    /// Queries that proved equivalence (a merge happened).
    pub sat_merge_proven: u64,
    /// Queries refuted by a counterexample.
    pub sat_merge_refuted: u64,
    /// Queries abandoned at the conflict budget.
    pub sat_merge_budget_out: u64,
    /// 64-pattern signature words evaluated (node visits × words).
    pub sim_words: u64,
    /// Signature-refinement rounds (class rebuilds) in the sweeper.
    pub refine_rounds: u64,
    /// Always 0: the engine dispatches no tasks of its own. Kept only
    /// because the frozen benchmark harness reads it; it is not one of
    /// the counters [`Counters::pairs`] lists.
    pub par_tasks: u64,
}

impl Counters {
    /// The view of values given in [`Counters::pairs`] order.
    fn from_values(v: [u64; 8]) -> Counters {
        Counters {
            cuts_reused: v[0],
            cuts_computed: v[1],
            sat_merge_calls: v[2],
            sat_merge_proven: v[3],
            sat_merge_refuted: v[4],
            sat_merge_budget_out: v[5],
            sim_words: v[6],
            refine_rounds: v[7],
            par_tasks: 0,
        }
    }

    /// Counter-by-counter difference `self - earlier` (saturating, so a
    /// stale snapshot can never underflow).
    pub fn delta_since(&self, earlier: &Counters) -> Counters {
        let (now, then) = (self.pairs(), earlier.pairs());
        Counters::from_values(std::array::from_fn(|i| now[i].1.saturating_sub(then[i].1)))
    }

    /// The counters as `(name, value)` pairs, in a stable order — the one
    /// serialization (telemetry, bench JSON) iterates. Each counter's
    /// `obs` name is `aig_{name}_total`.
    pub fn pairs(&self) -> [(&'static str, u64); 8] {
        [
            ("cuts_reused", self.cuts_reused),
            ("cuts_computed", self.cuts_computed),
            ("sat_merge_calls", self.sat_merge_calls),
            ("sat_merge_proven", self.sat_merge_proven),
            ("sat_merge_refuted", self.sat_merge_refuted),
            ("sat_merge_budget_out", self.sat_merge_budget_out),
            ("sim_words", self.sim_words),
            ("refine_rounds", self.refine_rounds),
        ]
    }

    /// Whether every counter is zero (an empty delta).
    pub fn is_zero(&self) -> bool {
        self.pairs().iter().all(|&(_, v)| v == 0)
    }
}

/// Reads the process-wide totals.
pub fn snapshot() -> Counters {
    Counters::from_values(handles().map(Counter::get))
}

/// Reads what `scope` has collected of each engine counter.
pub fn scoped(scope: &JobScope) -> Counters {
    Counters::from_values(handles().map(|c| scope.get(c)))
}

/// One engine counter, by its position in [`Counters::pairs`].
pub(crate) enum Work {
    CutsReused,
    CutsComputed,
    SatMergeCalls,
    SatMergeProven,
    SatMergeRefuted,
    SatMergeBudgetOut,
    SimWords,
    RefineRounds,
}

/// Adds `n` to one engine counter.
pub(crate) fn add(work: Work, n: u64) {
    handles()[work as usize].add(n);
}

/// The eight `obs` handles in [`Counters::pairs`] order, registered together.
fn handles() -> &'static [&'static Counter; 8] {
    static HANDLES: OnceLock<[&'static Counter; 8]> = OnceLock::new();
    HANDLES.get_or_init(|| {
        Counters::default()
            .pairs()
            .map(|(name, _)| obs::counter(&format!("aig_{name}_total")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_are_monotone_and_saturating() {
        let before = snapshot();
        add(Work::CutsReused, 3);
        add(Work::CutsComputed, 2);
        add(Work::RefineRounds, 1);
        let after = snapshot();
        let d = after.delta_since(&before);
        // Other tests may run concurrently and also bump the globals, so
        // only lower bounds are stable.
        assert!(d.cuts_reused >= 3);
        assert!(d.cuts_computed >= 2);
        assert!(d.refine_rounds >= 1);
        // Reversed order saturates to zero instead of wrapping.
        let z = before.delta_since(&after);
        assert_eq!(z.cuts_reused, 0);
        assert!(!d.is_zero());
    }

    #[test]
    fn counters_are_named_obs_counters() {
        let scope = JobScope::begin();
        add(Work::CutsComputed, 2);
        add(Work::RefineRounds, 9);
        let c = scoped(&scope);
        assert_eq!((c.cuts_reused, c.cuts_computed, c.refine_rounds), (0, 2, 9));
        let metrics = obs::render_prometheus();
        for (name, _) in c.pairs() {
            assert!(metrics.contains(&format!("\naig_{name}_total ")), "{name}");
        }
    }

    #[test]
    fn pairs_cover_every_field() {
        let c = Counters {
            cuts_reused: 1,
            cuts_computed: 2,
            sat_merge_calls: 3,
            sat_merge_proven: 4,
            sat_merge_refuted: 5,
            sat_merge_budget_out: 6,
            sim_words: 7,
            refine_rounds: 8,
            par_tasks: 9,
        };
        let sum: u64 = c.pairs().iter().map(|&(_, v)| v).sum();
        assert_eq!(sum, 36, "every field but par_tasks appears once");
    }
}
