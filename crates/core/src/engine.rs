//! The experiment engine: once-per-process caches for the expensive
//! mapping state and the synthesis front end every driver shares.
//!
//! Two kinds of state are cached behind `OnceLock`s, each built **exactly
//! once per process** no matter how many call sites ask:
//!
//! * [`library`] — the [`CharacterizedLibrary`] of a [`GateFamily`]
//!   (46 cells × leakage patterns through the spice-lite solver; seconds
//!   of work). Test hook: [`characterization_count`].
//! * [`match_cache`] — the immutable [`NpnMatchCache`] of a family (every
//!   cell NPN-canonized once). All circuits and all worker threads share
//!   one instance; a mapping run only allocates its per-run canonization
//!   memo. Test hook: [`match_cache_build_count`].
//! * [`rewrite_library`] — the NPN-class optimal-subgraph library the
//!   `rw` synthesis pass rewrites against (one instance per process,
//!   shared by every flow run on every thread; the drivers warm it before
//!   fanning out so no worker pays the build). Test hook:
//!   [`rewrite_library_build_count`].
//!
//! Besides the caches, the engine owns the synthesis front end every
//! driver shares: [`parse_flow`] turns the configured flow script into an
//! [`aig::Flow`] (appending `dch` for choice-aware mapping) and
//! [`synthesize_with_choices`] runs it on one circuit. The Table-1 driver
//! built on top is [`table1_subset`](crate::experiments::table1_subset).

use crate::pipeline::PipelineError;
use aig::ChoiceAig;
use charlib::{characterize_library, CharacterizedLibrary};
use gate_lib::GateFamily;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use techmap::NpnMatchCache;

static LIBRARIES: [OnceLock<CharacterizedLibrary>; GateFamily::ALL.len()] =
    [OnceLock::new(), OnceLock::new(), OnceLock::new()];

static MATCH_CACHES: [OnceLock<NpnMatchCache>; GateFamily::ALL.len()] =
    [OnceLock::new(), OnceLock::new(), OnceLock::new()];

/// Characterization runs performed by [`library`] in this process.
static CHARACTERIZATIONS: AtomicUsize = AtomicUsize::new(0);

/// NPN match-cache builds performed by [`match_cache`] in this process.
static MATCH_CACHE_BUILDS: AtomicUsize = AtomicUsize::new(0);

fn family_index(family: GateFamily) -> usize {
    GateFamily::ALL
        .iter()
        .position(|&f| f == family)
        .expect("every family appears in GateFamily::ALL")
}

/// The process-wide characterized library for `family`.
///
/// The first call per family runs [`characterize_library`]; every later
/// call (from any thread) returns the same `&'static` reference. Use this
/// instead of calling `characterize_library` directly unless you need a
/// non-default technology point (e.g. a V_DD sweep) or are deliberately
/// timing cold characterization.
pub fn library(family: GateFamily) -> &'static CharacterizedLibrary {
    LIBRARIES[family_index(family)].get_or_init(|| {
        CHARACTERIZATIONS.fetch_add(1, Ordering::Relaxed);
        characterize_library(family)
    })
}

/// The process-wide NPN match cache for `family`.
///
/// Built from the family's generated cell list on first use — no library
/// characterization required, so this is cheap to warm and valid for
/// *every* technology point of the family (the class table depends only
/// on cell functions). Every mapping run in the process shares the one
/// instance; [`match_cache_build_count`] counts the builds.
pub fn match_cache(family: GateFamily) -> &'static NpnMatchCache {
    MATCH_CACHES[family_index(family)].get_or_init(|| {
        MATCH_CACHE_BUILDS.fetch_add(1, Ordering::Relaxed);
        NpnMatchCache::for_family(family).expect("every built-in family provides an INV cell")
    })
}

/// All three libraries in Table-1 column order, characterizing any that
/// are not cached yet.
pub fn libraries() -> [&'static CharacterizedLibrary; 3] {
    [
        library(GateFamily::CntfetGeneralized),
        library(GateFamily::CntfetConventional),
        library(GateFamily::Cmos),
    ]
}

/// How many characterization runs the cache has performed in this process
/// (test hook: after any number of engine calls this is at most 3).
pub fn characterization_count() -> usize {
    CHARACTERIZATIONS.load(Ordering::Relaxed)
}

/// How many NPN match caches have been built in this process (test hook:
/// at most one per gate family, however many circuits were mapped).
pub fn match_cache_build_count() -> usize {
    MATCH_CACHE_BUILDS.load(Ordering::Relaxed)
}

/// The process-wide rewrite library (the per-NPN-class optimal subgraphs
/// the `rw` pass instantiates). The `OnceLock` lives in `aig::rewrite` so
/// the pass itself can reach it; this accessor is the engine-level warm
/// point — the Table-1 driver calls it once before fanning out whenever
/// the configured flow contains a rewrite pass.
pub fn rewrite_library() -> &'static aig::RewriteLibrary {
    aig::rewrite::library()
}

/// How many times the rewrite library has been built in this process
/// (test hook: at most once, however many flows ran on however many
/// threads).
pub fn rewrite_library_build_count() -> usize {
    aig::rewrite::library_build_count()
}

/// Parses the configured flow script, appending a `dch` step when
/// choice-aware mapping is requested on a script that has none.
///
/// # Errors
///
/// [`PipelineError::Flow`] on a malformed script.
pub fn parse_flow(pipeline: &crate::pipeline::PipelineConfig) -> Result<aig::Flow, PipelineError> {
    let flow = aig::Flow::parse(&pipeline.flow)?;
    Ok(if pipeline.choices {
        flow.with_choices()
    } else {
        flow
    })
}

/// Synthesizes one benchmark through the flow, collecting the choice
/// network when [`PipelineConfig::choices`](crate::pipeline::PipelineConfig::choices)
/// asks for it (the flow is assumed to already carry a `dch` step — see
/// [`parse_flow`]).
pub fn synthesize_with_choices(
    flow: &aig::Flow,
    aig: &aig::Aig,
    pipeline: &crate::pipeline::PipelineConfig,
) -> (aig::Aig, Option<ChoiceAig>) {
    if pipeline.choices {
        let (synthesized, choices, _) = flow.run_with_choices(aig);
        (synthesized, choices)
    } else {
        (flow.run(aig), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{table1_subset, Table1Config};
    use std::sync::{Mutex, PoisonError};

    /// Asserts the Table-1 driver's tables identical, every field at full
    /// precision, under a one-thread and a two-thread rayon pool. The pool
    /// override is process-global, so installs are serialized across this
    /// binary's tests: concurrent ones could leave both runs one thread wide.
    fn assert_thread_count_invariant(config: &Table1Config, names: &[&str]) {
        static POOL_LOCK: Mutex<()> = Mutex::new(());
        let _guard = POOL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let run = |threads| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
            let table = pool
                .expect("n >= 1")
                .install(|| table1_subset(config, Some(names)));
            format!("{:?}", table.expect("built-in benchmarks map").rows)
        };
        assert_eq!(run(1), run(2), "{names:?}: tables differ by thread count");
    }

    #[test]
    fn cache_returns_one_static_instance_per_family() {
        let before = characterization_count();
        let a = library(GateFamily::CntfetGeneralized);
        let mid = characterization_count();
        let b = library(GateFamily::CntfetGeneralized);
        let after = characterization_count();
        // Same allocation, not merely equal contents.
        assert!(std::ptr::eq(a, b));
        // The second call never re-characterizes; the first did at most
        // once (zero if another test already warmed the cache).
        assert!(mid - before <= 1, "first call ran {} times", mid - before);
        assert_eq!(mid, after, "second call must hit the cache");
        assert!(characterization_count() <= GateFamily::ALL.len());
    }

    #[test]
    fn match_cache_builds_exactly_once_per_family() {
        let before = match_cache_build_count();
        let a = match_cache(GateFamily::Cmos);
        let mid = match_cache_build_count();
        let b = match_cache(GateFamily::Cmos);
        let after = match_cache_build_count();
        assert!(std::ptr::eq(a, b), "same shared instance on every access");
        assert!(mid - before <= 1, "first call built {} times", mid - before);
        assert_eq!(mid, after, "second call must hit the cache");

        // Driving circuits through the engine must not rebuild caches.
        let config = Table1Config {
            pipeline: crate::pipeline::PipelineConfig {
                patterns: 512,
                ..Default::default()
            },
        };
        let names = Some(&["t481"][..]);
        let warm = match_cache_build_count();
        table1_subset(&config, names).expect("built-in benchmarks map");
        table1_subset(&config, names).expect("built-in benchmarks map");
        assert_eq!(
            match_cache_build_count(),
            warm.max(GateFamily::ALL.len()),
            "table runs must reuse the shared match caches"
        );
        assert!(match_cache_build_count() <= GateFamily::ALL.len());
    }

    #[test]
    fn rewrite_library_is_shared_and_built_at_most_once() {
        let a = rewrite_library();
        let b = rewrite_library();
        assert!(std::ptr::eq(a, b), "same shared instance on every access");
        assert_eq!(a.class_count(), 222, "all 4-variable NPN classes");
        assert!(rewrite_library_build_count() <= 1);
    }

    #[test]
    fn malformed_flow_is_a_typed_error_not_a_panic() {
        let config = Table1Config {
            pipeline: crate::pipeline::PipelineConfig {
                flow: "b; frobnicate".to_owned(),
                patterns: 64,
                ..Default::default()
            },
        };
        let err = table1_subset(&config, Some(&["t481"])).unwrap_err();
        assert!(matches!(err, PipelineError::Flow(_)), "{err}");
    }

    #[test]
    fn custom_flow_threads_through_the_table_drivers() {
        // A balance-only flow must hand the mapper a network no smaller
        // than the default flow's (which rewrites and refactors too) —
        // and both must run end to end through the parallel driver.
        let pipeline = crate::pipeline::PipelineConfig {
            patterns: 256,
            ..Default::default()
        };
        let names = Some(&["t481"][..]);
        let default_run = table1_subset(
            &Table1Config {
                pipeline: pipeline.clone(),
            },
            names,
        )
        .expect("default flow maps");
        let balance_only = table1_subset(
            &Table1Config {
                pipeline: crate::pipeline::PipelineConfig {
                    flow: "b".to_owned(),
                    ..pipeline
                },
            },
            names,
        )
        .expect("balance-only flow maps");
        assert!(
            default_run.rows[0].ands <= balance_only.rows[0].ands,
            "default {} vs balance-only {}",
            default_run.rows[0].ands,
            balance_only.rows[0].ands
        );
        assert!(default_run.rows[0].depth > 0);
    }

    #[test]
    fn choice_mapping_never_regresses_and_records_the_delta() {
        let pipeline = crate::pipeline::PipelineConfig {
            patterns: 256,
            choices: true,
            ..Default::default()
        };
        let names = Some(&["t481"][..]);
        let table =
            table1_subset(&Table1Config { pipeline }, names).expect("choice-aware run maps");
        for r in &table.rows[0].results {
            // Default objective is Delay: the portfolio arbitrates on
            // STA critical path, so the delay guarantee holds (gates may
            // go either way — the delta is recorded, not bounded).
            assert!(r.gates_no_choice.is_some());
            let plain_delay = r
                .delay_no_choice
                .expect("choice runs record the no-choice STA delay")
                .value();
            assert!(
                r.delay.value() <= plain_delay * (1.0 + 1e-9),
                "the delay portfolio must never keep a slower mapping: {} vs {plain_delay}",
                r.delay.value()
            );
        }
        // Under the area objective the original gate-count guarantee
        // still holds.
        let area_pipeline = crate::pipeline::PipelineConfig {
            patterns: 256,
            choices: true,
            map: techmap::MapConfig::for_objective(techmap::Objective::Area),
            ..Default::default()
        };
        let area_table = table1_subset(
            &Table1Config {
                pipeline: area_pipeline,
            },
            names,
        )
        .expect("area choice-aware run maps");
        for r in &area_table.rows[0].results {
            let plain = r
                .gates_no_choice
                .expect("choice runs record the no-choice gate count");
            assert!(
                r.gates <= plain,
                "the area portfolio must never keep a worse choice mapping: {} vs {plain}",
                r.gates
            );
        }
        // Without choices, no delta is recorded.
        let base = table1_subset(
            &Table1Config {
                pipeline: crate::pipeline::PipelineConfig {
                    patterns: 256,
                    ..Default::default()
                },
            },
            names,
        )
        .expect("plain run maps");
        assert!(base.rows[0].results[0].gates_no_choice.is_none());
    }

    #[test]
    fn parallel_and_serial_tables_agree_with_choices() {
        let config = Table1Config {
            pipeline: crate::pipeline::PipelineConfig {
                patterns: 512,
                choices: true,
                verify: techmap::Verify::Sat,
                ..Default::default()
            },
        };
        assert_thread_count_invariant(&config, &["C1908"]);
    }

    #[test]
    fn parallel_and_serial_tables_agree() {
        let config = Table1Config {
            pipeline: crate::pipeline::PipelineConfig {
                patterns: 2048,
                ..Default::default()
            },
        };
        assert_thread_count_invariant(&config, &["C1355"]);
        assert!(characterization_count() <= GateFamily::ALL.len());
    }
}
