//! Set-up: the cold build of the warm state every workload starts from,
//! timed so that it repeats, and the guards that keep set-up (and
//! tracing) out of the timed runs.

use ambipolar::engine;
use gate_lib::GateFamily;
use std::hint::black_box;
use std::time::Instant;

/// Cold builds per sample. A run takes one sample before its timed runs
/// and one after, and `setup_s` is the median of both: one build takes
/// about 20 ms (2-vCPU host), and the host's speed drifts over seconds,
/// so builds taken at one moment all read fast or all read slow.
pub const REPEATS: usize = 9;

/// Timings of cold builds of the warm state — three characterized
/// libraries, three NPN match caches and the rewrite library, plus a
/// `synthd` start and stop when a server configuration is given.
#[derive(Debug, Default)]
pub struct ColdBuilds {
    server: Option<serve::ServerConfig>,
    /// Seconds per build: the whole build, then the characterizations, the
    /// match caches and the rewrite library.
    samples: [Vec<f64>; 4],
}

impl ColdBuilds {
    /// No builds yet; each build also starts and stops `server`, if given.
    pub fn new(server: Option<serve::ServerConfig>) -> Self {
        ColdBuilds {
            server,
            samples: Default::default(),
        }
    }

    /// Times [`REPEATS`] more cold builds.
    pub fn sample(&mut self) {
        for _ in 0..REPEATS {
            let t0 = Instant::now();
            for family in GateFamily::ALL {
                black_box(charlib::characterize_library(family));
            }
            let t1 = Instant::now();
            for family in GateFamily::ALL {
                black_box(
                    techmap::NpnMatchCache::for_family(family).expect("every family has an INV"),
                );
            }
            let t2 = Instant::now();
            black_box(aig::RewriteLibrary::new());
            let t3 = Instant::now();
            if let Some(config) = &self.server {
                serve::Server::start(config.clone())
                    .expect("a local server binds")
                    .shutdown();
            }
            let t4 = Instant::now();
            for (sample, (from, to)) in
                self.samples
                    .iter_mut()
                    .zip([(t0, t4), (t0, t1), (t1, t2), (t2, t3)])
            {
                sample.push((to - from).as_secs_f64());
            }
        }
    }

    /// Records the medians as `setup_s` and the three builders' metrics.
    pub fn report(&self, outcome: &mut crate::report::Outcome) {
        let names = [
            "setup_s",
            "charlib.characterize_s",
            "techmap.match_cache_s",
            "aig.rewrite_library_s",
        ];
        for (name, sample) in names.into_iter().zip(&self.samples) {
            outcome.set(name, crate::median(sample));
        }
    }
}

/// Builds the engine's process-wide caches, which the timed runs use.
pub fn warm() {
    engine::libraries();
    for family in GateFamily::ALL {
        engine::match_cache(family);
    }
    engine::rewrite_library();
}

/// Guards around a timed run: the program's own tracing must be off (a
/// timed run measures the untraced program), and the engine's warm state
/// must have been built at most once per family — a rebuild inside the
/// timed region would charge set-up to `wall_s`.
pub fn assert_guards() {
    assert!(!obs::enabled(), "obs tracing must stay off in timed runs");
    let builds = (
        engine::characterization_count(),
        engine::match_cache_build_count(),
        engine::rewrite_library_build_count(),
    );
    assert!(
        builds.0 <= 3 && builds.1 <= 3 && builds.2 <= 1,
        "the engine rebuilt its warm state (characterizations, match caches, rewrite libraries) = {builds:?}"
    );
}
