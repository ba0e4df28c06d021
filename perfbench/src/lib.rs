//! The repository's benchmark: three workloads that drive the
//! characterize → synthesize → map → verify → estimate stack and the
//! `synthd` server through their public entry points, report end-to-end
//! metrics measured with tracing off, and re-drive the same work through
//! the per-layer calls with a span around each to report where the time
//! went.
//!
//! * [`table1`] — `table1-choices`: the paper's Table 1 (12 catalog
//!   circuits × 3 gate families) through `experiments::table1_subset`;
//! * [`scale`] — `scale-rand`: the scale harness's random circuit of
//!   ≈ 56k ANDs through `engine::synthesize_with_choices` +
//!   `pipeline::run_job`;
//! * [`serve`] — `serve-mixed`: an in-process `synthd` under a closed loop
//!   of two clients sending catalog hits mixed with never-seen circuits.
//!
//! Around them: [`setup`] (the cold-build set-up time and the timed-run
//! guards), [`layers`] (the per-layer calls), [`trace`] (the in-memory
//! span recorder), [`check`] (the output check that shares no code with
//! the SAT sweeper), [`host`] (host record and process usage) and
//! [`report`] (the metric catalogue and the result line).

pub mod check;
pub mod host;
pub mod layers;
pub mod report;
pub mod scale;
pub mod serve;
pub mod setup;
pub mod table1;
pub mod trace;

/// The splitmix64 finalizer: every generator and pattern seed is derived
/// from the workload seed through it, so neighbouring workload seeds give
/// unrelated inputs (`random_kregular` alone maps seeds `2k` and `2k + 1`
/// to the same circuit).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream of the power-estimation (and simulation-verification) pattern
/// seed.
pub const PATTERN_STREAM: u64 = 1;
/// Stream of the random-circuit generator seeds.
pub const GENERATOR_STREAM: u64 = 2;
/// Stream of the request order on `serve-mixed`.
pub const ORDER_STREAM: u64 = 3;

/// The seed of one independent input stream (`stream` names its use)
/// derived from the workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ stream)
}

/// Shuffles `items` (Fisher–Yates) with a splitmix64 stream from `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = splitmix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// Median of `values` (the mean of the middle pair for an even count; 0
/// for none).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0..=1) of `values` (0 for none).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A one-thread rayon pool: every workload runs its jobs' parallel loops
/// under it, never under whatever the environment says. (The rayon
/// stand-in spawns threads per topological level, which makes wider pools
/// slower and too unsteady to bound; see the `serve` module.)
pub fn one_thread_pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool builder cannot fail for n >= 1")
}

/// Runs `unit` back to back until `seconds` have passed (at least once),
/// returning each run's wall-clock seconds and result.
pub fn repeat_for<R>(seconds: f64, mut unit: impl FnMut() -> R) -> Vec<(f64, R)> {
    let started = std::time::Instant::now();
    let mut runs = Vec::new();
    while runs.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let t = std::time::Instant::now();
        let result = unit();
        runs.push((t.elapsed().as_secs_f64(), result));
    }
    runs
}
