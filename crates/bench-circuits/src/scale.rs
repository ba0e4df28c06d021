//! Deterministic synthetic workloads at industrial scale (ROADMAP item
//! 2): wide array multipliers, deep adder/XOR trees, and seeded random
//! k-regular AIGs, parameterized by a target AND count (10k / 100k / 1M).
//!
//! The paper catalog tops out near 2.5k ANDs per circuit; these
//! generators stress the synthesis hot loops — cut enumeration, rewrite
//! scoring, SAT-sweep signature propagation — at EPFL/IWLS scale. Every
//! generator is a pure function of its parameters (the random generator
//! is an explicitly seeded xorshift), so the `scale` bin, the
//! determinism tests, and CI all see byte-identical circuits.

use crate::multiplier::multiplier_circuit;
use crate::words::{bitwise, ripple_add, Word};
use aig::{Aig, Lit};

/// One named scale workload: the unit the `scale` bin iterates over.
#[derive(Clone, Copy, Debug)]
pub struct ScaleSpec {
    /// Generator family name (stable across sizes; used in JSON keys).
    pub family: &'static str,
    /// Requested AND count; the generated circuit lands within roughly
    /// ±20% (generators round to their natural structural granularity).
    pub target_ands: usize,
}

/// The standard workload set at one target size: one circuit per
/// generator family.
pub fn workloads(target_ands: usize) -> Vec<(ScaleSpec, Aig)> {
    vec![
        (
            ScaleSpec {
                family: "mult",
                target_ands,
            },
            wide_multiplier(target_ands),
        ),
        (
            ScaleSpec {
                family: "tree",
                target_ands,
            },
            adder_xor_tree(target_ands),
        ),
        (
            ScaleSpec {
                family: "rand",
                target_ands,
            },
            random_kregular(target_ands, 0x5CA1_AB1E),
        ),
    ]
}

/// A wide `n × n` carry-save array multiplier sized to roughly
/// `target_ands` AND nodes (the XOR-rich datapath workload; C6288 scaled
/// up). The array costs ≈ 10.2·n² ANDs, so `n` is derived by inverting
/// that and nudged up until the target is met.
fn wide_multiplier(target_ands: usize) -> Aig {
    let mut n = (((target_ands as f64) / 10.2).sqrt().round() as usize).max(2);
    loop {
        let aig = multiplier_circuit(n);
        if aig.and_count() >= target_ands || n > 4 * target_ands {
            return aig;
        }
        n += (n / 8).max(1);
    }
}

/// A deep adder/XOR tree sized to roughly `target_ands` AND nodes: many
/// 32-bit input words combined pairwise in a balanced tree whose levels
/// alternate ripple-carry addition and bitwise XOR. The ripple chains
/// make it deep (long level frontiers), the XOR levels keep it
/// XOR-dense — the shape that stresses level-staged parallel loops.
fn adder_xor_tree(target_ands: usize) -> Aig {
    const WIDTH: usize = 32;
    // A tree of L leaves has L-1 combining steps averaging ≈ 7·WIDTH
    // ANDs each (ripple-add levels at 9w, XOR levels at 3w, add levels
    // dominating the wide early rows).
    let leaves = (target_ands / (7 * WIDTH)).max(2);
    let mut aig = Aig::new();
    let mut row: Vec<Word> = (0..leaves).map(|_| Word::inputs(&mut aig, WIDTH)).collect();
    let mut level = 0usize;
    while row.len() > 1 {
        let mut next = Vec::with_capacity(row.len() / 2);
        for pair in row.chunks(2) {
            let combined = if pair.len() == 1 {
                pair[0].clone()
            } else if level.is_multiple_of(2) {
                ripple_add(&mut aig, &pair[0], &pair[1], Lit::FALSE).0
            } else {
                bitwise(&mut aig, &pair[0], &pair[1], |g, x, y| g.xor(x, y))
            };
            next.push(combined);
        }
        row = next;
        level += 1;
    }
    row[0].output(&mut aig);
    aig
}

/// A seeded random 2-regular AIG with `target_ands` AND nodes: every new
/// node conjoins two randomly complemented fanins drawn from a sliding
/// window of recent nodes (keeping the graph deep rather than flat), and
/// every node left dangling at the end becomes a primary output so
/// cleanup preserves the full size. Each output is the dangling root
/// XORed with a dedicated guard input the random logic never touches, so
/// every output semantically depends on the guard and no sound
/// optimization can reduce one to a constant (which the mapper would
/// reject for lack of tie cells). The construction goes through
/// [`Aig::and`], so the result is strashed and constant-folded like every
/// engine-built network.
///
/// The primary-input count (and with it the fanin window) grows with the
/// target: a fixed support caps the network's semantic content, so past
/// a point every larger target synthesized to the *same* irredundant
/// network and the workload stopped scaling. With `64 + target/128`
/// inputs the post-synthesis size keeps growing with N.
pub fn random_kregular(target_ands: usize, seed: u64) -> Aig {
    let inputs = 64 + target_ands / 128;
    let window = inputs.max(256);
    let mut rng = XorShift64::new(seed);
    let mut aig = Aig::new();
    let pool: Vec<Lit> = (0..inputs).map(|_| aig.input()).collect();
    let guard = aig.input();
    let mut recent: Vec<Lit> = pool.clone();
    while aig.and_count() < target_ands {
        let pick = |rng: &mut XorShift64, recent: &[Lit]| {
            let span = recent.len().min(window);
            let base = recent[recent.len() - span + (rng.next() as usize % span)];
            if rng.next() & 1 == 1 {
                base.not()
            } else {
                base
            }
        };
        let a = pick(&mut rng, &recent);
        let b = pick(&mut rng, &recent);
        let before = aig.len();
        let lit = aig.and(a, b);
        // Strash hits and constant folds don't grow the graph; only a
        // structurally new node joins the fanin window.
        if aig.len() > before {
            recent.push(lit);
        }
    }
    // Keep everything alive: dangling AND roots become outputs,
    // guard-XORed so none is semantically constant.
    let dangling: Vec<u32> = aig
        .fanout_counts()
        .iter()
        .enumerate()
        .skip(1 + inputs + 1)
        .filter(|&(_, &r)| r == 0)
        .map(|(i, _)| i as u32)
        .collect();
    for n in dangling {
        let guarded = aig.xor(Lit::new(n, false), guard);
        aig.output(guarded);
    }
    aig
}

/// The classic xorshift64 generator — deterministic, dependency-free,
/// and unrelated to the simulation rng so workloads and signatures never
/// correlate.
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplier_hits_its_target_band() {
        let aig = wide_multiplier(10_000);
        assert!(aig.and_count() >= 10_000);
        assert!(aig.and_count() < 20_000, "got {}", aig.and_count());
    }

    #[test]
    fn tree_is_deep_and_near_target() {
        let aig = adder_xor_tree(10_000);
        let ands = aig.and_count();
        assert!((5_000..30_000).contains(&ands), "got {ands}");
        assert!(aig.depth() > 64, "ripple chains must stack up");
    }

    #[test]
    fn random_aig_is_seed_deterministic_and_sized() {
        let a = random_kregular(10_000, 7);
        let b = random_kregular(10_000, 7);
        assert!(a.same_structure(&b), "same seed, same graph");
        assert!(a.and_count() >= 10_000);
        let c = random_kregular(10_000, 8);
        assert!(!c.same_structure(&a), "different seed, different graph");
    }

    #[test]
    fn random_aig_support_grows_with_target() {
        // A fixed support caps semantic content (the 50k and 100k
        // workloads used to synthesize to the identical network); the
        // input pool must widen as the target grows.
        let small = random_kregular(10_000, 7);
        let big = random_kregular(100_000, 7);
        assert!(big.input_nodes().len() > small.input_nodes().len());
    }

    #[test]
    fn random_aig_survives_cleanup_whole() {
        let a = random_kregular(5_000, 3);
        let cleaned = a.cleanup();
        assert_eq!(cleaned.and_count(), a.and_count());
    }

    #[test]
    fn workload_set_covers_all_families() {
        let set = workloads(1_000);
        let names: Vec<&str> = set.iter().map(|(s, _)| s.family).collect();
        assert_eq!(names, ["mult", "tree", "rand"]);
        for (spec, aig) in &set {
            assert!(
                aig.and_count() >= spec.target_ands / 2,
                "{} too small: {}",
                spec.family,
                aig.and_count()
            );
        }
    }
}
