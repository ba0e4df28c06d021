//! Integration tests of the scripted flow engine: grammar round trips,
//! fixpoint and no-growth guarantees, and — the load-bearing property —
//! that *arbitrary* generated flow scripts applied to random AIGs are
//! miter-UNSAT equivalent to their inputs (a SAT proof per case, not a
//! sample).

use aig::{check_equivalence, Aig, Equivalence, Flow, Lit, Metrics};
use proptest::prelude::*;

/// A messy deterministic network: xorshift-driven mix of AND/OR/XOR/MUX
/// over `n_inputs` with `n_ops` operations and up to 6 outputs.
fn messy_aig(seed: u64, n_inputs: usize, n_ops: usize) -> Aig {
    let mut aig = Aig::new();
    let mut nets: Vec<Lit> = (0..n_inputs).map(|_| aig.input()).collect();
    let mut s = seed | 1;
    let mut rnd = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for _ in 0..n_ops {
        let a = nets[(rnd() as usize) % nets.len()];
        let b = nets[(rnd() as usize) % nets.len()];
        let f = match rnd() % 4 {
            0 => aig.and(a, b.not()),
            1 => aig.or(a, b),
            2 => aig.xor(a, b),
            _ => {
                let c = nets[(rnd() as usize) % nets.len()];
                aig.mux(a, b, c)
            }
        };
        nets.push(f);
    }
    for k in 0..nets.len().min(6) {
        aig.output(nets[nets.len() - 1 - k]);
    }
    aig
}

#[test]
fn synthesize_is_the_default_flow() {
    // The acceptance criterion: `synthesize(&aig)` must be
    // `Flow::parse(DEFAULT_FLOW).run(&aig)`, and the default flow
    // rewrites.
    let flow = Flow::parse(aig::DEFAULT_FLOW).expect("default flow parses");
    assert!(flow.uses_rewrite(), "the default flow must include rw");
    let network = messy_aig(0xD1CE, 8, 70);
    let via_synthesize = aig::synthesize(&network);
    let via_flow = flow.run(&network);
    assert_eq!(Metrics::of(&via_synthesize), Metrics::of(&via_flow));
    assert_eq!(
        check_equivalence(&via_synthesize, &via_flow),
        Ok(Equivalence::Equal)
    );
}

#[test]
fn rewrite_pass_never_grows_the_network() {
    for seed in [1u64, 7, 42, 0xBEEF, 0x1234_5678] {
        let network = messy_aig(seed, 7, 60);
        let cleaned = network.cleanup();
        let rewritten = aig::rewrite(&network);
        assert!(
            rewritten.and_count() <= cleaned.and_count(),
            "seed {seed:#x}: rw grew {} -> {}",
            cleaned.and_count(),
            rewritten.and_count()
        );
        let zero = aig::rewrite_with(
            &network,
            &aig::RewriteConfig {
                zero_gain: true,
                ..aig::RewriteConfig::default()
            },
        );
        assert!(
            zero.and_count() <= cleaned.and_count(),
            "seed {seed:#x}: rw -z grew {} -> {}",
            cleaned.and_count(),
            zero.and_count()
        );
    }
}

#[test]
fn default_flow_converges_to_a_fixpoint() {
    // One run need not be idempotent — `rw -z` deliberately perturbs the
    // structure, and a second run may cash that in — but iterating the
    // flow must reach a fixpoint quickly, monotonically in size.
    for seed in [3u64, 0xACE, 0xF00D] {
        let flow = Flow::default_flow();
        let mut current = flow.run(&messy_aig(seed, 8, 80));
        let mut metrics = Metrics::of(&current);
        let mut converged = false;
        for round in 0..6 {
            let next = flow.run(&current);
            let next_metrics = Metrics::of(&next);
            assert!(
                next_metrics.ands <= metrics.ands,
                "seed {seed:#x} round {round}: iterating the flow grew the network"
            );
            if next_metrics == metrics {
                converged = true;
                break;
            }
            current = next;
            metrics = next_metrics;
        }
        assert!(
            converged,
            "seed {seed:#x}: no fixpoint within 6 flow iterations (at {metrics:?})"
        );
    }
}

#[test]
fn flow_report_deltas_are_consistent() {
    let network = messy_aig(0xCAB, 8, 90);
    let (optimized, _, report) = Flow::default_flow().run_with_choices(&network);
    assert_eq!(report.final_metrics, Metrics::of(&optimized));
    // Accepted passes chain: each accepted pass's `after` is the next
    // pass's `before`.
    let mut current = report.initial;
    for pass in &report.passes {
        assert_eq!(
            pass.before, current,
            "pass {} reads stale metrics",
            pass.name
        );
        if pass.accepted {
            current = pass.after;
        }
    }
    assert_eq!(current, report.final_metrics);
}

/// Strategy: one flow pass token.
fn pass_token() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("b"),
        Just("rw"),
        Just("rw -z"),
        Just("rw -l"),
        Just("rw -z -l"),
        Just("rf"),
        Just("dch"),
        Just("balance"),
        Just("rewrite -z"),
        Just("refactor"),
    ]
}

/// Strategy: a whole flow script (1..6 passes, `;`-joined).
fn flow_script() -> impl Strategy<Value = String> {
    prop::collection::vec(pass_token(), 1..6).prop_map(|tokens| tokens.join("; "))
}

#[derive(Clone, Debug)]
enum Op {
    And(usize, usize, bool, bool),
    Xor(usize, usize),
    Mux(usize, usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<usize>(), any::<usize>(), any::<bool>(), any::<bool>())
            .prop_map(|(a, b, na, nb)| Op::And(a, b, na, nb)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Xor(a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(s, a, b)| Op::Mux(s, a, b)),
    ]
}

fn random_aig(ops: &[Op], n_inputs: usize, n_outputs: usize) -> Aig {
    let mut aig = Aig::new();
    let mut nets: Vec<Lit> = (0..n_inputs).map(|_| aig.input()).collect();
    for op in ops {
        let pick = |i: usize| nets[i % nets.len()];
        let f = match *op {
            Op::And(a, b, na, nb) => {
                let x = if na { pick(a).not() } else { pick(a) };
                let y = if nb { pick(b).not() } else { pick(b) };
                aig.and(x, y)
            }
            Op::Xor(a, b) => aig.xor(pick(a), pick(b)),
            Op::Mux(s, a, b) => aig.mux(pick(s), pick(a), pick(b)),
        };
        nets.push(f);
    }
    for k in 0..n_outputs {
        aig.output(nets[nets.len() - 1 - (k % nets.len().min(7))]);
    }
    aig
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arbitrary_flows_are_sat_proven_equivalent(
        script in flow_script(),
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        // Any grammatical flow script applied to any network must be
        // miter-UNSAT equivalent to its input.
        let network = random_aig(&ops, 6, 3);
        let flow = Flow::parse(&script).expect("generated scripts are grammatical");
        let optimized = flow.run(&network);
        prop_assert_eq!(
            check_equivalence(&network, &optimized),
            Ok(Equivalence::Equal),
            "flow {} broke the function", script
        );
        // Size is an invariant only for balance-free scripts: `b` may
        // accept up to 20 % growth in exchange for depth.
        if !flow.script().split("; ").any(|t| t == "b") {
            prop_assert!(optimized.and_count() <= network.and_count());
        }
    }

    #[test]
    fn flow_parsing_round_trips(scripts in prop::collection::vec(pass_token(), 1..8)) {
        let script = scripts.join(";");
        let flow = Flow::parse(&script).expect("grammatical");
        let reparsed = Flow::parse(&flow.script()).expect("serialized form parses");
        prop_assert_eq!(flow.script(), reparsed.script());
        prop_assert_eq!(flow.len(), scripts.len());
    }
}
