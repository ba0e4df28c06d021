//! The scripted synthesis flow engine: a [`Pass`] trait, a [`Flow`] that
//! parses and runs `"b; rw; rf; b; rw -z; b; dch"`-style scripts, and
//! the [`synthesize`] entry point (the default flow).
//!
//! Each pass proposes a functionally equivalent network; the flow engine
//! applies the pass's own accept criterion to the (depth, size) metrics
//! and keeps or discards the candidate. Every *accepted* step goes
//! through one centralized soundness gate: in debug builds the candidate
//! is SAT-proven equivalent to its input
//! ([`crate::check::check_equivalence`]) and an unsound pass panics with
//! the counterexample instead of silently corrupting the network.
//! [`Flow::run_with_choices`] also returns a [`FlowReport`] with per-pass
//! node/depth deltas and wall-clock timing. Each pass is one public
//! function ([`balance`], [`rewrite_with`], [`refactor`]) that enumerates
//! whatever cuts it needs for the network it is handed, so nothing but
//! the network passes from one step to the next.
//!
//! The `dch` step is the choice collector: the flow snapshots every
//! candidate network (accepted or rejected — each is an equivalent
//! structure), and `dch` fuses the accumulated snapshots into a
//! [`ChoiceAig`] (classes of SAT-proven-equivalent nodes linked into
//! choice rings) that [`Flow::run_with_choices`] hands back for
//! choice-aware mapping. As a plain network transformation `dch` is a
//! SAT sweep: the current network with every proven class collapsed onto
//! its representative.

use crate::balance::balance;
use crate::choice::ChoiceAig;
use crate::graph::Aig;
use crate::refactor::refactor;
use crate::rewrite::{rewrite_with, RewriteConfig};
use std::time::{Duration, Instant};

/// The default synthesis script: balance for depth, rewrite and refactor
/// for size, a zero-gain rewrite to perturb out of local minima, and a
/// final balance. This is the flow [`synthesize`] runs and the flow the
/// Table-1 drivers use unless overridden (`--flow` on the bench
/// binaries).
pub const DEFAULT_FLOW: &str = "b; rw; rf; b; rw -z; rf; b";

/// Network metrics a pass is judged on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metrics {
    /// AND-node count (the synthesis cost metric).
    pub ands: usize,
    /// Logic depth in AND levels.
    pub depth: u32,
}

impl Metrics {
    /// Reads the metrics off a network.
    pub fn of(aig: &Aig) -> Self {
        Self {
            ands: aig.and_count(),
            depth: aig.depth(),
        }
    }
}

/// One synthesis pass: a transformation plus its accept criterion.
///
/// `apply` must return a functionally equivalent network (the flow
/// SAT-checks that in debug builds); `accept` decides whether the
/// candidate's metrics are an improvement worth keeping — the flow
/// discards rejected candidates, so a pass never needs to guard against
/// regressions itself.
pub trait Pass {
    /// Script token for reports and error messages (`"b"`, `"rw -z"`, …).
    fn name(&self) -> &'static str;
    /// Proposes a rewritten network. A pass that works on cuts
    /// enumerates them itself, for the network it is handed.
    fn apply(&self, aig: &Aig) -> Aig;
    /// Whether the candidate should replace the current network.
    fn accept(&self, before: Metrics, after: Metrics) -> bool;
}

/// Delay-oriented AND-tree balancing (`b`).
pub struct BalancePass;

impl Pass for BalancePass {
    fn name(&self) -> &'static str {
        "b"
    }

    fn apply(&self, aig: &Aig) -> Aig {
        balance(aig)
    }

    /// Accepts when depth improves without an outsized size regression,
    /// or size shrinks at equal depth (ABC's aggregate script behavior).
    fn accept(&self, before: Metrics, after: Metrics) -> bool {
        if after.depth < before.depth {
            after.ands <= before.ands + before.ands / 5
        } else {
            after.depth == before.depth && after.ands <= before.ands
        }
    }
}

/// DAG-aware NPN-class cut rewriting (`rw`, `rw -z`, `rw -l`).
pub struct RewritePass {
    /// `-z`: accept zero-gain (structure-changing, size-neutral)
    /// replacements.
    pub zero_gain: bool,
    /// `-l`: depth-aware rewriting — candidates that would raise the cut
    /// root's level are rejected inside the pass, and the pass-level
    /// accept criterion tightens to "depth never grows".
    pub level_aware: bool,
}

impl Pass for RewritePass {
    fn name(&self) -> &'static str {
        match (self.zero_gain, self.level_aware) {
            (false, false) => "rw",
            (true, false) => "rw -z",
            (false, true) => "rw -l",
            (true, true) => "rw -z -l",
        }
    }

    fn apply(&self, aig: &Aig) -> Aig {
        let config = RewriteConfig {
            zero_gain: self.zero_gain,
            level_aware: self.level_aware,
            ..RewriteConfig::default()
        };
        rewrite_with(aig, &config)
    }

    /// `rw` must strictly shrink; `rw -z` may also hold size constant
    /// (that is its purpose — the structural perturbation pays off in a
    /// later pass). Depth may not regress by more than ~12 % — the
    /// synthesized network feeds a delay-objective mapper by default,
    /// and a large depth trade for a marginal size gain is a net loss
    /// there (balance cannot always recover it) — and in the
    /// depth-aware `-l` mode it may not regress at all, making `b` no
    /// longer the only depth lever in a script.
    fn accept(&self, before: Metrics, after: Metrics) -> bool {
        let size_ok = if self.zero_gain {
            after.ands <= before.ands
        } else {
            after.ands < before.ands
        };
        let depth_cap = if self.level_aware {
            before.depth
        } else {
            before.depth + before.depth / 8
        };
        size_ok && after.depth <= depth_cap
    }
}

/// Cut-based SOP refactoring (`rf`).
pub struct RefactorPass;

impl Pass for RefactorPass {
    fn name(&self) -> &'static str {
        "rf"
    }

    fn apply(&self, aig: &Aig) -> Aig {
        refactor(aig)
    }

    fn accept(&self, before: Metrics, after: Metrics) -> bool {
        after.ands < before.ands
    }
}

/// A flow script failed to parse. Every variant that names a token also
/// carries `at`, the byte offset of that token in the script, so a typo
/// rows deep into a long script is pinpointed instead of merely blamed
/// on the whole string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlowError {
    /// The script contains no passes.
    Empty,
    /// An unrecognized pass token.
    UnknownPass {
        /// The offending token.
        pass: String,
        /// Byte offset of the token in the script.
        at: usize,
    },
    /// A flag the named pass does not take.
    UnknownFlag {
        /// The pass the flag was attached to.
        pass: String,
        /// The offending flag.
        flag: String,
        /// Byte offset of the flag in the script.
        at: usize,
    },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Empty => write!(f, "empty flow script (expected e.g. \"{DEFAULT_FLOW}\")"),
            FlowError::UnknownPass { pass, at } => {
                write!(
                    f,
                    "unknown pass `{pass}` at offset {at} (expected b, rw, rw -z, rw -l, rf, or dch)"
                )
            }
            FlowError::UnknownFlag { pass, flag, at } => {
                write!(
                    f,
                    "pass `{pass}` does not take flag `{flag}` (at offset {at})"
                )
            }
        }
    }
}

impl std::error::Error for FlowError {}

/// One step of a parsed flow: an ordinary network-to-network pass, or
/// the `dch` choice collector (which needs the flow's snapshot history,
/// not just the current network).
enum Step {
    Pass(Box<dyn Pass + Send + Sync>),
    Dch,
}

impl Step {
    fn name(&self) -> &'static str {
        match self {
            Step::Pass(p) => p.name(),
            Step::Dch => "dch",
        }
    }
}

/// A parsed synthesis script: an ordered list of steps.
pub struct Flow {
    steps: Vec<Step>,
}

/// Tokens of a segment with their byte offsets inside the segment
/// (whitespace-separated, ASCII whitespace).
fn tokens_with_offsets(segment: &str) -> Vec<(usize, &str)> {
    let bytes = segment.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        out.push((start, &segment[start..i]));
    }
    out
}

impl Flow {
    /// Parses a flow script.
    ///
    /// Grammar: steps separated by `;` (empty segments are ignored, so
    /// trailing separators are fine). Each segment is a pass token plus
    /// optional flags, whitespace-separated:
    ///
    /// * `b` — balance;
    /// * `rw` — cut rewriting (`-z` accepts zero-gain replacements,
    ///   `-l` rejects candidates that raise the cut root's level);
    /// * `rf` — SOP refactoring;
    /// * `dch` — SAT sweep + choice collection over the snapshots
    ///   accumulated so far (see [`Flow::run_with_choices`]).
    ///
    /// # Errors
    ///
    /// [`FlowError`] on an empty script, unknown pass, or invalid flag —
    /// with the offending token and its byte offset in the script.
    pub fn parse(script: &str) -> Result<Self, FlowError> {
        let mut steps: Vec<Step> = Vec::new();
        let mut offset = 0usize;
        for segment in script.split(';') {
            let tokens = tokens_with_offsets(segment);
            let segment_offset = offset;
            offset += segment.len() + 1; // the consumed `;`
            let Some(&(name_at, name)) = tokens.first() else {
                continue; // empty segment
            };
            let name_at = segment_offset + name_at;
            let flags = &tokens[1..];
            let reject_flags = |pass: &str| -> Result<(), FlowError> {
                match flags.first() {
                    Some(&(at, flag)) => Err(FlowError::UnknownFlag {
                        pass: pass.to_owned(),
                        flag: flag.to_owned(),
                        at: segment_offset + at,
                    }),
                    None => Ok(()),
                }
            };
            match name {
                "b" | "balance" => {
                    reject_flags(name)?;
                    steps.push(Step::Pass(Box::new(BalancePass)));
                }
                "rf" | "refactor" => {
                    reject_flags(name)?;
                    steps.push(Step::Pass(Box::new(RefactorPass)));
                }
                "dch" => {
                    reject_flags(name)?;
                    steps.push(Step::Dch);
                }
                "rw" | "rewrite" => {
                    let mut zero_gain = false;
                    let mut level_aware = false;
                    for &(at, flag) in flags {
                        match flag {
                            "-z" => zero_gain = true,
                            "-l" => level_aware = true,
                            _ => {
                                return Err(FlowError::UnknownFlag {
                                    pass: name.to_owned(),
                                    flag: flag.to_owned(),
                                    at: segment_offset + at,
                                })
                            }
                        }
                    }
                    steps.push(Step::Pass(Box::new(RewritePass {
                        zero_gain,
                        level_aware,
                    })));
                }
                other => {
                    return Err(FlowError::UnknownPass {
                        pass: other.to_owned(),
                        at: name_at,
                    })
                }
            }
        }
        if steps.is_empty() {
            return Err(FlowError::Empty);
        }
        Ok(Self { steps })
    }

    /// The parsed default flow ([`DEFAULT_FLOW`]).
    pub fn default_flow() -> Self {
        Self::parse(DEFAULT_FLOW).expect("the default flow parses")
    }

    /// Number of steps in the script.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the flow has no steps (unreachable through `parse`).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Whether any pass is a rewrite (`rw` variants) — drivers use this
    /// to decide whether warming the shared rewrite library is worth it.
    pub fn uses_rewrite(&self) -> bool {
        self.steps.iter().any(|s| s.name().starts_with("rw"))
    }

    /// Whether the script contains a `dch` step, i.e. whether
    /// [`Flow::run_with_choices`] will return a [`ChoiceAig`].
    pub fn uses_choices(&self) -> bool {
        self.steps.iter().any(|s| matches!(s, Step::Dch))
    }

    /// This flow with a trailing `dch` step appended when the script has
    /// none — how `--choices` upgrades a plain script.
    #[must_use]
    pub fn with_choices(mut self) -> Self {
        if !self.uses_choices() {
            self.steps.push(Step::Dch);
        }
        self
    }

    /// The script tokens, re-serialized (`"b; rw; …"`).
    pub fn script(&self) -> String {
        self.steps
            .iter()
            .map(Step::name)
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// Runs the flow: cleanup, then each step in order under its accept
    /// criterion and the centralized debug SAT-soundness gate.
    pub fn run(&self, aig: &Aig) -> Aig {
        self.run_with_choices(aig).0
    }

    /// Runs the flow and additionally returns the [`ChoiceAig`] built by
    /// the last `dch` step (`None` when the script has none) and the
    /// per-step [`FlowReport`].
    ///
    /// Every candidate network a pass proposes — accepted or rejected —
    /// is snapshotted; a `dch` step fuses the current network plus the
    /// accumulated snapshots (reverse-chronological, so representatives
    /// come from the most optimized structure) into a [`ChoiceAig`], and
    /// proposes the collapsed (SAT-swept) network as its own candidate.
    /// The collapse is rejected when it would make a primary output
    /// constant that was not structurally constant before — the mapper
    /// has no tie cells, so such a network cannot be mapped.
    pub fn run_with_choices(&self, aig: &Aig) -> (Aig, Option<ChoiceAig>, FlowReport) {
        let started = Instant::now();
        let mut best = aig.cleanup();
        let initial = Metrics::of(&best);
        let mut snapshots: Vec<Aig> = vec![best.clone()];
        let mut choices: Option<ChoiceAig> = None;
        let mut reports = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            let mut span = obs::span!("flow/{}", step.name());
            let before = Metrics::of(&best);
            let t0 = Instant::now();
            let is_dch = matches!(step, Step::Dch);
            let (candidate, after, accepted) = match step {
                Step::Pass(pass) => {
                    let candidate = pass.apply(&best);
                    let after = Metrics::of(&candidate);
                    let accepted = pass.accept(before, after);
                    (candidate, after, accepted)
                }
                Step::Dch => {
                    // Snapshots in reverse-chronological order, current
                    // network first: its nodes become the class
                    // representatives and its outputs the functions.
                    let mut snaps: Vec<Aig> = vec![best.clone()];
                    snaps.extend(snapshots.iter().rev().cloned());
                    let choice =
                        ChoiceAig::build(&snaps).expect("flow snapshots share one interface");
                    let collapsed = choice.collapsed();
                    let after = Metrics::of(&collapsed);
                    let accepted = after.ands <= before.ands
                        && after.depth <= before.depth + before.depth / 8
                        && no_new_constant_outputs(&best, &collapsed);
                    choices = Some(choice);
                    (collapsed, after, accepted)
                }
            };
            let elapsed = t0.elapsed();
            if accepted {
                debug_assert_pass_sound(&best, &candidate, step.name());
                // Rejected pass candidates are still sound alternatives
                // worth snapshotting; accepted ones replace the network.
                snapshots.push(candidate.clone());
                best = candidate;
            } else if !is_dch {
                snapshots.push(candidate);
            }
            span.record("accepted", u64::from(accepted))
                .record("ands_before", before.ands as u64)
                .record("ands_after", after.ands as u64);
            reports.push(PassReport {
                name: step.name().to_owned(),
                accepted,
                before,
                after,
                elapsed,
            });
        }
        let report = FlowReport {
            initial,
            final_metrics: Metrics::of(&best),
            passes: reports,
            elapsed: started.elapsed(),
        };
        (best, choices, report)
    }
}

/// Whether the collapse turned a live primary output into a structural
/// constant (the SAT sweep can *prove* an output constant; the mapper
/// cannot express that without tie cells, so the flow must not hand it
/// such a network).
fn no_new_constant_outputs(before: &Aig, after: &Aig) -> bool {
    before
        .output_lits()
        .iter()
        .zip(after.output_lits())
        .all(|(b, a)| a.node() != 0 || b.node() == 0)
}

impl std::fmt::Debug for Flow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Flow({:?})", self.script())
    }
}

/// What one pass of a flow run did.
#[derive(Clone, Debug)]
pub struct PassReport {
    /// Script token of the pass.
    pub name: String,
    /// Whether the candidate was kept.
    pub accepted: bool,
    /// Metrics going in.
    pub before: Metrics,
    /// Metrics of the candidate (even when rejected).
    pub after: Metrics,
    /// Wall-clock time the pass took.
    pub elapsed: Duration,
}

/// Per-pass metrics and timing of one [`Flow`] run. It keeps no work
/// counts: an [`obs::JobScope`] around the run collects the engine's
/// counters exactly, cut enumeration included (see [`crate::profile`]).
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// Metrics after the initial cleanup.
    pub initial: Metrics,
    /// Metrics of the returned network.
    pub final_metrics: Metrics,
    /// One entry per scripted pass, in order.
    pub passes: Vec<PassReport>,
    /// Total wall-clock time including cleanup and metric reads.
    pub elapsed: Duration,
}

impl std::fmt::Display for FlowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "flow: {} ands / depth {} -> {} ands / depth {} in {:.1?}",
            self.initial.ands,
            self.initial.depth,
            self.final_metrics.ands,
            self.final_metrics.depth,
            self.elapsed
        )?;
        for p in &self.passes {
            writeln!(
                f,
                "  {:<6} {:>5} -> {:>5} ands, depth {:>3} -> {:>3}  {:>9.1?}  {}",
                p.name,
                p.before.ands,
                p.after.ands,
                p.before.depth,
                p.after.depth,
                p.elapsed,
                if p.accepted { "accepted" } else { "rejected" },
            )?;
        }
        Ok(())
    }
}

/// Synthesizes an AIG by running the default flow ([`DEFAULT_FLOW`]):
/// `Flow::parse(DEFAULT_FLOW).run(aig)`.
///
/// In debug builds, every accepted pass is SAT-proven equivalent to its
/// input; an unsound pass panics with the counterexample pattern instead
/// of silently corrupting the network.
///
/// # Example
///
/// ```
/// use aig::{Aig, synthesize, equivalent};
///
/// let mut aig = Aig::new();
/// let xs: Vec<_> = (0..6).map(|_| aig.input()).collect();
/// let mut acc = xs[0];
/// for &x in &xs[1..] {
///     acc = aig.and(acc, x); // deliberately serial
/// }
/// aig.output(acc);
/// let opt = synthesize(&aig);
/// assert!(opt.depth() < aig.depth());
/// assert!(equivalent(&aig, &opt, 7, 32));
/// ```
pub fn synthesize(aig: &Aig) -> Aig {
    Flow::default_flow().run(aig)
}

/// The centralized debug-build soundness gate: an accepted pass must be
/// SAT-provably equivalent to its input. Compiled out of release builds.
fn debug_assert_pass_sound(before: &Aig, after: &Aig, pass: &str) {
    if cfg!(debug_assertions) {
        match crate::check::check_equivalence(before, after) {
            Ok(crate::check::Equivalence::Equal) => {}
            Ok(crate::check::Equivalence::Counterexample(cex)) => {
                panic!("{pass} changed the function; counterexample {cex:?}")
            }
            Err(e) => panic!("{pass} changed the interface: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::equivalent;
    use crate::graph::Lit;

    #[test]
    fn synthesis_preserves_function() {
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..10).map(|_| aig.input()).collect();
        // Mix of structures: parity, majority-ish, chains.
        let parity = aig.xor_many(&xs[..6]);
        let mut chain = xs[6];
        for &x in &xs[7..] {
            chain = aig.or(chain, x);
        }
        let t1 = aig.and(xs[0], xs[5]);
        let mixed = aig.mux(parity, chain, t1);
        aig.output(parity);
        aig.output(chain);
        aig.output(mixed);
        let opt = synthesize(&aig);
        assert!(equivalent(&aig, &opt, 0xA5, 64));
        assert!(opt.and_count() <= aig.and_count());
        assert!(opt.depth() <= aig.depth());
    }

    #[test]
    fn synthesis_never_grows() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        // Redundant logic: (a&b)|(a&!b) = a.
        let t1 = aig.and(a, b);
        let t2 = aig.and(a, b.not());
        let f = aig.or(t1, t2);
        let g = aig.and(f, c);
        aig.output(g);
        let opt = synthesize(&aig);
        assert!(equivalent(&aig, &opt, 77, 16));
        assert!(
            opt.and_count() < aig.and_count(),
            "redundancy should be removed: {} vs {}",
            opt.and_count(),
            aig.and_count()
        );
    }

    #[test]
    fn idempotent_fixpoint() {
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..5).map(|_| aig.input()).collect();
        let f = aig.xor_many(&xs);
        aig.output(f);
        let once = synthesize(&aig);
        let twice = synthesize(&once);
        assert_eq!(once.and_count(), twice.and_count());
        assert_eq!(once.depth(), twice.depth());
    }

    #[test]
    fn default_flow_includes_rewrite() {
        let flow = Flow::default_flow();
        assert!(flow.uses_rewrite());
        assert!(flow.len() >= 3);
        assert_eq!(
            Flow::parse(&flow.script()).expect("round trip").script(),
            flow.script()
        );
    }

    #[test]
    fn parse_rejects_malformed_scripts_with_spans() {
        assert_eq!(Flow::parse("").err(), Some(FlowError::Empty));
        assert_eq!(Flow::parse(" ;; ").err(), Some(FlowError::Empty));
        // The offending token and its byte offset are reported, not just
        // the whole script.
        assert_eq!(
            Flow::parse("b; frobnicate").err(),
            Some(FlowError::UnknownPass {
                pass: "frobnicate".into(),
                at: 3
            })
        );
        assert_eq!(
            Flow::parse("b; rw;  xyz; rf").err(),
            Some(FlowError::UnknownPass {
                pass: "xyz".into(),
                at: 8
            })
        );
        assert_eq!(
            Flow::parse("b -z").err(),
            Some(FlowError::UnknownFlag {
                pass: "b".into(),
                flag: "-z".into(),
                at: 2
            })
        );
        assert_eq!(
            Flow::parse("b; rw -q").err(),
            Some(FlowError::UnknownFlag {
                pass: "rw".into(),
                flag: "-q".into(),
                at: 6
            })
        );
        assert_eq!(
            Flow::parse("dch -z").err(),
            Some(FlowError::UnknownFlag {
                pass: "dch".into(),
                flag: "-z".into(),
                at: 4
            })
        );
        let err = Flow::parse("b; rw;  xyz; rf").unwrap_err();
        assert!(err.to_string().contains("`xyz` at offset 8"), "{err}");
    }

    #[test]
    fn parse_accepts_long_names_and_loose_separators() {
        let flow = Flow::parse("balance ; rewrite -z;; refactor; dch").expect("parses");
        assert_eq!(flow.script(), "b; rw -z; rf; dch");
        assert!(flow.uses_choices());
    }

    #[test]
    fn parse_accepts_depth_aware_rewriting() {
        let flow = Flow::parse("rw -l; rw -z -l; b").expect("parses");
        assert_eq!(flow.script(), "rw -l; rw -z -l; b");
        assert!(flow.uses_rewrite());
        assert!(!flow.uses_choices());
        // Round trip.
        assert_eq!(
            Flow::parse(&flow.script()).expect("round trip").script(),
            flow.script()
        );
    }

    #[test]
    fn with_choices_appends_one_dch_step() {
        let flow = Flow::parse("b; rw").expect("parses").with_choices();
        assert_eq!(flow.script(), "b; rw; dch");
        // Idempotent: a script that already collects choices is kept.
        let twice = flow.with_choices();
        assert_eq!(twice.script(), "b; rw; dch");
    }

    #[test]
    fn dch_step_collapses_and_returns_choices() {
        // Internal redundancy the strash cannot see: the sweep must
        // merge it, and the flow must hand back the choice network.
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let x1 = aig.xor(a, b);
        let t1 = aig.and(a.not(), b.not());
        let t2 = aig.and(a, b);
        let x2 = aig.or(t1, t2).not();
        let f = aig.and(x1, c);
        let g = aig.or(x2, c);
        aig.output(f);
        aig.output(g);
        let flow = Flow::parse("b; rw; dch").expect("parses");
        let (optimized, choices, report) = flow.run_with_choices(&aig);
        let choices = choices.expect("dch scripts return choices");
        assert!(equivalent(&aig, &optimized, 0x7C, 32));
        assert_eq!(
            crate::check::check_equivalence(&aig, &choices.collapsed()),
            Ok(crate::check::Equivalence::Equal)
        );
        assert!(choices.verify_acyclic());
        assert_eq!(report.passes.last().map(|p| p.name.as_str()), Some("dch"));
        // Scripts without dch return no choices and do no sweep work.
        let (_, none, _) = Flow::parse("b").expect("parses").run_with_choices(&aig);
        assert!(none.is_none());
    }

    #[test]
    fn report_tracks_deltas_and_acceptance() {
        let mut aig = Aig::new();
        let xs: Vec<Lit> = (0..8).map(|_| aig.input()).collect();
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = aig.and(acc, x);
        }
        aig.output(acc);
        let flow = Flow::parse("b; rw").expect("parses");
        let (opt, _, report) = flow.run_with_choices(&aig);
        assert_eq!(report.passes.len(), 2);
        assert_eq!(report.passes[0].name, "b");
        assert!(
            report.passes[0].accepted,
            "balancing a chain must be accepted"
        );
        assert!(report.passes[0].after.depth < report.passes[0].before.depth);
        assert_eq!(report.final_metrics, Metrics::of(&opt));
        assert_eq!(report.initial.ands, aig.and_count());
        // The display form renders a header plus one line per pass.
        let text = report.to_string();
        assert_eq!(text.lines().count(), 1 + report.passes.len());
    }
}
