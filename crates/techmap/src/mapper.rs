//! The staged mapping engine: cut enumeration → NPN matching →
//! objective-driven selection → cover extraction → inverter
//! materialization.
//!
//! Each stage is an explicit function with a narrow interface, so the
//! expensive parts are reusable (the NPN class table is shared across
//! circuits and threads via [`NpnMatchCache`]) and the policy parts are
//! configurable ([`MapConfig`]: objective, cut shape, recovery rounds).
//! The whole engine is panic-free — malformed inputs surface as
//! [`MapError`].
//!
//! Matching runs once per map. Phase 2 derives every library match of
//! every covered node's cuts into one flat arena: per match the cell,
//! its output phase and its pins, each pin a leaf literal. Selection,
//! the recovery rounds, required times, cover extraction and
//! materialization then read matches by index; nothing re-derives a
//! cut's support or looks a function up again. The `map/match` span
//! covers that derivation and records the arena's `matches` and the
//! distinct cut functions the run `canonized` or `rejected` by NPN
//! signature, so `map/select` is the selection alone.

use crate::config::{default_output_load, MapConfig, MapError, Objective};
use crate::matching::{Matcher, NpnMatchCache};
use crate::netlist::{Instance, MappedNetlist, NetRef};
use aig::choice::ChoiceAig;
use aig::cuts::{CutConfig, CutDb};
use aig::graph::{Aig, Lit, Node};
use charlib::{CharacterizedGate, CharacterizedLibrary};
use device::Capacitance;
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;

/// One library match of one cut of a node: which cell, whether its
/// output is the complement of the node, and where its pins sit in
/// [`MatchArena::pins`].
#[derive(Clone, Copy, Debug)]
struct Match {
    gate: u32,
    first_pin: u32,
    arity: u8,
    output_inverted: bool,
}

/// Every match of every covered node, derived once per map: one record
/// per match in `list`, all pins in one shared `Vec`, and per node the
/// range of its records. A node's records keep cut-then-match order, the
/// order in which every tie-break keeps the first best match.
struct MatchArena {
    /// Per node: its matches' index range in `list` (empty for nodes
    /// outside the covered order).
    span: Vec<(u32, u32)>,
    list: Vec<Match>,
    /// Per cell pin, the leaf node it reads, complemented when the pin
    /// needs the leaf's negation.
    pins: Vec<Lit>,
}

impl MatchArena {
    /// Matches every non-trivial cut of every node of `order`, with its
    /// pins on the cut's support leaves, in cut-then-match order.
    fn build(len: usize, order: &[u32], cuts: &CutDb, matcher: &mut Matcher<'_>) -> Self {
        let mut arena = MatchArena {
            span: vec![(0, 0); len],
            list: Vec::new(),
            pins: Vec::new(),
        };
        for &node in order {
            let start = arena.list.len() as u32;
            for cut in cuts.cuts(node) {
                if cut.is_trivial(node) {
                    continue;
                }
                // The shared support projection (`aig::cuts`) both the
                // mapper and the rewriting engine consume: the shrunk
                // function over the leaf nodes it depends on.
                let support = cut.function_over_support();
                let leaves = support.leaves();
                if leaves.is_empty() {
                    continue; // constant function; covered by a smaller cut
                }
                for cand in matcher.matches(support.tt()) {
                    arena.list.push(Match {
                        gate: cand.gate as u32,
                        first_pin: arena.pins.len() as u32,
                        arity: cand.pins.len() as u8,
                        output_inverted: cand.output_inverted,
                    });
                    arena
                        .pins
                        .extend(cand.pins.iter().map(|&(v, inv)| Lit::new(leaves[v], inv)));
                }
            }
            arena.span[node as usize] = (start, arena.list.len() as u32);
        }
        arena
    }

    /// The indices of `node`'s matches.
    fn of(&self, node: u32) -> Range<u32> {
        let (start, end) = self.span[node as usize];
        start..end
    }

    /// The match with index `m`.
    fn get(&self, m: u32) -> Match {
        self.list[m as usize]
    }

    /// The pins of the match with index `m`.
    fn pins(&self, m: u32) -> &[Lit] {
        let rec = self.get(m);
        &self.pins[rec.first_pin as usize..][..rec.arity as usize]
    }
}

/// One matched node of the extracted cover, in emission (topological)
/// order.
struct CoverStep {
    /// The AIG node this step implements.
    node: u32,
    /// The index of the selected match.
    chosen: u32,
}

/// Maps an AIG onto a characterized library with a private match cache
/// and a fresh cut database.
///
/// Builds an [`NpnMatchCache`] for this call only; when mapping many
/// circuits against one library (or one family at several technology
/// points), build the cache once and use [`map_subject`] — the
/// experiment engine (`ambipolar::engine::match_cache`) keeps one shared
/// instance per gate family behind a `OnceLock`.
///
/// Input-phase requirements are free for the dual-rail generalized family
/// and materialize shared inverters otherwise; output-phase mismatches
/// cost an inverter in every family.
///
/// # Errors
///
/// See [`MapError`] — unmatched nodes, constant primary outputs, missing
/// inverter cells, and out-of-range cut widths are reported, not panicked.
pub fn map_aig(
    aig: &Aig,
    library: &CharacterizedLibrary,
    config: &MapConfig,
) -> Result<MappedNetlist, MapError> {
    let cache = NpnMatchCache::new(library)?;
    let mut cuts = CutDb::new(CutConfig {
        k: config.cut_k.clamp(2, 6),
        max_cuts: config.max_cuts,
    });
    map_subject(Subject::Plain(aig, &mut cuts), library, &cache, config)
}

/// The network a mapping run covers.
pub enum Subject<'a> {
    /// A plain network and its cut database (of the configured cut shape),
    /// topped up in place: phase 1 computes only the cut sets the database
    /// lacks, so mapping one network repeatedly — against three libraries,
    /// say — pays for enumeration once.
    Plain(&'a Aig, &'a mut CutDb),
    /// A [`ChoiceAig`]: cut enumeration fills a fresh database with one
    /// cut set per class, merged over every choice ring member
    /// ([`CutDb::fill_choices`]), selection iterates the classes in
    /// [`ChoiceAig::class_order`], and the cover materializes whichever
    /// alternative's cut won — its instances only reference cut leaves,
    /// which are class representatives.
    Choices(&'a ChoiceAig),
}

/// Maps a [`Subject`] onto a characterized library through a shared,
/// precomputed NPN match cache, in the five phases of the module docs.
///
/// # Errors
///
/// As [`map_aig`], plus [`MapError::InvalidCutK`] when a plain subject's
/// database has another cut shape. A choice subject can have constant
/// outputs its source network lacked: the choice sweep may prove them.
pub fn map_subject(
    subject: Subject<'_>,
    library: &CharacterizedLibrary,
    cache: &NpnMatchCache,
    config: &MapConfig,
) -> Result<MappedNetlist, MapError> {
    if !(2..=6).contains(&config.cut_k) {
        return Err(MapError::InvalidCutK { k: config.cut_k });
    }
    let shape = CutConfig {
        k: config.cut_k,
        max_cuts: config.max_cuts,
    };
    // A plain network is mapped in its cleaned form, the one its cut
    // database is keyed to.
    let cleaned;
    let subject = match subject {
        Subject::Plain(_, cuts) if cuts.config() != shape => {
            return Err(MapError::InvalidCutK { k: cuts.config().k });
        }
        Subject::Plain(aig, cuts) => {
            cleaned = aig.cleanup();
            Subject::Plain(&cleaned, cuts)
        }
        choices => choices,
    };

    // Phase 1: cut enumeration — incremental against a plain network's
    // database, one cut set per class across a choice network's rings.
    let mut choice_cuts;
    let span = obs::span!("map/cuts");
    let (aig, cuts, choice): (&Aig, &CutDb, Option<&ChoiceAig>) = match subject {
        Subject::Plain(aig, cuts) => {
            cuts.ensure(aig);
            (aig, cuts, None)
        }
        Subject::Choices(choice) => {
            choice_cuts = CutDb::new(shape);
            choice_cuts.fill_choices(choice);
            (choice.arena(), &choice_cuts, Some(choice))
        }
    };
    drop(span);
    let net = Network {
        aig,
        order: match choice {
            Some(choice) => choice.class_order().into(),
            None => (0..aig.len() as u32)
                .filter(|&n| matches!(aig.node(n), Node::And(_, _)))
                .collect::<Vec<_>>()
                .into(),
        },
        fanouts: match choice {
            Some(choice) => choice_fanouts(choice).into(),
            None => aig.fanout_counts().into(),
        },
        outputs: choice.map_or(aig.output_lits(), ChoiceAig::outputs),
        cuts,
    };

    // Phase 2: NPN-canonical matching of every covered node's cuts into
    // one arena — shared immutable class table plus a per-run memo.
    let arena = {
        let mut span = obs::span!("map/match");
        let mut matcher = Matcher::new(cache);
        let arena = MatchArena::build(aig.len(), &net.order, net.cuts, &mut matcher);
        span.record("matches", arena.list.len() as u64)
            .record("canonized", matcher.canonized())
            .record("rejected", matcher.rejected());
        arena
    };

    // Phase 3: objective-driven selection — the arrival/flow DP, plus the
    // delay objective's required-time and area-recovery passes.
    let selection = {
        let _s = obs::span!("map/select");
        select_matches(&net, &arena, cache.inverter(), library, config)?
    };

    // Phase 4: cover extraction (which matches are actually used, in
    // topological emission order). Cut leaves are class representatives,
    // so a choice cover never needs to know which ring member shaped a
    // chosen cut.
    let cover = {
        let _s = obs::span!("map/cover");
        extract_cover(&net, &arena, &selection.chosen)?
    };

    // Phase 5: inverter materialization and netlist assembly.
    let _s = obs::span!("map/materialize");
    let mut netlist = materialize(library, cache.inverter(), &cover, &arena, &net);
    drop(_s);
    netlist.set_predicted_delay_s(selection.predicted);
    Ok(netlist)
}

/// The subject as phases 3–5 read it.
struct Network<'a> {
    aig: &'a Aig,
    /// The AND nodes to cover, fanins first: every AND node of a plain
    /// network, the class representatives of a choice network.
    order: Cow<'a, [u32]>,
    /// Estimated consumers per node (flow discount and load buckets).
    fanouts: Cow<'a, [u32]>,
    outputs: &'a [Lit],
    cuts: &'a CutDb,
}

/// Fanout estimate for the flow discount of choice-network selection:
/// reference counts over the collapsed (representative) structure plus
/// the primary outputs — mirroring [`Aig::fanout_counts`] on the network
/// the cover will actually be extracted from. Classes referenced only
/// inside ring alternatives count zero and fall back to the DP's `max(1)`.
fn choice_fanouts(choice: &ChoiceAig) -> Vec<u32> {
    let arena = choice.arena();
    let mut fan = vec![0u32; arena.len()];
    let mut seen = vec![false; arena.len()];
    let mut stack: Vec<u32> = Vec::new();
    for o in choice.outputs() {
        fan[o.node() as usize] += 1;
        stack.push(o.node());
    }
    while let Some(n) = stack.pop() {
        if seen[n as usize] {
            continue;
        }
        seen[n as usize] = true;
        if let Node::And(a, b) = arena.node(n) {
            fan[a.node() as usize] += 1;
            fan[b.node() as usize] += 1;
            stack.push(a.node());
            stack.push(b.node());
        }
    }
    fan
}

/// Per-cell cost under the selected objective's flow metric: area in
/// square metres, or per-cycle energy in joules (total characterized gate
/// power over the operating frequency).
fn flow_unit(cell: &CharacterizedGate, objective: Objective) -> f64 {
    match objective {
        // Delay uses area flow as its tie-breaker.
        Objective::Delay | Objective::Area => cell.area,
        Objective::Energy => cell.power_summary().total().value() / charlib::OPERATING_FREQUENCY_HZ,
    }
}

/// Fanout buckets for the DP's pin-load estimate: delay tables are
/// precomputed per load point at 1..=`FANOUT_BUCKETS` consumer pins, and
/// a node's estimated fanout indexes the table. The clamp must clear the
/// catalog's worst control nets — C7552's fan out close to a hundred,
/// and clamping at 32 left its predicted/STA ratio near 0.5 — so the
/// table runs to 128 pins (the tables are built once per mapping run;
/// 128 load points per gate is noise next to cut enumeration).
const FANOUT_BUCKETS: usize = 128;

/// Table index for a node's fanout estimate.
fn fanout_bucket(fanout: u32) -> usize {
    (fanout.clamp(1, FANOUT_BUCKETS as u32) - 1) as usize
}

/// Precomputed per-run cost tables shared by the arrival DP, the
/// required-time pass, and the recovery rounds. Per-gate delays exist at
/// `FANOUT_BUCKETS` load points per net kind: for internal nets the
/// library's mean input-pin capacitance times the estimated consumer
/// count, and for nets driving primary outputs the same minus the PO tap
/// pin plus the output load ([`crate::default_output_load`]) — so the DP
/// never prices a PO driver into zero extra farads, charges high-fanout
/// nets the pins they actually drive, and agrees with static timing on
/// where load lives.
struct Costs {
    free_neg: bool,
    /// Per-gate delay at 1..=`FANOUT_BUCKETS` estimated consumer pins.
    cell_delay: Vec<[f64; FANOUT_BUCKETS]>,
    /// Per-gate delay with one consumer replaced by the PO load.
    cell_delay_po: Vec<[f64; FANOUT_BUCKETS]>,
    /// Per-gate flow metric (area or per-cycle energy).
    cell_unit: Vec<f64>,
    /// Per-gate area (exact-area recovery always prices in m²).
    cell_area: Vec<f64>,
    /// Library index of the inverter cell (delays via the bucket tables).
    inverter: usize,
    inv_unit: f64,
    inv_area: f64,
}

impl Costs {
    fn new(library: &CharacterizedLibrary, inverter: usize, config: &MapConfig) -> Self {
        let pin_cap = library.average(|g| g.avg_input_cap().value());
        let output_load = default_output_load(library);
        // Internal-net load at `pins` estimated consumers.
        let internal = |pins: usize| -> f64 { pin_cap * pins as f64 };
        // PO-net load: the tap pin becomes the output load.
        let po = |pins: usize| -> f64 { internal(pins - 1) + output_load };
        // Per-gate costs are fixed for the whole run; compute them once
        // instead of per candidate in the inner loop (the Energy flow
        // unit in particular walks the full power model).
        let cell_delay: Vec<[f64; FANOUT_BUCKETS]> = library
            .gates
            .iter()
            .map(|g| std::array::from_fn(|b| g.delay(Capacitance::new(internal(b + 1))).value()))
            .collect();
        let cell_delay_po: Vec<[f64; FANOUT_BUCKETS]> = library
            .gates
            .iter()
            .map(|g| std::array::from_fn(|b| g.delay(Capacitance::new(po(b + 1))).value()))
            .collect();
        let cell_unit: Vec<f64> = library
            .gates
            .iter()
            .map(|g| flow_unit(g, config.objective))
            .collect();
        let cell_area: Vec<f64> = library.gates.iter().map(|g| g.area).collect();
        Self {
            free_neg: library.family.free_input_negation(),
            inverter,
            inv_unit: cell_unit[inverter],
            inv_area: cell_area[inverter],
            cell_delay,
            cell_delay_po,
            cell_unit,
            cell_area,
        }
    }

    /// Extra arrival a match's pin pays for a complemented leaf (an
    /// explicit inverter unless the family negates for free). The shared
    /// inverter serves every complemented consumer of the leaf, so its
    /// load is estimated from the leaf's fanout bucket `leaf_fb` — an
    /// upper estimate (not all consumers read the complemented phase),
    /// but far closer to static timing on inverter-heavy critical paths
    /// than the old uniform two-pin charge.
    fn pin_delay(&self, inverted: bool, leaf_fb: usize) -> f64 {
        if inverted && !self.free_neg {
            self.cell_delay[self.inverter][leaf_fb]
        } else {
            0.0
        }
    }

    /// Delay from the worst pin arrival to the node's output net under
    /// the node's estimated fanout bucket `fb`: the cell at the right
    /// load point, plus the dedicated output inverter when the match is
    /// phase-flipped — the inverter, not the cell, then carries the
    /// node's net (and the PO load), while the cell drives exactly the
    /// inverter's single pin.
    fn match_delay(&self, po_driver: bool, fb: usize, gate: usize, output_inverted: bool) -> f64 {
        if output_inverted {
            self.cell_delay[gate][0]
                + if po_driver {
                    self.cell_delay_po[self.inverter][fb]
                } else {
                    self.cell_delay[self.inverter][fb]
                }
        } else if po_driver {
            self.cell_delay_po[gate][fb]
        } else {
            self.cell_delay[gate][fb]
        }
    }

    /// Extra delay between a node's positive phase and a primary-output
    /// tap of it: the shared PO inverter for complemented taps in
    /// families without free negation, priced as a pure PO driver.
    fn po_tap_extra(&self, complemented: bool) -> f64 {
        if complemented && !self.free_neg {
            self.cell_delay_po[self.inverter][0]
        } else {
            0.0
        }
    }

    /// The match's own flow/area contribution (cell plus dedicated
    /// output inverter; shared input inverters are priced by the caller,
    /// which knows the fanout discount to apply).
    fn match_unit(&self, gate: usize, output_inverted: bool) -> f64 {
        self.cell_unit[gate] + if output_inverted { self.inv_unit } else { 0.0 }
    }

    /// The match's own area: cell plus dedicated output inverter.
    fn match_area(&self, gate: usize, output_inverted: bool) -> f64 {
        self.cell_area[gate] + if output_inverted { self.inv_area } else { 0.0 }
    }
}

/// Scale-free comparison tolerance: arrival times are order 1e-11 s and
/// flows order 1e-15 m² — an absolute epsilon either never fires or
/// swallows everything, so every tie-break uses this relative form.
fn rel_eps(a: f64, b: f64) -> f64 {
    1e-12 * a.abs().max(b.abs())
}

/// What phase 3 hands to cover extraction: the match per node plus the
/// DP's own critical-path estimate for the selected cover.
struct Selection {
    /// Per node, the index of its chosen match.
    chosen: Vec<Option<u32>>,
    /// Predicted critical path in seconds (max predicted PO arrival).
    predicted: f64,
}

/// The DP's critical-path estimate: worst arrival over the primary
/// outputs, including the shared PO inverter on complemented taps.
fn predicted_critical(arrival: &[f64], outputs: &[Lit], costs: &Costs) -> f64 {
    outputs
        .iter()
        .map(|lit| arrival[lit.node() as usize] + costs.po_tap_extra(lit.is_complement()))
        .fold(0.0f64, f64::max)
}

/// Arrival of match `m` given current leaf arrivals, under the matched
/// node's estimated fanout bucket `fb` (leaf fanouts price the shared
/// pin inverters).
fn eval_match(
    arena: &MatchArena,
    m: u32,
    arrival: &[f64],
    fanouts: &[u32],
    po_driver: bool,
    fb: usize,
    costs: &Costs,
) -> f64 {
    let mut arr_in = 0.0f64;
    for pin in arena.pins(m) {
        let leaf = pin.node() as usize;
        let leaf_fb = fanout_bucket(fanouts[leaf]);
        arr_in = arr_in.max(arrival[leaf] + costs.pin_delay(pin.is_complement(), leaf_fb));
    }
    let rec = arena.get(m);
    arr_in + costs.match_delay(po_driver, fb, rec.gate as usize, rec.output_inverted)
}

/// Phase 3: objective-driven selection — one match per AND node.
///
/// Every node carries two costs: arrival time under the estimated net
/// loads (with PO drivers additionally charged
/// [`default_output_load`](crate::default_output_load)), and the
/// objective's flow metric (area or energy accumulated over the chosen
/// cover, discounted by fanout). [`Objective::Delay`] minimizes arrival
/// and tie-breaks on flow; [`Objective::Area`] / [`Objective::Energy`]
/// minimize flow and tie-break on arrival.
///
/// For [`Objective::Delay`] the DP is only the first phase: required
/// times are then propagated backward from the primary outputs and
/// [`MapConfig::recovery_rounds`](crate::MapConfig::recovery_rounds)
/// rounds of area recovery re-select matches on nodes with positive
/// slack — minimizing area flow first, exact local area afterwards —
/// subject to `arrival ≤ required`, so the recovered cover keeps the
/// DP's optimal depth while shedding area off the non-critical paths
/// (the classical two-phase mapper of ABC's `&if`).
///
/// Only the nodes of [`Network::order`] are priced: every AND node of a
/// plain network, the class representatives of a choice network.
fn select_matches(
    net: &Network<'_>,
    arena: &MatchArena,
    inverter: usize,
    library: &CharacterizedLibrary,
    config: &MapConfig,
) -> Result<Selection, MapError> {
    let costs = Costs::new(library, inverter, config);
    let fanouts = &net.fanouts[..];
    let n = net.aig.len();
    let mut po_driver = vec![false; n];
    for lit in net.outputs {
        po_driver[lit.node() as usize] = true;
    }

    let mut arrival = vec![0.0f64; n];
    let mut flow = vec![0.0f64; n];
    let mut chosen: Vec<Option<u32>> = vec![None; n];

    // Phase 3a: the arrival/flow DP.
    for &node in net.order.iter() {
        let idx = node as usize;
        let po = po_driver[idx];
        let fb = fanout_bucket(fanouts[idx]);
        let mut best: Option<(f64, f64, u32)> = None;
        for m in arena.of(node) {
            let arr = eval_match(arena, m, &arrival, fanouts, po, fb, &costs);
            let pins = arena.pins(m);
            let mut inv_flow_cost = 0.0;
            for pin in pins {
                if pin.is_complement() && !costs.free_neg {
                    // One materialized inverter serves every consumer of
                    // the complemented leaf, so its flow cost is
                    // discounted by the leaf's fanout exactly like the
                    // leaf's own flow below.
                    inv_flow_cost += costs.inv_unit / fanouts[pin.node() as usize].max(1) as f64;
                }
            }
            let rec = arena.get(m);
            let f = costs.match_unit(rec.gate as usize, rec.output_inverted)
                + inv_flow_cost
                + pins
                    .iter()
                    .map(|pin| {
                        let leaf = pin.node() as usize;
                        flow[leaf] / fanouts[leaf].max(1) as f64
                    })
                    .sum::<f64>();
            let better = match (&best, config.objective) {
                (None, _) => true,
                (Some((bd, bf, _)), Objective::Delay) => {
                    // Relative epsilon, like the flow branch below:
                    // arrivals are order 1e-11 s, so an absolute 1e-15
                    // tolerance would never declare a tie and the
                    // area-flow tie-break would never fire.
                    let eps = rel_eps(arr, *bd);
                    arr < bd - eps || ((arr - bd).abs() <= eps && f < *bf)
                }
                (Some((bd, bf, _)), Objective::Area | Objective::Energy) => {
                    // Relative epsilon: flow magnitudes differ by orders
                    // between area (m²) and energy (J), and summation
                    // order can perturb equal flows by an ulp — without
                    // the tolerance the arrival tie-break would never
                    // fire.
                    let eps = rel_eps(f, *bf);
                    f < *bf - eps || ((f - bf).abs() <= eps && arr < *bd)
                }
            };
            if better {
                best = Some((arr, f, m));
            }
        }
        let (arr, f, c) = best.ok_or(MapError::UnmatchedNode {
            node,
            cuts: net.cuts.cuts(node).len(),
        })?;
        arrival[idx] = arr;
        flow[idx] = f;
        chosen[idx] = Some(c);
    }

    // Phase 3b: required times + area recovery (delay objective only —
    // the other objectives already minimized their flow directly).
    if config.objective == Objective::Delay && config.recovery_rounds > 0 {
        let target = predicted_critical(&arrival, net.outputs, &costs);
        recover_area(
            RecoverCtx {
                net,
                arena,
                po_driver: &po_driver,
                costs: &costs,
                config,
                target,
            },
            &mut chosen,
            &mut arrival,
            &mut flow,
        );
    }

    let predicted = predicted_critical(&arrival, net.outputs, &costs);
    Ok(Selection { chosen, predicted })
}

/// The read-only state recovery rounds share (bundled so the round loop
/// and its helpers stay within clippy's argument budget).
struct RecoverCtx<'a> {
    net: &'a Network<'a>,
    arena: &'a MatchArena,
    po_driver: &'a [bool],
    costs: &'a Costs,
    config: &'a MapConfig,
    /// The DP's optimal critical path — the required time at every PO.
    target: f64,
}

/// Phase 3b: iterated area recovery under required times.
///
/// Each round recomputes the current cover's reference counts and
/// required times, then re-selects every node's match minimizing area
/// flow (round 1) or exact local area (later rounds) subject to
/// `arrival ≤ required` — the node's current match is always feasible,
/// so the cover's predicted critical path never exceeds `target`.
fn recover_area(
    ctx: RecoverCtx<'_>,
    chosen: &mut [Option<u32>],
    arrival: &mut [f64],
    flow: &mut [f64],
) {
    let (costs, net, arena) = (ctx.costs, ctx.net, ctx.arena);
    for round in 0..ctx.config.recovery_rounds {
        let mut span = obs::span!("map/recover");
        span.record("round", round as u64 + 1);
        let exact = round > 0;
        let mut cover = CoverRefs::of(arena, chosen, net.outputs, costs);
        let required = required_times(&ctx, chosen, &cover.refs);
        for &node in net.order.iter() {
            let idx = node as usize;
            let po = ctx.po_driver[idx];
            let fb = fanout_bucket(net.fanouts[idx]);
            let req = required[idx];
            // Tiny relative slack: required times are derived from the
            // same arithmetic, but subtraction re-association can cost
            // an ulp and must not reject the currently chosen match.
            let feasible = req + 1e-9 * req.abs();
            let covered = cover.refs[idx] > 0;
            // Exact-area probing prices a candidate's cone against the
            // cover *without* this node's current match, so sharing with
            // the match being replaced is not double-counted.
            if exact && covered {
                if let Some(c) = chosen[idx] {
                    cover.toggle(arena, c, chosen, costs, false);
                }
            }
            let mut best: Option<(f64, f64, u32)> = None;
            for m in arena.of(node) {
                let arr = eval_match(arena, m, arrival, &net.fanouts, po, fb, costs);
                if arr > feasible {
                    continue;
                }
                let cost = if exact {
                    let a = cover.toggle(arena, m, chosen, costs, true);
                    cover.toggle(arena, m, chosen, costs, false);
                    a
                } else {
                    let rec = arena.get(m);
                    let mut f = costs.match_unit(rec.gate as usize, rec.output_inverted);
                    for pin in arena.pins(m) {
                        let leaf = pin.node() as usize;
                        let share = cover.refs[leaf].max(1) as f64;
                        f += flow[leaf] / share;
                        if pin.is_complement() && !costs.free_neg {
                            f += costs.inv_unit / share;
                        }
                    }
                    f
                };
                let better = match &best {
                    None => true,
                    Some((bc, ba, _)) => {
                        let eps = rel_eps(cost, *bc);
                        cost < bc - eps || ((cost - bc).abs() <= eps && arr < *ba)
                    }
                };
                if better {
                    best = Some((cost, arr, m));
                }
            }
            match best {
                Some((cost, arr, m)) => {
                    if exact && covered {
                        cover.toggle(arena, m, chosen, costs, true);
                    }
                    arrival[idx] = arr;
                    if !exact {
                        flow[idx] = cost;
                    }
                    chosen[idx] = Some(m);
                }
                None => {
                    // Every candidate infeasible (float corner): keep the
                    // current match, refresh its arrival, restore refs.
                    if let Some(c) = chosen[idx] {
                        if exact && covered {
                            cover.toggle(arena, c, chosen, costs, true);
                        }
                        arrival[idx] = eval_match(arena, c, arrival, &net.fanouts, po, fb, costs);
                    }
                }
            }
        }
    }
}

/// Reference counts of the current cover: `refs[n]` consumers (covered
/// matches plus PO taps) reading node `n`, `inv_refs[n]` of them through
/// the shared inverter (families without free negation only). The
/// exact-area walks keep both incrementally up to date.
struct CoverRefs {
    refs: Vec<u32>,
    inv_refs: Vec<u32>,
    /// The walks' work list, kept across walks.
    stack: Vec<Lit>,
}

impl CoverRefs {
    /// The counts of the cover the primary outputs reach.
    fn of(arena: &MatchArena, chosen: &[Option<u32>], outputs: &[Lit], costs: &Costs) -> Self {
        let mut cover = CoverRefs {
            refs: vec![0; chosen.len()],
            inv_refs: vec![0; chosen.len()],
            stack: Vec::new(),
        };
        cover.walk(0.0, outputs, arena, chosen, costs, true);
        cover
    }

    /// Pulls match `m` into the cover (`add`) or removes it: moves its pin
    /// references, recursively (un)covering leaves whose count leaves or
    /// returns to zero, and returns the exact area added or freed —
    /// cells, dedicated output inverters, and shared input inverters.
    fn toggle(
        &mut self,
        arena: &MatchArena,
        m: u32,
        chosen: &[Option<u32>],
        costs: &Costs,
        add: bool,
    ) -> f64 {
        let rec = arena.get(m);
        let area = costs.match_area(rec.gate as usize, rec.output_inverted);
        self.walk(area, arena.pins(m), arena, chosen, costs, add)
    }

    /// [`CoverRefs::toggle`]'s walk from `pins`, accumulating onto `area`.
    /// Iterative so megagate-deep covers cannot overflow the stack.
    fn walk(
        &mut self,
        mut area: f64,
        pins: &[Lit],
        arena: &MatchArena,
        chosen: &[Option<u32>],
        costs: &Costs,
        add: bool,
    ) -> f64 {
        // Steps a count; true when it crosses between zero and one.
        let step = |count: &mut u32| {
            if add {
                *count += 1;
                *count == 1
            } else {
                *count -= 1;
                *count == 0
            }
        };
        self.stack.clear();
        self.stack.extend_from_slice(pins);
        while let Some(pin) = self.stack.pop() {
            let l = pin.node() as usize;
            if pin.is_complement() && !costs.free_neg && step(&mut self.inv_refs[l]) {
                area += costs.inv_area;
            }
            if step(&mut self.refs[l]) {
                if let Some(c) = chosen[l] {
                    let rec = arena.get(c);
                    area += costs.match_area(rec.gate as usize, rec.output_inverted);
                    self.stack.extend_from_slice(arena.pins(c));
                }
            }
        }
        area
    }
}

/// Backward required-time propagation over the current cover: every PO
/// is required at `target` (the DP's optimal critical path), and each
/// covered match propagates `required − match delay − pin inverter` to
/// its leaves. Uncovered nodes keep `+∞` — they constrain nothing until
/// a later re-selection pulls them in, at which point the consumer's own
/// feasibility check prices their true arrival.
fn required_times(ctx: &RecoverCtx<'_>, chosen: &[Option<u32>], refs: &[u32]) -> Vec<f64> {
    let (costs, net, arena) = (ctx.costs, ctx.net, ctx.arena);
    let mut required = vec![f64::INFINITY; chosen.len()];
    for lit in net.outputs {
        let idx = lit.node() as usize;
        let r = ctx.target - costs.po_tap_extra(lit.is_complement());
        if r < required[idx] {
            required[idx] = r;
        }
    }
    for &node in net.order.iter().rev() {
        let idx = node as usize;
        if refs[idx] == 0 || !required[idx].is_finite() {
            continue;
        }
        let Some(c) = chosen[idx] else { continue };
        let fb = fanout_bucket(net.fanouts[idx]);
        let rec = arena.get(c);
        let d = costs.match_delay(
            ctx.po_driver[idx],
            fb,
            rec.gate as usize,
            rec.output_inverted,
        );
        for pin in arena.pins(c) {
            let l = pin.node() as usize;
            let leaf_fb = fanout_bucket(net.fanouts[l]);
            let r = required[idx] - d - costs.pin_delay(pin.is_complement(), leaf_fb);
            if r < required[l] {
                required[l] = r;
            }
        }
    }
    required
}

/// Phase 4: walks the chosen matches from the primary outputs and lists
/// the matches actually used, in post-order (fanins precede consumers).
fn extract_cover(
    net: &Network<'_>,
    arena: &MatchArena,
    chosen: &[Option<u32>],
) -> Result<Vec<CoverStep>, MapError> {
    for (k, lit) in net.outputs.iter().enumerate() {
        if lit.node() == 0 {
            return Err(MapError::ConstantOutput { output: k });
        }
    }
    let mut emitted = vec![false; net.aig.len()];
    for &node in net.aig.input_nodes() {
        emitted[node as usize] = true;
    }
    let mut steps = Vec::new();
    // Iterative post-order DFS (two-phase stack entries).
    let mut stack: Vec<(u32, bool)> = Vec::new();
    for lit in net.outputs {
        stack.push((lit.node(), false));
        while let Some((node, expanded)) = stack.pop() {
            if emitted[node as usize] {
                continue;
            }
            // Defensive: selection already matched every reachable AND
            // node, so this only fires for non-logic nodes reachable via
            // a malformed cover (e.g. the constant node as a pin leaf).
            let c = chosen[node as usize].ok_or(MapError::UnmatchedNode {
                node,
                cuts: net.cuts.cuts(node).len(),
            })?;
            if expanded {
                emitted[node as usize] = true;
                steps.push(CoverStep { node, chosen: c });
            } else {
                stack.push((node, true));
                // Push leaves in reverse so they materialize in pin order.
                for pin in arena.pins(c).iter().rev() {
                    if !emitted[pin.node() as usize] {
                        stack.push((pin.node(), false));
                    }
                }
            }
        }
    }
    Ok(steps)
}

/// Phase 5: turns the cover into cell instances, materializing shared
/// inverters where the family's signal convention requires them, and
/// assembles the final netlist.
fn materialize(
    library: &CharacterizedLibrary,
    inv_idx: usize,
    cover: &[CoverStep],
    arena: &MatchArena,
    net: &Network<'_>,
) -> MappedNetlist {
    let (input_nodes, outputs) = (net.aig.input_nodes(), net.outputs);
    let free_neg = library.family.free_input_negation();
    let pi_count = input_nodes.len();
    let mut instances: Vec<Instance> = Vec::with_capacity(cover.len());
    // Positive net of each emitted node.
    let mut node_net: HashMap<u32, usize> = HashMap::new();
    for (ordinal, &node) in input_nodes.iter().enumerate() {
        node_net.insert(node, ordinal);
    }
    // Shared inverter outputs per source net.
    let mut inverted_net: HashMap<usize, usize> = HashMap::new();
    let shared_inverter =
        |net: usize, instances: &mut Vec<Instance>, inverted_net: &mut HashMap<usize, usize>| {
            *inverted_net.entry(net).or_insert_with(|| {
                instances.push(Instance {
                    gate: inv_idx,
                    inputs: vec![NetRef::plain(net)],
                });
                pi_count + instances.len() - 1
            })
        };

    for step in cover {
        let pins = arena.pins(step.chosen);
        let mut inputs = Vec::with_capacity(pins.len());
        for pin in pins {
            let leaf_net = node_net[&pin.node()];
            let net_ref = if pin.is_complement() && !free_neg {
                NetRef::plain(shared_inverter(leaf_net, &mut instances, &mut inverted_net))
            } else {
                NetRef {
                    net: leaf_net,
                    inverted: pin.is_complement(),
                }
            };
            inputs.push(net_ref);
        }
        let rec = arena.get(step.chosen);
        instances.push(Instance {
            gate: rec.gate as usize,
            inputs,
        });
        let mut net = pi_count + instances.len() - 1;
        if rec.output_inverted {
            instances.push(Instance {
                gate: inv_idx,
                inputs: vec![NetRef::plain(net)],
            });
            net = pi_count + instances.len() - 1;
        }
        node_net.insert(step.node, net);
    }

    let mut out_refs = Vec::with_capacity(outputs.len());
    for lit in outputs {
        let net = node_net[&lit.node()];
        let r = if lit.is_complement() {
            if free_neg {
                NetRef {
                    net,
                    inverted: true,
                }
            } else {
                NetRef::plain(shared_inverter(net, &mut instances, &mut inverted_net))
            }
        } else {
            NetRef::plain(net)
        };
        out_refs.push(r);
    }
    MappedNetlist::new(library.family, pi_count, instances, out_refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_mapping;
    use charlib::characterize_library;
    use gate_lib::GateFamily;

    fn map_default(aig: &Aig, library: &CharacterizedLibrary) -> MappedNetlist {
        map_aig(aig, library, &MapConfig::default()).expect("default mapping succeeds")
    }

    fn small_alu_aig() -> Aig {
        let mut aig = Aig::new();
        let a: Vec<_> = (0..4).map(|_| aig.input()).collect();
        let b: Vec<_> = (0..4).map(|_| aig.input()).collect();
        // 4-bit ripple adder + AND/XOR banks.
        let mut carry = aig::Lit::FALSE;
        for i in 0..4 {
            let axb = aig.xor(a[i], b[i]);
            let sum = aig.xor(axb, carry);
            let c1 = aig.and(a[i], b[i]);
            let c2 = aig.and(axb, carry);
            carry = aig.or(c1, c2);
            aig.output(sum);
        }
        aig.output(carry);
        for i in 0..4 {
            let f = aig.and(a[i], b[i].not());
            aig.output(f);
        }
        aig
    }

    #[test]
    fn maps_and_verifies_all_families() {
        let aig = small_alu_aig();
        for family in GateFamily::ALL {
            let lib = characterize_library(family);
            let mapped = map_default(&aig, &lib);
            assert!(
                verify_mapping(&aig, &mapped, &lib).is_ok(),
                "{family}: mapped netlist differs from AIG"
            );
            assert!(mapped.gate_count() > 0);
        }
    }

    #[test]
    fn all_objectives_verify_and_order_sensibly() {
        let aig = small_alu_aig();
        for family in GateFamily::ALL {
            let lib = characterize_library(family);
            let mut areas = Vec::new();
            for objective in Objective::ALL {
                let mapped = map_aig(&aig, &lib, &MapConfig::for_objective(objective))
                    .expect("mapping succeeds");
                assert!(
                    verify_mapping(&aig, &mapped, &lib).is_ok(),
                    "{family}/{objective}: mapped netlist differs from AIG"
                );
                areas.push(mapped.area(&lib));
            }
            // Area mapping must not occupy more silicon than pure
            // depth-greedy delay mapping (the metric it actually
            // minimizes; gate counts can legitimately order either way
            // since cells differ in size). Compare against the
            // un-recovered mapper: with recovery enabled the delay
            // objective's exact-local-area rounds can beat single-pass
            // area flow outright.
            let greedy_delay = map_aig(
                &aig,
                &lib,
                &MapConfig {
                    recovery_rounds: 0,
                    ..MapConfig::default()
                },
            )
            .expect("mapping succeeds")
            .area(&lib);
            assert!(
                areas[1] <= greedy_delay * (1.0 + 1e-9),
                "{family}: area-objective {} m² vs greedy delay {greedy_delay} m²",
                areas[1]
            );
        }
    }

    #[test]
    fn custom_cut_width_still_verifies() {
        let aig = small_alu_aig();
        let lib = characterize_library(GateFamily::Cmos);
        for k in [2usize, 4] {
            let config = MapConfig {
                cut_k: k,
                ..MapConfig::default()
            };
            let mapped = map_aig(&aig, &lib, &config).expect("mapping succeeds");
            assert!(verify_mapping(&aig, &mapped, &lib).is_ok(), "k = {k}");
        }
    }

    #[test]
    fn invalid_cut_width_is_an_error() {
        let aig = small_alu_aig();
        let lib = characterize_library(GateFamily::Cmos);
        for k in [0usize, 1, 7] {
            let config = MapConfig {
                cut_k: k,
                ..MapConfig::default()
            };
            assert_eq!(
                map_aig(&aig, &lib, &config).err(),
                Some(MapError::InvalidCutK { k })
            );
        }
    }

    #[test]
    fn cut_db_mapping_matches_and_reuses() {
        // Mapping through a shared match cache and a persistent CutDb is
        // identical to the one-shot path (private cache, fresh database),
        // and a second run over the same network recomputes nothing.
        let aig = small_alu_aig();
        let lib = characterize_library(GateFamily::Cmos);
        let cache = NpnMatchCache::new(&lib).expect("cache builds");
        let config = MapConfig::default();
        let one_shot = map_aig(&aig, &lib, &config).expect("maps");
        let mut db = CutDb::new(CutConfig {
            k: config.cut_k,
            max_cuts: config.max_cuts,
        });
        let map_with_db = |db: &mut CutDb| {
            map_subject(Subject::Plain(&aig, db), &lib, &cache, &config).expect("maps")
        };
        let scope = obs::JobScope::begin();
        let first = map_with_db(&mut db);
        assert_eq!(first.instances, one_shot.instances);
        assert_eq!(first.outputs(), one_shot.outputs());
        let once = aig::profile::scoped(&scope);
        assert!(once.cuts_computed > 0);
        let second = map_with_db(&mut db);
        assert_eq!(second.instances, one_shot.instances);
        let warm = aig::profile::scoped(&scope).delta_since(&once);
        assert_eq!(
            warm.cuts_computed, 0,
            "a warm database must serve every cut set"
        );
        assert!(warm.cuts_reused > 0);
    }

    #[test]
    fn cut_db_shape_mismatch_is_an_error() {
        let aig = small_alu_aig();
        let lib = characterize_library(GateFamily::Cmos);
        let cache = NpnMatchCache::new(&lib).expect("cache builds");
        let config = MapConfig::default();
        let mut db = CutDb::new(CutConfig { k: 4, max_cuts: 4 });
        assert_eq!(
            map_subject(Subject::Plain(&aig, &mut db), &lib, &cache, &config).err(),
            Some(MapError::InvalidCutK { k: 4 })
        );
    }

    #[test]
    fn constant_output_is_an_error_not_a_panic() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let f = aig.and(a, b);
        aig.output(f);
        aig.output(aig::Lit::TRUE);
        let lib = characterize_library(GateFamily::Cmos);
        assert_eq!(
            map_aig(&aig, &lib, &MapConfig::default()).err(),
            Some(MapError::ConstantOutput { output: 1 })
        );
    }

    #[test]
    fn generalized_mapping_is_smaller_on_xor_logic() {
        // A parity-heavy block: the generalized library should need
        // clearly fewer cells than CMOS.
        let mut aig = Aig::new();
        let xs: Vec<_> = (0..8).map(|_| aig.input()).collect();
        for chunk in xs.chunks(4) {
            let p = aig.xor_many(chunk);
            aig.output(p);
        }
        let gen = characterize_library(GateFamily::CntfetGeneralized);
        let cmos = characterize_library(GateFamily::Cmos);
        let m_gen = map_default(&aig, &gen);
        let m_cmos = map_default(&aig, &cmos);
        assert!(verify_mapping(&aig, &m_gen, &gen).is_ok());
        assert!(verify_mapping(&aig, &m_cmos, &cmos).is_ok());
        assert!(
            m_gen.gate_count() < m_cmos.gate_count(),
            "generalized {} vs CMOS {}",
            m_gen.gate_count(),
            m_cmos.gate_count()
        );
    }

    #[test]
    fn conventional_families_map_identically() {
        // Same cells, same matcher ⇒ same structure; only the technology
        // (delays, caps) differs.
        let aig = small_alu_aig();
        let cnt = characterize_library(GateFamily::CntfetConventional);
        let cmos = characterize_library(GateFamily::Cmos);
        let m_cnt = map_default(&aig, &cnt);
        let m_cmos = map_default(&aig, &cmos);
        assert_eq!(m_cnt.gate_count(), m_cmos.gate_count());
    }

    #[test]
    fn inverters_are_shared() {
        // Multiple consumers of the same complemented net must reuse one
        // inverter in conventional mapping.
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let f1 = aig.and(a.not(), b);
        let f2 = aig.and(a.not(), c);
        aig.output(f1);
        aig.output(f2);
        let lib = characterize_library(GateFamily::Cmos);
        let mapped = map_default(&aig, &lib);
        assert!(verify_mapping(&aig, &mapped, &lib).is_ok());
        let inv_count = mapped
            .instances
            .iter()
            .filter(|i| lib.gates[i.gate].gate.name == "INV")
            .count();
        // NAND/NOR-class cells can absorb the negations entirely, but if
        // any inverter exists there must be at most one for net `a`.
        assert!(inv_count <= 1, "inverters not shared: {inv_count}");
    }

    /// A flow with a `dch` step over the small ALU: its choice network.
    fn alu_choices() -> aig::ChoiceAig {
        let flow = aig::Flow::parse("b; rw; rf; dch").expect("parses");
        let (_, choices, _) = flow.run_with_choices(&small_alu_aig());
        choices.expect("dch returns choices")
    }

    fn map_choices(
        choices: &aig::ChoiceAig,
        lib: &CharacterizedLibrary,
        config: &MapConfig,
    ) -> Result<MappedNetlist, MapError> {
        let cache = NpnMatchCache::new(lib).expect("INV present");
        map_subject(Subject::Choices(choices), lib, &cache, config)
    }

    #[test]
    fn choice_mapping_verifies_in_all_families() {
        let original = small_alu_aig();
        let choices = alu_choices();
        for family in GateFamily::ALL {
            let lib = characterize_library(family);
            let mapped = map_choices(&choices, &lib, &MapConfig::default())
                .expect("choice mapping succeeds");
            assert!(
                verify_mapping(&original, &mapped, &lib).is_ok(),
                "{family}: choice-mapped netlist differs from the original AIG"
            );
            assert!(mapped.gate_count() > 0);
        }
    }

    #[test]
    fn choice_mapping_verifies_across_objectives() {
        let original = small_alu_aig();
        let choices = alu_choices();
        let lib = characterize_library(GateFamily::Cmos);
        for objective in Objective::ALL {
            let mapped =
                map_choices(&choices, &lib, &MapConfig::for_objective(objective)).expect("maps");
            assert!(
                verify_mapping(&original, &mapped, &lib).is_ok(),
                "{objective}: choice-mapped netlist differs"
            );
        }
    }

    #[test]
    fn choice_mapping_rejects_bad_cut_width() {
        let choices = alu_choices();
        let lib = characterize_library(GateFamily::Cmos);
        let config = MapConfig {
            cut_k: 9,
            ..MapConfig::default()
        };
        assert_eq!(
            map_choices(&choices, &lib, &config).err(),
            Some(MapError::InvalidCutK { k: 9 })
        );
    }

    /// A resolved match, as the arena oracle lists it.
    #[derive(Debug, PartialEq)]
    struct Chosen {
        gate: usize,
        /// `(leaf_node, inverted)` per cell pin.
        pins: Vec<(u32, bool)>,
        output_inverted: bool,
    }

    /// Every library match of every non-trivial cut of `node`, with its
    /// pins on the cut's support leaves, in cut-then-match order — the
    /// per-visit derivation the match arena replaced, kept as its oracle.
    fn candidates(node: u32, cuts: &CutDb, matcher: &mut Matcher<'_>) -> Vec<Chosen> {
        let mut out = Vec::new();
        for cut in cuts.cuts(node) {
            if cut.is_trivial(node) {
                continue;
            }
            let support = cut.function_over_support();
            let leaves = support.leaves();
            if leaves.is_empty() {
                continue;
            }
            out.extend(matcher.matches(support.tt()).iter().map(|cand| Chosen {
                gate: cand.gate,
                pins: cand.pins.iter().map(|&(v, inv)| (leaves[v], inv)).collect(),
                output_inverted: cand.output_inverted,
            }));
        }
        out
    }

    /// Builds the arena over `order` for every family and checks each
    /// node's slice against [`candidates`], in order.
    fn assert_arena_is_candidates(len: usize, order: &[u32], cuts: &CutDb) {
        for family in GateFamily::ALL {
            let cache = NpnMatchCache::for_family(family).expect("INV present");
            let arena = MatchArena::build(len, order, cuts, &mut Matcher::new(&cache));
            let mut oracle = Matcher::new(&cache);
            let mut listed = 0;
            for &node in order {
                let slice: Vec<Chosen> = arena
                    .of(node)
                    .map(|m| Chosen {
                        gate: arena.get(m).gate as usize,
                        pins: arena
                            .pins(m)
                            .iter()
                            .map(|pin| (pin.node(), pin.is_complement()))
                            .collect(),
                        output_inverted: arena.get(m).output_inverted,
                    })
                    .collect();
                assert_eq!(
                    slice,
                    candidates(node, cuts, &mut oracle),
                    "{family}: node {node}"
                );
                listed += slice.len();
            }
            assert_eq!(
                listed,
                arena.list.len(),
                "{family}: records outside the order"
            );
            assert!(listed > 0, "{family}: nothing matched");
        }
    }

    #[test]
    fn match_arena_lists_each_nodes_candidates_in_order() {
        let config = MapConfig::default();
        let shape = CutConfig {
            k: config.cut_k,
            max_cuts: config.max_cuts,
        };
        for name in ["C1355", "C7552"] {
            let aig = bench_circuits::benchmark_by_name(name)
                .expect("catalog circuit")
                .aig
                .cleanup();
            let mut cuts = CutDb::new(shape);
            cuts.ensure(&aig);
            let order: Vec<u32> = (0..aig.len() as u32)
                .filter(|&n| matches!(aig.node(n), Node::And(_, _)))
                .collect();
            assert_arena_is_candidates(aig.len(), &order, &cuts);
        }
        let c1355 = bench_circuits::benchmark_by_name("C1355")
            .expect("catalog circuit")
            .aig;
        let (_, choices, _) = aig::Flow::parse("b; rw; rf; dch")
            .expect("parses")
            .run_with_choices(&c1355);
        let choices = choices.expect("dch returns choices");
        let mut cuts = CutDb::new(shape);
        cuts.fill_choices(&choices);
        assert_arena_is_candidates(choices.arena().len(), choices.class_order(), &cuts);
    }

    #[test]
    fn instances_are_topologically_ordered() {
        let aig = small_alu_aig();
        let lib = characterize_library(GateFamily::CntfetGeneralized);
        let mapped = map_default(&aig, &lib);
        for (i, inst) in mapped.instances.iter().enumerate() {
            for r in &inst.inputs {
                assert!(
                    r.net < mapped.pi_count + i,
                    "instance {i} reads undriven net {}",
                    r.net
                );
            }
        }
    }
}
