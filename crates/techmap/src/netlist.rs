//! Mapped netlists: cell instances wired by nets.

use charlib::CharacterizedLibrary;
use gate_lib::GateFamily;

/// A reference to a net with an optional (dual-rail) complement flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NetRef {
    /// Net id: `0..pi_count` are primary inputs, `pi_count + i` is the
    /// output of instance `i`.
    pub net: usize,
    /// Whether the complemented rail is referenced. Only the generalized
    /// family leaves this set on instance pins; conventional families
    /// materialize inverters instead.
    pub inverted: bool,
}

impl NetRef {
    /// A plain (non-inverted) reference.
    pub fn plain(net: usize) -> Self {
        Self {
            net,
            inverted: false,
        }
    }
}

/// One mapped cell instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance {
    /// Index into the characterized library's gate list.
    pub gate: usize,
    /// Input connections, one per cell pin.
    pub inputs: Vec<NetRef>,
}

/// A technology-mapped netlist.
///
/// Built once by [`MappedNetlist::new`] and immutable afterwards; the
/// constructor precomputes the output-net index that the word-level
/// readers ([`MappedNetlist::output_words`] and friends) use, so per-word
/// hot loops never re-resolve [`NetRef`]s.
#[derive(Clone, Debug)]
pub struct MappedNetlist {
    /// The family this netlist was mapped onto.
    pub family: GateFamily,
    /// Number of primary inputs.
    pub pi_count: usize,
    /// Instances in topological order (fanins precede consumers).
    pub instances: Vec<Instance>,
    /// Primary outputs. Private so it cannot drift out of sync with the
    /// precomputed `output_index`; read through
    /// [`MappedNetlist::outputs`].
    outputs: Vec<NetRef>,
    /// Precomputed output-net index: `(net, complement mask)` per primary
    /// output. The mask is `u64::MAX` for inverted taps so a word read is
    /// one branch-free `values[net] ^ mask`.
    output_index: Vec<(usize, u64)>,
    /// The mapper's own critical-path estimate in seconds (the selection
    /// DP's arrival bookkeeping for the emitted cover); `None` for
    /// hand-built netlists.
    predicted_delay_s: Option<f64>,
}

impl MappedNetlist {
    /// Assembles a netlist and precomputes its output-net index.
    ///
    /// Instances must be in topological order (every input net of instance
    /// `i` below `pi_count + i`) and outputs must reference existing nets;
    /// both are debug-asserted.
    pub fn new(
        family: GateFamily,
        pi_count: usize,
        instances: Vec<Instance>,
        outputs: Vec<NetRef>,
    ) -> Self {
        debug_assert!(instances
            .iter()
            .enumerate()
            .all(|(i, inst)| inst.inputs.iter().all(|r| r.net < pi_count + i)));
        debug_assert!(outputs.iter().all(|r| r.net < pi_count + instances.len()));
        let output_index = outputs
            .iter()
            .map(|r| (r.net, if r.inverted { u64::MAX } else { 0 }))
            .collect();
        Self {
            family,
            pi_count,
            instances,
            outputs,
            output_index,
            predicted_delay_s: None,
        }
    }

    /// The primary outputs, in declaration order.
    pub fn outputs(&self) -> &[NetRef] {
        &self.outputs
    }

    /// The mapper's own critical-path estimate in seconds — the arrival
    /// the selection DP predicted for this cover under its net-load and
    /// output-load estimates. `None`
    /// for netlists not produced by the mapper. Compare against
    /// [`critical_path`](crate::sta::critical_path) to gauge how closely
    /// the mapping-time timing model tracks the exact per-net loads.
    pub fn predicted_delay_s(&self) -> Option<f64> {
        self.predicted_delay_s
    }

    /// Records the mapper's critical-path estimate (mapper-internal).
    pub(crate) fn set_predicted_delay_s(&mut self, seconds: f64) {
        self.predicted_delay_s = Some(seconds);
    }

    /// Total number of nets (PIs + instance outputs).
    pub fn net_count(&self) -> usize {
        self.pi_count + self.instances.len()
    }

    /// The net driven by instance `i`.
    pub fn instance_output_net(&self, i: usize) -> usize {
        self.pi_count + i
    }

    /// Mapped gate count (the paper's "No." column — includes inverters).
    pub fn gate_count(&self) -> usize {
        self.instances.len()
    }

    /// Total cell area in square metres.
    pub fn area(&self, library: &CharacterizedLibrary) -> f64 {
        self.instances
            .iter()
            .map(|inst| library.gates[inst.gate].area)
            .sum()
    }

    /// Total transistor count.
    pub fn transistor_count(&self, library: &CharacterizedLibrary) -> usize {
        self.instances
            .iter()
            .map(|inst| library.gates[inst.gate].gate.transistor_count())
            .sum()
    }

    /// Simulates the netlist on 64 parallel patterns per word.
    ///
    /// `pi_words[i]` carries the values of primary input `i`. Returns the
    /// word of every net (indexable by net id), with outputs read via
    /// [`MappedNetlist::output_words`].
    ///
    /// # Panics
    ///
    /// Panics if `pi_words.len() != pi_count`.
    pub fn simulate64(&self, library: &CharacterizedLibrary, pi_words: &[u64]) -> Vec<u64> {
        let mut values = Vec::new();
        self.simulate64_into(library, pi_words, &mut values);
        values
    }

    /// Like [`MappedNetlist::simulate64`] but reusing a caller-provided
    /// buffer — the allocation-free form the per-word power-simulation
    /// loop runs on. Pin words live in a fixed stack array (cells have at
    /// most [`logic::MAX_VARS`] pins), so a simulated word allocates
    /// nothing beyond the one `values` growth on first use.
    ///
    /// # Panics
    ///
    /// Panics if `pi_words.len() != pi_count`.
    pub fn simulate64_into(
        &self,
        library: &CharacterizedLibrary,
        pi_words: &[u64],
        values: &mut Vec<u64>,
    ) {
        assert_eq!(pi_words.len(), self.pi_count, "primary input word count");
        values.clear();
        values.resize(self.net_count(), 0);
        values[..self.pi_count].copy_from_slice(pi_words);
        let mut pins = [0u64; logic::MAX_VARS];
        for (i, inst) in self.instances.iter().enumerate() {
            let f = library.gates[inst.gate].gate.function;
            for (k, r) in inst.inputs.iter().enumerate() {
                let w = values[r.net];
                pins[k] = if r.inverted { !w } else { w };
            }
            values[self.pi_count + i] = f.eval_words(&pins[..inst.inputs.len()]);
        }
    }

    /// Rebuilds the netlist as an [`Aig`](aig::Aig) — the back-conversion
    /// that makes mapped results checkable against their source network.
    ///
    /// Each cell instance becomes the ISOP cover of its library function
    /// over the instance's pin literals (dual-rail `inverted` references
    /// become complemented edges), so the result computes exactly what
    /// [`MappedNetlist::simulate64`] computes. Feed it to
    /// [`aig::check_equivalence`] — or use
    /// [`verify_mapping`](crate::verify::verify_mapping), which does — to
    /// *prove* the mapping correct.
    pub fn to_aig(&self, library: &CharacterizedLibrary) -> aig::Aig {
        let mut out = aig::Aig::new();
        let mut nets: Vec<aig::Lit> = (0..self.pi_count).map(|_| out.input()).collect();
        for inst in &self.instances {
            let pins: Vec<aig::Lit> = inst
                .inputs
                .iter()
                .map(|r| apply_phase(nets[r.net], r.inverted))
                .collect();
            let f = tt_to_aig(&mut out, library.gates[inst.gate].gate.function, &pins);
            nets.push(f);
        }
        for r in self.outputs() {
            out.output(apply_phase(nets[r.net], r.inverted));
        }
        out
    }

    /// Reads the primary-output words from a simulated value vector via
    /// the precomputed output-net index.
    pub fn output_words(&self, values: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        self.output_words_into(values, &mut out);
        out
    }

    /// Like [`MappedNetlist::output_words`] but reusing a caller-provided
    /// buffer.
    pub fn output_words_into(&self, values: &[u64], out: &mut Vec<u64>) {
        out.clear();
        out.extend(
            self.output_index
                .iter()
                .map(|&(net, mask)| values[net] ^ mask),
        );
    }
}

fn apply_phase(l: aig::Lit, inverted: bool) -> aig::Lit {
    if inverted {
        l.not()
    } else {
        l
    }
}

/// Builds a cell function as the OR of its ISOP cubes over pin literals.
fn tt_to_aig(out: &mut aig::Aig, tt: logic::TruthTable, pins: &[aig::Lit]) -> aig::Lit {
    // Same contract as `TruthTable::eval_words`: one pin per variable. A
    // mismatch must fail loudly here too — silently dropping cube
    // literals would make the back-conversion (and thus the SAT "proof"
    // built on it) model a different function than the netlist computes.
    assert_eq!(pins.len(), tt.n_vars(), "pin count vs cell function arity");
    if tt.is_zero() {
        return aig::Lit::FALSE;
    }
    if tt.is_one() {
        return aig::Lit::TRUE;
    }
    let terms: Vec<aig::Lit> = logic::isop(tt)
        .iter()
        .map(|cube| {
            let lits: Vec<aig::Lit> = (0..tt.n_vars())
                .filter(|&v| (cube.care >> v) & 1 == 1)
                .map(|v| apply_phase(pins[v], (cube.polarity >> v) & 1 == 0))
                .collect();
            out.and_many(&lits)
        })
        .collect();
    out.or_many(&terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use charlib::characterize_library;

    #[test]
    fn to_aig_matches_word_simulation() {
        let lib = characterize_library(GateFamily::CntfetGeneralized);
        // XNOR2 cell driven with one inverted pin, plus an inverted
        // output tap: the back-conversion must reproduce both phases.
        let xor_idx = lib
            .gates
            .iter()
            .position(|g| g.gate.name == "XNOR2")
            .expect("generalized family has an XNOR2 cell");
        let netlist = MappedNetlist::new(
            GateFamily::CntfetGeneralized,
            2,
            vec![Instance {
                gate: xor_idx,
                inputs: vec![
                    NetRef {
                        net: 0,
                        inverted: true,
                    },
                    NetRef::plain(1),
                ],
            }],
            vec![
                NetRef::plain(2),
                NetRef {
                    net: 2,
                    inverted: true,
                },
            ],
        );
        let rebuilt = netlist.to_aig(&lib);
        assert_eq!(rebuilt.input_count(), 2);
        assert_eq!(rebuilt.output_count(), 2);
        let words = [0b0101u64, 0b0011];
        let values = netlist.simulate64(&lib, &words);
        let expect = netlist.output_words(&values);
        let got = aig::simulate64(&rebuilt, &words);
        for (e, g) in expect.iter().zip(got.iter()) {
            assert_eq!(e & 0xF, g & 0xF);
        }
    }

    #[test]
    fn hand_built_netlist_simulates() {
        // NAND2 feeding INV = AND2.
        let lib = characterize_library(GateFamily::Cmos);
        let nand_idx = lib
            .gates
            .iter()
            .position(|g| g.gate.name == "NAND2")
            .expect("NAND2");
        let inv_idx = lib
            .gates
            .iter()
            .position(|g| g.gate.name == "INV")
            .expect("INV");
        let netlist = MappedNetlist::new(
            GateFamily::Cmos,
            2,
            vec![
                Instance {
                    gate: nand_idx,
                    inputs: vec![NetRef::plain(0), NetRef::plain(1)],
                },
                Instance {
                    gate: inv_idx,
                    inputs: vec![NetRef::plain(2)],
                },
            ],
            vec![NetRef::plain(3)],
        );
        let values = netlist.simulate64(&lib, &[0b0101, 0b0011]);
        let out = netlist.output_words(&values);
        assert_eq!(out[0] & 0xF, 0b0001, "AND of the two inputs");
        assert_eq!(netlist.gate_count(), 2);
        assert!(netlist.area(&lib) > 0.0);
        assert_eq!(netlist.transistor_count(&lib), 4 + 2);
    }

    #[test]
    fn inverted_netref_reads_complement_rail() {
        let lib = characterize_library(GateFamily::CntfetGeneralized);
        let inv_idx = lib
            .gates
            .iter()
            .position(|g| g.gate.name == "INV")
            .expect("INV");
        let netlist = MappedNetlist::new(
            GateFamily::CntfetGeneralized,
            1,
            vec![Instance {
                gate: inv_idx,
                inputs: vec![NetRef {
                    net: 0,
                    inverted: true,
                }],
            }],
            vec![NetRef::plain(1)],
        );
        let values = netlist.simulate64(&lib, &[0b01]);
        // INV of inverted input = identity.
        assert_eq!(netlist.output_words(&values)[0] & 0b11, 0b01);
    }

    #[test]
    fn output_index_resolves_inverted_taps() {
        let lib = characterize_library(GateFamily::CntfetGeneralized);
        let inv_idx = lib
            .gates
            .iter()
            .position(|g| g.gate.name == "INV")
            .expect("INV");
        let netlist = MappedNetlist::new(
            GateFamily::CntfetGeneralized,
            1,
            vec![Instance {
                gate: inv_idx,
                inputs: vec![NetRef::plain(0)],
            }],
            vec![
                NetRef::plain(1),
                NetRef {
                    net: 1,
                    inverted: true,
                },
            ],
        );
        let mut values = Vec::new();
        netlist.simulate64_into(&lib, &[0b0011], &mut values);
        let mut out = Vec::new();
        netlist.output_words_into(&values, &mut out);
        // Output 0 is INV(a); output 1 is its complement rail, i.e. a.
        assert_eq!(out[0] & 0xF, !0b0011u64 & 0xF);
        assert_eq!(out[1] & 0xF, 0b0011);
        // Buffers are reusable without stale state.
        netlist.simulate64_into(&lib, &[0b0101], &mut values);
        netlist.output_words_into(&values, &mut out);
        assert_eq!(out[1] & 0xF, 0b0101);
    }
}
