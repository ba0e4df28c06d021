//! Circuit netlists: nodes and elements.

use device::CompactModel;

/// Handle to a circuit node. Node 0 is always ground.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// The ground node (reference, 0 V).
pub const GROUND: NodeId = NodeId(0);

impl NodeId {
    /// Raw index of the node (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A circuit element.
#[derive(Clone, Debug)]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// Instance name for diagnostics.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms.
        ohms: f64,
    },
    /// Ideal voltage source from `pos` to `neg`.
    VSource {
        /// Instance name; used to look up branch current.
        name: String,
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Source voltage in volts.
        volts: f64,
    },
    /// Ideal current source pushing `amps` from `from` into `to`.
    ISource {
        /// Instance name for diagnostics.
        name: String,
        /// Current leaves this node.
        from: NodeId,
        /// Current enters this node.
        to: NodeId,
        /// Source current in amperes.
        amps: f64,
    },
    /// Linear capacitor between `a` and `b`. Open circuit in DC; companion
    /// conductance under backward-Euler transient analysis.
    Capacitor {
        /// Instance name for diagnostics.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads.
        farads: f64,
    },
    /// A transistor described by a [`CompactModel`]. The gate draws no DC
    /// current (gate tunnelling is accounted for analytically by the
    /// characterization layer, not inside the DC solve).
    Transistor {
        /// Instance name for diagnostics.
        name: String,
        /// Compact model evaluated each Newton iteration.
        model: CompactModel,
        /// Drain terminal.
        drain: NodeId,
        /// Gate terminal.
        gate: NodeId,
        /// Source terminal.
        source: NodeId,
    },
}

/// A flat netlist under construction.
///
/// Nodes are created with [`Circuit::node`]; elements with the `add_*`
/// methods. Solve with [`Circuit::solve_dc`](crate::solver) once built.
#[derive(Clone, Debug)]
pub struct Circuit {
    /// Nodes allocated so far, ground included.
    nodes: usize,
    elements: Vec<Element>,
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Self {
            nodes: 1,
            elements: Vec::new(),
        }
    }

    /// Allocates a fresh node.
    pub fn node(&mut self) -> NodeId {
        let id = NodeId(self.nodes);
        self.nodes += 1;
        id
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// All elements added so far.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Mutable access to the elements, for in-place parameter updates such
    /// as transient waveforms.
    pub fn elements_mut(&mut self) -> &mut [Element] {
        &mut self.elements
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not finite and positive.
    pub fn add_resistor(&mut self, name: impl Into<String>, a: NodeId, b: NodeId, ohms: f64) {
        assert!(
            ohms.is_finite() && ohms > 0.0,
            "resistance must be positive"
        );
        self.elements.push(Element::Resistor {
            name: name.into(),
            a,
            b,
            ohms,
        });
    }

    /// Adds an ideal voltage source (`pos` − `neg` = `volts`).
    pub fn add_vsource(&mut self, name: impl Into<String>, pos: NodeId, neg: NodeId, volts: f64) {
        self.elements.push(Element::VSource {
            name: name.into(),
            pos,
            neg,
            volts,
        });
    }

    /// Adds an ideal current source pushing `amps` from `from` into `to`.
    pub fn add_isource(&mut self, name: impl Into<String>, from: NodeId, to: NodeId, amps: f64) {
        self.elements.push(Element::ISource {
            name: name.into(),
            from,
            to,
            amps,
        });
    }

    /// Adds a linear capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not finite and positive.
    pub fn add_capacitor(&mut self, name: impl Into<String>, a: NodeId, b: NodeId, farads: f64) {
        assert!(
            farads.is_finite() && farads > 0.0,
            "capacitance must be positive"
        );
        self.elements.push(Element::Capacitor {
            name: name.into(),
            a,
            b,
            farads,
        });
    }

    /// Adds a transistor with the given compact model.
    pub fn add_transistor(
        &mut self,
        name: impl Into<String>,
        model: CompactModel,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
    ) {
        self.elements.push(Element::Transistor {
            name: name.into(),
            model,
            drain,
            gate,
            source,
        });
    }

    /// Finds the index of a voltage source by name (for current readout).
    pub fn vsource_index(&self, name: &str) -> Option<usize> {
        self.elements
            .iter()
            .filter_map(|e| match e {
                Element::VSource { name: n, .. } => Some(n.as_str()),
                _ => None,
            })
            .position(|n| n == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_sequential() {
        let mut c = Circuit::new();
        assert_eq!(c.node_count(), 1);
        let a = c.node();
        let b = c.node();
        assert_eq!(a.index(), 1);
        assert_eq!(b.index(), 2);
    }

    #[test]
    fn default_circuit_keeps_ground_reserved() {
        assert_ne!(Circuit::default().node(), GROUND);
    }

    #[test]
    fn vsource_lookup_counts_only_sources() {
        let mut c = Circuit::new();
        let a = c.node();
        c.add_resistor("R1", a, GROUND, 10.0);
        c.add_vsource("VDD", a, GROUND, 0.9);
        c.add_vsource("VIN", a, GROUND, 0.0);
        assert_eq!(c.vsource_index("VDD"), Some(0));
        assert_eq!(c.vsource_index("VIN"), Some(1));
        assert_eq!(c.vsource_index("nope"), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_resistance() {
        let mut c = Circuit::new();
        let a = c.node();
        c.add_resistor("R", a, GROUND, 0.0);
    }
}
