//! A minimal nonlinear DC circuit solver — the "HSPICE" box of the paper's
//! Fig. 5 simulation flow.
//!
//! The paper uses HSPICE with the Stanford CNFET model to quantify the
//! leakage current of every distinct off-transistor pattern. All those
//! simulations are small DC operating-point problems (a handful of
//! transistors between the rails), which is exactly what this crate solves:
//!
//! * [`Circuit`] — a netlist of resistors, voltage sources and transistors
//!   (compact models from the [`device`] crate);
//! * modified nodal analysis with Newton–Raphson iteration, finite-difference
//!   device linearization, voltage-step damping and g_min continuation;
//! * [`OperatingPoint`] — solved node voltages plus branch/device currents,
//!   with helpers to read rail currents (the leakage measurements).
//!
//! # Example: voltage divider
//!
//! ```
//! use spice_lite::{Circuit, GROUND};
//!
//! let mut ckt = Circuit::new();
//! let vin = ckt.node();
//! let mid = ckt.node();
//! ckt.add_vsource("V1", vin, GROUND, 1.0);
//! ckt.add_resistor("R1", vin, mid, 1_000.0);
//! ckt.add_resistor("R2", mid, GROUND, 3_000.0);
//! let op = ckt.solve_dc()?;
//! assert!((op.voltage(mid) - 0.75).abs() < 1e-9);
//! # Ok::<(), spice_lite::SolveError>(())
//! ```

pub mod lu;
pub mod netlist;
pub mod solver;
pub mod transient;

pub use netlist::{Circuit, Element, NodeId, GROUND};
pub use solver::{OperatingPoint, SolveError};
pub use transient::{ramp, transient, TransientResult};
