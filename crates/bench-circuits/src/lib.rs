//! Structural generators for the paper's 12 Table-1 benchmark circuits.
//!
//! The original ISCAS'85 / MCNC netlists are distributed artifacts we do
//! not ship; what drives the paper's per-circuit trends is each circuit's
//! *functional class* — XOR-rich multipliers and error-correcting codes
//! benefit most from generalized ambipolar gates, control-dominated ALUs
//! less so. Every generator here produces a functional stand-in of the
//! same class and comparable scale:
//!
//! | row | paper circuit | stand-in |
//! |---|---|---|
//! | C2670 | ALU and control | 12-bit ALU + comparator/parity control |
//! | C1908 | error correcting | 16-bit Hamming SEC/DED decoder |
//! | C3540 | ALU and control | 16-bit ALU + control |
//! | dalu | dedicated ALU | 16-bit dedicated ALU |
//! | C7552 | ALU and control | 24-bit ALU + control |
//! | C6288 | multiplier | 16×16 array multiplier |
//! | C5315 | ALU and selector | 20-bit ALU + selector |
//! | des | data encryption | DES-style round (E, S-boxes, P, key XOR) |
//! | i10 | logic | seeded mixed-logic block (large) |
//! | t481 | logic | 16-input single-output logic cone |
//! | i8 | logic | seeded mixed-logic block (medium) |
//! | C1355 | error correcting | 32-bit Hamming SEC decoder |

pub mod alu;
pub mod catalog;
pub mod des;
pub mod ecc;
pub mod logicblocks;
pub mod multiplier;
pub mod scale;
pub mod words;

pub use catalog::{benchmark_by_name, table1_benchmarks, Benchmark};
pub use words::Word;
