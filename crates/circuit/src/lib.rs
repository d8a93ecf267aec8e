//! Gate-level combinational netlists for probabilistic testability analysis.
//!
//! This crate provides the circuit substrate used throughout the `wrt`
//! workspace: a compact, immutable, topologically ordered gate-level
//! [`Circuit`], a [`CircuitBuilder`] for programmatic construction, a parser
//! and writer for the ISCAS-85 `.bench` netlist format, levelization, and
//! cone extraction.
//!
//! Circuits are *combinational*: the paper restricts itself to combinational
//! networks because scan-based self test (BILBO-style) reduces sequential
//! testing to the combinational case.
//!
//! # Example
//!
//! ```
//! use wrt_circuit::{CircuitBuilder, GateKind};
//!
//! # fn main() -> Result<(), wrt_circuit::BuildCircuitError> {
//! let mut b = CircuitBuilder::new();
//! let a = b.input("a");
//! let c = b.input("c");
//! let g = b.gate(GateKind::And, "g", &[a, c])?;
//! b.mark_output(g);
//! let circuit = b.build()?;
//! assert_eq!(circuit.num_inputs(), 2);
//! assert_eq!(circuit.num_outputs(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod builder;
mod cone;
mod error;
mod ffr;
mod gate;
mod levelize;
mod netlist;
mod parse;
mod simplify;
mod stats;
mod write;

pub use builder::CircuitBuilder;
pub use cone::{
    input_support, merge_sorted_nodes, output_cone, transitive_fanin, transitive_fanout,
};
pub use error::{BuildCircuitError, ParseBenchError};
pub use ffr::FanoutFreeRegions;
pub use gate::GateKind;
pub use levelize::Levels;
pub use netlist::{Circuit, Node, NodeId};
pub use parse::{parse_bench, parse_bench_named, scan_bench_issues};
pub use simplify::simplify;
pub use stats::{CircuitStats, MemoryFootprint};
pub use write::to_bench;
