//! Summary statistics for circuits.

use std::collections::BTreeMap;
use std::fmt;
use std::mem::size_of;

use crate::gate::GateKind;
use crate::netlist::{Circuit, NodeId};

/// Aggregate statistics of a circuit, for reports and sanity checks.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// let c = wrt_circuit::parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")?;
/// let stats = wrt_circuit::CircuitStats::of(&c);
/// assert_eq!(stats.gates, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitStats {
    /// Circuit name.
    pub name: String,
    /// Primary input count.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Logic gate count (excluding inputs/constants).
    pub gates: usize,
    /// Total node count.
    pub nodes: usize,
    /// Circuit depth in gate levels.
    pub depth: u32,
    /// Number of fanout stems (nodes with fanout > 1).
    pub stems: usize,
    /// Gate count per kind.
    pub by_kind: BTreeMap<GateKind, usize>,
}

impl CircuitStats {
    /// Computes the statistics of a circuit.
    pub fn of(circuit: &Circuit) -> Self {
        let mut by_kind = BTreeMap::new();
        for (_, n) in circuit.iter() {
            if !n.kind().is_source() {
                *by_kind.entry(n.kind()).or_insert(0) += 1;
            }
        }
        CircuitStats {
            name: circuit.name().to_string(),
            inputs: circuit.num_inputs(),
            outputs: circuit.num_outputs(),
            gates: circuit.num_gates(),
            nodes: circuit.num_nodes(),
            depth: circuit.levels().depth(),
            stems: circuit.fanout_stems().len(),
            by_kind,
        }
    }
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} PIs, {} POs, {} gates, depth {}, {} stems",
            self.name, self.inputs, self.outputs, self.gates, self.depth, self.stems
        )?;
        for (kind, count) in &self.by_kind {
            writeln!(f, "  {kind}: {count}")?;
        }
        Ok(())
    }
}

/// Heap memory held by one [`Circuit`], broken down by component.
///
/// All figures are exact byte counts derived from the flat arenas'
/// capacities (the circuit is immutable, so capacity ≈ length); since the
/// workspace forbids `unsafe` code there is no global-allocator hook, and
/// this analytic accounting *is* the allocation-measurement shim used by
/// `bench_scale` for its bytes/gate curve.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// let c = wrt_circuit::parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")?;
/// let m = c.memory_footprint();
/// assert!(m.total() > 0);
/// assert_eq!(
///     m.total(),
///     m.kinds + m.fanin_csr + m.fanout_csr + m.names + m.levels + m.interface
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Per-node gate-kind array.
    pub kinds: usize,
    /// Fanin CSR arena (offsets + edge data).
    pub fanin_csr: usize,
    /// Fanout CSR arena (offsets + sink data + fanin-edge index).
    pub fanout_csr: usize,
    /// Name arena (string bytes + offsets + sorted lookup index).
    pub names: usize,
    /// Levelization arrays (per-node level + level CSR).
    pub levels: usize,
    /// Interface arrays (inputs, outputs, output flags, input positions).
    pub interface: usize,
}

impl MemoryFootprint {
    /// Total heap bytes across all components.
    pub fn total(&self) -> usize {
        self.kinds + self.fanin_csr + self.fanout_csr + self.names + self.levels + self.interface
    }

    /// Heap bytes per gate (total / gate count), the scale-benchmark
    /// figure of merit.  Returns the total when the circuit somehow has
    /// zero gates (sources only), to stay finite.
    pub fn bytes_per_gate(&self, gates: usize) -> f64 {
        let total = self.total();
        if gates == 0 {
            total as f64
        } else {
            total as f64 / gates as f64
        }
    }
}

impl fmt::Display for MemoryFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "memory: {} bytes total", self.total())?;
        writeln!(f, "  kinds:      {}", self.kinds)?;
        writeln!(f, "  fanin CSR:  {}", self.fanin_csr)?;
        writeln!(f, "  fanout CSR: {}", self.fanout_csr)?;
        writeln!(f, "  names:      {}", self.names)?;
        writeln!(f, "  levels:     {}", self.levels)?;
        write!(f, "  interface:  {}", self.interface)
    }
}

impl Circuit {
    /// Heap memory held by this circuit, by component (see
    /// [`MemoryFootprint`]).
    pub fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint {
            kinds: self.kinds.capacity() * size_of::<GateKind>(),
            fanin_csr: self.fanin_offsets.capacity() * size_of::<u32>()
                + self.fanin_data.capacity() * size_of::<NodeId>(),
            fanout_csr: self.fanout_offsets.capacity() * size_of::<u32>()
                + self.fanout_data.capacity() * size_of::<NodeId>()
                + self.fanout_edges.capacity() * size_of::<u32>(),
            names: self.name_bytes.capacity()
                + self.name_offsets.capacity() * size_of::<u32>()
                + self.name_sorted.capacity() * size_of::<NodeId>(),
            levels: self.levels.heap_bytes(),
            interface: self.inputs.capacity() * size_of::<NodeId>()
                + self.outputs.capacity() * size_of::<NodeId>()
                + self.output_flags.capacity() * size_of::<bool>()
                + self.input_position.capacity() * size_of::<u32>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_bench;

    #[test]
    fn counts_by_kind() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nm = NAND(a, b)\nn = NAND(a, m)\ny = XOR(m, n)\n",
        )
        .unwrap();
        let s = CircuitStats::of(&c);
        assert_eq!(s.by_kind[&GateKind::Nand], 2);
        assert_eq!(s.by_kind[&GateKind::Xor], 1);
        assert_eq!(s.gates, 3);
        assert_eq!(s.stems, 2); // a and m both fan out twice
        assert!(format!("{s}").contains("NAND: 2"));
    }

    #[test]
    fn footprint_components_are_plausible() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nm = NAND(a, b)\nn = NAND(a, m)\ny = XOR(m, n)\n",
        )
        .unwrap();
        let m = c.memory_footprint();
        // 6 edges of 4 bytes plus 6 offsets of 4 bytes is the floor for
        // each CSR arena (capacity may round up).
        assert!(m.fanin_csr >= 6 * 4 + 6 * 4);
        assert!(m.fanout_csr >= 6 * 4 + 6 * 4);
        // Name arena holds at least the concatenated name bytes.
        assert!(m.names >= "abmny".len());
        assert!(m.levels > 0);
        assert!(m.interface > 0);
        assert!(m.bytes_per_gate(c.num_gates()) > 0.0);
        let shown = format!("{m}");
        assert!(shown.contains("bytes total"));
    }
}
