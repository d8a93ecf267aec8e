//! Programmatic circuit construction.

use crate::error::BuildCircuitError;
use crate::gate::GateKind;
use crate::levelize::Levels;
use crate::netlist::{Circuit, NodeId};

/// Incremental builder for [`Circuit`]s.
///
/// Gates may only reference node ids the builder has already handed out, so
/// the node list is topologically ordered *by construction* and cycles are
/// unrepresentable.
///
/// The builder appends directly into the flat arenas the final [`Circuit`]
/// keeps (kinds, fanin CSR, name arena), so construction performs zero
/// allocations per gate beyond amortized arena growth; duplicate names are
/// detected by the sorted name index [`CircuitBuilder::build`] computes
/// anyway, not by a build-side hash map.
///
/// # Example
///
/// ```
/// use wrt_circuit::{CircuitBuilder, GateKind};
///
/// # fn main() -> Result<(), wrt_circuit::BuildCircuitError> {
/// let mut b = CircuitBuilder::named("half_adder");
/// let a = b.input("a");
/// let c = b.input("b");
/// let sum = b.gate(GateKind::Xor, "sum", &[a, c])?;
/// let carry = b.gate(GateKind::And, "carry", &[a, c])?;
/// b.mark_output(sum);
/// b.mark_output(carry);
/// let ha = b.build()?;
/// assert_eq!(ha.num_outputs(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CircuitBuilder {
    name: String,
    kinds: Vec<GateKind>,
    fanin_offsets: Vec<u32>,
    fanin_data: Vec<NodeId>,
    name_bytes: String,
    name_offsets: Vec<u32>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    anon_counter: u64,
}

impl Default for CircuitBuilder {
    fn default() -> Self {
        CircuitBuilder {
            name: String::new(),
            kinds: Vec::new(),
            fanin_offsets: vec![0],
            fanin_data: Vec::new(),
            name_bytes: String::new(),
            name_offsets: vec![0],
            inputs: Vec::new(),
            outputs: Vec::new(),
            anon_counter: 0,
        }
    }
}

impl CircuitBuilder {
    /// Creates an empty builder with an empty circuit name.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder for a circuit called `name`.
    pub fn named(name: impl Into<String>) -> Self {
        CircuitBuilder {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether no nodes have been added yet.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Generated names live in the `_`-prefixed namespace; explicit names
    /// that stray into it are caught as duplicates at `build()` like any
    /// other clash.
    fn fresh_name(&mut self, prefix: &str) -> String {
        let candidate = format!("_{prefix}{}", self.anon_counter);
        self.anon_counter += 1;
        candidate
    }

    fn push(&mut self, name: &str, kind: GateKind, fanin: &[NodeId]) -> NodeId {
        let id = NodeId::from_index(self.kinds.len());
        self.name_bytes.push_str(name);
        self.name_offsets
            .push(u32::try_from(self.name_bytes.len()).expect("name arena fits in u32"));
        self.kinds.push(kind);
        self.fanin_data.extend_from_slice(fanin);
        self.fanin_offsets
            .push(u32::try_from(self.fanin_data.len()).expect("edge count fits in u32"));
        id
    }

    /// Adds a primary input and returns its id.
    pub fn input(&mut self, name: impl AsRef<str>) -> NodeId {
        let id = self.push(name.as_ref(), GateKind::Input, &[]);
        self.inputs.push(id);
        id
    }

    /// Adds a constant-0 driver.
    pub fn const0(&mut self) -> NodeId {
        let name = self.fresh_name("const0_");
        self.push(&name, GateKind::Const0, &[])
    }

    /// Adds a constant-1 driver.
    pub fn const1(&mut self) -> NodeId {
        let name = self.fresh_name("const1_");
        self.push(&name, GateKind::Const1, &[])
    }

    /// Adds a gate with an explicit name.
    ///
    /// # Errors
    ///
    /// Returns an error immediately if `kind` is [`GateKind::Input`], if the
    /// arity is illegal for the kind, or if any fanin id was not previously
    /// returned by this builder.  Duplicate names are reported at
    /// [`CircuitBuilder::build`] time.
    pub fn gate(
        &mut self,
        kind: GateKind,
        name: impl AsRef<str>,
        fanin: &[NodeId],
    ) -> Result<NodeId, BuildCircuitError> {
        let name = name.as_ref();
        if kind == GateKind::Input {
            return Err(BuildCircuitError::InputAsGate(name.to_string()));
        }
        let (lo, hi) = kind.arity_range();
        if fanin.len() < lo || fanin.len() > hi {
            return Err(BuildCircuitError::BadArity {
                gate: name.to_string(),
                kind,
                got: fanin.len(),
            });
        }
        if fanin.iter().any(|f| f.index() >= self.kinds.len()) {
            return Err(BuildCircuitError::UnknownFanin { gate: name.to_string() });
        }
        Ok(self.push(name, kind, fanin))
    }

    /// Adds a gate with a generated name (`_g<N>`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CircuitBuilder::gate`].
    pub fn gate_auto(
        &mut self,
        kind: GateKind,
        fanin: &[NodeId],
    ) -> Result<NodeId, BuildCircuitError> {
        let name = self.fresh_name("g");
        self.gate(kind, name, fanin)
    }

    /// Convenience: 2-input AND with a generated name.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CircuitBuilder::gate`].
    pub fn and2(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, BuildCircuitError> {
        self.gate_auto(GateKind::And, &[a, b])
    }

    /// Convenience: 2-input OR with a generated name.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CircuitBuilder::gate`].
    pub fn or2(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, BuildCircuitError> {
        self.gate_auto(GateKind::Or, &[a, b])
    }

    /// Convenience: 2-input XOR with a generated name.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CircuitBuilder::gate`].
    pub fn xor2(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, BuildCircuitError> {
        self.gate_auto(GateKind::Xor, &[a, b])
    }

    /// Convenience: inverter with a generated name.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CircuitBuilder::gate`].
    pub fn not(&mut self, a: NodeId) -> Result<NodeId, BuildCircuitError> {
        self.gate_auto(GateKind::Not, &[a])
    }

    /// Marks an existing node as a primary output.
    ///
    /// Duplicate marks are reported at [`CircuitBuilder::build`] time (a
    /// per-call membership scan would make bulk output marking quadratic).
    pub fn mark_output(&mut self, id: NodeId) {
        self.outputs.push(id);
    }

    /// Finalizes the circuit: checks global invariants, computes fanouts and
    /// levels.
    ///
    /// # Errors
    ///
    /// Returns the first deferred error (duplicate names, duplicate outputs)
    /// or a structural error (no inputs / no outputs).
    pub fn build(mut self) -> Result<Circuit, BuildCircuitError> {
        // Duplicate-output detection, deferred from `mark_output`: one
        // sort over a scratch copy instead of a scan per call.
        let mut sorted_outputs = self.outputs.clone();
        sorted_outputs.sort_unstable();
        if let Some(w) = sorted_outputs.windows(2).find(|w| w[0] == w[1]) {
            let start = self.name_offsets[w[0].index()] as usize;
            let end = self.name_offsets[w[0].index() + 1] as usize;
            let name = self.name_bytes[start..end].to_string();
            return Err(BuildCircuitError::DuplicateOutput(name));
        }
        // The circuit is immutable from here on: shrink the
        // incrementally-grown arenas so the footprint (and the
        // bytes/gate curve `bench_scale` tracks) reflects the data, not
        // the builder's doubling growth policy.
        self.kinds.shrink_to_fit();
        self.fanin_offsets.shrink_to_fit();
        self.fanin_data.shrink_to_fit();
        self.name_bytes.shrink_to_fit();
        self.name_offsets.shrink_to_fit();
        self.inputs.shrink_to_fit();
        self.outputs.shrink_to_fit();
        if self.inputs.is_empty() {
            return Err(BuildCircuitError::NoInputs);
        }
        if self.outputs.is_empty() {
            return Err(BuildCircuitError::NoOutputs);
        }
        let n = self.kinds.len();
        // Fanout lists in CSR layout: count, prefix-sum, fill.  Sinks are
        // visited in ascending id order, so each node's fanout slice comes
        // out sorted without an explicit sort.
        let mut fanout_offsets = vec![0u32; n + 1];
        for &f in &self.fanin_data {
            fanout_offsets[f.index() + 1] += 1;
        }
        for i in 1..fanout_offsets.len() {
            fanout_offsets[i] += fanout_offsets[i - 1];
        }
        let num_edges = *fanout_offsets.last().expect("offsets non-empty") as usize;
        let mut fanout_data = vec![NodeId::from_index(0); num_edges];
        let mut fanout_edges = vec![0u32; num_edges];
        let mut cursor: Vec<u32> = fanout_offsets[..n].to_vec();
        for i in 0..n {
            let lo = self.fanin_offsets[i];
            let hi = self.fanin_offsets[i + 1];
            for e in lo..hi {
                let c = &mut cursor[self.fanin_data[e as usize].index()];
                fanout_data[*c as usize] = NodeId::from_index(i);
                fanout_edges[*c as usize] = e;
                *c += 1;
            }
        }
        let mut output_flags = vec![false; n];
        for o in &self.outputs {
            output_flags[o.index()] = true;
        }
        let mut input_position = vec![u32::MAX; n];
        for (pos, id) in self.inputs.iter().enumerate() {
            input_position[id.index()] = u32::try_from(pos).expect("input count fits in u32");
        }
        let num_gates = self.kinds.iter().filter(|k| !k.is_source()).count();
        let max_fanin = self
            .fanin_offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0);
        let levels = Levels::compute(n, &self.fanin_offsets, &self.fanin_data);
        // Name lookup index: ids sorted by name.  The sort doubles as the
        // deferred duplicate-name check (equal names land adjacent).
        let mut name_sorted: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        let name_of = |id: NodeId| -> &str {
            let lo = self.name_offsets[id.index()] as usize;
            let hi = self.name_offsets[id.index() + 1] as usize;
            &self.name_bytes[lo..hi]
        };
        name_sorted.sort_unstable_by(|&a, &b| name_of(a).cmp(name_of(b)));
        if let Some(w) = name_sorted.windows(2).find(|w| name_of(w[0]) == name_of(w[1])) {
            return Err(BuildCircuitError::DuplicateName(name_of(w[0]).to_string()));
        }
        static NEXT_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        Ok(Circuit {
            uid: NEXT_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            name: self.name,
            kinds: self.kinds,
            fanin_offsets: self.fanin_offsets,
            fanin_data: self.fanin_data,
            name_bytes: self.name_bytes,
            name_offsets: self.name_offsets,
            name_sorted,
            inputs: self.inputs,
            outputs: self.outputs,
            fanout_offsets,
            fanout_data,
            fanout_edges,
            output_flags,
            input_position,
            num_gates: u32::try_from(num_gates).expect("gate count fits in u32"),
            max_fanin,
            levels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_forward_references() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let bogus = NodeId::from_index(99);
        let err = b.gate(GateKind::And, "g", &[a, bogus]).unwrap_err();
        assert!(matches!(err, BuildCircuitError::UnknownFanin { .. }));
    }

    #[test]
    fn rejects_bad_arity() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let c = b.input("b");
        let err = b.gate(GateKind::Not, "n", &[a, c]).unwrap_err();
        assert!(matches!(err, BuildCircuitError::BadArity { got: 2, .. }));
    }

    #[test]
    fn rejects_input_as_gate() {
        let mut b = CircuitBuilder::new();
        let err = b.gate(GateKind::Input, "i", &[]).unwrap_err();
        assert!(matches!(err, BuildCircuitError::InputAsGate(_)));
    }

    #[test]
    fn duplicate_names_reported_at_build() {
        let mut b = CircuitBuilder::new();
        let a = b.input("x");
        let _ = b.gate(GateKind::Not, "x", &[a]).unwrap();
        b.mark_output(a);
        assert!(matches!(
            b.build(),
            Err(BuildCircuitError::DuplicateName(_))
        ));
    }

    #[test]
    fn empty_interfaces_rejected() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        // no outputs
        let _ = a;
        assert!(matches!(b.build(), Err(BuildCircuitError::NoOutputs)));

        let mut b = CircuitBuilder::new();
        let c0 = b.const1();
        b.mark_output(c0);
        assert!(matches!(b.build(), Err(BuildCircuitError::NoInputs)));
    }

    #[test]
    fn duplicate_output_rejected() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.not(a).unwrap();
        b.mark_output(g);
        b.mark_output(g);
        assert!(matches!(
            b.build(),
            Err(BuildCircuitError::DuplicateOutput(_))
        ));
    }

    #[test]
    fn auto_names_never_collide() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g1 = b.gate_auto(GateKind::Not, &[a]).unwrap();
        let g2 = b.gate_auto(GateKind::Not, &[a]).unwrap();
        b.mark_output(g1);
        b.mark_output(g2);
        let c = b.build().unwrap();
        assert_eq!(c.num_nodes(), 3);
    }

    #[test]
    fn constants_are_usable_as_fanin() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let one = b.const1();
        let g = b.gate(GateKind::And, "g", &[a, one]).unwrap();
        b.mark_output(g);
        let c = b.build().unwrap();
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn name_lookup_via_sorted_index() {
        let mut b = CircuitBuilder::new();
        let ids: Vec<NodeId> = (0..50).map(|i| b.input(format!("in_{i}"))).collect();
        let g = b.gate(GateKind::And, "zz_top", &[ids[0], ids[49]]).unwrap();
        b.mark_output(g);
        let c = b.build().unwrap();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(c.node_id(&format!("in_{i}")), Some(id));
        }
        assert_eq!(c.node_id("zz_top"), Some(g));
        assert_eq!(c.node_id("in_50"), None);
        assert_eq!(c.node_id(""), None);
    }
}
