//! The PODEM algorithm: path-oriented decision making on primary inputs.
//!
//! PODEM searches the space of primary-input assignments only (unlike the
//! D-algorithm's internal-line decisions): pick an *objective* (excite the
//! fault, then advance the D-frontier), *backtrace* it to an unassigned
//! input, assign, imply, and backtrack on conflicts.  The search is
//! complete: exhausting it proves the fault redundant.
//!
//! Implication is event-driven, as in SOCRATES' incremental implication
//! (Schulz, Trischler & Sarfert, IEEE TCAD 1988).  One full 9-valued pass
//! ([`Podem::simulate`]) builds the state at the start of a call; after
//! that, each decision, flip or unassign queues only the changed input,
//! and a gate is re-evaluated only when a fanin's value changed.  The
//! queue is a min-heap of node ids: ids are topological, so it yields
//! the changed cone in level order and every node is evaluated at most
//! once per step, after all of its fanins.  Both paths call the one
//! per-node evaluation, so the values are those of a full pass.  The
//! D-frontier is kept in ascending node order, the order the full scan
//! builds it in: `objective`'s stable sort by output distance breaks
//! ties by that order, so any other order would pick other objectives
//! and change tests and backtrack counts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use wrt_analyze::Scoap;
use wrt_circuit::{Circuit, GateKind, NodeId};
use wrt_estimate::signal_probabilities_cop;
use wrt_fault::{Fault, FaultSite};
use wrt_robust::{Budget, BudgetExceeded};

use crate::dvalue::{Dv, Tri};

/// Result of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtpgOutcome {
    /// A detecting assignment; `None` entries are don't-cares.
    Test(Vec<Option<bool>>),
    /// The complete search proved no test exists.
    Redundant,
    /// The backtrack limit was hit before a conclusion.
    Aborted,
}

/// Controllability model driving the backtrace input choice.
///
/// All variants share the same objective/D-frontier logic; only
/// `pick_input` — which unknown fanin a multi-input backtrace descends
/// into — consults the model.  Detected/redundant conclusions are
/// guidance-independent (the search is complete either way); the model
/// only changes how many backtracks the search needs.
#[derive(Debug, Clone)]
enum Guidance {
    /// No cost model: descend into the first unknown fanin.  The
    /// unguided baseline for measuring what guidance buys.
    Uniform,
    /// COP signal probabilities at equiprobable inputs (the default).
    Cop(Vec<f64>),
    /// SCOAP integer controllabilities (`wrt_analyze`).
    Scoap {
        /// CC0 per node.
        cc0: Vec<u32>,
        /// CC1 per node.
        cc1: Vec<u32>,
    },
}

/// The X-path check's scratch, kept for one search: a node is visited in
/// the current check when its stamp equals the current epoch, so a check
/// starts with a bumped epoch instead of a cleared array.
struct XPathScratch {
    visited: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
}

impl XPathScratch {
    fn new(num_nodes: usize) -> Self {
        XPathScratch {
            visited: vec![0; num_nodes],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// Starts a check with every node unvisited; returns its epoch.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stamps of an old epoch could alias the new one.
            self.visited.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// A PODEM test generator bound to one circuit.
///
/// Constructing it once precomputes the controllability guidance (COP
/// signal probabilities at 0.5, SCOAP costs via
/// [`Podem::with_backtrace_costs`], or none via [`Podem::unguided`]) and
/// the output distances used by the backtrace and D-frontier heuristics.
#[derive(Debug, Clone)]
pub struct Podem<'c> {
    circuit: &'c Circuit,
    backtrack_limit: usize,
    /// Backtrace difficulty guide.
    guidance: Guidance,
    /// Minimum fanout distance to a primary output (`u32::MAX` if none).
    po_dist: Vec<u32>,
}

impl<'c> Podem<'c> {
    /// Creates a generator with the default backtrack limit (10 000) and
    /// COP-probability backtrace guidance.
    pub fn new(circuit: &'c Circuit) -> Self {
        let ctrl = signal_probabilities_cop(circuit, &vec![0.5; circuit.num_inputs()]);
        Self::with_guidance(circuit, Guidance::Cop(ctrl))
    }

    /// Creates a generator whose backtrace uses SCOAP integer
    /// controllability costs: descend into the cheapest input when any
    /// one suffices, the most expensive when all are required.
    ///
    /// # Example
    ///
    /// ```
    /// use wrt_analyze::Scoap;
    /// use wrt_atpg::{AtpgOutcome, Podem};
    /// use wrt_fault::Fault;
    ///
    /// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
    /// let c = wrt_circuit::parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
    /// let scoap = Scoap::compute(&c);
    /// let podem = Podem::with_backtrace_costs(&c, &scoap);
    /// let y = c.node_id("y").expect("exists");
    /// assert!(matches!(podem.generate(Fault::output(y, false)), AtpgOutcome::Test(_)));
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_backtrace_costs(circuit: &'c Circuit, scoap: &Scoap) -> Self {
        Self::with_guidance(
            circuit,
            Guidance::Scoap {
                cc0: scoap.cc0_all().to_vec(),
                cc1: scoap.cc1_all().to_vec(),
            },
        )
    }

    /// Creates a generator with no backtrace cost model (first unknown
    /// fanin wins): the baseline that guided configurations are measured
    /// against.
    pub fn unguided(circuit: &'c Circuit) -> Self {
        Self::with_guidance(circuit, Guidance::Uniform)
    }

    fn with_guidance(circuit: &'c Circuit, guidance: Guidance) -> Self {
        let mut po_dist = vec![u32::MAX; circuit.num_nodes()];
        // Reverse pass: node ids are topological, so a reverse scan
        // settles distances in one sweep.
        for idx in (0..circuit.num_nodes()).rev() {
            let id = NodeId::from_index(idx);
            if circuit.is_output(id) {
                po_dist[idx] = 0;
            }
            for &sink in circuit.fanout(id) {
                let d = po_dist[sink.index()].saturating_add(1);
                po_dist[idx] = po_dist[idx].min(d);
            }
        }
        Podem {
            circuit,
            backtrack_limit: 10_000,
            guidance,
            po_dist,
        }
    }

    /// Overrides the backtrack limit.
    pub fn with_backtrack_limit(mut self, limit: usize) -> Self {
        self.backtrack_limit = limit;
        self
    }

    /// Attempts to generate a test for `fault`.
    pub fn generate(&self, fault: Fault) -> AtpgOutcome {
        self.generate_counted(fault).0
    }

    /// Like [`Podem::generate`], also returning the number of backtracks
    /// the search needed — the cost metric guided and unguided
    /// configurations are compared on.
    pub fn generate_counted(&self, fault: Fault) -> (AtpgOutcome, usize) {
        match self.search(fault, None) {
            Ok(result) => result,
            Err(reason) => unreachable!("a search without a budget tripped: {reason}"),
        }
    }

    /// The PODEM search.  With a budget, its deadline and cancellation
    /// are checked after every decision and backtrack (its deterministic
    /// axes are the caller's, at fault boundaries); a trip abandons the
    /// search.
    pub(crate) fn search(
        &self,
        fault: Fault,
        budget: Option<&Budget>,
    ) -> Result<(AtpgOutcome, usize), BudgetExceeded> {
        let mut imp = Implication::new(self, fault);
        let mut decisions = Decisions::default();
        let mut backtracks = 0usize;
        // Set when a dead end was not a proven conflict (a frontier gate
        // whose unknowns our objective cannot target): exhausting the
        // search then yields `Aborted`, never a false redundancy proof.
        let mut incomplete = false;
        let mut x_path = XPathScratch::new(self.circuit.num_nodes());

        loop {
            imp.propagate();
            if imp.output_effects > 0 {
                let test = imp.assignment.iter().map(|t| t.value()).collect();
                return Ok((AtpgOutcome::Test(test), backtracks));
            }

            let mut next_decision = None;
            match self.objective(fault, &imp.state, &mut x_path) {
                Goal::Objective(node, value) => {
                    next_decision = self.backtrace(node, value, &imp.state.values);
                    if next_decision.is_none() {
                        // Backtrace dead ends are heuristic, not proofs.
                        incomplete = true;
                    }
                }
                Goal::Conflict => {}
                Goal::SoftDeadEnd => incomplete = true,
            }
            match next_decision {
                Some((pi, v)) => decisions.decide(&mut imp, pi, v),
                None => {
                    backtracks += 1;
                    if backtracks > self.backtrack_limit {
                        return Ok((AtpgOutcome::Aborted, backtracks));
                    }
                    if !decisions.backtrack(&mut imp) {
                        let outcome = if incomplete {
                            AtpgOutcome::Aborted
                        } else {
                            AtpgOutcome::Redundant
                        };
                        return Ok((outcome, backtracks));
                    }
                }
            }
            if let Some(Err(reason)) = budget.map(|b| b.check_in(0, 0)) {
                return Err(reason);
            }
        }
    }

    /// Forward 9-valued implication with the fault injected: the full
    /// pass that starts each search, and the oracle the event-driven
    /// updates are tested against.
    fn simulate(&self, fault: Fault, assignment: &[Tri]) -> SimState {
        let n = self.circuit.num_nodes();
        let mut values = vec![Dv::X; n];
        let mut frontier = Vec::new();
        for id in self.circuit.ids() {
            let (value, on_frontier) = evaluate(self.circuit, fault, id, &values, assignment);
            if on_frontier {
                frontier.push(id);
            }
            values[id.index()] = value;
        }
        SimState { values, frontier }
    }

    /// The next objective, a proven conflict, or a soft dead end.
    fn objective(&self, fault: Fault, sim: &SimState, x_path: &mut XPathScratch) -> Goal {
        // Phase 1: excitation — the faulty line's good value must be the
        // complement of the stuck value.
        let driver = fault.site.driver(self.circuit);
        match sim.values[driver.index()].good.value() {
            None => return Goal::Objective(driver, !fault.stuck_value),
            Some(g) if g == fault.stuck_value => return Goal::Conflict,
            Some(_) => {}
        }
        // Phase 2: propagation — advance the D-frontier gate closest to a
        // primary output, provided an X-path to an output still exists.
        // The sort is stable, so ties keep the frontier's node order.
        let mut gates = sim.frontier.clone();
        gates.sort_by_key(|&g| self.po_dist[g.index()]);
        // Set an unknown, non-fault-carrying input of the first such gate
        // to the non-controlling value.  Filtering the sorted list keeps
        // the order of sorting the filtered one, and only gates with such
        // an input can give the objective, so the costly X-path check
        // runs on them first.
        let unknown_input = |gate: NodeId| {
            self.circuit
                .node(gate)
                .fanin()
                .iter()
                .copied()
                .find(|&f| sim.values[f.index()].good == Tri::X)
        };
        for &gate in &gates {
            if let Some(pin) = unknown_input(gate) {
                if self.has_x_path(gate, &sim.values, x_path) {
                    let value = match self.circuit.node(gate).kind() {
                        GateKind::And | GateKind::Nand => true,
                        GateKind::Or | GateKind::Nor => false,
                        // Either value propagates through XOR; pick 0.
                        _ => false,
                    };
                    return Goal::Objective(pin, value);
                }
            }
        }
        if gates
            .iter()
            .any(|&g| unknown_input(g).is_none() && self.has_x_path(g, &sim.values, x_path))
        {
            // Frontier gates with an X-path exist but none has an input
            // our good-side objective can target (mixed good-known/
            // faulty-unknown pairs): backtrack, but remember this was not
            // a proof.
            Goal::SoftDeadEnd
        } else {
            // No propagation path at all: a genuine dead end for this
            // branch (the classic X-path check).
            Goal::Conflict
        }
    }

    /// Whether a fault effect at `from` can still reach an output through
    /// unknown-valued nodes.
    fn has_x_path(&self, from: NodeId, values: &[Dv], scratch: &mut XPathScratch) -> bool {
        let epoch = scratch.next_epoch();
        let XPathScratch { visited, stack, .. } = scratch;
        stack.clear();
        stack.push(from);
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut visited[n.index()], epoch) == epoch {
                continue;
            }
            if !values[n.index()].is_unknown() {
                continue;
            }
            if self.circuit.is_output(n) {
                return true;
            }
            stack.extend(self.circuit.fanout(n).iter().copied());
        }
        false
    }

    /// Walks an objective back to an unassigned primary input.
    fn backtrace(&self, mut node: NodeId, mut value: bool, values: &[Dv]) -> Option<(usize, bool)> {
        loop {
            let nd = self.circuit.node(node);
            match nd.kind() {
                GateKind::Input => {
                    let pi = self.circuit.input_position(node).expect("pi");
                    return (values[node.index()].good == Tri::X).then_some((pi, value));
                }
                GateKind::Const0 | GateKind::Const1 => return None,
                GateKind::Not => {
                    value = !value;
                    node = nd.fanin()[0];
                }
                GateKind::Buf => {
                    node = nd.fanin()[0];
                }
                kind @ (GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor) => {
                    let base = value ^ kind.is_inverting();
                    // "all inputs required" for AND@1 / OR@0; otherwise any
                    // single input suffices.
                    let need_all = match kind {
                        GateKind::And | GateKind::Nand => base,
                        _ => !base,
                    };
                    let next = self.pick_input(nd.fanin(), values, base, need_all)?;
                    node = next;
                    value = base;
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Choose an unknown input; the value it needs is the
                    // target parity against the other inputs (unknown
                    // co-inputs counted as 0 — later decisions fix them).
                    let target = value ^ (kind_is_xnor(nd.kind()));
                    let chosen = nd
                        .fanin()
                        .iter()
                        .copied()
                        .find(|&f| values[f.index()].good == Tri::X)?;
                    let parity = nd
                        .fanin()
                        .iter()
                        .filter(|&&f| f != chosen)
                        .fold(false, |acc, &f| {
                            acc ^ values[f.index()].good.value().unwrap_or(false)
                        });
                    node = chosen;
                    value = target ^ parity;
                }
            }
        }
    }

    /// Selects an unknown fanin: the hardest to control when all inputs
    /// must take `base`, the easiest when one suffices (per the active
    /// [`Guidance`] model; unguided takes the first unknown fanin).
    fn pick_input(
        &self,
        fanin: &[NodeId],
        values: &[Dv],
        base: bool,
        need_all: bool,
    ) -> Option<NodeId> {
        let mut xs = fanin
            .iter()
            .copied()
            .filter(|&f| values[f.index()].good == Tri::X);
        match &self.guidance {
            Guidance::Uniform => xs.next(),
            Guidance::Cop(ctrl) => {
                // Probability of achieving `base`: low = hard.
                let score = |f: NodeId| -> f64 {
                    let p1 = ctrl[f.index()];
                    if base {
                        p1
                    } else {
                        1.0 - p1
                    }
                };
                if need_all {
                    xs.min_by(|&a, &b| score(a).total_cmp(&score(b)))
                } else {
                    xs.max_by(|&a, &b| score(a).total_cmp(&score(b)))
                }
            }
            Guidance::Scoap { cc0, cc1 } => {
                // Integer cost of achieving `base`: high = hard.
                let cost = |f: NodeId| -> u32 {
                    if base {
                        cc1[f.index()]
                    } else {
                        cc0[f.index()]
                    }
                };
                if need_all {
                    xs.max_by_key(|&f| cost(f))
                } else {
                    xs.min_by_key(|&f| cost(f))
                }
            }
        }
    }
}

fn kind_is_xnor(kind: GateKind) -> bool {
    kind == GateKind::Xnor
}

/// One node's 9-valued value under `fault`, read from its fanins' values
/// in `values` (an input's from `assignment`), and whether the node is a
/// D-frontier gate: a fault effect on an input, an output still unknown
/// in some machine.  The one definition of the evaluation, shared by the
/// full pass and the event-driven updates.
fn evaluate(
    circuit: &Circuit,
    fault: Fault,
    id: NodeId,
    values: &[Dv],
    assignment: &[Tri],
) -> (Dv, bool) {
    let node = circuit.node(id);
    let mut on_frontier = false;
    let mut value = match node.kind() {
        GateKind::Input => {
            let t = assignment[circuit.input_position(id).expect("pi")];
            Dv { good: t, faulty: t }
        }
        GateKind::Const0 => Dv::known(false),
        GateKind::Const1 => Dv::known(true),
        kind => {
            let mut effect_on_input = false;
            let mut acc: Option<Dv> = None;
            for (pin, &f) in node.fanin().iter().enumerate() {
                let mut v = values[f.index()];
                if fault.site == (FaultSite::InputPin { gate: id, pin }) {
                    v.faulty = Tri::known(fault.stuck_value);
                }
                effect_on_input |= v.is_fault_effect();
                acc = Some(match (acc, kind) {
                    (None, _) => v,
                    (Some(a), GateKind::And | GateKind::Nand) => a.and(v),
                    (Some(a), GateKind::Or | GateKind::Nor) => a.or(v),
                    (Some(a), GateKind::Xor | GateKind::Xnor) => a.xor(v),
                    (Some(_), _) => unreachable!("1-input kinds"),
                });
            }
            let mut out = acc.expect("gates have fanin");
            if kind.is_inverting() {
                out = !out;
            }
            on_frontier = effect_on_input && out.is_unknown();
            out
        }
    };
    if fault.site == FaultSite::Output(id) {
        value.faulty = Tri::known(fault.stuck_value);
    }
    (value, on_frontier)
}

/// The values and the D-frontier (ascending node order) of one input
/// assignment.
struct SimState {
    values: Vec<Dv>,
    frontier: Vec<NodeId>,
}

/// The 9-valued state of one search, kept across its decisions: the
/// assignment, the values and frontier implied by it, a frontier flag
/// per node, and the queue of nodes whose fanins changed.
struct Implication<'c> {
    circuit: &'c Circuit,
    fault: Fault,
    assignment: Vec<Tri>,
    state: SimState,
    on_frontier: Vec<bool>,
    /// Nodes to re-evaluate, smallest (= topologically first) id first.
    queue: BinaryHeap<Reverse<NodeId>>,
    /// Whether a node is in `queue`, so a gate whose fanins change
    /// together (or that reads one fanin twice) is queued once.
    queued: Vec<bool>,
    /// Primary outputs carrying a fault effect.
    output_effects: usize,
}

impl<'c> Implication<'c> {
    /// The state of the all-X assignment, by one full pass.
    fn new(podem: &Podem<'c>, fault: Fault) -> Self {
        let circuit = podem.circuit;
        let assignment = vec![Tri::X; circuit.num_inputs()];
        let state = podem.simulate(fault, &assignment);
        let mut on_frontier = vec![false; circuit.num_nodes()];
        for &g in &state.frontier {
            on_frontier[g.index()] = true;
        }
        let output_effects = circuit
            .ids()
            .filter(|&id| circuit.is_output(id) && state.values[id.index()].is_fault_effect())
            .count();
        Implication {
            circuit,
            fault,
            assignment,
            state,
            on_frontier,
            queue: BinaryHeap::new(),
            queued: vec![false; circuit.num_nodes()],
            output_effects,
        }
    }

    /// Sets input `pi` and queues it; [`Implication::propagate`] brings
    /// the values up to date.
    fn assign(&mut self, pi: usize, value: Tri) {
        self.assignment[pi] = value;
        self.schedule(self.circuit.inputs()[pi]);
    }

    fn schedule(&mut self, id: NodeId) {
        if !std::mem::replace(&mut self.queued[id.index()], true) {
            self.queue.push(Reverse(id));
        }
    }

    /// Re-evaluates the queued nodes in id order, queueing the fanouts
    /// of every node whose value changed.
    fn propagate(&mut self) {
        let mut last: Option<NodeId> = None;
        while let Some(Reverse(id)) = self.queue.pop() {
            debug_assert!(
                last < Some(id),
                "node {id:?} evaluated twice or out of order"
            );
            last = Some(id);
            self.queued[id.index()] = false;
            let (value, on_frontier) = evaluate(
                self.circuit,
                self.fault,
                id,
                &self.state.values,
                &self.assignment,
            );
            if on_frontier != self.on_frontier[id.index()] {
                self.on_frontier[id.index()] = on_frontier;
                // The flag says whether `id` is listed: the search finds
                // its slot when it joins and its entry when it leaves.
                let frontier = &mut self.state.frontier;
                let pos = frontier.binary_search(&id).unwrap_or_else(|slot| slot);
                if on_frontier {
                    frontier.insert(pos, id);
                } else {
                    frontier.remove(pos);
                }
            }
            let old = std::mem::replace(&mut self.state.values[id.index()], value);
            if old == value {
                continue;
            }
            if self.circuit.is_output(id) {
                self.output_effects -= usize::from(old.is_fault_effect());
                self.output_effects += usize::from(value.is_fault_effect());
            }
            for &sink in self.circuit.fanout(id) {
                self.schedule(sink);
            }
        }
    }
}

/// PODEM's decision stack: (input index, second branch already tried).
#[derive(Default)]
struct Decisions {
    stack: Vec<(usize, bool)>,
}

impl Decisions {
    /// Assigns `value` to the unassigned input `pi`.
    fn decide(&mut self, imp: &mut Implication<'_>, pi: usize, value: bool) {
        self.stack.push((pi, false));
        imp.assign(pi, Tri::known(value));
    }

    /// Flips the most recent untried decision, unassigning the tried
    /// ones above it; `false` when every decision has been tried.
    fn backtrack(&mut self, imp: &mut Implication<'_>) -> bool {
        while let Some((pi, tried)) = self.stack.pop() {
            if tried {
                imp.assign(pi, Tri::X);
            } else {
                imp.assign(pi, !imp.assignment[pi]);
                self.stack.push((pi, true));
                return true;
            }
        }
        false
    }
}

enum Goal {
    Objective(NodeId, bool),
    Conflict,
    SoftDeadEnd,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::parse_bench;
    use wrt_fault::FaultList;

    pub fn detects(circuit: &Circuit, fault: Fault, test: &[Option<bool>]) -> bool {
        // Fill don't-cares with 0 and check via scalar double simulation.
        let assignment: Vec<bool> = test.iter().map(|t| t.unwrap_or(false)).collect();
        let mut good = vec![false; circuit.num_nodes()];
        let mut bad = vec![false; circuit.num_nodes()];
        let mut buf = Vec::new();
        for (id, node) in circuit.iter() {
            good[id.index()] = match node.kind() {
                GateKind::Input => assignment[circuit.input_position(id).expect("pi")],
                kind => {
                    buf.clear();
                    buf.extend(node.fanin().iter().map(|f| good[f.index()]));
                    kind.eval(&buf)
                }
            };
            let mut v = match node.kind() {
                GateKind::Input => assignment[circuit.input_position(id).expect("pi")],
                kind => {
                    buf.clear();
                    for (pin, f) in node.fanin().iter().enumerate() {
                        let mut fv = bad[f.index()];
                        if let FaultSite::InputPin { gate, pin: fp } = fault.site {
                            if gate == id && fp == pin {
                                fv = fault.stuck_value;
                            }
                        }
                        buf.push(fv);
                    }
                    kind.eval(&buf)
                }
            };
            if fault.site == FaultSite::Output(id) {
                v = fault.stuck_value;
            }
            bad[id.index()] = v;
        }
        circuit
            .outputs()
            .iter()
            .any(|&o| good[o.index()] != bad[o.index()])
    }

    #[test]
    fn and_gate_tests_are_the_expected_vectors() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let y = c.node_id("y").unwrap();
        let a = c.node_id("a").unwrap();
        let podem = Podem::new(&c);
        match podem.generate(Fault::output(y, false)) {
            AtpgOutcome::Test(t) => assert_eq!(t, vec![Some(true), Some(true)]),
            other => panic!("{other:?}"),
        }
        match podem.generate(Fault::output(a, true)) {
            AtpgOutcome::Test(t) => {
                assert_eq!(t[0], Some(false));
                assert_eq!(t[1], Some(true));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn x_path_check_answers_alike_across_an_epoch_wrap() {
        // `d` reaches no output; every other node has an X-path.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nm = NAND(a, b)\ny = NOT(m)\nd = AND(a, b)\n",
        )
        .unwrap();
        let podem = Podem::new(&c);
        let y = c.node_id("y").unwrap();
        let sim = podem.simulate(Fault::output(y, false), &[Tri::X, Tri::X]);
        // Stamps of epoch 1, left from the previous round of epochs,
        // must not read as visited once the epoch wraps back to 1.
        let mut scratch = XPathScratch::new(c.num_nodes());
        scratch.epoch = u32::MAX;
        scratch.visited.fill(1);
        for _ in 0..2 {
            for id in c.ids() {
                let fresh = &mut XPathScratch::new(c.num_nodes());
                let expected = podem.has_x_path(id, &sim.values, fresh);
                assert_eq!(podem.has_x_path(id, &sim.values, &mut scratch), expected);
                assert_eq!(expected, id != c.node_id("d").unwrap());
            }
        }
        assert!(scratch.epoch < 16, "the epoch wrapped");
    }

    #[test]
    fn redundant_fault_is_proven() {
        // y = OR(a, NOT a) is constant 1: y s-a-1 is untestable.
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = OR(a, n)\n").unwrap();
        let y = c.node_id("y").unwrap();
        let podem = Podem::new(&c);
        assert_eq!(
            podem.generate(Fault::output(y, true)),
            AtpgOutcome::Redundant
        );
        // …while s-a-0 is trivially testable.
        assert!(matches!(
            podem.generate(Fault::output(y, false)),
            AtpgOutcome::Test(_)
        ));
    }

    #[test]
    fn reconvergent_masking_requires_backtracking() {
        // Classic example where the first propagation choice fails:
        // z = AND(XOR(a,b), XOR(b,a)) is constant 0; the XOR output
        // faults are still testable through careful excitation.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(w)\nx1 = XOR(a, b)\nx2 = XNOR(a, b)\n\
             z = AND(x1, x2)\nw = OR(x1, b)\n",
        )
        .unwrap();
        let podem = Podem::new(&c);
        // z s-a-1 is testable (z is constant 0, any pattern shows 0 vs 1).
        let z = c.node_id("z").unwrap();
        match podem.generate(Fault::output(z, true)) {
            AtpgOutcome::Test(t) => assert!(detects(&c, Fault::output(z, true), &t)),
            other => panic!("{other:?}"),
        }
        // z s-a-0 is redundant: z is never 1.
        assert_eq!(
            podem.generate(Fault::output(z, false)),
            AtpgOutcome::Redundant
        );
    }

    #[test]
    fn full_adder_every_fault_testable_and_tests_verified() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(cin)\nOUTPUT(s)\nOUTPUT(cout)\n\
             x1 = XOR(a, b)\ns = XOR(x1, cin)\na1 = AND(a, b)\na2 = AND(x1, cin)\n\
             cout = OR(a1, a2)\n",
        )
        .unwrap();
        let podem = Podem::new(&c);
        for (_, fault) in FaultList::full(&c).iter() {
            match podem.generate(fault) {
                AtpgOutcome::Test(t) => assert!(
                    detects(&c, fault, &t),
                    "bogus test for {}",
                    fault.describe(&c)
                ),
                other => panic!("{}: {other:?}", fault.describe(&c)),
            }
        }
    }

    #[test]
    fn pin_faults_at_fanout_stems() {
        let c =
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\ny = AND(a, b)\nz = OR(a, b)\n")
                .unwrap();
        let y = c.node_id("y").unwrap();
        let podem = Podem::new(&c);
        let fault = Fault::input_pin(y, 0, true);
        match podem.generate(fault) {
            AtpgOutcome::Test(t) => {
                assert!(detects(&c, fault, &t));
                // The branch fault needs a=0, b=1 (distinguishing it from
                // the stem fault, which pattern (0,0) would catch via z).
                assert_eq!(t[0], Some(false));
                assert_eq!(t[1], Some(true));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wide_and_is_easy_for_podem() {
        // The random-pattern-hard case is deterministic-easy: one
        // backtrace chain, no backtracking.
        let mut src = String::from("OUTPUT(y)\n");
        let mut args = Vec::new();
        for i in 0..24 {
            src.push_str(&format!("INPUT(x{i})\n"));
            args.push(format!("x{i}"));
        }
        src.push_str(&format!("y = AND({})\n", args.join(", ")));
        let c = parse_bench(&src).unwrap();
        let y = c.node_id("y").unwrap();
        let podem = Podem::new(&c);
        match podem.generate(Fault::output(y, false)) {
            AtpgOutcome::Test(t) => assert!(t.iter().all(|&v| v == Some(true))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn guidance_never_changes_conclusions() {
        // All three guidance models are complete searches: per fault the
        // outcome class (test / redundant) must match exactly, only the
        // backtrack spend may differ.
        use wrt_analyze::Scoap;
        let c = wrt_workloads::s1();
        let scoap = Scoap::compute(&c);
        let cop = Podem::new(&c);
        let uniform = Podem::unguided(&c);
        let guided = Podem::with_backtrace_costs(&c, &scoap);
        for (_, fault) in FaultList::checkpoints(&c).collapse_equivalent(&c).iter() {
            let (a, _) = cop.generate_counted(fault);
            let (b, _) = uniform.generate_counted(fault);
            let (g, _) = guided.generate_counted(fault);
            let class = |o: &AtpgOutcome| match o {
                AtpgOutcome::Test(_) => "test",
                AtpgOutcome::Redundant => "redundant",
                AtpgOutcome::Aborted => "aborted",
            };
            assert_eq!(class(&a), class(&b), "{}", fault.describe(&c));
            assert_eq!(class(&a), class(&g), "{}", fault.describe(&c));
        }
    }

    #[test]
    fn counted_backtracks_match_generate() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = OR(a, n)\n").unwrap();
        let y = c.node_id("y").unwrap();
        let podem = Podem::new(&c);
        // Proving the redundancy requires exhausting both branches of the
        // single decision variable: at least one backtrack.
        let (outcome, backtracks) = podem.generate_counted(Fault::output(y, true));
        assert_eq!(outcome, AtpgOutcome::Redundant);
        assert!(backtracks >= 1, "redundancy proof must backtrack");
        assert_eq!(podem.generate(Fault::output(y, true)), outcome);
    }

    #[test]
    fn scoap_guided_tests_are_valid() {
        use wrt_analyze::Scoap;
        let c = wrt_workloads::s1();
        let scoap = Scoap::compute(&c);
        let podem = Podem::with_backtrace_costs(&c, &scoap);
        for (_, fault) in FaultList::checkpoints(&c).iter().take(40) {
            if let AtpgOutcome::Test(t) = podem.generate(fault) {
                assert!(
                    detects(&c, fault, &t),
                    "bogus test for {}",
                    fault.describe(&c)
                );
            }
        }
    }

    #[test]
    fn backtrack_limit_aborts() {
        let c = wrt_workloads::s1();
        let faults = FaultList::checkpoints(&c);
        let podem = Podem::new(&c).with_backtrack_limit(0);
        // With zero backtracks allowed, at least some fault aborts or is
        // solved conflict-free; none may be misclassified as redundant.
        for (_, fault) in faults.iter().take(20) {
            assert_ne!(podem.generate(fault), AtpgOutcome::Redundant);
        }
    }
}

#[cfg(test)]
pub(crate) mod proptests {
    use super::*;
    use proptest::prelude::*;
    use wrt_circuit::CircuitBuilder;
    use wrt_estimate::exact_detection_probability;
    use wrt_fault::FaultList;

    /// A small random 5-input circuit with two outputs: gates may read
    /// one fanin twice, and constant drivers may feed them.
    pub(crate) fn arb_circuit() -> impl Strategy<Value = Circuit> {
        let kinds = prop::sample::select(vec![
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Const0,
            GateKind::Const1,
        ]);
        proptest::collection::vec((kinds, proptest::collection::vec(0usize..50, 1..3)), 3..16)
            .prop_map(|specs| {
                let mut b = CircuitBuilder::named("rand");
                let mut ids = Vec::new();
                for i in 0..5 {
                    ids.push(b.input(format!("i{i}")));
                }
                for (kind, picks) in specs {
                    let fanin: Vec<_> = match kind {
                        GateKind::Const0 => {
                            ids.push(b.const0());
                            continue;
                        }
                        GateKind::Const1 => {
                            ids.push(b.const1());
                            continue;
                        }
                        GateKind::Not => vec![ids[picks[0] % ids.len()]],
                        _ => picks.iter().map(|&p| ids[p % ids.len()]).collect(),
                    };
                    ids.push(b.gate_auto(kind, &fanin).expect("valid"));
                }
                b.mark_output(*ids.last().expect("non-empty"));
                b.mark_output(ids[5.min(ids.len() - 1)]);
                b.build().expect("valid circuit")
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Drives decisions, flips and unassigns through the search's own
        /// decision stack, for every output and pin fault; after each step
        /// the event-driven state must equal a full pass.
        #[test]
        fn event_implication_matches_a_full_pass_after_every_step(
            circuit in arb_circuit(),
            steps in proptest::collection::vec((any::<bool>(), 0usize..5, any::<bool>()), 1..40),
        ) {
            let podem = Podem::new(&circuit);
            for (_, fault) in FaultList::full(&circuit).iter() {
                let mut imp = Implication::new(&podem, fault);
                let mut decisions = Decisions::default();
                for &(decide, pi, value) in &steps {
                    if decide && imp.assignment[pi] == Tri::X {
                        decisions.decide(&mut imp, pi, value);
                    } else if !decisions.backtrack(&mut imp) {
                        break;
                    }
                    imp.propagate();
                    let full = podem.simulate(fault, &imp.assignment);
                    let what = fault.describe(&circuit);
                    prop_assert_eq!(&imp.state.values, &full.values, "values, {}", what);
                    prop_assert_eq!(&imp.state.frontier, &full.frontier, "frontier, {}", what);
                    let effect = circuit
                        .outputs()
                        .iter()
                        .any(|&o| full.values[o.index()].is_fault_effect());
                    prop_assert_eq!(imp.output_effects > 0, effect, "outputs, {}", what);
                }
            }
        }

        #[test]
        fn podem_agrees_with_exhaustive_ground_truth(circuit in arb_circuit()) {
            let podem = Podem::new(&circuit);
            for (_, fault) in FaultList::full(&circuit).iter() {
                let exact = exact_detection_probability(
                    &circuit, fault, &[0.5; 5], 8,
                ).expect("small circuit");
                match podem.generate(fault) {
                    AtpgOutcome::Test(t) => {
                        prop_assert!(exact > 0.0, "test found for undetectable {}", fault.describe(&circuit));
                        prop_assert!(
                            super::tests::detects(&circuit, fault, &t),
                            "invalid test for {}", fault.describe(&circuit)
                        );
                    }
                    AtpgOutcome::Redundant => {
                        prop_assert!(exact == 0.0, "{} declared redundant but p = {exact}", fault.describe(&circuit));
                    }
                    AtpgOutcome::Aborted => {
                        // Permitted, though unexpected at this size.
                    }
                }
            }
        }
    }
}
