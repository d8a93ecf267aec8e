//! Tiled synthetic netlists for scale benchmarking.
//!
//! The paper's twelve circuits top out near 1.4k gates, far below the
//! million-gate scale the flat-memory core targets.  [`tiled`] composes
//! those registry workloads into arbitrarily large circuits: tiles are
//! instantiated into one shared netlist in rows, each row's tile inputs
//! stitched to the previous row's tile outputs (plus a deterministic
//! sprinkling of longer cross-row links for fanout stems and
//! reconvergence), until a target gate count is reached.
//!
//! The construction is lint-clean by design:
//!
//! * every stitch signal — primary inputs included — is either consumed
//!   by a later tile or marked as a primary output, so no floating
//!   inputs and no dead gates;
//! * tiles are replayed verbatim from the registry generators, which are
//!   themselves lint-clean, and composition preserves finite SCOAP
//!   controllabilities, so no constant-gate findings.
//!
//! Everything is deterministic by `(target_gates, seed)`: the same pair
//! always reproduces the identical netlist, node for node.

use wrt_circuit::{Circuit, CircuitBuilder, GateKind, NodeId};

/// Deterministic xorshift64* stream driving tile and stitch choices.
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        // Any nonzero state works; fold the seed so 0 and 1 diverge.
        XorShift64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Replays `tile` into the shared builder, wiring its primary inputs to
/// `drivers` (in input order) and returning the nodes its primary
/// outputs mapped to.  Gate names are prefixed by the tile instance
/// number, so instances never collide.
fn instantiate(
    b: &mut CircuitBuilder,
    tile: &Circuit,
    instance: usize,
    drivers: &[NodeId],
    map: &mut Vec<NodeId>,
) -> Vec<NodeId> {
    debug_assert_eq!(drivers.len(), tile.num_inputs());
    map.clear();
    for (id, node) in tile.iter() {
        let mapped = match node.kind() {
            GateKind::Input => drivers[tile.input_position(id).expect("tile input")],
            GateKind::Const0 => b.const0(),
            GateKind::Const1 => b.const1(),
            kind => {
                let fanin: Vec<NodeId> = node.fanin().iter().map(|f| map[f.index()]).collect();
                b.gate(kind, format!("t{instance}n{}", id.index()), &fanin)
                    .expect("replaying a valid tile")
            }
        };
        debug_assert_eq!(map.len(), id.index());
        map.push(mapped);
    }
    tile.outputs().iter().map(|&o| map[o.index()]).collect()
}

/// Builds a tiled synthetic circuit of at least `target_gates` gates
/// (overshooting by at most one tile, < 1.5k gates), deterministic by
/// `(target_gates, seed)`.
///
/// The circuit is named `tiled_<target_gates>_<seed>` and is lint-clean
/// at every size (see the module docs for why).  Row width — and with it
/// the depth/width aspect ratio — scales with the target so depth stays
/// roughly constant across sizes.
///
/// # Example
///
/// ```
/// let a = wrt_workloads::tiled(10_000, 42);
/// let b = wrt_workloads::tiled(10_000, 42);
/// assert!(a.num_gates() >= 10_000);
/// assert_eq!(a.num_nodes(), b.num_nodes()); // deterministic by seed
/// ```
pub fn tiled(target_gates: usize, seed: u64) -> Circuit {
    let tiles: Vec<Circuit> = crate::all_paper_circuits();
    let mut rng = XorShift64::new(seed);
    let mut b = CircuitBuilder::named(format!("tiled_{target_gates}_{seed}"));

    // Row width scales with the target (roughly constant row count, so
    // depth stays comparable across sizes); the primary-input count is
    // capped and the first row is widened by fanout instead.
    let width = (target_gates / 128).clamp(64, 8192);
    let num_inputs = width.min(2048);
    let pis: Vec<NodeId> = (0..num_inputs).map(|i| b.input(format!("pi{i}"))).collect();

    // `history` holds every stitch signal ever produced (for cross-row
    // links); `leftovers` collects signals no tile consumed, to be
    // marked as primary outputs at the end.
    let mut history: Vec<NodeId> = pis.clone();
    let mut leftovers: Vec<NodeId> = Vec::new();
    let mut frontier = pis;
    let mut gates = 0usize;
    let mut instance = 0usize;
    let mut map = Vec::new();

    while gates < target_gates {
        // Replenish a narrow frontier by reusing row signals: the
        // duplicates become fanout stems when consumed again below.
        while frontier.len() < width {
            let pick = frontier[rng.below(frontier.len())];
            frontier.push(pick);
        }
        let mut next: Vec<NodeId> = Vec::new();
        let mut cursor = 0usize;
        while cursor < frontier.len() && gates < target_gates {
            let tile = &tiles[rng.below(tiles.len())];
            let mut drivers = Vec::with_capacity(tile.num_inputs());
            for _ in 0..tile.num_inputs() {
                // March through the frontier in order (so every stitch
                // wire is consumed), rewiring roughly every fourth
                // driver to a random historical signal for cross-row
                // fanout and reconvergence.
                if cursor < frontier.len() && rng.below(4) != 0 {
                    drivers.push(frontier[cursor]);
                    cursor += 1;
                } else {
                    drivers.push(history[rng.below(history.len())]);
                }
            }
            let outs = instantiate(&mut b, tile, instance, &drivers, &mut map);
            instance += 1;
            gates += tile.num_gates();
            history.extend(&outs);
            next.extend(outs);
        }
        // Frontier tail a target-hit cut short: never consumed, so PO.
        leftovers.extend(&frontier[cursor..]);
        frontier = next;
    }
    leftovers.extend(frontier);

    // Every unconsumed stitch signal becomes a primary output (sorted
    // and deduplicated: replenishment can alias frontier entries).
    leftovers.sort_unstable();
    leftovers.dedup();
    for id in leftovers {
        b.mark_output(id);
    }
    b.build().expect("tiled composition is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaches_target_and_overshoots_at_most_one_tile() {
        let c = tiled(5_000, 1);
        assert!(c.num_gates() >= 5_000);
        assert!(
            c.num_gates() < 5_000 + 1_500,
            "overshoot bounded by one tile"
        );
        assert_eq!(c.name(), "tiled_5000_1");
    }

    #[test]
    fn identical_parameters_reproduce_identical_netlists() {
        let a = tiled(4_000, 7);
        let b = tiled(4_000, 7);
        assert_eq!(a.num_nodes(), b.num_nodes());
        for (id, node) in a.iter() {
            let other = b.node(id);
            assert_eq!(node.kind(), other.kind());
            assert_eq!(node.fanin(), other.fanin());
            assert_eq!(node.name(), other.name());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiled(4_000, 1);
        let b = tiled(4_000, 2);
        let same = a.num_nodes() == b.num_nodes()
            && a.iter().all(|(id, n)| {
                let o = b.node(id);
                n.kind() == o.kind() && n.fanin() == o.fanin()
            });
        assert!(!same, "seeds 1 and 2 produced the same netlist");
    }

    #[test]
    fn every_signal_is_consumed_or_observed() {
        let c = tiled(3_000, 3);
        for (id, node) in c.iter() {
            assert!(
                !c.fanout(id).is_empty() || c.is_output(id),
                "{} is dead (kind {:?})",
                node.name(),
                node.kind()
            );
        }
    }
}
