//! Partitioning a fault list into shards for parallel fault simulation.
//!
//! PPSFP fault simulation is embarrassingly parallel across faults: each
//! fault's detection words depend only on the fault-free values and its own
//! output cone.  A [`FaultPartition`] splits a [`FaultList`] into disjoint
//! shards so every simulation worker owns one shard end to end.
//!
//! Shards are *cone-locality-aware*: faults are ordered by the head of the
//! fanout-free region their effect root lies in (node ids are
//! topological), and a region is never split, so faults whose effects
//! leave through one region head — and hence share the event engine's
//! single propagation from it — land in the same shard, exactly as in the
//! serial simulator.  Shard boundaries are chosen to balance an estimated
//! propagation cost rather than a raw fault count, since regions near the
//! primary inputs carry much larger cones than regions next to the
//! outputs.

use wrt_circuit::{FanoutFreeRegions, NodeId};

use crate::list::{FaultId, FaultList};

/// A disjoint split of one fault list into shards of fault ids.
///
/// Every fault of the originating list appears in exactly one shard, and
/// all faults of one fanout-free region share a shard.  Empty shards are
/// never produced: partitioning a list touching `r` distinct regions into
/// `k > r` shards yields one shard per region.
///
/// # Example
///
/// ```
/// use wrt_circuit::{parse_bench, FanoutFreeRegions};
/// use wrt_fault::{FaultList, FaultPartition};
///
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\ny = AND(a, b)\nz = OR(a, b)\n")?;
/// let faults = FaultList::full(&c);
/// let partition = FaultPartition::cone_locality(&FanoutFreeRegions::new(&c), &faults, 2);
/// assert_eq!(partition.num_shards(), 2);
/// let total: usize = partition.shards().map(<[_]>::len).sum();
/// assert_eq!(total, faults.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPartition {
    /// Shard boundaries in CSR layout: shard `s` is
    /// `data[offsets[s]..offsets[s + 1]]`.  Two flat arrays instead of one
    /// heap allocation per shard.
    offsets: Vec<u32>,
    data: Vec<FaultId>,
}

impl FaultPartition {
    /// Partitions `faults` into at most `num_shards` cone-locality-aware,
    /// cost-balanced shards over the circuit whose fanout-free regions are
    /// `regions`.
    ///
    /// Faults are sorted by the region head of their effect root (stable
    /// within a head), then cut into contiguous runs with approximately
    /// equal estimated simulation cost.  Cuts fall only at head boundaries
    /// — a region never spans two shards, so the event engine's one
    /// propagation per region head serves all its faults in every shard
    /// layout — and the shard count is capped at the number of distinct
    /// heads.  The cost proxy is paid once per distinct head (its
    /// propagation is shared): the node count downstream of the head, an
    /// upper bound on its cone size that needs no cone extraction of its
    /// own.
    ///
    /// A `num_shards` of 0 is treated as 1.
    pub fn cone_locality(
        regions: &FanoutFreeRegions,
        faults: &FaultList,
        num_shards: usize,
    ) -> Self {
        let mut order: Vec<(NodeId, FaultId)> = faults
            .iter()
            .map(|(id, f)| (regions.head(f.site.effect_root()), id))
            .collect();
        order.sort_unstable();
        // Whether `order[k]` is the last fault of its region.
        let head_ends = |k: usize| order.get(k + 1).is_none_or(|&(next, _)| next != order[k].0);

        // Estimated cost of simulating each distinct head: every node
        // topologically after it may be in its cone.
        let weight = |head: NodeId| (regions.num_nodes() - head.index()) as u64 + 1;
        let (mut heads_left, total) = (0..order.len())
            .filter(|&k| head_ends(k))
            .fold((0usize, 0u64), |(n, w), k| (n + 1, w + weight(order[k].0)));

        let num_shards = num_shards.min(heads_left).max(1);
        let mut offsets: Vec<u32> = Vec::with_capacity(num_shards + 1);
        offsets.push(0);
        let mut data: Vec<FaultId> = Vec::with_capacity(order.len());
        let mut spent = 0u64;
        for (k, &(head, id)) in order.iter().enumerate() {
            data.push(id);
            if !head_ends(k) {
                continue; // never cut inside a region
            }
            spent += weight(head);
            heads_left -= 1;
            if offsets.len() == num_shards {
                continue; // the last shard absorbs the tail
            }
            // Cut when this shard reached its proportional share of the
            // total cost, and always early enough that every remaining
            // shard can still receive at least one region.
            let target = total * offsets.len() as u64 / num_shards as u64;
            let remaining_shards = num_shards - offsets.len();
            let must_cut = heads_left == remaining_shards;
            if must_cut || (spent >= target && heads_left > remaining_shards) {
                offsets.push(data.len() as u32);
                // `spent` accumulates across shards against the shared
                // prefix target, so do not reset it.
            }
        }
        if data.len() as u32 > *offsets.last().expect("offsets non-empty")
            || offsets.len() == 1
        {
            offsets.push(data.len() as u32);
        }
        FaultPartition { offsets, data }
    }

    /// Number of shards (≥ 1; at most the requested shard count).
    pub fn num_shards(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The fault ids of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.num_shards()`.
    pub fn shard(&self, s: usize) -> &[FaultId] {
        let lo = self.offsets[s] as usize;
        let hi = self.offsets[s + 1] as usize;
        &self.data[lo..hi]
    }

    /// Iterates over all shards.
    pub fn shards(&self) -> impl Iterator<Item = &[FaultId]> {
        self.offsets
            .windows(2)
            .map(move |w| &self.data[w[0] as usize..w[1] as usize])
    }

    /// Materializes shard `s` of `faults` as its own [`FaultList`]
    /// (ordered as within the shard).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or the shard references ids outside
    /// `faults`.
    pub fn sublist(&self, faults: &FaultList, s: usize) -> FaultList {
        self.shard(s).iter().map(|&id| faults.fault(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrt_circuit::{parse_bench, Circuit};

    /// A gate chain on two stems whose gates are all observed, so every
    /// node heads its own fanout-free region.
    fn chain() -> Circuit {
        parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(g1)\nOUTPUT(g2)\nOUTPUT(g3)\nOUTPUT(y)\n\
             g1 = AND(a, b)\ng2 = OR(g1, b)\ng3 = NAND(g2, a)\ny = NOT(g3)\n",
        )
        .unwrap()
    }

    fn partition(c: &Circuit, faults: &FaultList, num_shards: usize) -> FaultPartition {
        FaultPartition::cone_locality(&FanoutFreeRegions::new(c), faults, num_shards)
    }

    #[test]
    fn shards_cover_every_fault_exactly_once() {
        let c = chain();
        let faults = FaultList::full(&c);
        for k in [1, 2, 3, 5, 8] {
            let p = partition(&c, &faults, k);
            let mut seen: Vec<FaultId> = p.shards().flatten().copied().collect();
            seen.sort();
            let all: Vec<FaultId> = faults.iter().map(|(id, _)| id).collect();
            assert_eq!(seen, all, "k = {k}");
        }
    }

    #[test]
    fn requested_shard_count_is_respected_when_feasible() {
        let c = chain();
        let faults = FaultList::full(&c);
        for k in 1..=6 {
            let p = partition(&c, &faults, k);
            assert_eq!(p.num_shards(), k, "k = {k}");
            assert!(p.shards().all(|s| !s.is_empty()));
        }
    }

    #[test]
    fn more_shards_than_faults_degenerates_to_singletons() {
        // One fault per node: every fault has a root of its own.
        let c = chain();
        let faults =
            FaultList::from_faults(c.ids().map(|n| crate::Fault::output(n, true)).collect());
        let p = partition(&c, &faults, 100);
        assert_eq!(p.num_shards(), faults.len());
        assert!(p.shards().all(|s| s.len() == 1));
    }

    #[test]
    fn shard_count_is_capped_at_the_distinct_roots() {
        // Both polarities of two inputs: 4 faults over 2 roots.
        let c = chain();
        let faults = FaultList::primary_inputs(&c);
        assert_eq!(faults.len(), 4);
        for k in [2, 3, 100] {
            let p = partition(&c, &faults, k);
            assert_eq!(p.num_shards(), 2, "k = {k}");
            assert!(p.shards().all(|s| s.len() == 2), "k = {k}");
        }
    }

    #[test]
    fn each_distinct_root_is_weighed_once() {
        // 18 faults root at the AND gate `y`, 2 at each of its 8 inputs
        // (observed, so each heads its own region); input `xi` weighs
        // 10 - i (the nodes from it on, plus one) and `y` weighs 2.
        // Weighed once per root the total is 54 and the cut falls after
        // x0..x2 (27); weighed per fault (140) it would fall after x0..x4
        // (68).
        let mut src = String::from("OUTPUT(y)\n");
        let mut args = Vec::new();
        for i in 0..8 {
            src.push_str(&format!("INPUT(x{i})\nOUTPUT(x{i})\n"));
            args.push(format!("x{i}"));
        }
        src.push_str(&format!("y = AND({})\n", args.join(", ")));
        let c = parse_bench(&src).unwrap();
        let faults = FaultList::full(&c);
        let p = partition(&c, &faults, 2);
        assert_eq!(p.num_shards(), 2);
        let first_roots: std::collections::BTreeSet<_> = p
            .shard(0)
            .iter()
            .map(|&id| faults.fault(id).site.effect_root())
            .collect();
        assert_eq!(first_roots.len(), 3, "{first_roots:?}");
    }

    #[test]
    fn same_fanout_free_region_lands_in_same_shard() {
        // Two regions headed by the outputs `y` and `z`, each a chain of
        // single-fanout gates, plus the stems `a` and `b`: every fault of
        // a chain leaves through its region's head, so no shard layout
        // may split a region, and there are only four to go around.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n\
             p1 = AND(a, b)\np2 = NOT(p1)\ny = BUF(p2)\n\
             q1 = OR(a, b)\nq2 = NOT(q1)\nz = XOR(q2, a)\n",
        )
        .unwrap();
        let regions = FanoutFreeRegions::new(&c);
        let faults = FaultList::full(&c);
        for k in 1..=6 {
            let p = FaultPartition::cone_locality(&regions, &faults, k);
            assert_eq!(p.num_shards(), k.min(4), "k = {k}");
            let mut home = std::collections::HashMap::new();
            for s in 0..p.num_shards() {
                for &id in p.shard(s) {
                    let head = regions.head(faults.fault(id).site.effect_root());
                    assert_eq!(*home.entry(head).or_insert(s), s, "k = {k}");
                }
            }
            assert_eq!(home.len(), 4);
        }
    }

    #[test]
    fn zero_shards_is_one_shard() {
        let c = chain();
        let faults = FaultList::full(&c);
        let p = partition(&c, &faults, 0);
        assert_eq!(p.num_shards(), 1);
        assert_eq!(p.shard(0).len(), faults.len());
    }

    #[test]
    fn empty_fault_list_yields_one_empty_shard() {
        let c = chain();
        let faults = FaultList::from_faults(vec![]);
        let p = partition(&c, &faults, 4);
        assert_eq!(p.num_shards(), 1);
        assert!(p.shard(0).is_empty());
    }

    #[test]
    fn sublist_preserves_faults() {
        let c = chain();
        let faults = FaultList::full(&c);
        let p = partition(&c, &faults, 4);
        let mut collected = Vec::new();
        for s in 0..p.num_shards() {
            collected.extend(p.sublist(&faults, s).iter().map(|(_, f)| f));
        }
        let mut original: Vec<_> = faults.iter().map(|(_, f)| f).collect();
        collected.sort();
        original.sort();
        assert_eq!(collected, original);
    }
}
