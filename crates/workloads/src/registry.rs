//! Central registry of the paper's twelve benchmark circuits.

use wrt_circuit::Circuit;

/// Names of the twelve circuits of Table 1, in the paper's order.
pub const WORKLOAD_NAMES: [&str; 12] = [
    "s1", "s2", "c432ish", "c499ish", "c880ish", "c1355ish", "c1908ish", "c2670ish", "c3540ish",
    "c5315ish", "c6288ish", "c7552ish",
];

/// Names of the starred circuits (the random-pattern-resistant ones the
/// paper optimizes in Tables 2–5).
pub const STARRED_NAMES: [&str; 4] = ["s1", "s2", "c2670ish", "c7552ish"];

/// Parses a synthetic tiled-circuit name of the form
/// `tiled_<gates>_<seed>` (the names [`crate::tiled`] assigns).
fn parse_tiled_name(name: &str) -> Option<Circuit> {
    let rest = name.strip_prefix("tiled_")?;
    let (gates, seed) = rest.split_once('_')?;
    let gates: usize = gates.parse().ok()?;
    let seed: u64 = seed.parse().ok()?;
    if gates == 0 {
        return None;
    }
    Some(crate::tiled(gates, seed))
}

/// Builds a workload circuit by its registry name.
///
/// Beyond the twelve fixed paper circuits, names of the form
/// `tiled_<gates>_<seed>` build the synthetic scale workload
/// [`crate::tiled`] with those parameters (e.g. `tiled_120000_7`), so
/// benchmarks and the CLI can request million-gate-class circuits by
/// name.
///
/// Returns `None` for unknown names.
///
/// # Example
///
/// ```
/// let c = wrt_workloads::by_name("s1").expect("registered");
/// assert_eq!(c.name(), "s1");
/// assert!(wrt_workloads::by_name("c17").is_none());
/// let t = wrt_workloads::by_name("tiled_5000_3").expect("synthetic");
/// assert_eq!(t.name(), "tiled_5000_3");
/// ```
pub fn by_name(name: &str) -> Option<Circuit> {
    if name.starts_with("tiled_") {
        return parse_tiled_name(name);
    }
    Some(match name {
        "s1" => crate::s1(),
        "s2" => crate::s2(),
        "c432ish" => crate::c432ish(),
        "c499ish" => crate::c499ish(),
        "c880ish" => crate::c880ish(),
        "c1355ish" => crate::c1355ish(),
        "c1908ish" => crate::c1908ish(),
        "c2670ish" => crate::c2670ish(),
        "c3540ish" => crate::c3540ish(),
        "c5315ish" => crate::c5315ish(),
        "c6288ish" => crate::c6288ish(),
        "c7552ish" => crate::c7552ish(),
        _ => return None,
    })
}

/// All twelve circuits of Table 1, in order.
pub fn all_paper_circuits() -> Vec<Circuit> {
    WORKLOAD_NAMES
        .iter()
        .map(|n| by_name(n).expect("registered name"))
        .collect()
}

/// The four starred (random-pattern-resistant) circuits of Tables 2–5.
pub fn starred_circuits() -> Vec<Circuit> {
    STARRED_NAMES
        .iter()
        .map(|n| by_name(n).expect("registered name"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds() {
        for name in WORKLOAD_NAMES {
            let c = by_name(name).expect("builds");
            assert_eq!(c.name(), name);
            assert!(c.num_inputs() > 0);
            assert!(c.num_outputs() > 0);
            assert!(c.num_gates() > 0);
        }
    }

    #[test]
    fn starred_is_subset_of_all() {
        for name in STARRED_NAMES {
            assert!(WORKLOAD_NAMES.contains(&name));
        }
        assert_eq!(starred_circuits().len(), 4);
    }

    #[test]
    fn tiled_names_parse_and_build() {
        let c = by_name("tiled_2000_5").expect("valid tiled name");
        assert_eq!(c.name(), "tiled_2000_5");
        assert!(c.num_gates() >= 2000);
        for bad in [
            "tiled_",
            "tiled_abc_1",
            "tiled_100",
            "tiled_100_x",
            "tiled_0_1",
            "tiled__",
        ] {
            assert!(by_name(bad).is_none(), "{bad} must not parse");
        }
    }

    #[test]
    fn circuits_are_deterministic() {
        let a = by_name("c880ish").unwrap();
        let b = by_name("c880ish").unwrap();
        assert_eq!(a.num_nodes(), b.num_nodes());
        for (id, node) in a.iter() {
            let other = b.node(id);
            assert_eq!(node.kind(), other.kind());
            assert_eq!(node.fanin(), other.fanin());
        }
    }
}
