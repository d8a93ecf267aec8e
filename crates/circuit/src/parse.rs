//! Parser for the ISCAS-85 `.bench` netlist format.
//!
//! The format (used by the circuits of Table 1 in the paper, distributed at
//! the ISCAS'85 test session \[BRGL85\]) is line oriented:
//!
//! ```text
//! # comment
//! INPUT(a)
//! OUTPUT(y)
//! y = NAND(a, b)
//! b = NOT(a)
//! ```
//!
//! Signals may be referenced before they are defined; the parser performs
//! its own topological ordering and rejects combinational cycles.
//!
//! The scan is zero-copy: signal names are `&str` slices borrowed from the
//! input text and fanin references live in one flat arena, so parsing a
//! million-gate netlist performs O(gates) small allocations (the builder's
//! name arena), not O(edges) — the difference between linear and
//! allocator-bound scaling at the sizes `bench_scale` sweeps.

use std::collections::{HashMap, HashSet};

use crate::builder::CircuitBuilder;
use crate::error::ParseBenchError;
use crate::gate::GateKind;
use crate::netlist::{Circuit, NodeId};

#[derive(Debug)]
struct RawGate<'a> {
    name: &'a str,
    kind: GateKind,
    /// Start of this gate's fanin names in [`Scan::fanin_names`].
    fanin_start: u32,
    fanin_len: u32,
    line: usize,
}

/// Borrowed scan of a `.bench` netlist: all names point into the source
/// text; per-gate fanin lists are slices of one shared arena.
#[derive(Debug, Default)]
struct Scan<'a> {
    inputs: Vec<(&'a str, usize)>,
    outputs: Vec<(&'a str, usize)>,
    gates: Vec<RawGate<'a>>,
    fanin_names: Vec<&'a str>,
}

impl<'a> Scan<'a> {
    fn fanin(&self, g: &RawGate<'a>) -> &[&'a str] {
        let lo = g.fanin_start as usize;
        &self.fanin_names[lo..lo + g.fanin_len as usize]
    }
}

/// Line-level scan of a `.bench` netlist.  Lenient: malformed lines are
/// reported into `issues` and skipped, so one bad line does not hide
/// structural problems elsewhere.
fn scan_lines<'a>(text: &'a str, issues: &mut Vec<ParseBenchError>) -> Scan<'a> {
    let mut scan = Scan::default();

    for (lineno, raw_line) in text.lines().enumerate() {
        let line = lineno + 1;
        let code = match raw_line.find('#') {
            Some(pos) => &raw_line[..pos],
            None => raw_line,
        }
        .trim();
        if code.is_empty() {
            continue;
        }
        if let Some(inner) = strip_call(code, "INPUT") {
            scan.inputs.push((inner.trim(), line));
        } else if let Some(inner) = strip_call(code, "OUTPUT") {
            scan.outputs.push((inner.trim(), line));
        } else if let Some(eq) = code.find('=') {
            let target = code[..eq].trim();
            let rhs = code[eq + 1..].trim();
            if target.is_empty() {
                issues.push(syntax(line, "missing signal name before `=`"));
                continue;
            }
            let Some(open) = rhs.find('(') else {
                issues.push(syntax(line, "expected `KIND(args)` after `=`"));
                continue;
            };
            if !rhs.ends_with(')') {
                issues.push(syntax(line, "missing closing `)`"));
                continue;
            }
            let kind: GateKind = match rhs[..open].trim().parse() {
                Ok(k) => k,
                Err(e) => {
                    issues.push(syntax(line, &format!("{e}")));
                    continue;
                }
            };
            let args = &rhs[open + 1..rhs.len() - 1];
            let fanin_start =
                u32::try_from(scan.fanin_names.len()).expect("fanin arena fits in u32");
            scan.fanin_names
                .extend(args.split(',').map(str::trim).filter(|a| !a.is_empty()));
            let fanin_len = u32::try_from(scan.fanin_names.len()).expect("fanin arena fits in u32")
                - fanin_start;
            scan.gates.push(RawGate {
                name: target,
                kind,
                fanin_start,
                fanin_len,
                line,
            });
        } else {
            issues.push(syntax(
                line,
                "expected INPUT(..), OUTPUT(..) or `sig = KIND(..)`",
            ));
        }
    }
    scan
}

/// Indexes gate definitions by name, reporting duplicate definitions and
/// input/gate name conflicts into `issues`.
fn index_definitions<'a>(
    scan: &Scan<'a>,
    issues: &mut Vec<ParseBenchError>,
) -> HashMap<&'a str, usize> {
    let mut def: HashMap<&str, usize> = HashMap::with_capacity(scan.gates.len());
    for (i, g) in scan.gates.iter().enumerate() {
        if def.insert(g.name, i).is_some() {
            issues.push(syntax(
                g.line,
                &format!("signal `{}` defined more than once", g.name),
            ));
        }
    }
    for &(name, line) in &scan.inputs {
        if def.contains_key(name) {
            issues.push(syntax(
                line,
                &format!("signal `{name}` is both an input and a gate output"),
            ));
        }
    }
    def
}

/// Parses a `.bench` netlist into a [`Circuit`].
///
/// # Errors
///
/// Returns [`ParseBenchError`] on malformed lines, undefined signals,
/// combinational cycles, or structural violations (duplicate definitions,
/// missing inputs/outputs, wrong gate arity).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), wrt_circuit::ParseBenchError> {
/// let c = wrt_circuit::parse_bench(
///     "# tiny\nINPUT(a)\nINPUT(b)\nOUTPUT(s)\ns = XOR(a, b)\n",
/// )?;
/// assert_eq!(c.num_inputs(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_bench(text: &str) -> Result<Circuit, ParseBenchError> {
    parse_bench_named(text, "bench")
}

/// Tag bit marking a resolved fanin reference as a primary-input index
/// (as opposed to a gate index).  Node counts are bounded well below
/// 2^31 by the `u32` arenas, so the bit is always free.
const INPUT_REF: u32 = 1 << 31;
/// Resolved-reference sentinel for a signal nobody defines.
const UNDEFINED_REF: u32 = u32::MAX;

/// Like [`parse_bench`] but sets the circuit's name.
///
/// # Errors
///
/// Same conditions as [`parse_bench`].
pub fn parse_bench_named(text: &str, name: &str) -> Result<Circuit, ParseBenchError> {
    let mut issues = Vec::new();
    let scan = scan_lines(text, &mut issues);
    let def = index_definitions(&scan, &mut issues);
    if let Some(first) = issues.into_iter().next() {
        return Err(first);
    }

    let mut builder = CircuitBuilder::named(name);
    let mut input_pos: HashMap<&str, u32> = HashMap::with_capacity(scan.inputs.len());
    let mut input_ids: Vec<NodeId> = Vec::with_capacity(scan.inputs.len());
    for &(name, _) in &scan.inputs {
        input_pos.insert(
            name,
            u32::try_from(input_ids.len()).expect("inputs fit in u32"),
        );
        input_ids.push(builder.input(name));
    }

    // Resolve every fanin name exactly once, up front: the DFS below then
    // touches only flat arrays — at million-gate scale the per-edge hash
    // lookups, not the graph walk, dominate this path.
    let fanin_refs: Vec<u32> = scan
        .fanin_names
        .iter()
        .map(|&f| match def.get(f) {
            Some(&fi) => u32::try_from(fi).expect("gate count fits in u32"),
            None => input_pos.get(f).map_or(UNDEFINED_REF, |&p| INPUT_REF | p),
        })
        .collect();

    // Iterative DFS over gate dependencies, emitting in dependency
    // (DFS post) order.  `gate_ids[fi]` is valid once `mark[fi]` is black.
    let mut mark = vec![Mark::White; scan.gates.len()];
    let mut gate_ids: Vec<NodeId> = vec![NodeId::from_index(0); scan.gates.len()];
    let mut fanin_ids: Vec<NodeId> = Vec::new();
    for start in 0..scan.gates.len() {
        if mark[start] == Mark::Black {
            continue;
        }
        // stack of (gate index, next fanin position)
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        mark[start] = Mark::Grey;
        while let Some(&(gi, pos)) = stack.last() {
            let g = &scan.gates[gi];
            if pos < g.fanin_len as usize {
                stack.last_mut().expect("stack non-empty").1 += 1;
                let r = fanin_refs[g.fanin_start as usize + pos];
                if r == UNDEFINED_REF {
                    return Err(ParseBenchError::UndefinedSignal {
                        signal: scan.fanin(g)[pos].to_string(),
                        sink: g.name.to_string(),
                        line: g.line,
                    });
                }
                if r & INPUT_REF != 0 {
                    continue; // primary input: always materialized
                }
                match mark[r as usize] {
                    Mark::Black => {}
                    Mark::Grey => return Err(cycle_error(&scan, &stack, r as usize, g.line)),
                    Mark::White => {
                        mark[r as usize] = Mark::Grey;
                        stack.push((r as usize, 0));
                    }
                }
            } else {
                // All fanins materialized: emit this gate.
                let lo = g.fanin_start as usize;
                fanin_ids.clear();
                fanin_ids.extend(fanin_refs[lo..lo + g.fanin_len as usize].iter().map(|&r| {
                    if r & INPUT_REF != 0 {
                        input_ids[(r & !INPUT_REF) as usize]
                    } else {
                        gate_ids[r as usize]
                    }
                }));
                gate_ids[gi] = builder.gate(g.kind, g.name, &fanin_ids)?;
                mark[gi] = Mark::Black;
                stack.pop();
            }
        }
    }

    for &(oname, line) in &scan.outputs {
        let id = match def.get(oname) {
            Some(&fi) => gate_ids[fi],
            None => match input_pos.get(oname) {
                Some(&p) => input_ids[p as usize],
                None => {
                    return Err(ParseBenchError::UndefinedSignal {
                        signal: oname.to_string(),
                        sink: "OUTPUT".to_string(),
                        line,
                    })
                }
            },
        };
        builder.mark_output(id);
    }

    Ok(builder.build()?)
}

#[derive(Clone, Copy, PartialEq)]
enum Mark {
    White,
    Grey,
    Black,
}

/// Reconstructs the combinational loop from the DFS stack when a grey node
/// `fi` is re-entered: the stack suffix from `fi`'s frame to the top, with
/// the loop signal repeated at the end to close the path.
fn cycle_error(
    scan: &Scan<'_>,
    stack: &[(usize, usize)],
    fi: usize,
    line: usize,
) -> ParseBenchError {
    let k = stack
        .iter()
        .position(|&(i, _)| i == fi)
        .expect("grey node is on the DFS stack");
    let mut path: Vec<String> = stack[k..]
        .iter()
        .map(|&(i, _)| scan.gates[i].name.to_string())
        .collect();
    path.push(scan.gates[fi].name.to_string());
    ParseBenchError::Cycle { path, line }
}

/// Scans a `.bench` netlist and returns *all* structural issues it can find
/// without building a circuit: syntax errors, duplicate definitions,
/// undriven nets (signals referenced but never defined), and combinational
/// cycles.
///
/// Unlike [`parse_bench`], which stops at the first problem, this is the
/// lint-oriented entry point: every issue is reported, each with the line
/// it was detected on.  An empty result means [`parse_bench`] will get past
/// scanning and dependency resolution (structural `Build` errors such as
/// bad arity can still occur).
///
/// # Example
///
/// ```
/// let issues = wrt_circuit::scan_bench_issues(
///     "INPUT(a)\nOUTPUT(p)\np = AND(a, q)\nq = NOT(p)\ny = OR(a, ghost)\n",
/// );
/// assert_eq!(issues.len(), 2); // one undriven net, one cycle
/// ```
pub fn scan_bench_issues(text: &str) -> Vec<ParseBenchError> {
    let mut issues = Vec::new();
    let scan = scan_lines(text, &mut issues);
    let def = index_definitions(&scan, &mut issues);
    let defined: HashSet<&str> = scan
        .inputs
        .iter()
        .map(|&(n, _)| n)
        .chain(scan.gates.iter().map(|g| g.name))
        .collect();

    // Undriven nets: every reference to a signal nobody defines.
    let mut seen: HashSet<(&str, &str)> = HashSet::new();
    for g in &scan.gates {
        for &fname in scan.fanin(g) {
            if !defined.contains(fname) && seen.insert((fname, g.name)) {
                issues.push(ParseBenchError::UndefinedSignal {
                    signal: fname.to_string(),
                    sink: g.name.to_string(),
                    line: g.line,
                });
            }
        }
    }
    for &(oname, line) in &scan.outputs {
        if !defined.contains(oname) {
            issues.push(ParseBenchError::UndefinedSignal {
                signal: oname.to_string(),
                sink: "OUTPUT".to_string(),
                line,
            });
        }
    }

    // Combinational cycles: same iterative DFS as the parser, but every
    // back edge becomes one finding instead of aborting on the first.
    let mut mark = vec![Mark::White; scan.gates.len()];
    for start in 0..scan.gates.len() {
        if mark[start] != Mark::White {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        mark[start] = Mark::Grey;
        while let Some(&(gi, pos)) = stack.last() {
            let g = &scan.gates[gi];
            let fanin = scan.fanin(g);
            if pos < fanin.len() {
                stack.last_mut().expect("stack non-empty").1 += 1;
                let Some(&fi) = def.get(fanin[pos]) else {
                    continue; // primary input or undriven (already reported)
                };
                match mark[fi] {
                    Mark::Black => {}
                    Mark::Grey => issues.push(cycle_error(&scan, &stack, fi, g.line)),
                    Mark::White => {
                        mark[fi] = Mark::Grey;
                        stack.push((fi, 0));
                    }
                }
            } else {
                mark[gi] = Mark::Black;
                stack.pop();
            }
        }
    }
    issues
}

fn strip_call<'a>(code: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = code.strip_prefix(keyword)?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('(')?;
    rest.strip_suffix(')')
}

fn syntax(line: usize, message: &str) -> ParseBenchError {
    ParseBenchError::Syntax {
        line,
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_forward_references() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(m)\nm = NOT(a)\n").unwrap();
        assert_eq!(c.num_gates(), 2);
        // m must come before y in topological order
        let m = c.node_id("m").unwrap();
        let y = c.node_id("y").unwrap();
        assert!(m < y);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let c = parse_bench("# header\n\nINPUT(a)\nOUTPUT(y) # trailing\ny = BUFF(a)\n").unwrap();
        assert_eq!(c.num_inputs(), 1);
    }

    #[test]
    fn detects_cycles_with_full_path() {
        let err = parse_bench("INPUT(a)\nOUTPUT(p)\np = AND(a, q)\nq = NOT(p)\n").unwrap_err();
        let ParseBenchError::Cycle { path, line } = err else {
            panic!("expected cycle, got {err:?}");
        };
        // The loop is closed: first signal repeated at the end.
        assert_eq!(path.first(), path.last());
        assert_eq!(path.len(), 3);
        assert!(path.contains(&"p".to_string()));
        assert!(path.contains(&"q".to_string()));
        // Closed by q's reference back to p on line 4.
        assert_eq!(line, 4);
    }

    #[test]
    fn detects_undefined_signals() {
        let err = parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n").unwrap_err();
        assert_eq!(
            err,
            ParseBenchError::UndefinedSignal {
                signal: "ghost".into(),
                sink: "y".into(),
                line: 3,
            }
        );
    }

    #[test]
    fn detects_undefined_output() {
        let err = parse_bench("INPUT(a)\nOUTPUT(nope)\ny = NOT(a)\n").unwrap_err();
        assert_eq!(
            err,
            ParseBenchError::UndefinedSignal {
                signal: "nope".into(),
                sink: "OUTPUT".into(),
                line: 2,
            }
        );
    }

    #[test]
    fn scan_reports_all_issues_not_just_the_first() {
        let issues = scan_bench_issues(
            "INPUT(a)\nOUTPUT(p)\np = AND(a, q)\nq = NOT(p)\ny = OR(a, ghost)\nz = BUFF(spook)\n",
        );
        let undriven = issues
            .iter()
            .filter(|i| matches!(i, ParseBenchError::UndefinedSignal { .. }))
            .count();
        let cycles = issues
            .iter()
            .filter(|i| matches!(i, ParseBenchError::Cycle { .. }))
            .count();
        assert_eq!(undriven, 2, "{issues:?}");
        assert_eq!(cycles, 1, "{issues:?}");
    }

    #[test]
    fn scan_is_empty_on_clean_netlists() {
        assert!(scan_bench_issues("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").is_empty());
    }

    #[test]
    fn scan_reports_self_loop() {
        let issues = scan_bench_issues("INPUT(a)\nOUTPUT(q)\nq = AND(a, q)\n");
        assert_eq!(issues.len(), 1);
        let ParseBenchError::Cycle { path, line } = &issues[0] else {
            panic!("expected cycle, got {issues:?}");
        };
        assert_eq!(path.as_slice(), ["q", "q"]);
        assert_eq!(*line, 3);
    }

    #[test]
    fn scan_keeps_going_past_syntax_errors() {
        let issues = scan_bench_issues("INPUT(a)\nwat\ny = OR(a, ghost)\nOUTPUT(y)\n");
        assert!(issues
            .iter()
            .any(|i| matches!(i, ParseBenchError::Syntax { line: 2, .. })));
        assert!(issues
            .iter()
            .any(|i| matches!(i, ParseBenchError::UndefinedSignal { line: 3, .. })));
    }

    #[test]
    fn detects_double_definition() {
        let err = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n").unwrap_err();
        assert!(matches!(err, ParseBenchError::Syntax { line: 4, .. }));
    }

    #[test]
    fn rejects_garbage_lines() {
        let err = parse_bench("INPUT(a)\nwat\n").unwrap_err();
        assert!(matches!(err, ParseBenchError::Syntax { line: 2, .. }));
    }

    #[test]
    fn rejects_unknown_gate_kind() {
        let err = parse_bench("INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a, a)\n").unwrap_err();
        assert!(matches!(err, ParseBenchError::Syntax { .. }));
    }

    #[test]
    fn input_also_gate_output_rejected() {
        let err = parse_bench("INPUT(a)\nOUTPUT(a)\na = NOT(a)\n").unwrap_err();
        assert!(matches!(err, ParseBenchError::Syntax { .. }));
    }

    #[test]
    fn output_can_be_an_input() {
        // An input wired straight to an output is legal in .bench.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(y)\ny = NOT(b)\n").unwrap();
        assert_eq!(c.num_outputs(), 2);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 50_000-gate chain; the DFS must be iterative.
        let mut text = String::from("INPUT(x0)\nOUTPUT(x50000)\n");
        // Define in *reverse* order to force maximal DFS depth.
        for i in (1..=50_000).rev() {
            text.push_str(&format!("x{i} = NOT(x{})\n", i - 1));
        }
        let c = parse_bench(&text).unwrap();
        assert_eq!(c.num_gates(), 50_000);
    }
}
