//! Error types for circuit construction and parsing.

use std::fmt;

/// Error produced by [`crate::CircuitBuilder`] when a circuit is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildCircuitError {
    /// Two nodes were declared with the same name.
    DuplicateName(String),
    /// A gate references a fanin id that does not exist (or its own id).
    UnknownFanin {
        /// Name of the gate with the bad fanin.
        gate: String,
    },
    /// The fanin count is illegal for the gate kind.
    BadArity {
        /// Name of the offending gate.
        gate: String,
        /// The gate kind.
        kind: crate::GateKind,
        /// The fanin count that was supplied.
        got: usize,
    },
    /// The circuit has no primary outputs.
    NoOutputs,
    /// The circuit has no primary inputs.
    NoInputs,
    /// A node was marked as output more than once.
    DuplicateOutput(String),
    /// `GateKind::Input` was passed to `gate()`; use `input()` instead.
    InputAsGate(String),
}

impl fmt::Display for BuildCircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildCircuitError::DuplicateName(n) => write!(f, "duplicate node name `{n}`"),
            BuildCircuitError::UnknownFanin { gate } => {
                write!(f, "gate `{gate}` references an unknown fanin")
            }
            BuildCircuitError::BadArity { gate, kind, got } => {
                write!(f, "gate `{gate}` of kind {kind} cannot take {got} fanins")
            }
            BuildCircuitError::NoOutputs => write!(f, "circuit has no primary outputs"),
            BuildCircuitError::NoInputs => write!(f, "circuit has no primary inputs"),
            BuildCircuitError::DuplicateOutput(n) => {
                write!(f, "node `{n}` marked as output twice")
            }
            BuildCircuitError::InputAsGate(n) => {
                write!(
                    f,
                    "node `{n}`: use CircuitBuilder::input for primary inputs"
                )
            }
        }
    }
}

impl std::error::Error for BuildCircuitError {}

/// Error produced by [`crate::parse_bench`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseBenchError {
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Explanation of the problem.
        message: String,
    },
    /// A signal is referenced but never defined (an undriven net).
    UndefinedSignal {
        /// The undriven signal name.
        signal: String,
        /// The gate (or `OUTPUT`) that references it.
        sink: String,
        /// 1-based line of the referencing definition.
        line: usize,
    },
    /// The netlist contains a combinational cycle.
    Cycle {
        /// The signals on the cycle, in netlist dependency order; the first
        /// name is repeated at the end to close the loop.
        path: Vec<String>,
        /// 1-based line of the definition that closes the loop.
        line: usize,
    },
    /// The netlist was structurally invalid after parsing.
    Build(BuildCircuitError),
}

impl fmt::Display for ParseBenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBenchError::Syntax { line, message } => {
                write!(f, "syntax error on line {line}: {message}")
            }
            ParseBenchError::UndefinedSignal { signal, sink, line } => {
                write!(
                    f,
                    "signal `{signal}` referenced by `{sink}` on line {line} is never defined"
                )
            }
            ParseBenchError::Cycle { path, line } => {
                write!(
                    f,
                    "combinational cycle closed on line {line}: {}",
                    path.join(" -> ")
                )
            }
            ParseBenchError::Build(e) => write!(f, "invalid netlist: {e}"),
        }
    }
}

impl std::error::Error for ParseBenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseBenchError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildCircuitError> for ParseBenchError {
    fn from(e: BuildCircuitError) -> Self {
        ParseBenchError::Build(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = BuildCircuitError::DuplicateName("g7".into());
        assert_eq!(e.to_string(), "duplicate node name `g7`");
        let p = ParseBenchError::Syntax {
            line: 3,
            message: "expected `=`".into(),
        };
        assert!(p.to_string().contains("line 3"));
    }

    #[test]
    fn parse_error_wraps_build_error_as_source() {
        use std::error::Error;
        let p: ParseBenchError = BuildCircuitError::NoOutputs.into();
        assert!(p.source().is_some());
    }
}
