//! Error type for the Steiner/arborescence constructions.

use std::error::Error;
use std::fmt;

use route_graph::{GraphError, NodeId};

/// Errors produced by net construction and routing-tree algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SteinerError {
    /// An underlying graph operation failed.
    Graph(GraphError),
    /// A net listed the same pin twice (or a sink equal to the source).
    DuplicatePin(NodeId),
    /// A net had fewer than two pins (a source and at least one sink).
    EmptyNet,
    /// The edge set handed to [`RoutingTree`](crate::RoutingTree) contained
    /// a cycle.
    CycleInTree,
    /// The edge set handed to [`RoutingTree`](crate::RoutingTree) formed
    /// more than one connected component.
    ForestNotTree,
    /// A tree was expected to span a terminal but does not contain it.
    MissingTerminal(NodeId),
    /// The exact (exponential-time) solver was asked for more terminals
    /// than it accepts.
    TooManyTerminals {
        /// Terminals requested.
        requested: usize,
        /// Solver limit.
        limit: usize,
    },
}

impl fmt::Display for SteinerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SteinerError::Graph(e) => write!(f, "graph error: {e}"),
            SteinerError::DuplicatePin(n) => write!(f, "pin {n} appears more than once in the net"),
            SteinerError::EmptyNet => write!(f, "a net needs at least two pins"),
            SteinerError::CycleInTree => write!(f, "edge set contains a cycle"),
            SteinerError::ForestNotTree => write!(f, "edge set forms a disconnected forest"),
            SteinerError::MissingTerminal(n) => write!(f, "tree does not span terminal {n}"),
            SteinerError::TooManyTerminals { requested, limit } => {
                write!(
                    f,
                    "exact solver limited to {limit} terminals, {requested} requested"
                )
            }
        }
    }
}

impl Error for SteinerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SteinerError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for SteinerError {
    fn from(e: GraphError) -> SteinerError {
        SteinerError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_errors_convert_and_chain() {
        let ge = GraphError::EmptyTerminalSet;
        let se: SteinerError = ge.clone().into();
        assert_eq!(se, SteinerError::Graph(ge));
        assert!(Error::source(&se).is_some());
    }

    #[test]
    fn messages_are_nonempty() {
        let errs: Vec<SteinerError> = vec![
            SteinerError::EmptyNet,
            SteinerError::CycleInTree,
            SteinerError::ForestNotTree,
            SteinerError::DuplicatePin(NodeId::from_index(1)),
            SteinerError::MissingTerminal(NodeId::from_index(2)),
            SteinerError::TooManyTerminals {
                requested: 20,
                limit: 12,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<SteinerError>();
    }
}
