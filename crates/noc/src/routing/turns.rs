//! Turn restrictions.
//!
//! The composable-routing baseline (Yin et al., ISCA'18, as summarised in
//! Sec. III-B of the UPP paper) abstracts everything outside a chiplet into a
//! *virtual node* and places unidirectional turn restrictions on the
//! chiplet's boundary routers until the extended CDG
//! ([`crate::routing::ExtendedCdg`]) — internal channels plus virtual-node
//! channels — is acyclic. This module provides the restriction set type;
//! the search itself lives in `upp-baselines`.

use crate::ids::{NodeId, Port};
use serde::Serialize;
use std::collections::HashSet;

/// A set of forbidden `(node, in_port, out_port)` turns.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct TurnRestrictions {
    forbidden: HashSet<(NodeId, Port, Port)>,
}

impl TurnRestrictions {
    /// An empty (fully permissive) restriction set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forbids the turn `(node, in_port, out_port)`.
    pub fn forbid(&mut self, node: NodeId, in_port: Port, out_port: Port) {
        self.forbidden.insert((node, in_port, out_port));
    }

    /// Re-allows a previously forbidden turn.
    pub fn allow(&mut self, node: NodeId, in_port: Port, out_port: Port) {
        self.forbidden.remove(&(node, in_port, out_port));
    }

    /// True if the turn is allowed.
    #[inline]
    pub fn allows(&self, node: NodeId, in_port: Port, out_port: Port) -> bool {
        !self.forbidden.contains(&(node, in_port, out_port))
    }

    /// Number of forbidden turns.
    pub fn len(&self) -> usize {
        self.forbidden.len()
    }

    /// True when no turn is forbidden.
    pub fn is_empty(&self) -> bool {
        self.forbidden.is_empty()
    }

    /// Iterates over the forbidden turns.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Port, Port)> + '_ {
        self.forbidden.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restriction_set_basics() {
        let mut r = TurnRestrictions::new();
        assert!(r.is_empty());
        r.forbid(NodeId(1), Port::Down, Port::East);
        assert!(!r.allows(NodeId(1), Port::Down, Port::East));
        assert!(r.allows(NodeId(1), Port::Down, Port::West));
        assert_eq!(r.len(), 1);
        r.allow(NodeId(1), Port::Down, Port::East);
        assert!(r.allows(NodeId(1), Port::Down, Port::East));
        assert!(r.is_empty());
    }
}
