//! Route-string formatting for a single path.
//!
//! The printer labels the whole shortest-path tree in one preorder
//! traversal (`pathalias_printer::compute_routes`); a point-to-point
//! answer only needs the label of one leaf, so this module walks the
//! single `src ⤳ dst` chain through the printer's own recursion step
//! ([`route_step`]). The result is byte-identical to the printer's
//! route for `dst` in the tree rooted at `src` (the parity tests
//! assert exactly that).

use pathalias_graph::{Cost, EdgeId, FrozenGraph, NodeId};
use pathalias_printer::route_step;

/// A fully resolved point-to-point answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathAnswer {
    /// Total path cost under the engine's cost model — identical to the
    /// mapper's label for `dst` in the tree rooted at `src`.
    pub cost: Cost,
    /// Visible hops (alias and network-entry edges add none).
    pub hops: u32,
    /// The node chain, `src` first, `dst` last.
    pub nodes: Vec<NodeId>,
    /// The edge chain; `edges[i]` connects `nodes[i]` to `nodes[i + 1]`.
    pub edges: Vec<EdgeId>,
    /// The printable name of the destination (domain members get the
    /// domain name appended, e.g. `caip.rutgers.edu`).
    pub name: String,
    /// The route template with `%s` standing for the user part, e.g.
    /// `seismo!caip.rutgers.edu!%s`.
    pub route: String,
    /// The path passes through a domain (ARPANET relay taint).
    pub via_domain: bool,
    /// The path uses an invented back link.
    pub via_backlink: bool,
    /// The route mixes syntaxes ambiguously (`!` after `@`).
    pub ambiguous: bool,
}

/// Formats the route template and printable destination name for the
/// node/edge chain `nodes` / `edges` (as produced by a search). On a
/// chain, the edge that entered `nodes[i]` is simply `edges[i - 1]`.
pub(crate) fn format_route(
    f: &FrozenGraph,
    nodes: &[NodeId],
    edges: &[EdgeId],
) -> (String, String) {
    debug_assert_eq!(nodes.len(), edges.len() + 1);
    let mut route = "%s".to_string();
    let mut name = f.name(nodes[0]).to_string();
    for (i, &edge) in edges.iter().enumerate() {
        let entering = i.checked_sub(1).map(|j| edges[j]);
        (route, name) = route_step(f, nodes[i], &route, &name, nodes[i + 1], edge, entering);
    }
    (route, name)
}
