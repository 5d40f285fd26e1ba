//! The relaxation kernel: the paper's routing heuristics, defined once.
//!
//! Every search in the workspace relaxes edges through [`step`] — the
//! mapper's whole-tree Dijkstra and its incremental repair, and the
//! router's point-to-point tiers — so a `PATH src dst` answer and the
//! tree printed from `src` cannot disagree about a rule. What the
//! searches differ in (heap discipline, pruning, what they stop at) is
//! theirs; what a relaxation *costs* is decided here:
//!
//! * **base weight** — the frozen (bias-folded) edge cost, except that
//!   edges out of the source pay the raw declared cost: the source's
//!   own `adjust` bias never applies to it;
//! * **dead hosts and links** — every edge out of a `dead` host other
//!   than the source pays `dead_penalty`; a `dead` link pays
//!   `dead_link_penalty`;
//! * **gateways** — entering a domain or a `gated` network pays
//!   `gate_penalty` unless the edge is a gateway (table below);
//! * **domain relay restriction** — once a path has passed through a
//!   domain (the [`TAINTED`] bit), every further edge pays
//!   `relay_penalty`, except alias and network-exit edges;
//! * **mixed syntax** — a `!` hop after an `@` hop pays
//!   `mixed_penalty` and marks the label [`AMBIGUOUS`]; under
//!   `strict_mixed` an `@` hop after a `!` hop pays it too. Alias and
//!   network-entry edges append no visible hop, and a network-exit
//!   edge uses the operator that entered the network.
//!
//! The gateway-exemption table, for an edge `u → v` into a domain or
//! gated network `v`:
//!
//! | edge                                    | exempt                  |
//! |-----------------------------------------|-------------------------|
//! | declared `gateway`                      | always                  |
//! | alias                                   | always                  |
//! | network exit (parent into a member)     | always                  |
//! | network entry (member into its parent)  | `v` is a domain, `u` is not |
//! | explicit link (none of the above kinds) | `u` is not a domain     |
//! | anything else                           | never                   |
//!
//! Labels compare by the packed `(cost, hops, node)` [`Key`]; an exact
//! key tie goes to the smaller `(pred, edge)` pair ([`offer`]), which
//! makes every search's labels independent of visit order.

use crate::cost_model::CostModel;
use pathalias_graph::{Cost, Dir, EdgeId, FrozenEdge, FrozenGraph, LinkFlags, NodeFlags, NodeId};

/// A label's heap key, packed into one `u128`: cost in the high 64
/// bits, then visible hops, then the node id — totally ordered, so
/// extraction order and therefore output are deterministic, and small
/// enough that a heap slot is one 16-byte move.
pub type Key = u128;

/// Packs a label's `(cost, hops, node)` into its [`Key`].
#[inline]
pub fn pack_key(cost: Cost, hops: u32, node: u32) -> Key {
    ((cost as u128) << 64) | ((hops as u128) << 32) | node as u128
}

/// The cost half of a [`Key`].
#[inline]
pub fn key_cost(key: Key) -> Cost {
    (key >> 64) as Cost
}

/// The visible-hop count of a [`Key`].
#[inline]
pub fn key_hops(key: Key) -> u32 {
    (key >> 32) as u32
}

/// Path-state bit: the node has a label.
pub const LABELLED: u8 = 1 << 0;
/// Path-state bit: the path has a host-on-left (`!`) hop.
pub const HAS_LEFT: u8 = 1 << 1;
/// Path-state bit: the path has a host-on-right (`@`) hop.
pub const HAS_RIGHT: u8 = 1 << 2;
/// Path-state bit: the path has passed through a domain.
pub const TAINTED: u8 = 1 << 3;
/// Path-state bit: the path uses an invented back link.
pub const VIA_BACK: u8 = 1 << 4;
/// Path-state bit: the path splices a `!` hop after an `@` hop.
pub const AMBIGUOUS: u8 = 1 << 5;
/// Search bit: the node's label is final (settled).
pub const MAPPED: u8 = 1 << 6;

/// The source's predecessor sentinel (only the source has no pred).
pub const NO_PRED: (u32, u32) = (u32::MAX, u32::MAX);

/// The path state of the source's own label.
#[inline]
pub fn source_state(f: &FrozenGraph, source: NodeId) -> u8 {
    LABELLED | if f.is_domain(source) { TAINTED } else { 0 }
}

/// Everything a relaxation needs about the tail node, loaded once per
/// settled node instead of once per edge. Built only by [`Tail::new`],
/// so the derived fields always agree with the graph and the model.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The tail node.
    pub u: NodeId,
    /// Its label's cost.
    pub cost: Cost,
    hops: u32,
    state: u8,
    /// The edge that reached `u` (for the network-exit operator rule).
    pred_edge: Option<EdgeId>,
    is_domain: bool,
    /// Edges out of the source use raw costs when the source carries
    /// an `adjust` bias (the bias was folded in at freeze time).
    use_raw: bool,
    /// Dead-host penalty owed by every edge out of `u`.
    dead_extra: Cost,
}

impl Tail {
    /// The relaxation context of `u`, labelled `(key, pred, state)` in
    /// a search from `source`.
    #[inline]
    pub fn new(
        f: &FrozenGraph,
        model: &CostModel,
        source: NodeId,
        u: NodeId,
        key: Key,
        pred: (u32, u32),
        state: u8,
    ) -> Tail {
        let is_source = u == source;
        let uflags = f.flags(u);
        Tail {
            u,
            cost: key_cost(key),
            hops: key_hops(key),
            state,
            pred_edge: (pred != NO_PRED).then(|| EdgeId::from_raw(pred.1)),
            is_domain: uflags.contains(NodeFlags::DOMAIN),
            use_raw: is_source && f.adjust(u) != 0,
            dead_extra: if !is_source && uflags.contains(NodeFlags::DEAD) {
                model.dead_penalty
            } else {
                0
            },
        }
    }
}

/// Whether an edge with flags `eflags` out of a tail (a domain iff
/// `tail_is_domain`) into a domain or gated node (a domain iff
/// `v_is_domain`) counts as going through a gateway. See the module
/// docs for the table.
#[inline]
fn gateway_exempt(tail_is_domain: bool, eflags: LinkFlags, v_is_domain: bool) -> bool {
    eflags.contains(LinkFlags::GATEWAY)
        || eflags.contains(LinkFlags::ALIAS)
        // Parent network/domain exiting into a gated member: the
        // parent is the member's gateway.
        || eflags.contains(LinkFlags::NET_OUT)
        // A (non-domain) host member entering its own domain.
        || (eflags.contains(LinkFlags::NET_IN) && v_is_domain && !tail_is_domain)
        // An explicitly written link into a gated net declares its
        // writer a gateway (how `seismo .edu(DEDICATED)` works).
        || (eflags.is_explicit() && !tail_is_domain)
}

/// The operator side of the *visible hop* `edge` appends out of
/// `tail`, if any. Alias and network-entry edges append nothing;
/// network-exit edges use "the ones encountered when entering the
/// network". The relaxation never needs the operator character, only
/// its side.
#[inline]
fn visible_dir(f: &FrozenGraph, tail: &Tail, edge: FrozenEdge) -> Option<Dir> {
    let eflags = edge.flags();
    if eflags.intersects(LinkFlags::ALIAS | LinkFlags::NET_IN) {
        return None;
    }
    if eflags.contains(LinkFlags::NET_OUT) {
        let entering = tail
            .pred_edge
            .map(|pe| f.edge(pe).dir())
            .unwrap_or_else(|| edge.dir());
        return Some(entering);
    }
    Some(edge.dir())
}

/// One relaxation's outcome: the candidate label, its cost components,
/// and which rules fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Candidate cost: the tail's cost plus every component below plus
    /// the dead-host/dead-link penalties (saturating).
    pub cost: Cost,
    /// Candidate visible-hop count.
    pub hops: u32,
    /// Candidate path-state bits ([`LABELLED`] set, [`MAPPED`] clear).
    pub state: u8,
    /// The edge's base weight (raw out of an adjusted source).
    pub base: Cost,
    /// Gate penalty charged.
    pub gate: Cost,
    /// Relay penalty charged.
    pub relay: Cost,
    /// Mixed-syntax penalty charged.
    pub mixed: Cost,
    /// The gate rule fired (even if the penalty is configured to 0).
    pub gate_rule: bool,
    /// The relay rule fired (even if the penalty is configured to 0).
    pub relay_rule: bool,
    /// The hop is a `!` after an `@` — an ambiguous address, recorded
    /// whatever the mixed penalty.
    pub ambiguous: bool,
}

impl Step {
    /// The candidate's heap key at head node `v`.
    #[inline]
    pub fn key(&self, v: NodeId) -> Key {
        pack_key(self.cost, self.hops, v.raw())
    }
}

/// Relaxes the frozen edge `e_raw` (= `edge`) out of `tail` under
/// `model`: every rule in the module docs, and nothing else. Which
/// candidates a search offers, and where, is the search's business.
// Always inlined: it sits in every search's per-edge loop, and most
// callers read only the candidate's cost, hops and state, so the
// components and rule flags must fold away rather than be returned.
#[inline(always)]
pub fn step(f: &FrozenGraph, model: &CostModel, tail: &Tail, e_raw: u32, edge: FrozenEdge) -> Step {
    let vflags = f.flags(edge.to());
    let v_is_domain = vflags.contains(NodeFlags::DOMAIN);
    let eflags = edge.flags();

    // Base weight: the tail's `adjust` bias was folded in at freeze
    // time; edges leaving the *source* must use the raw cost.
    let base = if tail.use_raw {
        f.edge_raw_cost(EdgeId::from_raw(e_raw))
    } else {
        edge.cost()
    };

    let mut extra = tail.dead_extra;
    if eflags.contains(LinkFlags::DEAD) {
        extra += model.dead_link_penalty;
    }
    let gate_rule = vflags.intersects(NodeFlags::DOMAIN | NodeFlags::GATED)
        && !gateway_exempt(tail.is_domain, eflags, v_is_domain);
    let gate = if gate_rule { model.gate_penalty } else { 0 };
    let relay_rule =
        tail.state & TAINTED != 0 && !eflags.intersects(LinkFlags::ALIAS | LinkFlags::NET_OUT);
    let relay = if relay_rule { model.relay_penalty } else { 0 };

    let vis = visible_dir(f, tail, edge);
    let mut mixed = 0;
    let mut ambiguous = false;
    let mut state = (tail.state & !MAPPED) | LABELLED;
    match vis {
        Some(Dir::Left) => {
            // `!` applied after `@` builds an address UUCP mailers
            // misparse: always penalized, and recorded even when the
            // penalty is configured to zero.
            if tail.state & HAS_RIGHT != 0 {
                mixed = model.mixed_penalty;
                ambiguous = true;
                state |= AMBIGUOUS;
            }
            state |= HAS_LEFT;
        }
        Some(Dir::Right) => {
            // The classic `bang!path!%s@host` form is tolerated unless
            // strict mode penalizes all mixing.
            if model.strict_mixed && tail.state & HAS_LEFT != 0 {
                mixed = model.mixed_penalty;
            }
            state |= HAS_RIGHT;
        }
        None => {}
    }
    if v_is_domain {
        state |= TAINTED;
    }
    if eflags.contains(LinkFlags::BACK) {
        state |= VIA_BACK;
    }

    Step {
        cost: tail
            .cost
            .saturating_add(base)
            .saturating_add(gate)
            .saturating_add(relay)
            .saturating_add(mixed)
            .saturating_add(extra),
        hops: tail.hops + u32::from(vis.is_some()),
        state,
        base,
        gate,
        relay,
        mixed,
        gate_rule,
        relay_rule,
        ambiguous,
    }
}

/// What [`offer`] did with a candidate label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// New label, or a strictly smaller key: the node must be queued.
    Improved,
    /// Exact key tie won on the smaller `(pred, edge)`: pred and state
    /// rewritten, key unchanged.
    TieWon,
    /// Exact key tie lost: nothing written.
    TieKept,
    /// Larger key: nothing written.
    Worse,
}

/// Offers the candidate `(cand_key, cand_pred, cand_state)` to one
/// node's label slots (`labelled` says whether they hold a label yet).
/// Keys compare as `(cost, hops, node)`; an exact tie goes to the
/// smaller `(pred, edge)`, independent of visit order.
#[inline]
pub fn offer(
    key: &mut Key,
    pred: &mut (u32, u32),
    state: &mut u8,
    labelled: bool,
    cand_key: Key,
    cand_pred: (u32, u32),
    cand_state: u8,
) -> Offer {
    if !labelled || cand_key < *key {
        *key = cand_key;
        *pred = cand_pred;
        *state = cand_state;
        Offer::Improved
    } else if cand_key == *key {
        if cand_pred < *pred {
            *pred = cand_pred;
            *state = cand_state;
            Offer::TieWon
        } else {
            Offer::TieKept
        }
    } else {
        Offer::Worse
    }
}

/// A static lower bound on what [`step`] charges for the edge
/// `u --e_raw--> v` from *any* label at `u`, so summing it along any
/// path under-approximates the path's forward cost. With `source`
/// known, the raw-cost exemption and the dead-host penalty are exact
/// (they are properties of `u`); with `None` — any source — the base
/// is the smaller of the folded and raw costs and the dead-host
/// penalty bounds to zero. Either way the dead-link and gate penalties
/// are exact (edge and node properties), the relay penalty applies
/// when `u` is a domain (every label at a domain is tainted), and the
/// path-dependent mixed penalty bounds to zero.
#[inline]
pub fn lower_bound_weight(
    f: &FrozenGraph,
    model: &CostModel,
    source: Option<NodeId>,
    u: NodeId,
    e_raw: u32,
    edge: FrozenEdge,
) -> Cost {
    let uflags = f.flags(u);
    let u_is_domain = uflags.contains(NodeFlags::DOMAIN);
    let vflags = f.flags(edge.to());
    let eflags = edge.flags();
    let raw = || f.edge_raw_cost(EdgeId::from_raw(e_raw));

    let mut w = match source {
        Some(s) => {
            let base = if u == s && f.adjust(u) != 0 {
                raw()
            } else {
                edge.cost()
            };
            if u != s && uflags.contains(NodeFlags::DEAD) {
                base.saturating_add(model.dead_penalty)
            } else {
                base
            }
        }
        None => edge.cost().min(raw()),
    };
    if eflags.contains(LinkFlags::DEAD) {
        w = w.saturating_add(model.dead_link_penalty);
    }
    if vflags.intersects(NodeFlags::DOMAIN | NodeFlags::GATED)
        && !gateway_exempt(u_is_domain, eflags, vflags.contains(NodeFlags::DOMAIN))
    {
        w = w.saturating_add(model.gate_penalty);
    }
    if u_is_domain && !eflags.intersects(LinkFlags::ALIAS | LinkFlags::NET_OUT) {
        w = w.saturating_add(model.relay_penalty);
    }
    w
}

/// The source-independent metric a contraction hierarchy is built
/// over: [`lower_bound_weight`] for any source, one entry per frozen
/// edge. Hierarchy distances over it are sound pruning bounds for
/// every query; a stored hierarchy is only trusted when its weights
/// match this vector exactly.
pub fn ch_weights(f: &FrozenGraph, model: &CostModel) -> Vec<Cost> {
    let mut w = vec![0; f.edge_count()];
    for u in f.node_ids() {
        let (base_edge, row) = f.edge_slice(u);
        for (i, &edge) in row.iter().enumerate() {
            let e_raw = base_edge + i as u32;
            w[e_raw as usize] = lower_bound_weight(f, model, None, u, e_raw, edge);
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gateway_rows_and_pinned_ch_weights() {
        let (gw, alias, out, into) = (
            LinkFlags::GATEWAY,
            LinkFlags::ALIAS,
            LinkFlags::NET_OUT,
            LinkFlags::NET_IN,
        );
        let plain = LinkFlags::empty();
        // (tail is a domain, edge flags, head is a domain) -> exempt.
        let rows = [
            // Declared gateway, alias and network exit: always.
            (true, gw, false, true),
            (true, alias, true, true),
            (true, out, true, true),
            // Network entry: a host entering its own domain only.
            (false, into, true, true),
            (true, into, true, false),
            (false, into, false, false),
            // Explicit link: exempt unless written by a domain.
            (false, plain, false, true),
            (false, LinkFlags::DEAD, true, true),
            (true, plain, true, false),
            // Back links are neither explicit nor gateways.
            (false, LinkFlags::BACK, false, false),
        ];
        for (tail_dom, flags, v_dom, want) in rows {
            assert_eq!(
                gateway_exempt(tail_dom, flags, v_dom),
                want,
                "tail domain {tail_dom}, {flags:?}, head domain {v_dom}"
            );
        }

        // A stored hierarchy is trusted only if its weights equal
        // `ch_weights` bit for bit, so the metric is pinned per edge.
        let text = "a b(10), @g(20)\ng GNET(20)\ngateway {GNET!g}\nGNET = {x, y}(15)\n\
                    gated {GNET}\nb .edu(30)\n.edu = {.rutgers}(0)\n.rutgers = {caip}(5)\n\
                    caip d(7)\ndead {caip!d}\nadjust {b(40)}\nb = bee\n";
        let f = pathalias_parser::parse(text).unwrap().freeze();
        // Edges in id order: a->b, a->g, b->.edu (adjusted: raw 30,
        // folded 70), b->bee (alias), g->GNET (gateway), GNET->x,
        // GNET->y, x->GNET and y->GNET (non-gateway entries),
        // .edu->.rutgers, .rutgers->.edu (domain up-edge: gate +
        // relay), .rutgers->caip, caip->.rutgers (member entry),
        // caip->d (dead link), bee->b (alias).
        assert_eq!(
            ch_weights(&f, &CostModel::default()),
            [10, 20, 30, 0, 20, 0, 0, 30000015, 30000015, 0, 60000000, 0, 5, 30000007, 0]
        );
        let finite = CostModel {
            gate_penalty: 1_000,
            relay_penalty: 20_000,
            mixed_penalty: 300_000,
            strict_mixed: true,
            dead_penalty: 4_000_000,
            dead_link_penalty: 50_000_000,
            backlink_penalty: 600_000_000,
        };
        assert_eq!(
            ch_weights(&f, &finite),
            [10, 20, 30, 0, 20, 0, 0, 1015, 1015, 0, 21000, 0, 5, 50000007, 0]
        );
    }
}
