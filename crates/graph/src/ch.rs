//! Contraction hierarchy: the freeze-time shortcut graph behind the
//! fast `PATH` tier.
//!
//! A contraction hierarchy orders the nodes by importance and
//! *contracts* them one at a time: when a node `v` is removed, any
//! shortest path `u → v → w` that has no equally cheap detour around
//! `v` (established by a bounded *witness* search) is preserved by a
//! shortcut edge `u → w` whose weight is the sum of the two halves.
//! After all nodes are contracted, every edge — original or shortcut —
//! either *rises* (head ranked above tail) or *falls*, and any
//! shortest `src → dst` distance is realized by a path that first
//! rises from `src` and then falls into `dst`. Queries therefore meet
//! in the middle: a forward search over the upward half from `src`, a
//! backward search over the downward half from `dst`, both confined to
//! tiny cones near the top of the hierarchy.
//!
//! # What the weights mean
//!
//! [`ChIndex::build`] takes one weight per frozen edge, supplied by
//! the caller. The router derives these from its cost model as a
//! **source-independent lower bound** on what the mapper would charge
//! for the edge (state-dependent penalties bounded to zero — see
//! `pathalias-router`). CH distances over such weights lower-bound the
//! mapper's true path costs, which is exactly what the certified
//! point-to-point search needs: the hierarchy *accelerates* the exact
//! search by bounding it, it never replaces the mapper's arithmetic.
//!
//! # Trust model
//!
//! A [`ChIndex`] loaded from a snapshot section is structurally
//! validated ([`ChIndex::validate_against`]): rank is a permutation,
//! rows are monotone, every original edge really exists in the frozen
//! CSR with the recorded endpoints, every shortcut nests (middle node
//! ranked below both endpoints) and carries the sum of its halves.
//! Those checks guarantee every CH path corresponds to a real path of
//! equal weight. *Completeness* — that no shortcut is missing — cannot
//! be re-verified cheaply and is trusted the same way edge costs are:
//! the checksum catches accidental corruption, and the router's parity
//! suite plus the CH-vs-no-CH end-to-end diff guard the construction
//! itself.

use crate::cost::Cost;
use crate::frozen::{EdgeId, FrozenGraph};
use crate::graph::NodeId;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

/// Sentinel in the second child slot marking an original (non-shortcut)
/// edge: its first slot is then a forward [`EdgeId`], not a CH ref.
pub const CH_ORIGINAL: u32 = u32::MAX;

/// Settle budget for the witness search run while actually contracting:
/// an inconclusive search just adds the (always-safe) shortcut. Sized
/// generously on purpose — a budget that gives up early on hub-heavy
/// worlds floods the hierarchy with unwitnessed shortcuts, and the
/// densified core then makes every later contraction (and every query
/// over the fat CSR) slower; paying for decisive searches shrinks the
/// final index *and* the total build time.
const WITNESS_SETTLE_BUDGET: usize = 2048;
/// Smaller settle budget for the priority simulation, which only needs
/// an estimate of how many shortcuts a contraction would add. Both
/// budgets count settled nodes, which the live rows do not change:
/// pruning dead and dearer parallel edges only cuts the entries a
/// search reads on the way.
const SIM_SETTLE_BUDGET: usize = 256;
/// Above this many `in × out` pairs the simulation skips witness
/// searches entirely and pessimistically assumes every pair needs a
/// shortcut — dense hubs float to the top of the hierarchy either way.
const SIM_PAIR_CAP: usize = 512;

/// A contraction hierarchy over a [`FrozenGraph`] and a caller-supplied
/// per-edge weight vector.
///
/// Storage is two CSR halves sharing one *ref* space. Refs
/// `0..up_count` are **upward** edges (head ranked above tail), grouped
/// by tail so a forward search can relax everything rising out of a
/// node. Refs `up_count..` are **downward** edges stored *transposed* —
/// grouped by head — so a backward search from the destination can walk
/// everything falling into a node. Each ref carries two child slots:
/// `(edge_id, CH_ORIGINAL)` for an original edge, or the refs of its
/// two halves for a shortcut, which is how [`ChIndex::unpack_into`]
/// recovers concrete [`EdgeId`] paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChIndex {
    /// Contraction order: `rank[v]` is the step at which `v` was
    /// contracted; higher rank = more important.
    pub(crate) rank: Vec<u32>,
    /// Upward CSR row starts by tail node (`n + 1` entries).
    pub(crate) up_row: Vec<u32>,
    /// Head of each upward edge.
    pub(crate) up_to: Vec<u32>,
    /// Weight of each upward edge.
    pub(crate) up_w: Vec<Cost>,
    /// First child slot of each upward edge (see [`CH_ORIGINAL`]).
    pub(crate) up_a: Vec<u32>,
    /// Second child slot of each upward edge.
    pub(crate) up_b: Vec<u32>,
    /// Downward CSR row starts by *head* node (`n + 1` entries).
    pub(crate) down_row: Vec<u32>,
    /// Tail of each downward edge.
    pub(crate) down_from: Vec<u32>,
    /// Weight of each downward edge.
    pub(crate) down_w: Vec<Cost>,
    /// First child slot of each downward edge.
    pub(crate) down_a: Vec<u32>,
    /// Second child slot of each downward edge.
    pub(crate) down_b: Vec<u32>,
}

/// One hierarchy edge as seen from a query: the far endpoint, the
/// lower-bound weight, and the global ref for unpacking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChEdge {
    /// The endpoint on the other side (head for upward edges iterated
    /// by tail, tail for downward edges iterated by head).
    pub node: NodeId,
    /// The edge weight in the metric the hierarchy was built over.
    pub weight: Cost,
    /// Global ref, usable with [`ChIndex::unpack_into`].
    pub edge: u32,
}

impl ChIndex {
    /// Builds a hierarchy over `f` using one `weights` entry per frozen
    /// edge (self-loops are ignored; parallel edges keep the cheapest).
    ///
    /// Node order is chosen greedily by *edge difference* (shortcuts a
    /// contraction would add minus edges it removes) plus a contracted-
    /// neighbors depth term, with lazy re-evaluation on a priority
    /// heap — the standard construction heuristic.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != f.edge_count()`.
    pub fn build(f: &FrozenGraph, weights: &[Cost]) -> ChIndex {
        assert_eq!(weights.len(), f.edge_count(), "one weight per frozen edge");
        let mut b = Builder::new(f, weights);
        b.contract_all();
        b.assemble(weights)
    }

    /// Number of nodes the hierarchy covers.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.rank.len()
    }

    /// Number of upward edges.
    #[inline]
    pub fn up_count(&self) -> usize {
        self.up_to.len()
    }

    /// Number of downward edges.
    #[inline]
    pub fn down_count(&self) -> usize {
        self.down_from.len()
    }

    /// Number of shortcut (non-original) edges across both halves.
    pub fn shortcut_count(&self) -> usize {
        self.up_b.iter().filter(|&&b| b != CH_ORIGINAL).count()
            + self.down_b.iter().filter(|&&b| b != CH_ORIGINAL).count()
    }

    /// Contraction rank of `v`; higher ranks were contracted later and
    /// sit nearer the top of the hierarchy.
    #[inline]
    pub fn rank_of(&self, v: NodeId) -> u32 {
        self.rank[v.index()]
    }

    /// Iterates the upward edges out of `u` (heads ranked above `u`).
    #[inline]
    pub fn up_edges(&self, u: NodeId) -> impl Iterator<Item = ChEdge> + '_ {
        let i = u.index();
        let r = self.up_row[i] as usize..self.up_row[i + 1] as usize;
        r.map(move |s| ChEdge {
            node: NodeId::from_raw(self.up_to[s]),
            weight: self.up_w[s],
            edge: s as u32,
        })
    }

    /// Iterates the downward edges *into* `v` (tails ranked above `v`):
    /// the transposed half a backward search from a destination walks.
    #[inline]
    pub fn down_into(&self, v: NodeId) -> impl Iterator<Item = ChEdge> + '_ {
        let i = v.index();
        let r = self.down_row[i] as usize..self.down_row[i + 1] as usize;
        let up = self.up_to.len();
        r.map(move |s| ChEdge {
            node: NodeId::from_raw(self.down_from[s]),
            weight: self.down_w[s],
            edge: (up + s) as u32,
        })
    }

    #[inline]
    fn parts(&self, r: usize) -> Option<(u32, u32)> {
        let up = self.up_to.len();
        if r < up {
            Some((self.up_a[r], self.up_b[r]))
        } else {
            let j = r - up;
            self.down_a.get(j).map(|&a| (a, self.down_b[j]))
        }
    }

    #[inline]
    fn weight_of(&self, r: usize) -> Cost {
        let up = self.up_to.len();
        if r < up {
            self.up_w[r]
        } else {
            self.down_w[r - up]
        }
    }

    /// Expands ref `r` into the forward [`EdgeId`] sequence it stands
    /// for, appending to `out` in path order. Iterative, with a step
    /// budget so hostile (structurally valid but degenerate) data
    /// cannot hang a query: on budget exhaustion or a dangling ref the
    /// partial expansion is discarded and `false` is returned — callers
    /// treat that as "no CH answer" and fall back.
    pub fn unpack_into(&self, r: u32, out: &mut Vec<EdgeId>) -> bool {
        let total = self.up_to.len() + self.down_from.len();
        let budget = 8 * total + 32;
        let mark = out.len();
        let mut stack: Vec<u32> = Vec::with_capacity(16);
        stack.push(r);
        let mut steps = 0usize;
        while let Some(r) = stack.pop() {
            steps += 1;
            if steps > budget {
                out.truncate(mark);
                return false;
            }
            let Some((a, b)) = self.parts(r as usize) else {
                out.truncate(mark);
                return false;
            };
            if b == CH_ORIGINAL {
                out.push(EdgeId::from_raw(a));
            } else {
                // Pop order: first half before second half.
                stack.push(b);
                stack.push(a);
            }
        }
        true
    }

    /// Structural validation against the graph the hierarchy claims to
    /// cover, for data loaded from a snapshot section: lengths, rank
    /// permutation, monotone rows, rising/falling direction per half,
    /// original edges present in the forward CSR with matching
    /// endpoints, shortcuts properly nested (middle node ranked below
    /// both endpoints, halves chaining tail→mid→head) and weighted as
    /// the saturating sum of their halves. See the module docs for
    /// what this deliberately does *not* prove (completeness).
    pub fn validate_against(&self, f: &FrozenGraph) -> bool {
        let n = f.node_count();
        let up = self.up_to.len();
        let down = self.down_from.len();
        if self.rank.len() != n
            || self.up_row.len() != n + 1
            || self.down_row.len() != n + 1
            || self.up_w.len() != up
            || self.up_a.len() != up
            || self.up_b.len() != up
            || self.down_w.len() != down
            || self.down_a.len() != down
            || self.down_b.len() != down
            || self.up_row[0] != 0
            || self.down_row[0] != 0
            || self.up_row[n] as usize != up
            || self.down_row[n] as usize != down
        {
            return false;
        }
        let mut seen = vec![false; n];
        for &r in &self.rank {
            let Some(s) = seen.get_mut(r as usize) else {
                return false;
            };
            if *s {
                return false;
            }
            *s = true;
        }
        // Monotonicity over both whole tables first: with the final
        // entries pinned to up/down above, this bounds every row before
        // anything indexes through them (this runs on untrusted bytes).
        for v in 0..n {
            if self.up_row[v] > self.up_row[v + 1] || self.down_row[v] > self.down_row[v + 1] {
                return false;
            }
        }
        for &h in &self.up_to {
            if h as usize >= n {
                return false;
            }
        }
        for &t in &self.down_from {
            if t as usize >= n {
                return false;
            }
        }
        // Endpoints of every ref, derived from row ownership.
        let total = up + down;
        let mut tail = vec![0u32; total];
        let mut head = vec![0u32; total];
        for v in 0..n {
            for s in self.up_row[v] as usize..self.up_row[v + 1] as usize {
                tail[s] = v as u32;
                head[s] = self.up_to[s];
            }
            for s in self.down_row[v] as usize..self.down_row[v + 1] as usize {
                tail[up + s] = self.down_from[s];
                head[up + s] = v as u32;
            }
        }
        for r in 0..total {
            let (t, h) = (tail[r] as usize, head[r] as usize);
            let rising = r < up;
            if rising {
                if self.rank[t] >= self.rank[h] {
                    return false;
                }
            } else if self.rank[t] <= self.rank[h] {
                return false;
            }
            let (a, b) = self.parts(r).expect("r < total");
            if b == CH_ORIGINAL {
                let Some(fe) = f.edges.get(a as usize) else {
                    return false;
                };
                if fe.to as usize != h || !f.row(t).contains(&(a as usize)) {
                    return false;
                }
            } else {
                let (ai, bi) = (a as usize, b as usize);
                if ai >= total || bi >= total {
                    return false;
                }
                if tail[ai] as usize != t || head[bi] as usize != h || head[ai] != tail[bi] {
                    return false;
                }
                let mid = head[ai] as usize;
                if self.rank[mid] >= self.rank[t] || self.rank[mid] >= self.rank[h] {
                    return false;
                }
                if self.weight_of(r) != self.weight_of(ai).saturating_add(self.weight_of(bi)) {
                    return false;
                }
            }
        }
        true
    }

    /// Checks that every original edge in the hierarchy carries exactly
    /// the given weight for its [`EdgeId`] — how an engine verifies a
    /// loaded hierarchy was built over *its* cost model before trusting
    /// its bounds. Shortcut weights are covered transitively (each is
    /// the sum of its halves, enforced by [`ChIndex::validate_against`]).
    pub fn weights_consistent(&self, weights: &[Cost]) -> bool {
        let total = self.up_to.len() + self.down_from.len();
        for r in 0..total {
            let Some((a, b)) = self.parts(r) else {
                return false;
            };
            if b == CH_ORIGINAL {
                match weights.get(a as usize) {
                    Some(&w) if w == self.weight_of(r) => {}
                    _ => return false,
                }
            }
        }
        true
    }
}

/// One edge of the construction-time core graph. `a`/`b` follow the
/// same convention as the final arrays, except that shortcut children
/// are *temp* ids until [`Builder::assemble`] remaps them to refs. The
/// weight is not kept: assembly re-derives it from the frozen edge
/// weight or, for a shortcut, the sum of its halves, which always
/// have lower temp ids.
struct Temp {
    from: u32,
    to: u32,
    a: u32,
    b: u32,
}

/// One live core edge seen from one end: the node at the other end,
/// and the cheapest temp edge between the two (ties to the lower temp
/// id) with its weight inline, so the witness loop never leaves the
/// row.
#[derive(Clone, Copy)]
struct Live {
    node: u32,
    temp: u32,
    w: Cost,
}

/// The construction-time core graph: every temp edge ever made, which
/// assembly turns into the two halves, and the live adjacency the
/// contraction reads. A row holds one entry per uncontracted
/// neighbour; contracting a node removes it from its neighbours' rows
/// and frees its own.
struct Core {
    temps: Vec<Temp>,
    /// Live out-neighbours by tail.
    out: Vec<Vec<Live>>,
    /// Live in-neighbour ids by head: `u` is in `inn[x]` exactly when
    /// `out[u]` has an entry for `x`, which holds the edge itself.
    inn: Vec<Vec<u32>>,
    /// Contracted-neighbours depth term of the priority heuristic.
    depth: Vec<u32>,
}

impl Core {
    /// Seeds the core graph: the cheapest forward edge per distinct
    /// `(tail, head)` pair (ties to the lower edge id), self-loops
    /// dropped, as temps in forward-row order. Rows are sized exactly
    /// from the seed degrees.
    fn seed(f: &FrozenGraph, weights: &[Cost]) -> Core {
        let n = f.node_count();
        let mut temps = Vec::new();
        let mut best: HashMap<u32, usize> = HashMap::new();
        for u in 0..n {
            best.clear();
            for e in f.row(u) {
                let v = f.edges[e].to;
                if v as usize == u {
                    continue;
                }
                match best.entry(v) {
                    Entry::Occupied(mut o) => {
                        if weights[e] < weights[*o.get()] {
                            o.insert(e);
                        }
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(e);
                    }
                }
            }
            for e in f.row(u) {
                if best.get(&f.edges[e].to) == Some(&e) {
                    temps.push(Temp {
                        from: u as u32,
                        to: f.edges[e].to,
                        a: e as u32,
                        b: CH_ORIGINAL,
                    });
                }
            }
        }
        let mut out_deg = vec![0usize; n];
        let mut in_deg = vec![0usize; n];
        for t in &temps {
            out_deg[t.from as usize] += 1;
            in_deg[t.to as usize] += 1;
        }
        let mut out: Vec<Vec<Live>> = out_deg.into_iter().map(Vec::with_capacity).collect();
        let mut inn: Vec<Vec<u32>> = in_deg.into_iter().map(Vec::with_capacity).collect();
        for (i, t) in temps.iter().enumerate() {
            let (temp, w) = (i as u32, weights[t.a as usize]);
            out[t.from as usize].push(Live {
                node: t.to,
                temp,
                w,
            });
            inn[t.to as usize].push(t.from);
        }
        Core {
            temps,
            out,
            inn,
            depth: vec![0; n],
        }
    }

    /// Records the shortcut `u → x` through a contracted middle node,
    /// given the live entries `ui` (in-neighbour `u`) and `xo`
    /// (out-neighbour `x`) of that node. The temp is always kept for
    /// assembly; the rows take it only if it is strictly cheaper than
    /// the live `u → x` edge (a tie keeps the older, lower temp).
    fn add_shortcut(&mut self, ui: &Live, xo: &Live) {
        let temp = self.temps.len() as u32;
        let w = ui.w.saturating_add(xo.w);
        self.temps.push(Temp {
            from: ui.node,
            to: xo.node,
            a: ui.temp,
            b: xo.temp,
        });
        let row = &mut self.out[ui.node as usize];
        match row.iter_mut().find(|e| e.node == xo.node) {
            Some(e) if w < e.w => {
                *e = Live {
                    node: xo.node,
                    temp,
                    w,
                }
            }
            Some(_) => {}
            None => {
                row.push(Live {
                    node: xo.node,
                    temp,
                    w,
                });
                self.inn[xo.node as usize].push(ui.node);
            }
        }
    }

    /// The live out-edges of `v` into `buf`, sorted by head: the order
    /// every contraction loop walks, so shortcuts get deterministic
    /// temp ids.
    fn live_out(&self, v: usize, buf: &mut Vec<Live>) {
        buf.clear();
        buf.extend_from_slice(&self.out[v]);
        buf.sort_unstable_by_key(|e| e.node);
    }

    /// The live in-edges of `v` into `buf` as `(tail, temp, weight)`,
    /// sorted by tail.
    fn live_in(&self, v: usize, buf: &mut Vec<Live>) {
        buf.clear();
        buf.extend(self.inn[v].iter().map(|&u| {
            let e = self.out[u as usize].iter().find(|e| e.node as usize == v);
            Live {
                node: u,
                ..*e.expect("in-rows mirror out-rows")
            }
        }));
        buf.sort_unstable_by_key(|e| e.node);
    }
}

/// Removes the entry `is_v` picks from `row` (order within a row
/// carries no meaning).
fn unlink<T>(row: &mut Vec<T>, is_v: impl Fn(&T) -> bool) {
    if let Some(i) = row.iter().position(is_v) {
        row.swap_remove(i);
    }
}

/// Witness-search scratch, kept apart from the [`Core`] so that
/// several searches can read one core at once (the first priority
/// pass). Generation-stamped, so each search starts clean without
/// clearing the arrays.
struct Witness {
    dist: Vec<Cost>,
    stamp: Vec<u32>,
    gen: u32,
    heap: BinaryHeap<Reverse<(Cost, u32)>>,
    // Multi-target marks for one witness search deciding many pairs.
    tgt_limit: Vec<Cost>,
    tgt_idx: Vec<u32>,
    tgt_stamp: Vec<u32>,
    mark: Vec<bool>,
    // Reused live-neighbour buffers of the node being weighed.
    ins: Vec<Live>,
    outs: Vec<Live>,
}

impl Witness {
    fn new(n: usize) -> Witness {
        Witness {
            dist: vec![0; n],
            stamp: vec![0; n],
            gen: 0,
            heap: BinaryHeap::new(),
            tgt_limit: vec![0; n],
            tgt_idx: vec![0; n],
            tgt_stamp: vec![0; n],
            mark: Vec::new(),
            ins: Vec::new(),
            outs: Vec::new(),
        }
    }

    /// One bounded local Dijkstra from the in-neighbour `src.node`
    /// through the live core rows `out` (skipping `excluded`) that
    /// decides *every* `(src, out)` pair of a contraction at once:
    /// `witnessed[i]` is set when a path to `outs[i]` of cost at most
    /// `src.w + outs[i].w` is proven. Each target is decided at settle
    /// time (exact within the searched core), and the search stops once
    /// all targets are settled, the frontier passes the largest limit,
    /// or the settle budget runs out. Targets left undecided stay
    /// `false` — inconclusive searches just cost an extra shortcut,
    /// never correctness. Running one search per in-neighbor instead of
    /// one per pair is what keeps contraction of high-degree hubs
    /// (network stars) tractable.
    ///
    /// A row holds only the cheapest edge per neighbour, and a dearer
    /// parallel edge could only have pushed a stale heap entry, so the
    /// settle sequence — and with it every budget cut-off — is the one
    /// a search over all parallel edges makes.
    fn witness_many(
        &mut self,
        out: &[Vec<Live>],
        src: &Live,
        outs: &[Live],
        excluded: usize,
        base_budget: usize,
        witnessed: &mut [bool],
    ) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.stamp.fill(0);
            self.tgt_stamp.fill(0);
            self.gen = 1;
        }
        let gen = self.gen;
        let (u, wi) = (src.node as usize, src.w);
        let mut remaining = 0usize;
        let mut horizon: Cost = 0;
        for (i, o) in outs.iter().enumerate() {
            let x = o.node as usize;
            if x == u {
                continue; // not a pair; no shortcut ever needed
            }
            let limit = wi.saturating_add(o.w);
            self.tgt_limit[x] = limit;
            self.tgt_idx[x] = i as u32;
            self.tgt_stamp[x] = gen;
            remaining += 1;
            if limit > horizon {
                horizon = limit;
            }
        }
        if remaining == 0 {
            return;
        }
        let budget = base_budget + 2 * outs.len();
        self.heap.clear();
        self.dist[u] = 0;
        self.stamp[u] = gen;
        self.heap.push(Reverse((0, u as u32)));
        let mut settles = 0usize;
        while let Some(Reverse((d, x))) = self.heap.pop() {
            let xi = x as usize;
            if d > self.dist[xi] {
                continue; // stale heap entry
            }
            if d > horizon {
                return; // every live target's limit is behind us
            }
            if self.tgt_stamp[xi] == gen {
                self.tgt_stamp[xi] = 0; // consume: settled distance is final
                if d <= self.tgt_limit[xi] {
                    witnessed[self.tgt_idx[xi] as usize] = true;
                }
                remaining -= 1;
                if remaining == 0 {
                    return;
                }
            }
            settles += 1;
            if settles > budget {
                return;
            }
            for e in &out[xi] {
                let y = e.node as usize;
                if y == excluded {
                    continue;
                }
                let nd = d.saturating_add(e.w);
                if nd > horizon {
                    continue;
                }
                if self.stamp[y] != gen || nd < self.dist[y] {
                    self.stamp[y] = gen;
                    self.dist[y] = nd;
                    self.heap.push(Reverse((nd, y as u32)));
                }
            }
        }
    }

    /// Edge-difference priority of contracting `v` now: shortcuts the
    /// contraction would add, minus the live edges it removes, plus the
    /// depth term. Lower contracts earlier. A pure function of `core`:
    /// this scratch only makes it cheaper.
    fn priority(&mut self, core: &Core, v: usize) -> i64 {
        let mut ins = std::mem::take(&mut self.ins);
        let mut outs = std::mem::take(&mut self.outs);
        core.live_in(v, &mut ins);
        core.live_out(v, &mut outs);
        let removed = ins.len() + outs.len();
        let pairs = ins
            .iter()
            .map(|i| outs.iter().filter(|o| o.node != i.node).count())
            .sum::<usize>();
        let added = if pairs > SIM_PAIR_CAP {
            pairs
        } else {
            let mut mark = std::mem::take(&mut self.mark);
            let mut added = 0usize;
            for i in &ins {
                mark.clear();
                mark.resize(outs.len(), false);
                self.witness_many(&core.out, i, &outs, v, SIM_SETTLE_BUDGET, &mut mark);
                added += outs
                    .iter()
                    .zip(&mark)
                    .filter(|&(o, &m)| o.node != i.node && !m)
                    .count();
            }
            self.mark = mark;
            added
        };
        self.ins = ins;
        self.outs = outs;
        added as i64 - removed as i64 + i64::from(core.depth[v])
    }
}

/// Upper bound on the threads of the first priority pass: each brings
/// its own `O(n)` witness scratch, and past a handful the pass is too
/// short for more to pay.
const MAX_PRIORITY_THREADS: usize = 8;
/// Nodes per unit of work dealt to the first-pass threads.
const PRIORITY_BLOCK: usize = 64;

/// Builder state: the core graph being contracted, one witness scratch
/// for the sequential contraction loop, and the order so far.
///
/// Two things keep the construction cheap:
/// - **Eager pruning.** A [`Core`] row keeps one entry per live
///   neighbour with the weight inline, updated in place when a cheaper
///   shortcut arrives, and a contracted node leaves its neighbours'
///   rows at once. Witness searches and priorities read only live
///   edges; a layout that kept every temp and skipped dead ones spent
///   over 40% of its adjacency scans on them on the paper-scale world.
/// - **A parallel first pass.** The initial priority of every node
///   reads only the seeded core, so [`Builder::first_priorities`]
///   weighs the nodes on several threads; the contraction loop after
///   it stays sequential.
///
/// Neither changes the hierarchy. A row holds exactly the edge the
/// construction picks among parallel temps (the cheapest, ties to the
/// lower temp id), a witness search settles the same nodes in the same
/// order whether or not the dearer parallel edges are there, every
/// shortcut still gets its own temp id in creation order, and each
/// first-pass priority is a pure function of the seeded core, so the
/// thread count cannot move it.
struct Builder {
    core: Core,
    wit: Witness,
    contracted: Vec<bool>,
    rank: Vec<u32>,
}

impl Builder {
    fn new(f: &FrozenGraph, weights: &[Cost]) -> Builder {
        let n = f.node_count();
        Builder {
            core: Core::seed(f, weights),
            wit: Witness::new(n),
            contracted: vec![false; n],
            rank: vec![0; n],
        }
    }

    /// The priority of every node in the seeded core. Blocks of
    /// [`PRIORITY_BLOCK`] nodes are dealt round-robin to up to
    /// `threads` threads (ids cluster hubs, so dealing balances the
    /// work), each weighing its blocks with its own witness scratch
    /// over the shared, read-only core. Every scratch is allocated
    /// here, so the workers allocate next to nothing.
    fn first_priorities(&mut self, threads: usize) -> Vec<i64> {
        let n = self.contracted.len();
        let mut prio = vec![0i64; n];
        let threads = threads.min(n.div_ceil(PRIORITY_BLOCK)).max(1);
        let mut shares: Vec<Vec<(usize, &mut [i64])>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, block) in prio.chunks_mut(PRIORITY_BLOCK).enumerate() {
            shares[i % threads].push((i * PRIORITY_BLOCK, block));
        }
        let mut scratch: Vec<Witness> = (1..threads).map(|_| Witness::new(n)).collect();
        let core = &self.core;
        let weigh = |wit: &mut Witness, share: Vec<(usize, &mut [i64])>| {
            for (first, block) in share {
                for (k, p) in block.iter_mut().enumerate() {
                    *p = wit.priority(core, first + k);
                }
            }
        };
        let mut shares = shares.into_iter();
        let own = shares.next().expect("at least one share");
        std::thread::scope(|s| {
            for (wit, share) in scratch.iter_mut().zip(shares) {
                s.spawn(move || weigh(wit, share));
            }
            weigh(&mut self.wit, own);
        });
        prio
    }

    fn contract(&mut self, v: usize, rank: u32) {
        let Builder { core, wit, .. } = self;
        let mut ins = std::mem::take(&mut wit.ins);
        let mut outs = std::mem::take(&mut wit.outs);
        let mut mark = std::mem::take(&mut wit.mark);
        core.live_in(v, &mut ins);
        core.live_out(v, &mut outs);
        for i in &ins {
            mark.clear();
            mark.resize(outs.len(), false);
            wit.witness_many(&core.out, i, &outs, v, WITNESS_SETTLE_BUDGET, &mut mark);
            for (o, &m) in outs.iter().zip(&mark) {
                if o.node != i.node && !m {
                    core.add_shortcut(i, o);
                }
            }
        }
        let vid = v as u32;
        let d = core.depth[v] + 1;
        for i in &ins {
            unlink(&mut core.out[i.node as usize], |e| e.node == vid);
            let dd = &mut core.depth[i.node as usize];
            *dd = (*dd).max(d);
        }
        for o in &outs {
            unlink(&mut core.inn[o.node as usize], |&u| u == vid);
            let dd = &mut core.depth[o.node as usize];
            *dd = (*dd).max(d);
        }
        core.out[v] = Vec::new();
        core.inn[v] = Vec::new();
        wit.ins = ins;
        wit.outs = outs;
        wit.mark = mark;
        self.contracted[v] = true;
        self.rank[v] = rank;
    }

    /// Contracts every node in priority order with lazy re-evaluation:
    /// a popped node whose recomputed priority no longer beats the heap
    /// top is pushed back instead of contracted. Heap keys are distinct
    /// (node ids differ, and a node only returns with a higher
    /// priority), so the pop order does not depend on how the heap was
    /// filled.
    fn contract_all(&mut self) {
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let first = self.first_priorities(threads.min(MAX_PRIORITY_THREADS));
        let mut heap: BinaryHeap<Reverse<(i64, u32)>> = first
            .into_iter()
            .enumerate()
            .map(|(v, p)| Reverse((p, v as u32)))
            .collect();
        let mut next_rank = 0u32;
        while let Some(Reverse((p, v))) = heap.pop() {
            let vi = v as usize;
            if self.contracted[vi] {
                continue;
            }
            let p2 = self.wit.priority(&self.core, vi);
            if p2 > p {
                if let Some(&Reverse((top, _))) = heap.peek() {
                    if p2 > top {
                        heap.push(Reverse((p2, v)));
                        continue;
                    }
                }
            }
            self.contract(vi, next_rank);
            next_rank += 1;
        }
    }

    /// Partitions the temp edges into the two CSR halves (counting sort
    /// in temp-id order, so rows come out deterministic), remaps
    /// shortcut children from temp ids to final refs, and weighs each
    /// edge: an original by `weights`, a shortcut by its two halves.
    fn assemble(self, weights: &[Cost]) -> ChIndex {
        // Drop the rows and the scratch before the halves are allocated.
        let (temps, rank) = {
            let b = self;
            (b.core.temps, b.rank)
        };
        let n = rank.len();
        let mut up_row = vec![0u32; n + 1];
        let mut down_row = vec![0u32; n + 1];
        for t in &temps {
            if rank[t.from as usize] < rank[t.to as usize] {
                up_row[t.from as usize + 1] += 1;
            } else {
                down_row[t.to as usize + 1] += 1;
            }
        }
        for v in 0..n {
            up_row[v + 1] += up_row[v];
            down_row[v + 1] += down_row[v];
        }
        let up_count = up_row[n] as usize;
        let down_count = down_row[n] as usize;
        let mut up_cur = up_row.clone();
        let mut down_cur = down_row.clone();
        let mut up_to = vec![0u32; up_count];
        let mut up_w = vec![0 as Cost; up_count];
        let mut up_a = vec![0u32; up_count];
        let mut up_b = vec![0u32; up_count];
        let mut down_from = vec![0u32; down_count];
        let mut down_w = vec![0 as Cost; down_count];
        let mut down_a = vec![0u32; down_count];
        let mut down_b = vec![0u32; down_count];
        let mut temp_ref = vec![0u32; temps.len()];
        // Temp order places both halves of a shortcut before it, so
        // their refs and weights are already final.
        for (ti, t) in temps.iter().enumerate() {
            let (a, b, w) = if t.b == CH_ORIGINAL {
                (t.a, CH_ORIGINAL, weights[t.a as usize])
            } else {
                let (a, b) = (temp_ref[t.a as usize], temp_ref[t.b as usize]);
                let half = |r: u32| {
                    let r = r as usize;
                    if r < up_count {
                        up_w[r]
                    } else {
                        down_w[r - up_count]
                    }
                };
                (a, b, half(a).saturating_add(half(b)))
            };
            if rank[t.from as usize] < rank[t.to as usize] {
                let s = up_cur[t.from as usize] as usize;
                up_cur[t.from as usize] += 1;
                (up_to[s], up_w[s], up_a[s], up_b[s]) = (t.to, w, a, b);
                temp_ref[ti] = s as u32;
            } else {
                let s = down_cur[t.to as usize] as usize;
                down_cur[t.to as usize] += 1;
                (down_from[s], down_w[s], down_a[s], down_b[s]) = (t.from, w, a, b);
                temp_ref[ti] = (up_count + s) as u32;
            }
        }
        ChIndex {
            rank,
            up_row,
            up_to,
            up_w,
            up_a,
            up_b,
            down_row,
            down_from,
            down_w,
            down_a,
            down_b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::link::RouteOp;

    /// Plain Dijkstra over the weight vector — the oracle the CH
    /// distances must reproduce exactly.
    fn dijkstra(f: &FrozenGraph, weights: &[Cost], src: usize) -> Vec<Option<Cost>> {
        let n = f.node_count();
        let mut dist: Vec<Option<Cost>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src] = Some(0);
        heap.push(Reverse((0, src as u32)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if dist[u as usize] != Some(d) {
                continue;
            }
            for e in f.row(u as usize) {
                let v = f.edges[e].to as usize;
                let nd = d.saturating_add(weights[e]);
                if dist[v].map_or(true, |old| nd < old) {
                    dist[v] = Some(nd);
                    heap.push(Reverse((nd, v as u32)));
                }
            }
        }
        dist
    }

    /// Reference CH query: forward over the upward half, backward over
    /// the transposed downward half, best meeting node wins. Returns
    /// the distance and the unpacked edge path.
    fn ch_query(
        _f: &FrozenGraph,
        ch: &ChIndex,
        src: usize,
        dst: usize,
    ) -> Option<(Cost, Vec<EdgeId>)> {
        let n = ch.node_count();
        let mut dist_d: Vec<Option<(Cost, Option<u32>)>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist_d[dst] = Some((0, None));
        heap.push(Reverse((0, dst as u32)));
        while let Some(Reverse((d, v))) = heap.pop() {
            if dist_d[v as usize].map(|(c, _)| c) != Some(d) {
                continue;
            }
            for e in ch.down_into(NodeId::from_raw(v)) {
                let u = e.node.index();
                let nd = d.saturating_add(e.weight);
                if dist_d[u].map_or(true, |(c, _)| nd < c) {
                    dist_d[u] = Some((nd, Some(e.edge)));
                    heap.push(Reverse((nd, u as u32)));
                }
            }
        }
        let mut dist_u: Vec<Option<(Cost, Option<u32>)>> = vec![None; n];
        let mut best: Option<(Cost, u32)> = None;
        let mut heap = BinaryHeap::new();
        dist_u[src] = Some((0, None));
        heap.push(Reverse((0, src as u32)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if dist_u[u as usize].map(|(c, _)| c) != Some(d) {
                continue;
            }
            if let Some((bc, _)) = best {
                if d >= bc {
                    break;
                }
            }
            if let Some((dd, _)) = dist_d[u as usize] {
                let through = d.saturating_add(dd);
                if best.map_or(true, |(bc, _)| through < bc) {
                    best = Some((through, u));
                }
            }
            for e in ch.up_edges(NodeId::from_raw(u)) {
                let v = e.node.index();
                let nd = d.saturating_add(e.weight);
                if dist_u[v].map_or(true, |(c, _)| nd < c) {
                    dist_u[v] = Some((nd, Some(e.edge)));
                    heap.push(Reverse((nd, v as u32)));
                }
            }
        }
        let (cost, meet) = best?;
        let mut refs_up = Vec::new();
        let mut x = meet as usize;
        while let Some((_, Some(r))) = dist_u[x] {
            refs_up.push(r);
            // The up half stores heads; recover the tail by walking the
            // rows (test-only, O(n)).
            let mut tail = None;
            for v in 0..n {
                if (ch.up_row[v]..ch.up_row[v + 1]).contains(&r) {
                    tail = Some(v);
                }
            }
            x = tail.unwrap();
        }
        refs_up.reverse();
        let mut path = Vec::new();
        for r in refs_up {
            assert!(ch.unpack_into(r, &mut path));
        }
        let mut x = meet as usize;
        while let Some((_, Some(r))) = dist_d[x] {
            assert!(ch.unpack_into(r, &mut path));
            let s = r as usize - ch.up_count();
            let mut head = None;
            for v in 0..n {
                if (ch.down_row[v]..ch.down_row[v + 1]).contains(&(s as u32)) {
                    head = Some(v);
                }
            }
            x = head.unwrap();
        }
        Some((cost, path))
    }

    /// A connected ring plus pseudo-random chords.
    fn ring_and_chords(seed: u64, hosts: usize, extra: usize) -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let ids: Vec<_> = (0..hosts).map(|i| g.node(&format!("h{i}"))).collect();
        for i in 0..hosts {
            g.declare_link(
                ids[i],
                ids[(i + 1) % hosts],
                100 + (i as u64 % 7) * 50,
                RouteOp::UUCP,
            );
        }
        let mut s = seed | 1;
        for _ in 0..extra {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (s >> 33) as usize % hosts;
            let b = (s >> 17) as usize % hosts;
            if a != b {
                g.declare_link(ids[a], ids[b], 50 + (s % 900), RouteOp::UUCP);
            }
        }
        (g, ids)
    }

    fn world(seed: u64, hosts: usize, extra: usize) -> FrozenGraph {
        ring_and_chords(seed, hosts, extra).0.freeze()
    }

    /// [`world`] plus a hub linked to and from every host, so its
    /// `in × out` pairs start far above [`SIM_PAIR_CAP`]. The spokes
    /// are dear enough that the chords, not the hub, decide most
    /// witness searches.
    fn hub_world(seed: u64, hosts: usize, extra: usize) -> FrozenGraph {
        let (mut g, ids) = ring_and_chords(seed, hosts, extra);
        let hub = g.node("hub");
        for (i, &h) in ids.iter().enumerate() {
            let w = 2000 + (i as u64 * 37 % 11) * 100;
            g.declare_link(hub, h, w, RouteOp::UUCP);
            g.declare_link(h, hub, w + 50, RouteOp::UUCP);
        }
        g.freeze()
    }

    /// Whether some `(tail, head)` pair carries two shortcuts of
    /// different weights: a later contraction offered the pair again,
    /// cheaper, and the live row swapped the new edge in.
    fn repeated_shortcut(ch: &ChIndex) -> bool {
        let mut seen: HashMap<(u32, u32), Cost> = HashMap::new();
        let mut repeated = false;
        for v in 0..ch.node_count() as u32 {
            let id = NodeId::from_raw(v);
            let up = ch.up_edges(id).map(|e| (v, e.node.raw(), e));
            let down = ch.down_into(id).map(|e| (e.node.raw(), v, e));
            for (t, h, e) in up.chain(down) {
                let (_, b) = ch.parts(e.edge as usize).expect("ref in range");
                if b != CH_ORIGINAL {
                    repeated |= *seen.entry((t, h)).or_insert(e.weight) != e.weight;
                }
            }
        }
        repeated
    }

    fn plain_weights(f: &FrozenGraph) -> Vec<Cost> {
        (0..f.edge_count()).map(|e| f.edges[e].cost()).collect()
    }

    #[test]
    fn ch_distances_match_dijkstra_everywhere() {
        let worlds = [3, 17, 99].map(|seed| (seed, world(seed, 24, 40)));
        let hubs = [30, 81].map(|seed| (seed, hub_world(seed, 30, 50)));
        for (seed, f) in worlds.into_iter().chain(hubs) {
            let w = plain_weights(&f);
            let ch = ChIndex::build(&f, &w);
            assert!(ch.validate_against(&f));
            assert!(ch.weights_consistent(&w));
            if let Some(hub) = f.id_of("hub") {
                let hub = hub.index();
                let ins = (0..f.node_count())
                    .filter(|&u| f.row(u).any(|e| f.edges[e].to as usize == hub))
                    .count();
                assert!(
                    ins * f.row(hub).len() > SIM_PAIR_CAP,
                    "seed {seed}: hub too small"
                );
                assert!(
                    repeated_shortcut(&ch),
                    "seed {seed}: no pair got a second, cheaper shortcut"
                );
            }
            let n = f.node_count();
            for src in 0..n {
                let want = dijkstra(&f, &w, src);
                for (dst, &want_dst) in want.iter().enumerate() {
                    let got = ch_query(&f, &ch, src, dst);
                    assert_eq!(
                        got.as_ref().map(|&(c, _)| c),
                        want_dst,
                        "seed {seed} src {src} dst {dst}"
                    );
                    if let Some((cost, path)) = got {
                        // The unpacked path is connected, starts at src,
                        // ends at dst, and its weights sum to the answer.
                        let mut at = src;
                        let mut total: Cost = 0;
                        for &e in &path {
                            assert!(f.row(at).contains(&e.index()), "disconnected unpack");
                            total = total.saturating_add(w[e.index()]);
                            at = f.edges[e.index()].to as usize;
                        }
                        assert_eq!(at, dst);
                        assert_eq!(total, cost);
                    }
                }
            }
        }
    }

    #[test]
    fn a_shortcut_replaces_a_live_edge_only_when_cheaper() {
        // a → b at 100 beside a → m → b at 60 + 40: contracting m
        // offers a → b again, first at a tie, then cheaper.
        let mut g = Graph::new();
        let (a, m, b) = (g.node("a"), g.node("m"), g.node("b"));
        g.declare_link(a, b, 100, RouteOp::UUCP);
        g.declare_link(a, m, 60, RouteOp::UUCP);
        g.declare_link(m, b, 40, RouteOp::UUCP);
        let f = g.freeze();
        let mut core = Core::seed(&f, &plain_weights(&f));
        let (a, m, b) = (a.index(), m.index(), b.index());
        let live = |core: &Core, from: usize, to: usize| {
            *core.out[from]
                .iter()
                .find(|e| e.node as usize == to)
                .expect("live edge")
        };
        let direct = live(&core, a, b);
        let into_m = Live {
            node: a as u32,
            ..live(&core, a, m)
        };
        let out_of_m = live(&core, m, b);
        core.add_shortcut(&into_m, &out_of_m);
        assert_eq!(
            live(&core, a, b).temp,
            direct.temp,
            "a tie keeps the older edge"
        );
        core.add_shortcut(&into_m, &Live { w: 30, ..out_of_m });
        let now = live(&core, a, b);
        assert_eq!((now.temp, now.w), (4, 90), "a cheaper offer takes the row");
        assert_eq!(core.temps.len(), 5, "assembly still gets every offer");
        assert_eq!(core.out[a].len(), 2);
        assert_eq!(core.inn[b].iter().filter(|&&u| u as usize == a).count(), 1);
    }

    #[test]
    fn first_priorities_do_not_depend_on_the_thread_count() {
        let f = world(11, 700, 1400);
        let w = plain_weights(&f);
        let one = Builder::new(&f, &w).first_priorities(1);
        for threads in [2, 3, MAX_PRIORITY_THREADS] {
            assert_eq!(
                Builder::new(&f, &w).first_priorities(threads),
                one,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn validate_rejects_tampering() {
        let f = world(7, 12, 12);
        let w = plain_weights(&f);
        let good = ChIndex::build(&f, &w);
        assert!(good.validate_against(&f));

        let mut bad = good.clone();
        if !bad.rank.is_empty() {
            bad.rank[0] = bad.rank[1 % bad.rank.len()];
            assert!(!bad.validate_against(&f), "duplicate rank accepted");
        }

        let mut bad = good.clone();
        if !bad.up_row.is_empty() {
            let n = bad.up_row.len() - 1;
            bad.up_row[n] += 1;
            assert!(!bad.validate_against(&f), "row overrun accepted");
        }

        let mut bad = good.clone();
        if !bad.up_to.is_empty() {
            bad.up_to[0] = u32::MAX;
            assert!(!bad.validate_against(&f), "out-of-range head accepted");
        }

        let mut bad = good.clone();
        if let Some(w0) = bad.up_w.first_mut() {
            *w0 = w0.wrapping_add(1);
            // Either an original now disagreeing with the frozen edge's
            // weight table, or a shortcut whose sum no longer matches —
            // weights_consistent or validate must notice.
            assert!(
                !bad.validate_against(&f) || !bad.weights_consistent(&w),
                "weight tamper accepted"
            );
        }
    }

    #[test]
    fn empty_and_single_node_graphs() {
        let f = Graph::new().freeze();
        let ch = ChIndex::build(&f, &[]);
        assert!(ch.validate_against(&f));
        assert_eq!(ch.up_count() + ch.down_count(), 0);

        let mut g = Graph::new();
        g.node("solo");
        let f = g.freeze();
        let ch = ChIndex::build(&f, &[]);
        assert!(ch.validate_against(&f));
        assert_eq!(ch.node_count(), 1);
    }

    #[test]
    fn parallel_edges_keep_the_cheapest_and_self_loops_drop() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        g.declare_link(a, b, 500, RouteOp::UUCP);
        g.declare_link(a, b, 100, RouteOp::ARPA);
        g.declare_link(a, a, 1, RouteOp::UUCP);
        let f = g.freeze();
        let w = plain_weights(&f);
        let ch = ChIndex::build(&f, &w);
        assert!(ch.validate_against(&f));
        let (cost, _) = ch_query(&f, &ch, a.index(), b.index()).unwrap();
        assert_eq!(Some(cost), dijkstra(&f, &w, a.index())[b.index()]);
    }
}
