//! Path computation over the transport graph.
//!
//! Two algorithms, both operating on *effective* per-link weights supplied
//! by the caller (so the controller can route over residual capacities and
//! degraded delays):
//!
//! * [`dijkstra`] — minimum-delay path.
//! * [`cspf_with`] — constrained shortest path first: prune links below a
//!   capacity floor, then find the minimum-delay path and check it against a
//!   delay bound. This is the allocation query of the demo ("dedicated paths
//!   are selected to guarantee the required delay and capacity", §3).

use crate::topology::Topology;
use ovnes_model::{Latency, LinkId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// A loop-free path: the link sequence from source to destination.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Path {
    /// Traversed links, in order.
    pub links: Vec<LinkId>,
    /// Traversed nodes, source first, destination last (`links.len() + 1`
    /// entries).
    pub nodes: Vec<NodeId>,
}

impl Path {
    /// Total delay under the caller's per-link delay function.
    pub fn total_delay(&self, delay_of: impl Fn(LinkId) -> Latency) -> Latency {
        self.links.iter().map(|&l| delay_of(l)).sum::<Latency>()
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.links.len()
    }
}

#[derive(Debug, PartialEq)]
struct QueueItem {
    cost_us: u64,
    node: NodeId,
}
impl Eq for QueueItem {}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on cost; tie-break on node id for determinism.
        other
            .cost_us
            .cmp(&self.cost_us)
            .then_with(|| other.node.value().cmp(&self.node.value()))
    }
}

/// Reusable Dijkstra working memory: distance/parent arrays and the
/// frontier heap. A controller threads one scratch through every
/// `*_with` query so the hot path allocates nothing per call.
///
/// Per-query reset is O(1): entries are stamped with a query epoch and an
/// unstamped slot reads as "unvisited", so the arrays are never cleared.
#[derive(Debug, Default)]
pub struct RoutingScratch {
    dist: Vec<u64>,
    prev: Vec<Option<(LinkId, NodeId)>>,
    stamp: Vec<u64>,
    epoch: u64,
    heap: BinaryHeap<QueueItem>,
}

impl RoutingScratch {
    /// Empty scratch; buffers grow lazily to the topology size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new query over `n` nodes.
    fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, u64::MAX);
            self.prev.resize(n, None);
            self.stamp.resize(n, 0);
        }
        self.epoch += 1;
        self.heap.clear();
    }

    #[inline]
    fn dist(&self, i: usize) -> u64 {
        if self.stamp[i] == self.epoch {
            self.dist[i]
        } else {
            u64::MAX
        }
    }

    #[inline]
    fn visit(&mut self, i: usize, dist: u64, prev: Option<(LinkId, NodeId)>) {
        self.dist[i] = dist;
        self.prev[i] = prev;
        self.stamp[i] = self.epoch;
    }
}

/// Minimum-delay path from `src` to `dst`.
///
/// `usable` filters links (return `false` to exclude); `delay_of` supplies
/// the current per-link delay. Returns `None` when `dst` is unreachable
/// through usable links.
pub fn dijkstra(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    usable: impl Fn(LinkId) -> bool,
    delay_of: impl Fn(LinkId) -> Latency,
) -> Option<Path> {
    dijkstra_with(&mut RoutingScratch::new(), topo, src, dst, usable, delay_of)
}

/// [`dijkstra`] reusing the caller's [`RoutingScratch`] (allocation-free),
/// walking the topology's CSR adjacency.
pub fn dijkstra_with(
    scratch: &mut RoutingScratch,
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    usable: impl Fn(LinkId) -> bool,
    delay_of: impl Fn(LinkId) -> Latency,
) -> Option<Path> {
    let (n, neighbors) = (topo.node_count(), |node| topo.neighbors(node));
    shortest_path(scratch, n, neighbors, src, dst, usable, delay_of)
}

/// The one relaxation loop: minimum-delay path over whatever `neighbors`
/// serves as a node's `(link, peer)` pairs.
fn shortest_path<'a>(
    scratch: &mut RoutingScratch,
    node_count: usize,
    neighbors: impl Fn(NodeId) -> &'a [(LinkId, NodeId)],
    src: NodeId,
    dst: NodeId,
    usable: impl Fn(LinkId) -> bool,
    delay_of: impl Fn(LinkId) -> Latency,
) -> Option<Path> {
    let src_i = src.value() as usize;
    let dst_i = dst.value() as usize;
    assert!(src_i < node_count && dst_i < node_count, "unknown endpoint");
    if src == dst {
        return Some(Path {
            links: Vec::new(),
            nodes: vec![src],
        });
    }

    // Distances in integer microseconds for exact comparisons.
    scratch.begin(node_count);
    scratch.visit(src_i, 0, None);
    scratch.heap.push(QueueItem {
        cost_us: 0,
        node: src,
    });

    while let Some(QueueItem { cost_us, node }) = scratch.heap.pop() {
        let ni = node.value() as usize;
        if cost_us > scratch.dist(ni) {
            continue; // stale entry
        }
        if node == dst {
            break;
        }
        for &(link, peer) in neighbors(node) {
            if !usable(link) {
                continue;
            }
            let w = delay_of(link).to_duration().as_micros();
            let next = cost_us.saturating_add(w);
            let pi = peer.value() as usize;
            if next < scratch.dist(pi) {
                scratch.visit(pi, next, Some((link, node)));
                scratch.heap.push(QueueItem {
                    cost_us: next,
                    node: peer,
                });
            }
        }
    }

    if scratch.dist(dst_i) == u64::MAX {
        return None;
    }
    Some(reconstruct(scratch, src, dst))
}

/// Walk the parent pointers back from `dst` into a [`Path`].
fn reconstruct(scratch: &RoutingScratch, src: NodeId, dst: NodeId) -> Path {
    let mut links = Vec::new();
    let mut nodes = vec![dst];
    let mut cur = dst;
    while cur != src {
        let (link, parent) = scratch.prev[cur.value() as usize].expect("reachable implies parent");
        links.push(link);
        nodes.push(parent);
        cur = parent;
    }
    links.reverse();
    nodes.reverse();
    Path { links, nodes }
}

/// Constrained shortest path first: the minimum-delay path among links whose
/// `available` capacity (as judged by the caller-provided predicate) can
/// carry the demand, subject to `max_delay` end-to-end.
///
/// Returns `None` if no feasible path exists. Reuses the caller's
/// [`RoutingScratch`] (allocation-free).
pub fn cspf_with(
    scratch: &mut RoutingScratch,
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    has_capacity: impl Fn(LinkId) -> bool,
    delay_of: impl Fn(LinkId) -> Latency + Copy,
    max_delay: Latency,
) -> Option<Path> {
    let path = dijkstra_with(scratch, topo, src, dst, has_capacity, delay_of)?;
    (path.total_delay(delay_of).value() <= max_delay.value()).then_some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random_mesh;
    use crate::topology::{LinkKind, NodeKind, Topology};
    use ovnes_model::{RateMbps, SwitchId};
    use ovnes_sim::SimRng;

    /// A diamond: s ─a─ m1 ─b─ t (fast), s ─c─ m2 ─d─ t (slow), plus a
    /// direct slow edge s ─e─ t.
    fn diamond() -> (Topology, NodeId, NodeId) {
        let mut b = Topology::builder();
        let s = b.add_node(NodeKind::Switch(SwitchId::new(0)), "s");
        let m1 = b.add_node(NodeKind::Switch(SwitchId::new(1)), "m1");
        let m2 = b.add_node(NodeKind::Switch(SwitchId::new(2)), "m2");
        let t = b.add_node(NodeKind::Switch(SwitchId::new(3)), "t");
        let cap = RateMbps::new(1000.0);
        b.add_link(s, m1, LinkKind::Wired, cap, Latency::new(1.0)); // 0
        b.add_link(m1, t, LinkKind::Wired, cap, Latency::new(1.0)); // 1
        b.add_link(s, m2, LinkKind::Wired, cap, Latency::new(2.0)); // 2
        b.add_link(m2, t, LinkKind::Wired, cap, Latency::new(2.0)); // 3
        b.add_link(s, t, LinkKind::Wired, cap, Latency::new(5.0)); // 4
        (b.build(), s, t)
    }

    fn base_delay(topo: &Topology) -> impl Fn(LinkId) -> Latency + Copy + '_ {
        move |l| topo.link(l).delay
    }

    #[test]
    fn dijkstra_finds_min_delay_path() {
        let (topo, s, t) = diamond();
        let p = dijkstra(&topo, s, t, |_| true, base_delay(&topo)).unwrap();
        assert_eq!(p.links, vec![LinkId::new(0), LinkId::new(1)]);
        assert_eq!(p.nodes.len(), 3);
        assert_eq!(p.total_delay(base_delay(&topo)), Latency::new(2.0));
        assert_eq!(p.hops(), 2);
    }

    #[test]
    fn dijkstra_same_node_is_empty_path() {
        let (topo, s, _) = diamond();
        let p = dijkstra(&topo, s, s, |_| true, base_delay(&topo)).unwrap();
        assert!(p.links.is_empty());
        assert_eq!(p.nodes, vec![s]);
    }

    #[test]
    fn dijkstra_respects_usable_filter() {
        let (topo, s, t) = diamond();
        // Kill the fast path's first hop: route shifts to the 4 ms branch.
        let p = dijkstra(&topo, s, t, |l| l != LinkId::new(0), base_delay(&topo)).unwrap();
        assert_eq!(p.links, vec![LinkId::new(2), LinkId::new(3)]);
    }

    #[test]
    fn dijkstra_unreachable_returns_none() {
        let mut b = Topology::builder();
        let a = b.add_node(NodeKind::Switch(SwitchId::new(0)), "a");
        let c = b.add_node(NodeKind::Switch(SwitchId::new(1)), "c");
        let topo = b.build();
        assert_eq!(dijkstra(&topo, a, c, |_| true, |_| Latency::new(1.0)), None);
    }

    #[test]
    fn cspf_prunes_capacity_and_bounds_delay() {
        let (topo, s, t) = diamond();
        // Fast path blocked by capacity: CSPF settles for the 4 ms branch.
        let p = cspf_with(
            &mut RoutingScratch::new(),
            &topo,
            s,
            t,
            |l| l != LinkId::new(1),
            base_delay(&topo),
            Latency::new(4.5),
        )
        .unwrap();
        assert_eq!(p.total_delay(base_delay(&topo)), Latency::new(4.0));
        // Same pruning with a 3 ms bound: infeasible.
        assert_eq!(
            cspf_with(
                &mut RoutingScratch::new(),
                &topo,
                s,
                t,
                |l| l != LinkId::new(1),
                base_delay(&topo),
                Latency::new(3.0)
            ),
            None
        );
    }

    /// [`dijkstra_with`] over caller-held nested adjacency rows (row `i` is node
    /// `i`'s `(link, peer)` pairs, as [`Topology::adjacency_rows`] returns
    /// them). Same loop, different neighbour source: the reference tests pin
    /// the CSR walk against.
    fn dijkstra_over_rows(
        scratch: &mut RoutingScratch,
        rows: &[Vec<(LinkId, NodeId)>],
        src: NodeId,
        dst: NodeId,
        usable: impl Fn(LinkId) -> bool,
        delay_of: impl Fn(LinkId) -> Latency,
    ) -> Option<Path> {
        let neighbors = |node: NodeId| rows[node.value() as usize].as_slice();
        shortest_path(scratch, rows.len(), neighbors, src, dst, usable, delay_of)
    }

    #[test]
    fn csr_nested_and_packed_walks_agree() {
        // CSR vs the nested rows, unfiltered and filtered.
        let (topo, s, t) = diamond();
        let rows = topo.adjacency_rows();
        let mut scratch = RoutingScratch::new();
        for dst in [s, t] {
            for src_i in 0..topo.node_count() {
                let src = topo.nodes()[src_i].id;
                let csr = dijkstra(&topo, src, dst, |_| true, base_delay(&topo));
                let nested =
                    dijkstra_over_rows(&mut scratch, &rows, src, dst, |_| true, base_delay(&topo));
                assert_eq!(csr, nested);
            }
        }
        let usable = |l| l != LinkId::new(0);
        let filtered_csr = dijkstra(&topo, s, t, usable, base_delay(&topo));
        let filtered_nested =
            dijkstra_over_rows(&mut scratch, &rows, s, t, usable, base_delay(&topo));
        assert_eq!(filtered_csr, filtered_nested);
    }

    #[test]
    fn csr_dijkstra_walks_match_the_nested_oracle() {
        // The CSR flattening is a pure layout change: on seeded random
        // meshes the CSR walk returns exactly the path the same loop finds
        // over the nested rows, with and without a subset of links
        // filtered out.
        for case in 0..256u64 {
            let mut rng = SimRng::seed_from(case);
            let n = rng.uniform_usize(3, 48);
            let chords = rng.uniform_usize(0, 80);
            let mask = rng.uniform_usize(1, 7) as u64;
            let topo = random_mesh(n, chords, RateMbps::new(1000.0), &mut rng);
            let rows = topo.adjacency_rows();
            let mut scratch = RoutingScratch::new();
            let usable = |l: LinkId| l.value() % 7 != mask;
            for _ in 0..rng.uniform_usize(1, 10) {
                let s = topo.nodes()[rng.uniform_usize(0, n)].id;
                let t = topo.nodes()[rng.uniform_usize(0, n)].id;
                assert_eq!(
                    dijkstra_with(&mut scratch, &topo, s, t, |_| true, base_delay(&topo)),
                    dijkstra_over_rows(&mut scratch, &rows, s, t, |_| true, base_delay(&topo)),
                    "case {case}: {s} → {t} over {n} nodes, {chords} chords"
                );
                assert_eq!(
                    dijkstra_with(&mut scratch, &topo, s, t, usable, base_delay(&topo)),
                    dijkstra_over_rows(&mut scratch, &rows, s, t, usable, base_delay(&topo)),
                    "case {case}: {s} → {t} over {n} nodes, {chords} chords, mask {mask}"
                );
            }
        }
    }
}
