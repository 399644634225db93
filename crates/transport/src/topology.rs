//! The transport topology: an undirected capacitated multigraph.
//!
//! Nodes are radio sites, programmable switches, or data centers; links are
//! wired fiber, µwave, or mmWave radio hops, each with a nominal capacity
//! and a propagation/processing delay. [`Topology::testbed`] reconstructs
//! the demo's Fig. 2 deployment.

use ovnes_model::{DcId, EnbId, Latency, LinkId, NodeId, RateMbps, SwitchId};
use serde::{Deserialize, Serialize};

/// What a topology vertex is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A radio site hosting an eNB (traffic ingress).
    RadioSite(EnbId),
    /// An OpenFlow-programmable switch.
    Switch(SwitchId),
    /// A data center, edge or core (traffic egress).
    DataCenter(DcId),
}

/// A topology vertex.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Identifier (index into the topology).
    pub id: NodeId,
    /// Role of the node.
    pub kind: NodeKind,
    /// Human-readable name for dashboards and reports.
    pub name: String,
}

/// Physical technology of a link; determines its default capacity/delay
/// profile and whether weather can degrade it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkKind {
    /// Fiber/copper: high capacity, lowest delay, weather-immune.
    Wired,
    /// Microwave radio: moderate capacity, robust to rain.
    MicroWave,
    /// Millimeter-wave radio: very high capacity, rain-fade prone.
    MmWave,
}

impl LinkKind {
    /// Default (nominal) capacity for the kind, matching the demo hardware
    /// class: 10 GbE fiber, ~400 Mbps µwave, ~1 Gbps mmWave.
    pub fn default_capacity(self) -> RateMbps {
        match self {
            LinkKind::Wired => RateMbps::new(10_000.0),
            LinkKind::MicroWave => RateMbps::new(400.0),
            LinkKind::MmWave => RateMbps::new(1_000.0),
        }
    }

    /// Default one-way delay for the kind (short metro hops).
    pub fn default_delay(self) -> Latency {
        match self {
            LinkKind::Wired => Latency::new(0.2),
            LinkKind::MicroWave => Latency::new(1.0),
            LinkKind::MmWave => Latency::new(0.5),
        }
    }

    /// Whether weather (rain fade) can degrade this link kind.
    pub fn weather_sensitive(self) -> bool {
        matches!(self, LinkKind::MmWave)
    }
}

/// An undirected topology edge.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Identifier (index into the topology).
    pub id: LinkId,
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Physical technology.
    pub kind: LinkKind,
    /// Nominal capacity (before degradation).
    pub capacity: RateMbps,
    /// Base one-way delay.
    pub delay: Latency,
}

impl Link {
    /// The endpoint opposite to `from`, or `None` if `from` is not an
    /// endpoint.
    pub fn peer(&self, from: NodeId) -> Option<NodeId> {
        if from == self.a {
            Some(self.b)
        } else if from == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// The transport graph. Construct with [`TopologyBuilder`] or
/// [`Topology::testbed`].
///
/// Adjacency is held once, as a CSR flattening — one offsets array plus one
/// packed `(link, peer)` array — that [`neighbors`](Topology::neighbors)
/// serves so the routing hot loop walks contiguous memory. The wire format
/// is still the nested per-node rows ([`adjacency_rows`](Topology::adjacency_rows)
/// on the way out, re-flattened on the way in). A built topology is
/// immutable (links degrade through the controller's usage/health vectors,
/// never by graph surgery), so there is no incremental CSR maintenance; any
/// future growth event rebuilds the flattening wholesale under the route
/// cache's generation stamp.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(from = "TopologyWire", into = "TopologyWire")]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// CSR row offsets: node `i`'s outgoing (link, peer) pairs, in insertion
    /// order, live at `csr_pairs[csr_offsets[i]..csr_offsets[i + 1]]`.
    /// Length `nodes.len() + 1`.
    csr_offsets: Vec<u32>,
    /// All adjacency pairs, concatenated in node order.
    csr_pairs: Vec<(LinkId, NodeId)>,
}

/// The serialized shape of [`Topology`]: nodes, links, and the nested
/// adjacency rows, so snapshots taken before the CSR flattening existed
/// restore unchanged and the wire format stays stable.
#[derive(Serialize, Deserialize)]
struct TopologyWire {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(LinkId, NodeId)>>,
}

impl From<TopologyWire> for Topology {
    fn from(wire: TopologyWire) -> Topology {
        Topology::from_rows(wire.nodes, wire.links, wire.adjacency)
    }
}

impl From<Topology> for TopologyWire {
    fn from(topo: Topology) -> TopologyWire {
        TopologyWire {
            adjacency: topo.adjacency_rows(),
            nodes: topo.nodes,
            links: topo.links,
        }
    }
}

impl Topology {
    /// Start building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Link count.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Node by id.
    ///
    /// # Panics
    /// Panics on an id not minted by this topology's builder.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.value() as usize]
    }

    /// Link by id.
    ///
    /// # Panics
    /// Panics on an id not minted by this topology's builder.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.value() as usize]
    }

    /// Neighbors of `node` as `(link, peer)` pairs, served from the CSR
    /// flattening (one contiguous slice of the packed pair array).
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[(LinkId, NodeId)] {
        let i = node.value() as usize;
        let lo = self.csr_offsets[i] as usize;
        let hi = self.csr_offsets[i + 1] as usize;
        &self.csr_pairs[lo..hi]
    }

    /// The adjacency as nested per-node rows — the wire shape, and the
    /// reference representation tests route over. The single CSR→rows
    /// conversion.
    pub fn adjacency_rows(&self) -> Vec<Vec<(LinkId, NodeId)>> {
        self.nodes
            .iter()
            .map(|n| self.neighbors(n.id).to_vec())
            .collect()
    }

    /// Rebuild from parts, flattening the nested rows to CSR. Single
    /// construction path shared by the builder and deserialization.
    fn from_rows(
        nodes: Vec<Node>,
        links: Vec<Link>,
        adjacency: Vec<Vec<(LinkId, NodeId)>>,
    ) -> Topology {
        let total: usize = adjacency.iter().map(Vec::len).sum();
        assert!(
            total <= u32::MAX as usize,
            "topology exceeds CSR u32 offset range"
        );
        let mut csr_offsets = Vec::with_capacity(adjacency.len() + 1);
        let mut csr_pairs = Vec::with_capacity(total);
        csr_offsets.push(0u32);
        for row in &adjacency {
            csr_pairs.extend_from_slice(row);
            csr_offsets.push(csr_pairs.len() as u32);
        }
        Topology {
            nodes,
            links,
            csr_offsets,
            csr_pairs,
        }
    }

    /// The first node satisfying `pred`, if any.
    pub fn find_node(&self, pred: impl Fn(&Node) -> bool) -> Option<&Node> {
        self.nodes.iter().find(|n| pred(n))
    }

    /// The node hosting eNB `enb`, if present.
    pub fn radio_site(&self, enb: EnbId) -> Option<NodeId> {
        self.find_node(|n| n.kind == NodeKind::RadioSite(enb))
            .map(|n| n.id)
    }

    /// The node hosting data center `dc`, if present.
    pub fn dc_node(&self, dc: DcId) -> Option<NodeId> {
        self.find_node(|n| n.kind == NodeKind::DataCenter(dc))
            .map(|n| n.id)
    }

    /// The demo testbed of Fig. 2: two radio sites connected over wireless
    /// transport (one mmWave and one µwave hop each) to a programmable
    /// switch, which connects over fiber to the edge DC and, through a core
    /// aggregation switch, to the core DC.
    ///
    /// ```text
    /// enb0 ══mmWave══╗                        ┌── fiber ── edge-dc (dc 0)
    /// enb0 ──µwave───╫── pf-switch (sw 0) ────┤
    /// enb1 ══mmWave══╣                        └── fiber ── agg-switch (sw 1) ── fiber ── core-dc (dc 1)
    /// enb1 ──µwave───╝
    /// ```
    pub fn testbed() -> Topology {
        let mut b = Topology::builder();
        let enb0 = b.add_node(NodeKind::RadioSite(EnbId::new(0)), "enb0-site");
        let enb1 = b.add_node(NodeKind::RadioSite(EnbId::new(1)), "enb1-site");
        let pf = b.add_node(NodeKind::Switch(SwitchId::new(0)), "pf5240");
        let agg = b.add_node(NodeKind::Switch(SwitchId::new(1)), "core-agg");
        let edge = b.add_node(NodeKind::DataCenter(DcId::new(0)), "edge-dc");
        let core = b.add_node(NodeKind::DataCenter(DcId::new(1)), "core-dc");

        b.add_default_link(enb0, pf, LinkKind::MmWave);
        b.add_default_link(enb0, pf, LinkKind::MicroWave);
        b.add_default_link(enb1, pf, LinkKind::MmWave);
        b.add_default_link(enb1, pf, LinkKind::MicroWave);
        b.add_default_link(pf, edge, LinkKind::Wired);
        b.add_default_link(pf, agg, LinkKind::Wired);
        // The core DC sits behind aggregation with metro-distance delay.
        b.add_link(
            agg,
            core,
            LinkKind::Wired,
            LinkKind::Wired.default_capacity(),
            Latency::new(4.0),
        );
        b.build()
    }
}

/// Incremental topology construction.
#[derive(Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// Add a node; returns its id.
    pub fn add_node(&mut self, kind: NodeKind, name: &str) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u64);
        self.nodes.push(Node {
            id,
            kind,
            name: name.to_owned(),
        });
        id
    }

    /// Add an undirected link with explicit capacity and delay.
    ///
    /// # Panics
    /// Panics if an endpoint is unknown or the link is a self-loop.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        kind: LinkKind,
        capacity: RateMbps,
        delay: Latency,
    ) -> LinkId {
        assert!(a != b, "self-loops are not allowed");
        assert!(
            (a.value() as usize) < self.nodes.len(),
            "unknown endpoint {a}"
        );
        assert!(
            (b.value() as usize) < self.nodes.len(),
            "unknown endpoint {b}"
        );
        let id = LinkId::new(self.links.len() as u64);
        self.links.push(Link {
            id,
            a,
            b,
            kind,
            capacity,
            delay,
        });
        id
    }

    /// Add a link with the kind's default capacity/delay profile.
    pub fn add_default_link(&mut self, a: NodeId, b: NodeId, kind: LinkKind) -> LinkId {
        self.add_link(a, b, kind, kind.default_capacity(), kind.default_delay())
    }

    /// Finalize into an immutable [`Topology`].
    ///
    /// Adjacency rows are pre-reserved from a degree-counting pass (no
    /// reallocation while filling), and link insertion order is asserted to
    /// match id order — the property the deterministic CSR layout (and
    /// everything routing on it) relies on.
    pub fn build(self) -> Topology {
        let mut degree = vec![0usize; self.nodes.len()];
        for (i, link) in self.links.iter().enumerate() {
            assert_eq!(
                link.id,
                LinkId::new(i as u64),
                "links must be inserted in id order"
            );
            degree[link.a.value() as usize] += 1;
            degree[link.b.value() as usize] += 1;
        }
        let mut adjacency: Vec<Vec<(LinkId, NodeId)>> =
            degree.iter().map(|&d| Vec::with_capacity(d)).collect();
        for link in &self.links {
            adjacency[link.a.value() as usize].push((link.id, link.b));
            adjacency[link.b.value() as usize].push((link.id, link.a));
        }
        Topology::from_rows(self.nodes, self.links, adjacency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = Topology::builder();
        let n0 = b.add_node(NodeKind::Switch(SwitchId::new(0)), "s0");
        let n1 = b.add_node(NodeKind::Switch(SwitchId::new(1)), "s1");
        let l0 = b.add_default_link(n0, n1, LinkKind::Wired);
        let t = b.build();
        assert_eq!(n0, NodeId::new(0));
        assert_eq!(n1, NodeId::new(1));
        assert_eq!(l0, LinkId::new(0));
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.link_count(), 1);
    }

    #[test]
    fn adjacency_is_bidirectional() {
        let mut b = Topology::builder();
        let n0 = b.add_node(NodeKind::Switch(SwitchId::new(0)), "s0");
        let n1 = b.add_node(NodeKind::Switch(SwitchId::new(1)), "s1");
        let l = b.add_default_link(n0, n1, LinkKind::Wired);
        let t = b.build();
        assert_eq!(t.neighbors(n0), &[(l, n1)]);
        assert_eq!(t.neighbors(n1), &[(l, n0)]);
        assert_eq!(t.link(l).peer(n0), Some(n1));
        assert_eq!(t.link(l).peer(n1), Some(n0));
        assert_eq!(t.link(l).peer(NodeId::new(99)), None);
    }

    #[test]
    fn parallel_links_are_allowed() {
        // The testbed has mmWave + µwave in parallel between site and switch.
        let mut b = Topology::builder();
        let n0 = b.add_node(NodeKind::RadioSite(EnbId::new(0)), "r");
        let n1 = b.add_node(NodeKind::Switch(SwitchId::new(0)), "s");
        b.add_default_link(n0, n1, LinkKind::MmWave);
        b.add_default_link(n0, n1, LinkKind::MicroWave);
        let t = b.build();
        assert_eq!(t.neighbors(n0).len(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut b = Topology::builder();
        let n0 = b.add_node(NodeKind::Switch(SwitchId::new(0)), "s");
        b.add_default_link(n0, n0, LinkKind::Wired);
    }

    #[test]
    #[should_panic(expected = "unknown endpoint")]
    fn dangling_endpoint_rejected() {
        let mut b = Topology::builder();
        let n0 = b.add_node(NodeKind::Switch(SwitchId::new(0)), "s");
        b.add_default_link(n0, NodeId::new(7), LinkKind::Wired);
    }

    #[test]
    fn link_kind_profiles() {
        assert!(LinkKind::Wired.default_capacity() > LinkKind::MmWave.default_capacity());
        assert!(LinkKind::MmWave.default_capacity() > LinkKind::MicroWave.default_capacity());
        assert!(LinkKind::Wired.default_delay() < LinkKind::MmWave.default_delay());
        assert!(LinkKind::MmWave.weather_sensitive());
        assert!(!LinkKind::MicroWave.weather_sensitive());
        assert!(!LinkKind::Wired.weather_sensitive());
    }

    #[test]
    fn testbed_matches_fig2() {
        let t = Topology::testbed();
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.link_count(), 7);
        // Both radio sites exist and have two uplinks each.
        for enb in [0u64, 1] {
            let site = t.radio_site(EnbId::new(enb)).unwrap();
            assert_eq!(t.neighbors(site).len(), 2, "mmWave + µwave");
            let kinds: Vec<LinkKind> = t
                .neighbors(site)
                .iter()
                .map(|&(l, _)| t.link(l).kind)
                .collect();
            assert!(kinds.contains(&LinkKind::MmWave));
            assert!(kinds.contains(&LinkKind::MicroWave));
        }
        // Both DCs are reachable nodes.
        assert!(t.dc_node(DcId::new(0)).is_some());
        assert!(t.dc_node(DcId::new(1)).is_some());
        assert!(t.dc_node(DcId::new(2)).is_none());
        // Edge DC hangs directly off the PF switch; core DC is deeper.
        let edge = t.dc_node(DcId::new(0)).unwrap();
        let core = t.dc_node(DcId::new(1)).unwrap();
        assert_eq!(t.neighbors(edge).len(), 1);
        assert_eq!(t.neighbors(core).len(), 1);
    }

    #[test]
    fn serde_round_trip() {
        let t = Topology::testbed();
        let j = serde_json::to_string(&t).unwrap();
        let back: Topology = serde_json::from_str(&j).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn wire_format_is_nested_rows_only() {
        // The CSR flattening is derived state: the serialized shape keeps
        // the pre-CSR field set, so old snapshots restore unchanged.
        let t = Topology::testbed();
        let v: serde_json::Value = serde_json::to_value(&t).unwrap();
        let obj = v.as_object().unwrap();
        let mut keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["adjacency", "links", "nodes"]);
    }

    #[test]
    fn csr_matches_nested_rows() {
        let t = Topology::testbed();
        let rows = t.adjacency_rows();
        assert_eq!(rows.len(), t.node_count());
        for node in t.nodes() {
            assert_eq!(t.neighbors(node.id), rows[node.id.value() as usize]);
        }
        // Rows → CSR → rows is the identity (the wire round trip).
        let back = Topology::from_rows(t.nodes.clone(), t.links.clone(), rows.clone());
        assert_eq!(back, t);
        assert_eq!(back.adjacency_rows(), rows);
    }

    #[test]
    fn wire_bytes_are_pinned() {
        // The exact JSON of the Fig. 2 testbed's adjacency: snapshot hashes
        // and the benchmark's digests hang off these bytes.
        let j = serde_json::to_string(&Topology::testbed()).unwrap();
        assert!(
            j.ends_with(
                r#""adjacency":[[[0,2],[1,2]],[[2,2],[3,2]],[[0,0],[1,0],[2,1],[3,1],[4,4],[5,3]],[[5,2],[6,5]],[[4,2]],[[6,3]]]}"#
            ),
            "{j}"
        );
    }

    #[test]
    #[should_panic(expected = "inserted in id order")]
    fn out_of_order_link_insertion_rejected() {
        let mut b = Topology::builder();
        let n0 = b.add_node(NodeKind::Switch(SwitchId::new(0)), "s0");
        let n1 = b.add_node(NodeKind::Switch(SwitchId::new(1)), "s1");
        b.add_default_link(n0, n1, LinkKind::Wired);
        // Simulate a builder extension that forgets the id-order contract.
        b.links[0].id = LinkId::new(5);
        b.build();
    }
}
