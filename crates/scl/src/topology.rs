//! Simulated machine topologies.
//!
//! A [`Topology`] is a set of nodes plus an effective [`LinkModel`] for every
//! ordered node pair (precomputed at construction). Two presets cover the
//! paper's settings:
//!
//! * [`Topology::cluster`] — N homogeneous nodes behind one switch, the
//!   paper's actual evaluation platform (each communication crosses
//!   PCIe + HCA + switch + HCA + PCIe; we fold that into the link profile).
//! * [`Topology::hetero_node`] — one host node plus one or more coprocessor
//!   nodes joined by a PCIe-class bus, the Xeon Phi scenario of Figure 1.
//!   Coprocessor↔coprocessor traffic crosses the bus twice (through the
//!   host root complex).

use crate::model::LinkModel;
use crate::profiles;

/// Identifies a node (a host, a cluster node, or a coprocessor).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifies an endpoint attached to the fabric.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub u32);

/// What a node is, for placement decisions.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// A general-purpose host processor with large memory (runs memory
    /// servers and the manager in the heterogeneous scenario).
    Host,
    /// An accelerator / coprocessor (runs compute threads).
    Coprocessor,
    /// A homogeneous cluster node (may run anything).
    ClusterNode,
}

/// A node in the simulated machine.
#[derive(Clone, Debug)]
pub struct Node {
    /// What the node is, for placement decisions.
    pub kind: NodeKind,
    /// Number of hardware cores, used by thread placement.
    pub cores: u32,
}

/// The simulated machine: nodes and the effective link model between every
/// pair of them.
#[derive(Clone, Debug)]
pub struct Topology {
    nodes: Vec<Node>,
    /// Row-major `nodes.len() x nodes.len()` matrix of route models.
    routes: Vec<LinkModel>,
}

impl Topology {
    /// Build a topology from explicit nodes and a route function.
    pub fn from_fn(nodes: Vec<Node>, mut route: impl FnMut(usize, usize) -> LinkModel) -> Self {
        assert!(!nodes.is_empty(), "topology needs at least one node");
        let n = nodes.len();
        let mut routes = Vec::with_capacity(n * n);
        for a in 0..n {
            for b in 0..n {
                routes.push(if a == b { profiles::intra_node() } else { route(a, b) });
            }
        }
        Topology { nodes, routes }
    }

    /// A single node; every message is an intra-node handoff. Useful for
    /// tests and for the "Samhita on one cache-coherent node" configuration.
    pub fn single_node(cores: u32) -> Self {
        Topology::from_fn(vec![Node { kind: NodeKind::Host, cores }], |_, _| profiles::intra_node())
    }

    /// `n_nodes` homogeneous cluster nodes behind a single switch, all pairs
    /// reachable at the given link profile (the profile should already fold
    /// in the switch crossing, as [`profiles::ib_qdr`] does).
    pub fn cluster(n_nodes: u32, link: LinkModel) -> Self {
        assert!(n_nodes >= 1);
        let nodes = (0..n_nodes).map(|_| Node { kind: NodeKind::ClusterNode, cores: 8 }).collect();
        Topology::from_fn(nodes, |_, _| link)
    }

    /// One host (node 0) plus `n_coprocessors` coprocessor nodes of
    /// `cop_cores` cores each, joined by `bus` (PCIe-class). Traffic between
    /// two coprocessors must cross the bus twice.
    pub fn hetero_node(n_coprocessors: u32, cop_cores: u32, bus: LinkModel) -> Self {
        assert!(n_coprocessors >= 1);
        let mut nodes = vec![Node { kind: NodeKind::Host, cores: 16 }];
        nodes.extend(
            (0..n_coprocessors).map(|_| Node { kind: NodeKind::Coprocessor, cores: cop_cores }),
        );
        Topology::from_fn(nodes, |a, b| {
            let host = 0usize;
            if a == host || b == host {
                bus
            } else {
                bus.chain(&bus)
            }
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the topology has exactly one node.
    pub fn is_empty(&self) -> bool {
        false // constructors guarantee >= 1 node
    }

    /// The node descriptor, if it exists.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0 as usize)
    }

    /// All nodes of a given kind, in id order.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(move |(_, n)| n.kind == kind)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// The effective route model from `a` to `b`.
    ///
    /// # Panics
    /// Panics if either node id is out of range.
    pub fn route(&self, a: NodeId, b: NodeId) -> &LinkModel {
        let n = self.nodes.len();
        let (ai, bi) = (a.0 as usize, b.0 as usize);
        assert!(ai < n && bi < n, "node id out of range");
        &self.routes[ai * n + bi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_routes_are_intra_node() {
        let t = Topology::single_node(8);
        assert_eq!(t.len(), 1);
        assert_eq!(*t.route(NodeId(0), NodeId(0)), profiles::intra_node());
    }

    #[test]
    fn cluster_routes_are_symmetric() {
        let t = Topology::cluster(6, profiles::ib_qdr());
        assert_eq!(t.len(), 6);
        assert_eq!(t.route(NodeId(1), NodeId(4)), t.route(NodeId(4), NodeId(1)));
        assert_eq!(*t.route(NodeId(0), NodeId(5)), profiles::ib_qdr());
        // self-route stays cheap
        assert!(t.route(NodeId(2), NodeId(2)).latency_ns < profiles::ib_qdr().latency_ns);
    }

    #[test]
    fn hetero_node_double_crosses_bus_between_coprocessors() {
        let bus = profiles::scif();
        let t = Topology::hetero_node(2, 60, bus);
        assert_eq!(t.len(), 3);
        assert_eq!(t.node(NodeId(0)).unwrap().kind, NodeKind::Host);
        assert_eq!(t.node(NodeId(1)).unwrap().kind, NodeKind::Coprocessor);
        let host_cop = t.route(NodeId(0), NodeId(1));
        let cop_cop = t.route(NodeId(1), NodeId(2));
        assert_eq!(cop_cop.latency_ns, 2 * host_cop.latency_ns);
    }

    #[test]
    fn nodes_of_kind_filters() {
        let t = Topology::hetero_node(3, 57, profiles::scif());
        let cops: Vec<_> = t.nodes_of_kind(NodeKind::Coprocessor).collect();
        assert_eq!(cops, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(t.nodes_of_kind(NodeKind::Host).count(), 1);
    }

    #[test]
    #[should_panic(expected = "node id out of range")]
    fn route_panics_out_of_range() {
        let t = Topology::single_node(1);
        t.route(NodeId(0), NodeId(3));
    }
}
