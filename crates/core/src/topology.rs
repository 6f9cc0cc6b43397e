//! The testnet topology graph: chains as nodes, relay edges between them.
//!
//! The paper's testbed is a hard-wired chain pair; production IBC is a mesh
//! (a hub chain forwarding packets between dozens of zones). A [`Topology`]
//! on [`DeploymentConfig`](crate::config::DeploymentConfig) is the one
//! description of a deployment's chain graph: named chains plus directed
//! [`TopologyEdge`]s, each of which the testnet opens as a full
//! client/connection/channel stack with the deployment's `channel_count`
//! channels and the fleet planner staffs with relayer processes.
//!
//! The **default** topology is the paper's pair, `line(2)`: `ibc-0 → ibc-1`.
//!
//! Multi-hop routing is described separately by [`HopRoute`]s on
//! [`WorkloadConfig`](crate::config::WorkloadConfig): a route names a first-
//! and second-leg channel (global channel indices, edge-major), and the
//! runner submits the second leg once the first leg's acknowledgement lands.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use xcc_ibc::ids::ChainId;

/// One directed relay edge of the topology: packets flow `src → dst` over
/// the deployment's `channel_count` parallel channels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologyEdge {
    /// Name of the chain transfers originate from (must appear in
    /// [`Topology::chains`]).
    pub src: String,
    /// Name of the chain transfers are delivered to.
    pub dst: String,
}

impl TopologyEdge {
    /// An edge between two named chains.
    pub fn new(src: impl Into<String>, dst: impl Into<String>) -> Self {
        TopologyEdge {
            src: src.into(),
            dst: dst.into(),
        }
    }
}

/// The deployment's chain graph; the default is the pair `line(2)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// Chain names in index order (index 0 is the primary chain: it anchors
    /// measurement windows and drives the workload submission clock).
    pub chains: Vec<String>,
    /// Directed relay edges; the global channel index space is edge-major in
    /// this order.
    pub edges: Vec<TopologyEdge>,
}

impl Default for Topology {
    /// The paper's chain pair, `ibc-0 → ibc-1`.
    fn default() -> Self {
        Topology::line(2)
    }
}

impl Topology {
    /// A line of `n` chains `ibc-0 → ibc-1 → … → ibc-{n-1}` with one edge
    /// between each consecutive pair. `line(2)` is the default pair.
    pub fn line(n: usize) -> Self {
        let chains: Vec<String> = (0..n).map(|i| format!("ibc-{i}")).collect();
        let edges = (0..n.saturating_sub(1))
            .map(|i| TopologyEdge::new(format!("ibc-{i}"), format!("ibc-{}", i + 1)))
            .collect();
        Topology { chains, edges }
    }

    /// A hub with `spokes` leaf chains. Chain 0 is `ibc-hub` (the primary /
    /// measurement chain); spokes are `ibc-1 … ibc-{spokes}`. Edges are
    /// edge-major: first every inbound `spoke → hub` edge (channels
    /// `0..spokes`), then every outbound `hub → spoke` edge (channels
    /// `spokes..2*spokes`), so [`Topology::hub_and_spoke_routes`] can name
    /// the channel pairs of a spoke→hub→spoke hop plan.
    pub fn hub_and_spoke(spokes: usize) -> Self {
        let mut chains = vec!["ibc-hub".to_string()];
        chains.extend((1..=spokes).map(|i| format!("ibc-{i}")));
        let mut edges: Vec<TopologyEdge> = (1..=spokes)
            .map(|i| TopologyEdge::new(format!("ibc-{i}"), "ibc-hub"))
            .collect();
        edges.extend((1..=spokes).map(|i| TopologyEdge::new("ibc-hub", format!("ibc-{i}"))));
        Topology { chains, edges }
    }

    /// The hop plan matching [`Topology::hub_and_spoke`]: each spoke sends
    /// into the hub on its inbound channel and the hub forwards to the next
    /// spoke (round-robin) on that spoke's outbound channel.
    pub fn hub_and_spoke_routes(spokes: usize) -> Vec<HopRoute> {
        (0..spokes)
            .map(|i| HopRoute {
                first_leg: i,
                second_leg: spokes + ((i + 1) % spokes.max(1)),
            })
            .collect()
    }

    /// A full mesh over `n` chains `ibc-0 … ibc-{n-1}`: one directed edge
    /// per ordered pair, row-major (`(0,1), (0,2), …, (1,0), (1,2), …`).
    pub fn full_mesh(n: usize) -> Self {
        let chains: Vec<String> = (0..n).map(|i| format!("ibc-{i}")).collect();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    edges.push(TopologyEdge::new(format!("ibc-{i}"), format!("ibc-{j}")));
                }
            }
        }
        Topology { chains, edges }
    }

    /// Compact label used in sweep point names and fixture names: `pair`
    /// for the default, `line-n`/`hub-n`/`mesh-n` for the other presets, and
    /// `custom-{chains}x{edges}` otherwise.
    pub fn label(&self) -> String {
        let n = self.chains.len();
        if *self == Topology::default() {
            return "pair".to_string();
        }
        if *self == Topology::line(n) {
            return format!("line-{n}");
        }
        if n >= 1 && *self == Topology::hub_and_spoke(n - 1) {
            return format!("hub-{}", n - 1);
        }
        if *self == Topology::full_mesh(n) {
            return format!("mesh-{n}");
        }
        format!("custom-{n}x{}", self.edges.len())
    }

    /// Resolves chain names to indices, with `channels` (at least 1)
    /// channels on every edge. The graph is validated: ICS-24 chain ids,
    /// unique names, known endpoints, no self-loops, at least two chains
    /// and one edge.
    pub fn resolve(&self, channels: usize) -> Result<ResolvedTopology, TopologyError> {
        if self.chains.len() < 2 {
            return Err(TopologyError::TooFewChains {
                count: self.chains.len(),
            });
        }
        if self.edges.is_empty() {
            return Err(TopologyError::NoEdges);
        }
        let mut chains = Vec::with_capacity(self.chains.len());
        for name in &self.chains {
            let id = ChainId::from_str(name)
                .map_err(|_| TopologyError::InvalidChainId { name: name.clone() })?;
            if chains.contains(&id) {
                return Err(TopologyError::DuplicateChain { name: name.clone() });
            }
            chains.push(id);
        }
        let index_of = |edge: usize, name: &str| {
            self.chains
                .iter()
                .position(|c| c == name)
                .ok_or_else(|| TopologyError::UnknownChain {
                    edge,
                    name: name.to_string(),
                })
        };
        let mut edges = Vec::with_capacity(self.edges.len());
        for (i, edge) in self.edges.iter().enumerate() {
            let src = index_of(i, &edge.src)?;
            let dst = index_of(i, &edge.dst)?;
            if src == dst {
                return Err(TopologyError::SelfLoop { edge: i });
            }
            edges.push(ResolvedEdge { src, dst });
        }
        Ok(ResolvedTopology {
            chains,
            edges,
            channels: channels.max(1),
        })
    }
}

/// One multi-hop route of the workload: transfers submitted on channel
/// `first_leg` are forwarded on channel `second_leg` once their
/// acknowledgement lands on the first leg's source chain. Channel indices
/// are global (edge-major). Routes whose channels are out of range for the
/// resolved topology are ignored, so a hop plan survives being swept against
/// a pair baseline the same way an out-of-range fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopRoute {
    /// Global channel index of the first leg (src → hub).
    pub first_leg: usize,
    /// Global channel index of the second leg (hub → dst).
    pub second_leg: usize,
}

/// A validated topology with chain names resolved to indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedTopology {
    /// Chain identifiers in index order.
    pub chains: Vec<ChainId>,
    /// Directed edges as chain-index pairs.
    pub edges: Vec<ResolvedEdge>,
    /// Parallel channels opened on every edge (≥ 1).
    pub channels: usize,
}

/// One resolved edge: the indices of its two chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedEdge {
    /// Index of the source chain in [`ResolvedTopology::chains`].
    pub src: usize,
    /// Index of the destination chain.
    pub dst: usize,
}

impl ResolvedTopology {
    /// The global channel index of the first channel of edge `edge`
    /// (edge-major numbering).
    pub fn channel_offset(&self, edge: usize) -> usize {
        edge * self.channels
    }
}

/// Why a [`Topology`] failed to resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A chain name is not a valid ICS-24 identifier.
    InvalidChainId {
        /// The rejected name.
        name: String,
    },
    /// The same chain name appears twice.
    DuplicateChain {
        /// The duplicated name.
        name: String,
    },
    /// The topology names fewer than two chains.
    TooFewChains {
        /// How many chains it names.
        count: usize,
    },
    /// The topology has no edges to relay over.
    NoEdges,
    /// An edge references a chain that is not in the node list.
    UnknownChain {
        /// Index of the offending edge.
        edge: usize,
        /// The unknown chain name.
        name: String,
    },
    /// An edge connects a chain to itself.
    SelfLoop {
        /// Index of the offending edge.
        edge: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::InvalidChainId { name } => {
                write!(f, "chain name {name:?} is not a valid ICS-24 identifier")
            }
            TopologyError::DuplicateChain { name } => {
                write!(f, "chain name {name:?} appears more than once")
            }
            TopologyError::TooFewChains { count } => {
                write!(f, "a topology needs at least 2 chains, got {count}")
            }
            TopologyError::NoEdges => write!(f, "a topology needs at least one edge"),
            TopologyError::UnknownChain { edge, name } => {
                write!(f, "edge {edge} references unknown chain {name:?}")
            }
            TopologyError::SelfLoop { edge } => {
                write!(f, "edge {edge} connects a chain to itself")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_is_the_pair_line() {
        let topo = Topology::default();
        assert_eq!(topo, Topology::line(2));
        assert_eq!(topo.label(), "pair");
        let resolved = topo.resolve(3).unwrap();
        assert_eq!(resolved.chains.len(), 2);
        assert_eq!(resolved.chains[0].as_str(), "ibc-0");
        assert_eq!(resolved.chains[1].as_str(), "ibc-1");
        assert_eq!(resolved.edges, vec![ResolvedEdge { src: 0, dst: 1 }]);
        assert_eq!(resolved.channels, 3);
    }

    #[test]
    fn hub_and_spoke_is_edge_major_inbound_then_outbound() {
        let topo = Topology::hub_and_spoke(3);
        assert_eq!(topo.label(), "hub-3");
        assert_eq!(topo.chains[0], "ibc-hub");
        let resolved = topo.resolve(1).unwrap();
        assert_eq!(resolved.chains.len(), 4);
        assert_eq!(resolved.edges.len(), 6);
        // Inbound spoke→hub edges first…
        for (i, edge) in resolved.edges[..3].iter().enumerate() {
            assert_eq!((edge.src, edge.dst), (i + 1, 0));
        }
        // …then outbound hub→spoke edges.
        for (i, edge) in resolved.edges[3..].iter().enumerate() {
            assert_eq!((edge.src, edge.dst), (0, i + 1));
        }
        assert_eq!(resolved.channel_offset(3), 3);
        assert_eq!(topo.resolve(2).unwrap().channel_offset(3), 6);
        // The matching hop plan pairs each inbound channel with the next
        // spoke's outbound channel.
        let routes = Topology::hub_and_spoke_routes(3);
        assert_eq!(
            routes,
            vec![
                HopRoute {
                    first_leg: 0,
                    second_leg: 4
                },
                HopRoute {
                    first_leg: 1,
                    second_leg: 5
                },
                HopRoute {
                    first_leg: 2,
                    second_leg: 3
                },
            ]
        );
    }

    #[test]
    fn full_mesh_has_an_edge_per_ordered_pair() {
        let topo = Topology::full_mesh(3);
        assert_eq!(topo.label(), "mesh-3");
        let resolved = topo.resolve(2).unwrap();
        assert_eq!(resolved.edges.len(), 6);
        assert_eq!((resolved.edges[0].src, resolved.edges[0].dst), (0, 1));
        assert_eq!((resolved.edges[5].src, resolved.edges[5].dst), (2, 1));
    }

    #[test]
    fn resolution_rejects_malformed_topologies() {
        let empty = Topology {
            chains: vec![],
            edges: vec![],
        };
        assert_eq!(
            empty.resolve(1),
            Err(TopologyError::TooFewChains { count: 0 })
        );
        let unknown = Topology {
            chains: vec!["ibc-0".into(), "ibc-1".into()],
            edges: vec![TopologyEdge::new("ibc-0", "ibc-9")],
        };
        assert!(matches!(
            unknown.resolve(1),
            Err(TopologyError::UnknownChain { edge: 0, .. })
        ));
        let dup = Topology {
            chains: vec!["ibc-0".into(), "ibc-0".into()],
            edges: vec![TopologyEdge::new("ibc-0", "ibc-0")],
        };
        assert!(matches!(
            dup.resolve(1),
            Err(TopologyError::DuplicateChain { .. })
        ));
        let invalid = Topology {
            chains: vec!["BAD".into(), "ibc-1".into()],
            edges: vec![TopologyEdge::new("BAD", "ibc-1")],
        };
        assert!(matches!(
            invalid.resolve(1),
            Err(TopologyError::InvalidChainId { .. })
        ));
        let lonely = Topology {
            chains: vec!["ibc-0".into()],
            edges: vec![],
        };
        assert!(matches!(
            lonely.resolve(1),
            Err(TopologyError::TooFewChains { count: 1 })
        ));
        let edgeless = Topology {
            chains: vec!["ibc-0".into(), "ibc-1".into()],
            edges: vec![],
        };
        assert!(matches!(edgeless.resolve(1), Err(TopologyError::NoEdges)));
        let loopy = Topology {
            chains: vec!["ibc-0".into(), "ibc-1".into()],
            edges: vec![TopologyEdge::new("ibc-1", "ibc-1")],
        };
        assert!(matches!(
            loopy.resolve(1),
            Err(TopologyError::SelfLoop { edge: 0 })
        ));
    }

    #[test]
    fn topologies_and_hop_routes_round_trip_through_serde_values() {
        let topo = Topology::hub_and_spoke(2);
        assert_eq!(Topology::from_value(&topo.to_value()).unwrap(), topo);
        let pair = Topology::default();
        assert_eq!(Topology::from_value(&pair.to_value()).unwrap(), pair);
        let route = HopRoute {
            first_leg: 1,
            second_leg: 3,
        };
        assert_eq!(HopRoute::from_value(&route.to_value()).unwrap(), route);
    }

    #[test]
    fn labels_distinguish_presets_from_custom_graphs() {
        assert_eq!(Topology::line(4).label(), "line-4");
        assert_eq!(Topology::hub_and_spoke(5).label(), "hub-5");
        assert_eq!(Topology::full_mesh(4).label(), "mesh-4");
        let custom = Topology {
            chains: vec!["ibc-0".into(), "ibc-1".into(), "ibc-2".into()],
            edges: vec![
                TopologyEdge::new("ibc-0", "ibc-1"),
                TopologyEdge::new("ibc-2", "ibc-1"),
            ],
        };
        assert_eq!(custom.label(), "custom-3x2");
    }
}
