//! The Setup module: deploys the chains of the configured topology graph,
//! opens the client/connection/channel stack of every edge and instantiates
//! the relayer fleet — the automated equivalent of the paper's testnet
//! deployment scripts, generalized from the paper's hard-wired chain pair to
//! an N-chain graph.
//!
//! The deployment's [`Topology`](crate::topology::Topology) names the chains
//! (nodes) and relay edges; every edge gets its own light-client pair, one
//! connection, and `channel_count` transfer channels, opened in edge-major
//! order so the global channel index space is stable. The default topology
//! deploys the paper's `ibc-0 → ibc-1` pair, and the whole construction is
//! routed through [`Testnet::try_build`] / [`SetupError`] — nothing on the
//! production path panics.

use std::cell::RefCell;
use std::rc::Rc;

use xcc_chain::chain::SharedChain;
use xcc_chain::genesis::GenesisConfig;
use xcc_ibc::error::IbcError;
use xcc_ibc::ids::PortId;
use xcc_relayer::config::RelayerConfig;
use xcc_relayer::relayer::{RelayPath, Relayer};
use xcc_relayer::strategy::ChannelPolicy;
use xcc_rpc::endpoint::RpcEndpoint;
use xcc_sim::{DetRng, SimDuration, SimTime};

use crate::config::DeploymentConfig;
use crate::topology::{HopRoute, ResolvedTopology, TopologyError};

/// Validators per chain: the paper's testnet runs 5.
pub const VALIDATORS_PER_CHAIN: usize = 5;

/// Genesis balance of every funded user and relayer account, in the fee
/// denomination: enough that no run ever runs an account dry.
pub const ACCOUNT_BALANCE: u128 = 1_000_000_000_000;

/// A fully deployed cross-chain testnet: the topology's chains, one open
/// client/connection/channel stack per edge, and the relayer fleet staffing
/// every edge.
pub struct Testnet {
    /// The primary chain (`chains[0]`): it anchors the measurement window,
    /// drives the workload submission clock, and is the source chain of the
    /// default pair.
    pub chain_a: SharedChain,
    /// The second chain (`chains[1]`) — the destination of the default pair.
    pub chain_b: SharedChain,
    /// Every deployed chain, in topology order.
    pub chains: Vec<SharedChain>,
    /// The relayer instances serving the edges, in process-id order.
    pub relayers: Vec<Relayer>,
    /// Per relayer process, the `(src, dst)` chain indices of the edge it
    /// serves (indices into [`Testnet::chains`]).
    pub relayer_chains: Vec<(usize, usize)>,
    /// Per relayer process, the global index of the process's first channel
    /// — the offset that maps the process's own channel numbering into the
    /// global (edge-major) channel index space.
    pub relayer_channel_offset: Vec<usize>,
    /// The primary relay path (global channel 0) — the only one in the
    /// paper's single-channel deployments.
    pub path: RelayPath,
    /// Every open relay path in global channel order, edge-major
    /// (`paths[0] == path`).
    pub paths: Vec<RelayPath>,
    /// Per global path, the `(src, dst)` chain indices of its edge.
    pub path_ends: Vec<(usize, usize)>,
    /// The deployment configuration used.
    pub deployment: DeploymentConfig,
    /// The zero-sized random stream no model draws from; kept because the
    /// repository benchmark (`benchmark/src/trace.rs`) names it.
    pub rng: DetRng,
}

/// An RPC endpoint on `chain`, half the deployment's round trip away in
/// whole milliseconds (so a 0 ms RTT adds no delay at all).
pub fn rpc_endpoint(chain: &SharedChain, deployment: &DeploymentConfig) -> RpcEndpoint {
    let one_way = SimDuration::from_millis(deployment.network_rtt_ms / 2);
    RpcEndpoint::new(chain.clone(), one_way)
}

/// [`rpc_endpoint`] under the signature the repository benchmark
/// (`benchmark/src/{trace,layers}.rs`) calls; `rng` and `label` are ignored.
pub fn make_rpc(
    chain: &SharedChain,
    deployment: &DeploymentConfig,
    _rng: &DetRng,
    _label: &str,
) -> RpcEndpoint {
    rpc_endpoint(chain, deployment)
}

/// The relayer-process topology a deployment expands to: one entry per
/// simulated process. Every edge of the topology is staffed independently:
/// under [`ChannelPolicy::Dedicated`] an edge has one process per channel,
/// times `relayer_count` redundant replicas per channel (the paper's "more
/// Hermes instances" as real processes); every other policy keeps the
/// paper's shape of `relayer_count` processes per edge, each serving every
/// channel of that edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSlot {
    /// The process id (index into `Testnet::relayers`, and the account
    /// suffix `relayer-<id>`), unique across the whole fleet.
    pub process: usize,
    /// The topology edge this process serves (index into the resolved
    /// topology's edge list).
    pub edge: usize,
    /// The single **edge-local** channel this process is pinned to, for
    /// dedicated fleets.
    pub channel: Option<usize>,
    /// The process's replica index within its coordination group.
    pub coordination_id: usize,
    /// The size of the process's coordination group (the divisor work is
    /// partitioned by).
    pub group_size: usize,
}

/// Expands a resolved topology into its relayer-process fleet, edge-major.
///
/// Per edge, `Dedicated` builds `channels × relayer_count` processes:
/// within an edge, process `p` serves edge-local channel `p % channels` as
/// replica `p / channels` of that channel's `relayer_count`-strong group.
/// With one edge and one channel this degenerates to exactly the
/// non-dedicated shape, so single-channel dedicated deployments equal the
/// baseline by construction.
pub fn fleet_plan_for(
    topology: &ResolvedTopology,
    deployment: &DeploymentConfig,
) -> Vec<FleetSlot> {
    let replicas = deployment.relayer_count;
    let dedicated = deployment.relayer_strategy.channel_policy == ChannelPolicy::Dedicated;
    let channels = topology.channels;
    let mut slots = Vec::new();
    let mut process = 0;
    for edge in 0..topology.edges.len() {
        if dedicated {
            for p in 0..channels * replicas {
                slots.push(FleetSlot {
                    process,
                    edge,
                    channel: Some(p % channels),
                    coordination_id: p / channels,
                    group_size: replicas,
                });
                process += 1;
            }
        } else {
            for p in 0..replicas {
                slots.push(FleetSlot {
                    process,
                    edge,
                    channel: None,
                    coordination_id: p,
                    group_size: replicas,
                });
                process += 1;
            }
        }
    }
    slots
}

impl Testnet {
    /// Deploys the testnet described by `deployment`.
    ///
    /// Infallible front end of [`Testnet::try_build`] for the common case of
    /// a valid (preset) topology.
    #[expect(
        clippy::expect_used,
        reason = "convenience front end: preset topologies resolve by construction; the fallible API is try_build"
    )]
    pub fn build(deployment: &DeploymentConfig) -> Self {
        Self::try_build(deployment).expect("deployment topology is valid")
    }

    /// Deploys the testnet described by `deployment`, reporting topology and
    /// handshake problems as [`SetupError`]s instead of panicking.
    ///
    /// Every chain of the resolved topology produces its first (empty)
    /// block; then, per edge, light clients of each other are created from
    /// those headers and the connection and channel handshakes are executed
    /// so the edge's channels are `Open` on both ends before the benchmark
    /// starts — the work the paper's Setup module automates. The relayer
    /// fleet follows [`fleet_plan_for`]: per edge, `relayer_count` shared
    /// processes, or one process per channel (times `relayer_count`
    /// replicas) under [`ChannelPolicy::Dedicated`].
    pub fn try_build(deployment: &DeploymentConfig) -> Result<Self, SetupError> {
        let resolved = deployment
            .topology
            .resolve(deployment.channel_count)
            .map_err(|source| SetupError::Topology { source })?;
        let fleet = fleet_plan_for(&resolved, deployment);

        let mut chains = Vec::with_capacity(resolved.chains.len());
        for chain_id in &resolved.chains {
            let mut genesis = GenesisConfig {
                min_block_interval: deployment.min_block_interval,
                ..GenesisConfig::new(chain_id.as_str())
            }
            .with_validators(VALIDATORS_PER_CHAIN)
            .with_funded_accounts("user", deployment.user_accounts, ACCOUNT_BALANCE);
            // Every relayer account is funded on every chain, so a process
            // can pay fees on whichever edge it serves.
            for r in 0..fleet.len().max(1) {
                genesis = genesis.with_account(format!("relayer-{r}"), ACCOUNT_BALANCE);
            }
            let chain: SharedChain = Rc::new(RefCell::new(genesis.into_chain()));
            // Each chain commits its genesis block so that light clients can
            // be bootstrapped from a real header.
            chain.borrow_mut().produce_block(SimTime::ZERO);
            chains.push(chain);
        }

        let mut paths = Vec::new();
        let mut path_ends = Vec::new();
        for edge in &resolved.edges {
            let endpoints = EdgeEndpoints {
                src: chains[edge.src].clone(),
                dst: chains[edge.dst].clone(),
            };
            for path in try_open_edge_channels(&endpoints, resolved.channels)? {
                paths.push(path);
                path_ends.push((edge.src, edge.dst));
            }
        }
        let path = paths[0].clone();

        let mut relayers = Vec::with_capacity(fleet.len());
        let mut relayer_chains = Vec::with_capacity(fleet.len());
        let mut relayer_channel_offset = Vec::with_capacity(fleet.len());
        for slot in &fleet {
            let r = slot.process;
            let edge = resolved.edges[slot.edge];
            // A dedicated process gets its own channel's path and nothing
            // else; any other process gets every channel of its edge.
            let (offset, count) = match slot.channel {
                Some(ch) => (resolved.channel_offset(slot.edge) + ch, 1),
                None => (resolved.channel_offset(slot.edge), resolved.channels),
            };
            let own_paths: Vec<RelayPath> = paths[offset..offset + count].to_vec();
            let config = RelayerConfig {
                account: format!("relayer-{r}").into(),
                strategy: deployment.relayer_strategy,
                instances: slot.group_size.max(1),
                coordination_id: slot.coordination_id,
            };
            let src_rpc = rpc_endpoint(&chains[edge.src], deployment);
            let dst_rpc = rpc_endpoint(&chains[edge.dst], deployment);
            relayers.push(Relayer::with_paths(r, config, own_paths, src_rpc, dst_rpc));
            relayer_chains.push((edge.src, edge.dst));
            relayer_channel_offset.push(offset);
        }

        Ok(Testnet {
            chain_a: chains[0].clone(),
            chain_b: chains[1].clone(),
            chains,
            relayers,
            relayer_chains,
            relayer_channel_offset,
            path,
            paths,
            path_ends,
            deployment: deployment.clone(),
            rng: DetRng,
        })
    }
}

/// Why testnet setup failed: the topology did not resolve, or a precondition
/// of the client/connection/channel handshake sequence did not hold.
#[derive(Debug, Clone, PartialEq)]
pub enum SetupError {
    /// The deployment's topology graph failed to resolve (unknown chain in
    /// an edge, duplicate names, self-loops…).
    Topology {
        /// What was wrong with the graph.
        source: TopologyError,
    },
    /// A chain has not committed the genesis block the light clients
    /// bootstrap from (`produce_block` was never called before setup).
    MissingGenesisBlock {
        /// The id of the chain missing its block.
        chain: String,
    },
    /// An IBC handshake step was rejected by the host chain.
    Handshake {
        /// The handshake step that failed (e.g. `conn_open_try`).
        step: &'static str,
        /// The rejection reported by the IBC module.
        source: IbcError,
    },
    /// A hop route whose channels are in range, but whose second leg does
    /// not leave the chain its first leg delivers to.
    DisconnectedHop {
        /// The offending route.
        route: HopRoute,
    },
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetupError::Topology { source } => {
                write!(f, "deployment topology failed to resolve: {source}")
            }
            SetupError::MissingGenesisBlock { chain } => write!(
                f,
                "chain {chain} has no committed genesis block to bootstrap light clients from"
            ),
            SetupError::Handshake { step, source } => {
                write!(f, "IBC handshake step {step} failed: {source}")
            }
            SetupError::DisconnectedHop { route } => write!(
                f,
                "hop route {} → {}: the second leg does not leave the chain the first leg \
                 delivers to",
                route.first_leg, route.second_leg
            ),
        }
    }
}

impl std::error::Error for SetupError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SetupError::Topology { source } => Some(source),
            SetupError::MissingGenesisBlock { .. } | SetupError::DisconnectedHop { .. } => None,
            SetupError::Handshake { source, .. } => Some(source),
        }
    }
}

/// The live chain handles of one topology edge, as handed to the
/// channel-opening functions: transfers relayed over the edge's channels
/// flow `src → dst`.
#[derive(Clone)]
pub struct EdgeEndpoints {
    /// The chain transfers originate from on this edge.
    pub src: SharedChain,
    /// The chain transfers are delivered to on this edge.
    pub dst: SharedChain,
}

/// Creates the clients, one connection, and `count` unordered transfer
/// channels over one topology edge, returning one relay path per channel in
/// channel-index order. Each path carries the edge's `(src, dst)` chain
/// identifiers, so downstream consumers never rely on an implicit A/B
/// orientation.
///
/// All channels of the edge share the same client pair and connection — as
/// on production Cosmos hubs, where one connection carries many channels —
/// so per-channel work differs only in the channel ends themselves.
///
/// Fails with [`SetupError`] if either chain has not committed its genesis
/// block, or if any handshake step is rejected.
pub fn try_open_edge_channels(
    edge: &EdgeEndpoints,
    count: usize,
) -> Result<Vec<RelayPath>, SetupError> {
    let missing = |chain: &SharedChain| SetupError::MissingGenesisBlock {
        chain: chain.borrow().chain_id().to_string(),
    };
    let step = |step: &'static str| move |source: IbcError| SetupError::Handshake { step, source };
    let header_a = match edge.src.borrow().block_at(1) {
        Some(committed) => committed.block.header.clone(),
        None => return Err(missing(&edge.src)),
    };
    let header_b = match edge.dst.borrow().block_at(1) {
        Some(committed) => committed.block.header.clone(),
        None => return Err(missing(&edge.dst)),
    };
    let root_a = edge.src.borrow().app().ibc().commitment_root();
    let root_b = edge.dst.borrow().app().ibc().commitment_root();

    let mut a = edge.src.borrow_mut();
    let mut b = edge.dst.borrow_mut();
    let ibc_a = a.app_mut().ibc_mut();
    let ibc_b = b.app_mut().ibc_mut();

    // ICS-02: clients of each other.
    let (client_on_a, _) = ibc_a.create_client(&header_b, root_b);
    let (client_on_b, _) = ibc_b.create_client(&header_a, root_a);

    // ICS-03: connection handshake.
    let (conn_a, _) = ibc_a
        .conn_open_init(&client_on_a, &client_on_b)
        .map_err(step("conn_open_init"))?;
    let (conn_b, _) = ibc_b
        .conn_open_try(&client_on_b, &client_on_a, &conn_a)
        .map_err(step("conn_open_try"))?;
    ibc_a
        .conn_open_ack(&conn_a, &conn_b)
        .map_err(step("conn_open_ack"))?;
    ibc_b
        .conn_open_confirm(&conn_b)
        .map_err(step("conn_open_confirm"))?;

    // ICS-04: unordered transfer channels, as in the paper's deployment
    // (which opens exactly one).
    let port = PortId::transfer();
    let mut paths = Vec::with_capacity(count.max(1));
    for _ in 0..count.max(1) {
        let (chan_a, _) = ibc_a
            .chan_open_init(&port, &conn_a, &port)
            .map_err(step("chan_open_init"))?;
        let (chan_b, _) = ibc_b
            .chan_open_try(&port, &conn_b, &port, &chan_a)
            .map_err(step("chan_open_try"))?;
        ibc_a
            .chan_open_ack(&port, &chan_a, &chan_b)
            .map_err(step("chan_open_ack"))?;
        ibc_b
            .chan_open_confirm(&port, &chan_b)
            .map_err(step("chan_open_confirm"))?;
        paths.push(RelayPath {
            port: port.clone(),
            src_channel: chan_a,
            dst_channel: chan_b,
            client_on_dst: client_on_b.clone(),
            client_on_src: client_on_a.clone(),
        });
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn fleet_plan(deployment: &DeploymentConfig) -> Vec<FleetSlot> {
        let resolved = deployment.topology.resolve(deployment.channel_count);
        fleet_plan_for(&resolved.unwrap(), deployment)
    }

    fn try_open_channels(
        src: &SharedChain,
        dst: &SharedChain,
        count: usize,
    ) -> Result<Vec<RelayPath>, SetupError> {
        let (src, dst) = (src.clone(), dst.clone());
        try_open_edge_channels(&EdgeEndpoints { src, dst }, count)
    }

    #[test]
    fn build_opens_the_channel_on_both_ends() {
        let deployment = DeploymentConfig {
            relayer_count: 2,
            user_accounts: 4,
            ..DeploymentConfig::default()
        };
        let testnet = Testnet::build(&deployment);
        let a = testnet.chain_a.borrow();
        let b = testnet.chain_b.borrow();
        assert_eq!(a.height(), 1);
        assert_eq!(b.height(), 1);
        assert!(a
            .app()
            .ibc()
            .channel(&testnet.path.port, &testnet.path.src_channel)
            .unwrap()
            .is_open());
        assert!(b
            .app()
            .ibc()
            .channel(&testnet.path.port, &testnet.path.dst_channel)
            .unwrap()
            .is_open());
        assert_eq!(testnet.relayers.len(), 2);
        assert_eq!(testnet.paths.len(), 1);
        assert_eq!(testnet.paths[0], testnet.path);
        // The default pair is chains 0 and 1 of the topology.
        assert_eq!(testnet.chains.len(), 2);
        assert_eq!(testnet.path_ends, vec![(0, 1)]);
        assert_eq!(testnet.chain_a.borrow().chain_id(), "ibc-0");
        assert_eq!(testnet.chain_b.borrow().chain_id(), "ibc-1");
        assert_eq!(testnet.relayer_chains, vec![(0, 1), (0, 1)]);
        assert_eq!(testnet.relayer_channel_offset, vec![0, 0]);
        // Relayer accounts are funded on both chains.
        assert!(a.app().bank().balance(&"relayer-0".into(), "uatom") > 0);
        assert!(b.app().bank().balance(&"relayer-1".into(), "uatom") > 0);
    }

    #[test]
    fn build_opens_every_configured_channel() {
        let deployment = DeploymentConfig {
            relayer_count: 1,
            channel_count: 3,
            user_accounts: 2,
            ..DeploymentConfig::default()
        };
        let testnet = Testnet::build(&deployment);
        assert_eq!(testnet.paths.len(), 3);
        let a = testnet.chain_a.borrow();
        let b = testnet.chain_b.borrow();
        for (i, path) in testnet.paths.iter().enumerate() {
            assert_eq!(path.src_channel.index(), Some(i as u64));
            assert!(a
                .app()
                .ibc()
                .channel(&path.port, &path.src_channel)
                .unwrap()
                .is_open());
            assert!(b
                .app()
                .ibc()
                .channel(&path.port, &path.dst_channel)
                .unwrap()
                .is_open());
            // One connection, one client pair, shared by every channel.
            assert_eq!(path.client_on_dst, testnet.paths[0].client_on_dst);
            assert_eq!(path.client_on_src, testnet.paths[0].client_on_src);
        }
        // Every relayer serves every channel.
        assert_eq!(testnet.relayers[0].paths().len(), 3);
    }

    #[test]
    fn setup_without_genesis_block_reports_which_chain() {
        let fresh = |id: &str| -> SharedChain {
            Rc::new(RefCell::new(
                GenesisConfig::new(id).with_validators(1).into_chain(),
            ))
        };
        let a = fresh("chain-a");
        let b = fresh("chain-b");
        // Neither chain has produced a block: the source chain is reported.
        let err = try_open_channels(&a, &b, 1).unwrap_err();
        match &err {
            SetupError::MissingGenesisBlock { chain } => assert_eq!(chain, "chain-a"),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("chain-a"));
        // With the source chain bootstrapped, the destination is next.
        a.borrow_mut().produce_block(SimTime::ZERO);
        let err = try_open_channels(&a, &b, 1).unwrap_err();
        assert_eq!(
            err,
            SetupError::MissingGenesisBlock {
                chain: "chain-b".into()
            }
        );
        // Both bootstrapped: the handshake succeeds end to end.
        b.borrow_mut().produce_block(SimTime::ZERO);
        let paths = try_open_channels(&a, &b, 2).unwrap();
        assert_eq!(paths.len(), 2);
        assert!(a
            .borrow()
            .app()
            .ibc()
            .channel(&paths[1].port, &paths[1].src_channel)
            .unwrap()
            .is_open());
    }

    #[test]
    fn fleet_plan_expands_dedicated_deployments_per_channel() {
        // Default policies keep the paper's shape: relayer_count processes.
        let shared = DeploymentConfig {
            relayer_count: 2,
            channel_count: 3,
            ..DeploymentConfig::default()
        };
        let plan = fleet_plan(&shared);
        assert_eq!(plan.len(), 2);
        assert!(plan.iter().all(|s| s.channel.is_none()));
        assert!(plan.iter().all(|s| s.edge == 0));
        assert_eq!(plan[1].coordination_id, 1);
        assert_eq!(plan[1].group_size, 2);

        // Dedicated: one process per channel, times the replica count, with
        // coordination scoped to each channel's replica group.
        let dedicated = DeploymentConfig {
            relayer_count: 2,
            channel_count: 3,
            relayer_strategy: xcc_relayer::strategy::RelayerStrategy::with_channel_policy(
                ChannelPolicy::Dedicated,
            ),
            ..DeploymentConfig::default()
        };
        let plan = fleet_plan(&dedicated);
        assert_eq!(plan.len(), 6, "3 channels × 2 replicas");
        for slot in &plan {
            assert_eq!(slot.channel, Some(slot.process % 3));
            assert_eq!(slot.coordination_id, slot.process / 3);
            assert_eq!(slot.group_size, 2);
        }
        // Exactly `relayer_count` replicas own each channel.
        for channel in 0..3 {
            let replicas = plan.iter().filter(|s| s.channel == Some(channel)).count();
            assert_eq!(replicas, 2);
        }

        // One channel degenerates to the non-dedicated shape.
        let single = DeploymentConfig {
            relayer_count: 2,
            channel_count: 1,
            relayer_strategy: dedicated.relayer_strategy,
            ..DeploymentConfig::default()
        };
        let plan = fleet_plan(&single);
        assert_eq!(plan.len(), 2);
        for slot in &plan {
            assert_eq!(slot.channel, Some(0));
            assert_eq!(slot.coordination_id, slot.process);
        }

        // No relayers means no fleet, dedicated or not.
        let none = DeploymentConfig {
            relayer_count: 0,
            channel_count: 4,
            relayer_strategy: dedicated.relayer_strategy,
            ..DeploymentConfig::default()
        };
        assert!(fleet_plan(&none).is_empty());
    }

    #[test]
    fn fleet_plan_staffs_every_edge_of_a_topology() {
        // A 3-spoke hub has 6 edges; every edge gets its own processes with
        // globally unique ids, edge-major.
        let deployment = DeploymentConfig {
            relayer_count: 2,
            topology: Topology::hub_and_spoke(3),
            ..DeploymentConfig::default()
        };
        let plan = fleet_plan(&deployment);
        assert_eq!(plan.len(), 12, "6 edges × 2 relayers");
        for (i, slot) in plan.iter().enumerate() {
            assert_eq!(slot.process, i);
            assert_eq!(slot.edge, i / 2);
            assert_eq!(slot.coordination_id, i % 2);
        }

        // Dedicated fleets compose with topology: every edge expands to its
        // own `channel_count` processes.
        let dedicated = DeploymentConfig {
            relayer_count: 1,
            channel_count: 2,
            relayer_strategy: xcc_relayer::strategy::RelayerStrategy::with_channel_policy(
                ChannelPolicy::Dedicated,
            ),
            topology: Topology::line(3),
            ..DeploymentConfig::default()
        };
        let plan = fleet_plan(&dedicated);
        assert_eq!(plan.len(), 4, "2 edges × 2 channels × 1 replica");
        assert_eq!(plan[0].edge, 0);
        assert_eq!(plan[0].channel, Some(0));
        assert_eq!(plan[1].channel, Some(1));
        assert_eq!(plan[2].edge, 1);
        assert_eq!(plan[2].channel, Some(0), "channel indices are edge-local");
    }

    #[test]
    fn build_deploys_the_dedicated_fleet_with_funded_accounts() {
        let deployment = DeploymentConfig {
            relayer_count: 2,
            channel_count: 3,
            user_accounts: 2,
            relayer_strategy: xcc_relayer::strategy::RelayerStrategy::with_channel_policy(
                ChannelPolicy::Dedicated,
            ),
            ..DeploymentConfig::default()
        };
        let testnet = Testnet::build(&deployment);
        assert_eq!(testnet.relayers.len(), 6, "two processes per channel");
        for (p, relayer) in testnet.relayers.iter().enumerate() {
            assert_eq!(relayer.id(), p);
            // Process `p` holds exactly its channel's path; the offset maps
            // its channel 0 to that channel's global index.
            assert_eq!(relayer.paths(), &testnet.paths[p % 3..p % 3 + 1]);
            assert_eq!(testnet.relayer_channel_offset[p], p % 3);
        }
        // Every process's account is funded on both chains.
        let a = testnet.chain_a.borrow();
        let b = testnet.chain_b.borrow();
        for r in 0..6 {
            assert!(
                a.app()
                    .bank()
                    .balance(&format!("relayer-{r}").into(), "uatom")
                    > 0
            );
            assert!(
                b.app()
                    .bank()
                    .balance(&format!("relayer-{r}").into(), "uatom")
                    > 0
            );
        }
    }

    #[test]
    fn try_build_deploys_a_hub_and_spoke_topology_per_edge() {
        let deployment = DeploymentConfig {
            relayer_count: 1,
            user_accounts: 2,
            topology: Topology::hub_and_spoke(2),
            ..DeploymentConfig::default()
        };
        let testnet = Testnet::try_build(&deployment).unwrap();
        assert_eq!(testnet.chains.len(), 3, "hub + 2 spokes");
        assert_eq!(testnet.paths.len(), 4, "one channel per edge");
        assert_eq!(testnet.relayers.len(), 4, "one process per edge");
        // Edge-major global channel order: inbound spoke→hub, then outbound.
        assert_eq!(testnet.path_ends, vec![(1, 0), (2, 0), (0, 1), (0, 2)]);
        assert_eq!(testnet.chains[0].borrow().chain_id(), "ibc-hub");
        assert_eq!(testnet.chains[1].borrow().chain_id(), "ibc-1");
        // Every edge opened its own stack: channels are open on both ends.
        for (path, &(src, dst)) in testnet.paths.iter().zip(&testnet.path_ends) {
            assert!(testnet.chains[src]
                .borrow()
                .app()
                .ibc()
                .channel(&path.port, &path.src_channel)
                .unwrap()
                .is_open());
            assert!(testnet.chains[dst]
                .borrow()
                .app()
                .ibc()
                .channel(&path.port, &path.dst_channel)
                .unwrap()
                .is_open());
        }
        // Each relayer serves exactly its edge's paths, offset into the
        // global channel space by the edge's position.
        assert_eq!(testnet.relayer_channel_offset, vec![0, 1, 2, 3]);
        for (r, relayer) in testnet.relayers.iter().enumerate() {
            assert_eq!(relayer.paths().len(), 1);
            assert_eq!(
                relayer.paths()[0],
                testnet.paths[testnet.relayer_channel_offset[r]]
            );
        }
        // Relayer accounts exist on every chain, including the spokes.
        for chain in &testnet.chains {
            let chain = chain.borrow();
            for r in 0..4 {
                assert!(
                    chain
                        .app()
                        .bank()
                        .balance(&format!("relayer-{r}").into(), "uatom")
                        > 0
                );
            }
        }
    }

    #[test]
    fn try_build_reports_invalid_topologies() {
        let deployment = DeploymentConfig {
            topology: Topology {
                chains: vec!["ibc-0".into(), "ibc-1".into()],
                edges: vec![crate::topology::TopologyEdge::new("ibc-0", "ibc-9")],
            },
            ..DeploymentConfig::default()
        };
        let Err(err) = Testnet::try_build(&deployment) else {
            panic!("an edge naming an unknown chain must fail setup");
        };
        assert!(matches!(
            err,
            SetupError::Topology {
                source: TopologyError::UnknownChain { edge: 0, .. }
            }
        ));
        assert!(err.to_string().contains("ibc-9"));
    }

    #[test]
    fn builds_are_deterministic_for_a_seed() {
        let deployment = DeploymentConfig {
            user_accounts: 2,
            ..DeploymentConfig::default()
        };
        let t1 = Testnet::build(&deployment);
        let t2 = Testnet::build(&deployment);
        assert_eq!(
            t1.chain_a
                .borrow()
                .latest_block()
                .unwrap()
                .block
                .header
                .hash(),
            t2.chain_a
                .borrow()
                .latest_block()
                .unwrap()
                .block
                .header
                .hash()
        );
        assert_eq!(t1.path, t2.path);
    }
}
