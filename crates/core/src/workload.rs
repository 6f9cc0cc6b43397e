//! The Benchmark module's Cross-chain Workload Connector.
//!
//! Submits cross-chain fungible-token transfer requests to the source chain
//! the way the paper's tool does: through the relayer CLI path, batching 100
//! `MsgTransfer` messages per transaction, using one account per transaction
//! within a block window to work around the per-account sequence limitation.
//!
//! In multi-channel deployments each transaction targets one channel, picked
//! by the deterministic (weighted) round-robin pattern of
//! [`WorkloadConfig::channel_pattern`] — uniform rotation by default, or a
//! skewed load for the `channel_contention` scenario.

use std::collections::BTreeMap;
use std::sync::Arc;

use xcc_chain::account::AccountId;
use xcc_chain::msg::Msg;
use xcc_chain::tx::Tx;
use xcc_ibc::height::Height;
use xcc_ibc::module::TransferParams;
use xcc_rpc::endpoint::RpcEndpoint;
use xcc_sim::{server::Server, SimDuration, SimTime};
use xcc_tendermint::hash::Hash;
use xcc_tendermint::node::SubmitError;

use crate::config::WorkloadConfig;
use crate::topology::HopRoute;
use xcc_ibc::events as ibc_events;
use xcc_relayer::relayer::RelayPath;

/// Transfer messages the CLI batches into one transaction: the paper's 100,
/// the Hermes maximum.
pub const TRANSFERS_PER_TX: usize = 100;

/// CPU time the submitting CLI spends building and signing one transaction,
/// before the per-message cost.
const CLI_COST_PER_TX: SimDuration = SimDuration::from_millis(12);

/// The record of one submitted (or attempted) transfer transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmissionRecord {
    /// Hash of the transaction (present even if the broadcast failed).
    pub tx_hash: Hash,
    /// When the CLI broadcast the transaction.
    pub broadcast_at: SimTime,
    /// Number of transfer messages inside.
    pub transfers: usize,
    /// Index of the channel the transaction's transfers target.
    pub channel: usize,
    /// Whether `broadcast_tx_sync` accepted it into the mempool.
    pub accepted: bool,
    /// Why the node refused the broadcast, when it did.
    pub error: Option<SubmitError>,
}

/// Aggregate submission statistics (the "Requests made / Submitted" columns
/// of Table I).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmissionStats {
    /// Transfers the workload asked the CLI to make.
    pub requests_made: u64,
    /// Transfers accepted into the source chain's mempool.
    pub submitted: u64,
    /// Transfers whose broadcast was rejected.
    pub rejected: u64,
}

impl SubmissionStats {
    /// The totals of a submission log.
    pub(crate) fn of<'a>(records: impl IntoIterator<Item = &'a SubmissionRecord>) -> Self {
        let mut stats = SubmissionStats::default();
        for record in records {
            let transfers = record.transfers as u64;
            stats.requests_made += transfers;
            if record.accepted {
                stats.submitted += transfers;
            } else {
                stats.rejected += transfers;
            }
        }
        stats
    }
}

/// One `hermes tx ft-transfer` invocation starting at `t`: `batch` one-token
/// `MsgTransfer`s from `user` over `path` (global channel index `channel`)
/// in a single transaction. The record's `broadcast_at` is the instant the
/// broadcast response arrived.
#[allow(clippy::too_many_arguments)]
fn cli_transfer(
    rpc: &mut RpcEndpoint,
    mut t: SimTime,
    user: &AccountId,
    path: &RelayPath,
    channel: usize,
    fee_denom: &str,
    batch: usize,
    timeout_height: Height,
) -> SubmissionRecord {
    // The CLI queries the account's committed sequence before signing. A
    // transaction still waiting in the mempool is invisible to this query,
    // which is what causes the account-sequence errors the paper describes
    // (§V) when an account is reused before its previous transaction commits.
    let seq_resp = rpc.account_sequence(t, user);
    t = seq_resp.ready_at;

    // Building and signing the transaction costs CLI time.
    t += CLI_COST_PER_TX + SimDuration::from_micros(40) * batch as u64;

    // One copy of each text per transaction, shared by its messages.
    let denom: Arc<str> = fee_denom.into();
    let sender: Arc<str> = user.as_str().into();
    let receiver: Arc<str> = "user-0".into();
    let msgs: Vec<Msg> = (0..batch)
        .map(|_| {
            Msg::IbcTransfer(TransferParams {
                source_port: path.port.clone(),
                source_channel: path.src_channel.clone(),
                denom: Arc::clone(&denom),
                amount: 1,
                sender: Arc::clone(&sender),
                receiver: Arc::clone(&receiver),
                timeout_height,
                timeout_timestamp: SimTime::ZERO,
            })
        })
        .collect();
    let tx = Tx::new(user.clone(), seq_resp.value, msgs, fee_denom);
    // A submission is tracked by its hash whether or not the node accepts
    // it, so the CLI takes the hash before the transaction moves to the node.
    let tx_hash = tx.hash();
    let resp = rpc.broadcast_tx_sync(t, tx);
    let error = resp.value.err().map(|refused| refused.error);
    SubmissionRecord {
        tx_hash,
        broadcast_at: resp.ready_at,
        transfers: batch,
        channel,
        accepted: error.is_none(),
        error,
    }
}

/// The workload generator bound to the relayer CLI / source-chain RPCs.
///
/// In topology deployments a channel's packets originate on that channel's
/// own source chain, so the connector holds one RPC endpoint per distinct
/// source chain and routes each transaction through the endpoint of the
/// targeted channel. The single-CLI cost model is unchanged: one sequential
/// CLI process signs and broadcasts every transaction, whichever chain it
/// lands on.
pub struct WorkloadConnector {
    config: WorkloadConfig,
    paths: Vec<RelayPath>,
    /// The channel-targeting pattern: transaction `i` targets
    /// `pattern[i % pattern.len()]`.
    channel_pattern: Vec<usize>,
    next_tx: usize,
    /// One RPC endpoint per distinct source chain; `path_rpc[channel]`
    /// indexes the endpoint serving that channel's source chain.
    rpcs: Vec<RpcEndpoint>,
    path_rpc: Vec<usize>,
    users: Vec<AccountId>,
    next_user: usize,
    /// The fee denom of each endpoint's chain, parallel to `rpcs`.
    fee_denoms: Vec<String>,
    /// The CLI, a single sequential process: one job per window.
    cli: Server,
    remaining: u64,
    windows_submitted: u64,
    records: Vec<SubmissionRecord>,
}

impl WorkloadConnector {
    /// Creates a workload connector targeting `paths` (one per open
    /// channel, in channel order) according to the config's channel pattern.
    ///
    /// # Panics
    ///
    /// Panics when `paths` is empty — the workload needs at least one
    /// channel to target.
    pub fn with_paths(
        config: WorkloadConfig,
        paths: Vec<RelayPath>,
        rpc: RpcEndpoint,
        user_count: usize,
    ) -> Self {
        let path_rpc = vec![0; paths.len()];
        Self::for_topology(config, paths, path_rpc, vec![rpc], user_count)
    }

    /// Creates a workload connector for a topology deployment: `rpcs` holds
    /// one endpoint per distinct source chain and `path_rpc[channel]` names
    /// the endpoint whose chain is that channel's packet source.
    ///
    /// # Panics
    ///
    /// Panics when `paths` is empty, when `path_rpc` is not parallel to
    /// `paths`, or when an entry of `path_rpc` is out of `rpcs`' range.
    pub fn for_topology(
        config: WorkloadConfig,
        paths: Vec<RelayPath>,
        path_rpc: Vec<usize>,
        rpcs: Vec<RpcEndpoint>,
        user_count: usize,
    ) -> Self {
        assert!(
            !paths.is_empty(),
            "the workload targets at least one channel"
        );
        assert_eq!(
            paths.len(),
            path_rpc.len(),
            "path_rpc maps every channel to its source-chain endpoint"
        );
        assert!(
            path_rpc.iter().all(|&r| r < rpcs.len()),
            "every path_rpc entry indexes into rpcs"
        );
        let fee_denoms: Vec<String> = rpcs
            .iter()
            .map(|rpc| rpc.chain().borrow().app().fee_denom().to_string())
            .collect();
        let channel_pattern = config.channel_pattern(paths.len());
        WorkloadConnector {
            remaining: config.total_transfers,
            config,
            paths,
            channel_pattern,
            next_tx: 0,
            rpcs,
            path_rpc,
            users: (0..user_count.max(1))
                .map(|i| AccountId::new(format!("user-{i}")))
                .collect(),
            next_user: 0,
            fee_denoms,
            cli: Server::default(),
            windows_submitted: 0,
            records: Vec::new(),
        }
    }

    /// Whether all configured submission windows have been issued.
    pub fn finished_submitting(&self) -> bool {
        self.windows_submitted >= self.config.submission_blocks || self.remaining == 0
    }

    /// Aggregate statistics so far: the totals of [`records`](Self::records).
    pub fn stats(&self) -> SubmissionStats {
        SubmissionStats::of(&self.records)
    }

    /// The per-transaction submission log.
    pub fn records(&self) -> &[SubmissionRecord] {
        &self.records
    }

    /// Submits the next window's worth of transfers, starting no earlier than
    /// `window_start`. `dest_height` is the destination chain's current
    /// height, used to derive packet timeouts.
    pub fn submit_window(&mut self, window_start: SimTime, dest_height: u64) {
        if self.finished_submitting() {
            return;
        }
        self.windows_submitted += 1;
        let mut to_submit = self.config.transfers_per_window().min(self.remaining);
        let timeout_height = if self.config.timeout_blocks == 0 {
            Height::ZERO
        } else {
            Height::at(dest_height + self.config.timeout_blocks)
        };

        let mut t = self.cli.start(window_start);
        while to_submit > 0 {
            let batch = (TRANSFERS_PER_TX as u64).min(to_submit) as usize;
            to_submit -= batch as u64;
            self.remaining -= batch as u64;

            let user = &self.users[self.next_user % self.users.len()];
            self.next_user += 1;
            let channel = self.channel_pattern[self.next_tx % self.channel_pattern.len()];
            self.next_tx += 1;
            let endpoint = self.path_rpc[channel];
            let record = cli_transfer(
                &mut self.rpcs[endpoint],
                t,
                user,
                &self.paths[channel],
                channel,
                &self.fee_denoms[endpoint],
                batch,
                timeout_height,
            );
            t = record.broadcast_at;
            self.records.push(record);
        }
        self.cli.occupy(window_start, t);
    }
}

/// The record of one forwarded (second-leg) transfer transaction of a
/// multi-hop route.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardRecord {
    /// Index of the hop route (into the run's active route list).
    pub route: usize,
    /// Commit time of the first-leg acknowledgement that triggered it.
    pub triggered_at: SimTime,
    /// The second-leg transaction, on the second-leg path's global channel
    /// index.
    pub submission: SubmissionRecord,
}

/// The multi-hop forwarder: chains a second IBC transfer leg onto every
/// completed first leg of the workload's hop routes.
///
/// The forwarder models the paper-style application-level relaying service a
/// hub operator runs: it watches the first-leg source chain for packet
/// acknowledgements and, the moment an ack commits, submits a fresh
/// fee-denom transfer of equal size on the second leg's source chain (the
/// hub). It deliberately does **not** chain vouchers — the hub forwards out
/// of its own liquidity, which keeps the two legs independent IBC transfers
/// and makes per-hop latency separable in analysis.
///
/// Like the workload CLI it is one sequential process, a [`Server`] with one
/// job per block it forwards from; it shares the `user-<i>` accounts, which
/// is safe because its transactions target chains the workload's direct
/// traffic does not originate on in hop-plan scenarios.
pub struct HopForwarder {
    /// Active routes (in-range entries of the workload's hop plan).
    routes: Vec<HopRoute>,
    paths: Vec<RelayPath>,
    /// Per global path, the chain index its packets originate on.
    path_src: Vec<usize>,
    /// One endpoint per second-leg source chain, keyed by chain index.
    rpcs: BTreeMap<usize, RpcEndpoint>,
    fee_denoms: BTreeMap<usize, String>,
    users: Vec<AccountId>,
    next_user: usize,
    cli: Server,
    records: Vec<ForwardRecord>,
}

impl HopForwarder {
    /// Creates a forwarder for `routes`. `path_src` maps every global path
    /// to its source-chain index and `rpcs` holds one endpoint per
    /// second-leg source chain (keyed by chain index). An empty route list
    /// produces an inert forwarder that performs no work at all.
    pub fn new(
        routes: Vec<HopRoute>,
        paths: Vec<RelayPath>,
        path_src: Vec<usize>,
        rpcs: BTreeMap<usize, RpcEndpoint>,
        user_count: usize,
    ) -> Self {
        let fee_denoms = rpcs
            .iter()
            .map(|(chain, rpc)| {
                let denom = rpc.chain().borrow().app().fee_denom().to_string();
                (*chain, denom)
            })
            .collect();
        HopForwarder {
            routes,
            paths,
            path_src,
            rpcs,
            fee_denoms,
            users: (0..user_count.max(1))
                .map(|i| AccountId::new(format!("user-{i}")))
                .collect(),
            next_user: 0,
            cli: Server::default(),
            records: Vec::new(),
        }
    }

    /// The active hop routes.
    pub fn routes(&self) -> &[HopRoute] {
        &self.routes
    }

    /// The per-transaction forward log.
    pub fn records(&self) -> &[ForwardRecord] {
        &self.records
    }

    /// Reacts to a block committing on chain `chain_idx`: scans the block
    /// for first-leg `ACK_PACKET` events of the active routes and submits
    /// one second-leg transfer per acknowledged packet (batched like the
    /// workload CLI). A forwarder with no routes returns immediately.
    pub fn on_block_commit(
        &mut self,
        chain_idx: usize,
        height: u64,
        committed_at: SimTime,
        chain: &xcc_chain::chain::SharedChain,
    ) {
        if self.routes.is_empty() {
            return;
        }
        let mut acked: Vec<u64> = vec![0; self.routes.len()];
        {
            let chain = chain.borrow();
            let Some(block) = chain.block_at(height) else {
                return;
            };
            for result in &block.results {
                if !result.is_ok() {
                    continue;
                }
                for event in &result.events {
                    if event.kind != ibc_events::ACK_PACKET {
                        continue;
                    }
                    for (ri, route) in self.routes.iter().enumerate() {
                        if self.path_src[route.first_leg] != chain_idx {
                            continue;
                        }
                        let path = &self.paths[route.first_leg];
                        if ibc_events::is_for_channel(event, &path.port, &path.src_channel) {
                            acked[ri] += 1;
                            break;
                        }
                    }
                }
            }
        }

        let mut t = self.cli.start(committed_at);
        let forwarded = self.records.len();
        for (ri, &route_acks) in acked.iter().enumerate() {
            let mut remaining = route_acks;
            if remaining == 0 {
                continue;
            }
            let second = self.routes[ri].second_leg;
            let src = self.path_src[second];
            let (Some(fee_denom), Some(rpc)) = (self.fee_denoms.get(&src), self.rpcs.get_mut(&src))
            else {
                continue;
            };
            while remaining > 0 {
                let batch = (TRANSFERS_PER_TX as u64).min(remaining) as usize;
                remaining -= batch as u64;

                let user = &self.users[self.next_user % self.users.len()];
                self.next_user += 1;
                let submission = cli_transfer(
                    rpc,
                    t,
                    user,
                    &self.paths[second],
                    second,
                    fee_denom,
                    batch,
                    Height::ZERO,
                );
                t = submission.broadcast_at;
                self.records.push(ForwardRecord {
                    route: ri,
                    triggered_at: committed_at,
                    submission,
                });
            }
        }
        if self.records.len() > forwarded {
            self.cli.occupy(committed_at, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeploymentConfig;
    use crate::testnet::{rpc_endpoint, Testnet};

    fn small_testnet(users: usize) -> (Testnet, RpcEndpoint) {
        let deployment = DeploymentConfig {
            user_accounts: users,
            relayer_count: 1,
            network_rtt_ms: 0,
            ..DeploymentConfig::default()
        };
        let testnet = Testnet::build(&deployment);
        let rpc = rpc_endpoint(&testnet.chain_a, &deployment);
        (testnet, rpc)
    }

    #[test]
    fn submits_batches_of_one_hundred_transfers() {
        let (testnet, rpc) = small_testnet(8);
        let config = WorkloadConfig {
            total_transfers: 300,
            submission_blocks: 1,
            ..WorkloadConfig::default()
        };
        let mut workload =
            WorkloadConnector::with_paths(config, vec![testnet.path.clone()], rpc, 8);
        workload.submit_window(SimTime::from_secs(5), 1);
        assert!(workload.finished_submitting());
        let stats = workload.stats();
        assert_eq!(stats.requests_made, 300);
        assert_eq!(stats.submitted, 300);
        assert_eq!(stats.rejected, 0);
        assert_eq!(workload.records().len(), 3);
        assert!(workload.records().iter().all(|r| r.accepted));
        // The transactions actually sit in the source chain's mempool.
        assert_eq!(testnet.chain_a.borrow().mempool_size(), 3);
    }

    #[test]
    fn reusing_an_account_within_a_window_hits_sequence_mismatch() {
        let (testnet, rpc) = small_testnet(1);
        let config = WorkloadConfig {
            total_transfers: 200,
            submission_blocks: 1,
            ..WorkloadConfig::default()
        };
        // Only one user for two transactions in the same window: the second
        // broadcast reuses the committed sequence and is rejected.
        let mut workload =
            WorkloadConnector::with_paths(config, vec![testnet.path.clone()], rpc, 1);
        workload.submit_window(SimTime::from_secs(5), 1);
        let stats = workload.stats();
        assert_eq!(stats.requests_made, 200);
        assert_eq!(stats.submitted, 100);
        assert_eq!(stats.rejected, 100);
        let error = workload.records()[1].error.as_ref().unwrap();
        assert!(
            matches!(
                error,
                SubmitError::CheckTxFailed {
                    code: xcc_chain::ante::CODE_SEQUENCE_MISMATCH,
                    ..
                }
            ),
            "{error}"
        );
        drop(testnet);
    }

    #[test]
    fn weighted_pattern_targets_channels_deterministically() {
        let deployment = DeploymentConfig {
            user_accounts: 8,
            relayer_count: 1,
            channel_count: 2,
            network_rtt_ms: 0,
            ..DeploymentConfig::default()
        };
        let testnet = Testnet::build(&deployment);
        let rpc = rpc_endpoint(&testnet.chain_a, &deployment);
        let config = WorkloadConfig {
            total_transfers: 600,
            submission_blocks: 1,
            channel_weights: vec![2, 1],
            ..WorkloadConfig::default()
        };
        let mut workload = WorkloadConnector::with_paths(config, testnet.paths, rpc, 8);
        workload.submit_window(SimTime::from_secs(5), 1);
        // Six transactions, pattern [0, 0, 1] → channels 0,0,1,0,0,1.
        let channels: Vec<usize> = workload.records().iter().map(|r| r.channel).collect();
        assert_eq!(channels, vec![0, 0, 1, 0, 0, 1]);
        assert_eq!(workload.stats().submitted, 600);
    }

    #[test]
    fn spreads_submission_over_multiple_windows() {
        let (testnet, rpc) = small_testnet(4);
        let config = WorkloadConfig {
            total_transfers: 400,
            submission_blocks: 4,
            ..WorkloadConfig::default()
        };
        let mut workload =
            WorkloadConnector::with_paths(config, vec![testnet.path.clone()], rpc, 4);
        for w in 0..4 {
            assert!(!workload.finished_submitting());
            workload.submit_window(SimTime::from_secs(5 * (w + 1)), 1);
        }
        assert!(workload.finished_submitting());
        assert_eq!(workload.stats().requests_made, 400);
        assert_eq!(workload.records().len(), 4);
        drop(testnet);
    }
}
