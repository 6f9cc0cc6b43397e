//! The experiment driver: a discrete-event loop advancing every chain of the
//! deployment's topology, the relayer processes and the workload generator in
//! virtual time, collecting the raw data the Analysis module consumes.
//!
//! # Event model
//!
//! The loop schedules three event kinds:
//!
//! * `Block(chain)` — one chain of the topology produces its next block. The
//!   handler records the block, **notifies** the relayer processes whose edge
//!   touches that chain (an O(1) inbox push) and schedules one
//!   `RelayerWake(id)` per notified process at the current instant; it never
//!   runs pipeline code itself. Chain 0 is the primary chain: its commits
//!   anchor the measurement window, drive workload submission and decide when
//!   the run stops. In the default two-chain topology `Block(0)` / `Block(1)`
//!   are the source and destination chains' blocks.
//! * `RelayerWake(id)` — process `id` drains its inbox via
//!   [`Relayer::wake`](xcc_relayer::relayer::Relayer::wake), performing its
//!   pipeline work on its own virtual-time lane (its per-chain RPC
//!   endpoints and worker watermarks). Every wake follows a block
//!   notification; a process never asks for one of its own.
//! * `Fault(event)` — one event of the deployment's compiled
//!   [`FaultPlan`](crate::fault::FaultPlan) fires: a relayer process
//!   crashes or restarts, a chain halts or stretches its block interval, or
//!   a light client's trust period lapses. All fault events are scheduled
//!   up-front before the loop starts, so an **empty plan schedules
//!   nothing** and the event sequence — and therefore every golden fixture —
//!   is bit-identical to a run without fault support. At equal timestamps
//!   a fault's up-front insertion order places it before that instant's
//!   block and wake events (scheduler FIFO), so a fault always applies
//!   before the chains and relayers act on the same tick.
//!
//! # Multi-hop forwarding
//!
//! When the workload carries a hop plan, a [`HopForwarder`] rides along: at
//! every block commit it scans the committed block for first-leg packet
//! acknowledgements and submits the matching second-leg transfers on the mid
//! chain. A run without hop routes constructs an inert forwarder that
//! performs no RPC calls and no scheduler interaction, keeping hop-free runs
//! event-identical.
//!
//! # Determinism
//!
//! Ordering at equal timestamps is the scheduler's FIFO contract
//! (see [`xcc_sim::Scheduler`]): wakes scheduled by one commit run in
//! process-id order. One extra rule makes the event loop equivalent to the
//! old synchronous runner *by construction*: a block event popping while
//! relayer wakes are pending at the same instant **yields** — it re-schedules
//! itself at the current time, landing behind the wakes in FIFO order. The
//! chains' blocks frequently commit on the same 5-second grid, and the §V
//! sequence race is sensitive to whether a relayer's broadcasts enter a
//! chain's mempool before or after that chain's same-instant commit; the
//! yield rule pins the order to "relayer work first", exactly what the
//! synchronous runner did and what the golden fixtures pin. See
//! `docs/DETERMINISM.md`.

use std::collections::BTreeMap;

use xcc_chain::chain::SharedChain;
use xcc_ibc::events as ibc_events;
use xcc_relayer::relayer::{RelayPath, RelayerStats};
use xcc_relayer::telemetry::{TelemetryLog, TransferStep};
use xcc_rpc::endpoint::{LaneStats, RpcEndpoint};
use xcc_sim::{prof, Scheduler, SimDuration, SimTime};
use xcc_tendermint::hash::Hash;

use crate::config::{DeploymentConfig, WorkloadConfig};
use crate::fault::FaultEvent;
use crate::testnet::{rpc_endpoint, SetupError, Testnet};
use crate::topology::HopRoute;
use crate::work::WorkProfile;
use crate::workload::{
    ForwardRecord, HopForwarder, SubmissionRecord, SubmissionStats, WorkloadConnector,
};

/// One committed block as observed by the driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockRecord {
    /// Height of the block.
    pub height: u64,
    /// When the proposer started assembling it.
    pub proposed_at: SimTime,
    /// When consensus on it completed.
    pub committed_at: SimTime,
    /// Number of transactions included.
    pub tx_count: usize,
    /// Number of ABCI events emitted by its transactions (a proxy for the
    /// amount of IBC work in the block).
    pub events: u64,
    /// Interval since the previous block's commit.
    pub interval: SimDuration,
}

/// Everything an experiment run produced, handed to the Analysis module.
pub struct RunOutput {
    /// Blocks committed on the primary chain (`chains[0]`), in order.
    pub blocks_a: Vec<BlockRecord>,
    /// Blocks committed on the second chain (`chains[1]`), in order.
    pub blocks_b: Vec<BlockRecord>,
    /// Blocks committed per chain, indexed like [`RunOutput::chains`]
    /// (`blocks[0] == blocks_a`, `blocks[1] == blocks_b`).
    pub blocks: Vec<Vec<BlockRecord>>,
    /// Merged relayer telemetry plus the workload's transfer-broadcast
    /// times, keyed by global (edge-major) channel index.
    pub telemetry: TelemetryLog,
    /// Workload submission statistics.
    pub submission: SubmissionStats,
    /// Per-transaction submission records.
    pub submission_records: Vec<SubmissionRecord>,
    /// Per-transaction second-leg forward records of the hop plan's active
    /// routes (empty without a hop plan).
    pub forwards: Vec<ForwardRecord>,
    /// Aggregate second-leg submission statistics.
    pub forward_stats: SubmissionStats,
    /// The hop routes that were actually active (in-range plan entries).
    pub hop_routes: Vec<HopRoute>,
    /// Per-relayer activity counters.
    pub relayer_stats: Vec<RelayerStats>,
    /// Per-process RPC lane accounting, one `(source lane, destination
    /// lane)` pair per relayer process in process-id order.
    pub rpc_lanes: Vec<(LaneStats, LaneStats)>,
    /// The primary chain (`chains[0]`) at the end of the run.
    pub chain_a: SharedChain,
    /// The second chain (`chains[1]`) at the end of the run.
    pub chain_b: SharedChain,
    /// Every chain of the topology at the end of the run, in topology order.
    pub chains: Vec<SharedChain>,
    /// The primary relay path (global channel 0).
    pub path: RelayPath,
    /// Every relay path used, in global channel order (`paths[0] == path`).
    pub paths: Vec<RelayPath>,
    /// Per global path, the `(src, dst)` chain indices of its edge.
    pub path_ends: Vec<(usize, usize)>,
    /// Commit time of the first measurement block (the window start).
    pub measurement_start: SimTime,
    /// Commit time of the last measurement block (the window end).
    pub measurement_end: SimTime,
    /// The workload configuration that was executed.
    pub workload: WorkloadConfig,
    /// The deployment configuration that was executed.
    pub deployment: DeploymentConfig,
    /// The run's deterministic work profile (xcc-prof counters, setup and
    /// teardown included) — see [`crate::work`].
    pub work: WorkProfile,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// The chain at this topology index produces its next block.
    Block(usize),
    /// Relayer process `id` drains its inbox and runs its pipeline.
    RelayerWake(usize),
    /// One event of the deployment's compiled fault plan fires.
    Fault(FaultEvent),
}

/// Records receive / acknowledgement confirmations from committed block data
/// for packets whose events no relayer delivered, at the committing block's
/// commit time. Existing telemetry entries always win (the record API keeps
/// the earliest time, and relayer-observed steps are only ever later than
/// the commit they derive from — so this is a pure gap-filler).
fn backfill_confirmations(
    telemetry: &mut TelemetryLog,
    testnet: &Testnet,
    blocks: &[Vec<BlockRecord>],
) {
    // One pass per chain: a `WRITE_ACK` fills `RecvConfirmation` for a path
    // whose destination is this chain, an `ACK_PACKET` fills
    // `AckConfirmation` for a path whose source is this chain. The chain
    // match matters in topologies — channel identifiers are per-chain
    // counters, so the same `channel-0` name legitimately exists on several
    // chains and only the `(chain, port, channel)` triple is unique.
    for (c, records) in blocks.iter().enumerate() {
        let chain = testnet.chains[c].borrow();
        for record in records {
            let Some(block) = chain.block_at(record.height) else {
                continue;
            };
            for result in &block.results {
                if !result.is_ok() {
                    continue;
                }
                for event in &result.events {
                    let (dst_side, step) = if event.kind == ibc_events::WRITE_ACK {
                        (true, TransferStep::RecvConfirmation)
                    } else if event.kind == ibc_events::ACK_PACKET {
                        (false, TransferStep::AckConfirmation)
                    } else {
                        continue;
                    };
                    let channel = testnet.paths.iter().enumerate().position(|(i, p)| {
                        let (src, dst) = testnet.path_ends[i];
                        let (on_chain, end) = if dst_side {
                            (dst == c, &p.dst_channel)
                        } else {
                            (src == c, &p.src_channel)
                        };
                        on_chain && ibc_events::is_for_channel(event, &p.port, end)
                    });
                    let (Some(channel), Some(sequence)) =
                        (channel, ibc_events::packet_sequence(event))
                    else {
                        continue;
                    };
                    let channel = channel as u64;
                    if telemetry.step_time_on(channel, sequence, step).is_none() {
                        telemetry.record_on(channel, sequence, step, record.committed_at);
                    }
                }
            }
        }
    }
}

/// Attaches the workload's broadcast timestamp to every packet sequence a
/// committed transfer transaction created, under the transaction's global
/// channel index.
fn attach_broadcast(
    telemetry: &mut TelemetryLog,
    chain: &SharedChain,
    tx_hash: &Hash,
    channel: usize,
    broadcast_at: SimTime,
) {
    let chain = chain.borrow();
    let Some((_, _, result)) = chain.find_tx(tx_hash) else {
        return;
    };
    for event in &result.events {
        if event.kind == ibc_events::SEND_PACKET {
            if let Some(sequence) = ibc_events::packet_sequence(event) {
                telemetry.record_on(
                    channel as u64,
                    sequence,
                    TransferStep::TransferBroadcast,
                    broadcast_at,
                );
            }
        }
    }
}

/// Packets committed on their path's source chain whose commitment is still
/// there: neither acknowledged nor timed out. The runner's per-block drain
/// check and [`analysis::stranded_packets`](crate::analysis::stranded_packets)
/// are this one count.
pub(crate) fn outstanding_packets(
    paths: &[RelayPath],
    path_ends: &[(usize, usize)],
    chains: &[SharedChain],
) -> u64 {
    paths
        .iter()
        .zip(path_ends)
        .map(|(path, &(src, _))| {
            let chain = chains[src].borrow();
            let ibc = chain.app().ibc();
            ibc.outstanding_commitment_count(&path.port, &path.src_channel) as u64
        })
        .sum()
}

/// Runs one experiment: deploys the testnet, drives block production on every
/// chain of the topology, feeds events to the relayers, submits the workload
/// (and forwards hop-plan second legs) and returns the collected raw data.
///
/// Fails with [`SetupError`] when the deployment's topology does not resolve,
/// the IBC handshakes cannot complete, or an in-range hop route does not
/// chain.
pub fn run_experiment(
    deployment: &DeploymentConfig,
    workload_config: &WorkloadConfig,
) -> Result<RunOutput, SetupError> {
    // Counters cover the whole run, setup (handshakes, funding) included:
    // the profile should account for every unit of work a spec costs, not
    // just the measurement window.
    prof::reset();
    let mut testnet = Testnet::try_build(deployment)?;
    let chain_count = testnet.chains.len();
    let path_src: Vec<usize> = testnet.path_ends.iter().map(|&(src, _)| src).collect();

    // One workload endpoint per distinct packet-source chain, in
    // first-appearance (global channel) order.
    let mut rpc_chains: Vec<usize> = Vec::new();
    for &src in &path_src {
        if !rpc_chains.contains(&src) {
            rpc_chains.push(src);
        }
    }
    let workload_rpcs: Vec<RpcEndpoint> = rpc_chains
        .iter()
        .map(|&c| rpc_endpoint(&testnet.chains[c], deployment))
        .collect();
    let path_rpc: Vec<usize> = path_src
        .iter()
        .map(|src| rpc_chains.iter().position(|c| c == src).unwrap_or(0))
        .collect();
    let mut workload = WorkloadConnector::for_topology(
        workload_config.clone(),
        testnet.paths.clone(),
        path_rpc,
        workload_rpcs,
        deployment.user_accounts,
    );

    // The hop forwarder only exists for in-range routes; hop-free runs get
    // an inert forwarder with zero endpoints and zero per-block work. An
    // in-range route must chain: its second leg leaves the chain its first
    // leg delivers to.
    let active_routes: Vec<HopRoute> = workload_config
        .hop_plan
        .iter()
        .copied()
        .filter(|r| r.first_leg < testnet.paths.len() && r.second_leg < testnet.paths.len())
        .collect();
    let ends = &testnet.path_ends;
    if let Some(&route) =
        (active_routes.iter()).find(|r| ends[r.first_leg].1 != ends[r.second_leg].0)
    {
        return Err(SetupError::DisconnectedHop { route });
    }
    let mut forwarder_rpcs: BTreeMap<usize, RpcEndpoint> = BTreeMap::new();
    for route in &active_routes {
        let src = path_src[route.second_leg];
        forwarder_rpcs
            .entry(src)
            .or_insert_with(|| rpc_endpoint(&testnet.chains[src], deployment));
    }
    let mut forwarder = HopForwarder::new(
        active_routes,
        testnet.paths.clone(),
        path_src.clone(),
        forwarder_rpcs,
        deployment.user_accounts,
    );

    let min_interval = deployment.min_block_interval;
    let mut sched: Scheduler<Ev> = Scheduler::new();
    // Every chain committed block 1 during setup at t = 0; their block
    // streams start in topology order (chain 0 first, like the old
    // `BlockA` / `BlockB` insertion sequence).
    for c in 0..chain_count {
        sched.schedule_at(SimTime::ZERO + min_interval, Ev::Block(c));
    }

    // Schedule every fault event up-front. An empty plan compiles to an
    // empty list and performs zero scheduler calls here, so the fault
    // subsystem leaves a fault-free run's insertion-sequence stream
    // untouched (see docs/DETERMINISM.md).
    for (at, event) in deployment.fault_plan.compile() {
        sched.schedule_at(at, Ev::Fault(event));
    }
    // Per-chain fault state, indexed by the chain's topology index (0 = the
    // pair's source chain A, 1 = destination B): when a halt ends, and the
    // (factor, until) window of a block-interval stretch.
    let mut halt_until = vec![SimTime::ZERO; chain_count];
    let mut stretch = vec![(1u64, SimTime::ZERO); chain_count];
    let block_interval = |stretch: &[(u64, SimTime)], chain: usize, t: SimTime| {
        let (factor, until) = stretch[chain];
        if t < until {
            min_interval * factor
        } else {
            min_interval
        }
    };

    let mut blocks: Vec<Vec<BlockRecord>> = vec![Vec::new(); chain_count];
    let mut last_commit = vec![SimTime::ZERO; chain_count];
    let mut measurement_start = SimTime::ZERO;
    let mut measurement_end = SimTime::ZERO;

    // The first workload window is submitted right away so that its
    // transactions are available for the first measurement block. The height
    // is read before the call: submitting borrows the target chains, which
    // may include the one the timeout height is read from.
    let dest_height = testnet.chains[1].borrow().height();
    workload.submit_window(SimTime::ZERO, dest_height);

    let target_blocks = workload_config.measurement_blocks;
    let grace_blocks = workload_config.completion_grace_blocks;
    let mut source_running = true;
    // Relayer wakes outstanding at the current instant. Block events yield
    // to these (see the module docs): because time advances monotonically,
    // any outstanding wake scheduled at or before `now` is at exactly `now`,
    // so a single counter per instant suffices.
    let mut wakes_due: Vec<(SimTime, usize)> = Vec::new();
    // The single home of the invariant "wakes_due counts exactly the
    // `RelayerWake` events in the scheduler": every schedule site records
    // here, the `RelayerWake` arm decrements.
    fn note_wakes(wakes_due: &mut Vec<(SimTime, usize)>, at: SimTime, count: usize) {
        if count == 0 {
            return;
        }
        match wakes_due.iter_mut().find(|(t, _)| *t == at) {
            Some((_, pending)) => *pending += count,
            None => wakes_due.push((at, count)),
        }
    }

    while let Some((t, ev)) = sched.pop() {
        let wakes_pending_now = wakes_due
            .iter()
            .any(|(at, pending)| *at == t && *pending > 0);
        match ev {
            Ev::Block(_) if wakes_pending_now => {
                // Relayer wakes are already queued at this instant: yield so
                // the processes run first (FIFO puts the re-scheduled block
                // behind them), preserving the synchronous runner's
                // relayer-work-before-next-commit order.
                sched.schedule_at(t, ev);
            }
            // A halted chain (`ChainHalt` fault) produces no block until the
            // halt window ends; its block event parks at the halt deadline.
            Ev::Block(c) if t < halt_until[c] => {
                sched.schedule_at(halt_until[c], ev);
            }
            Ev::Block(c) => {
                let outcome = testnet.chains[c].borrow_mut().produce_block(t);
                let record = BlockRecord {
                    height: outcome.height,
                    proposed_at: t,
                    committed_at: outcome.committed_at,
                    tx_count: outcome.tx_count,
                    events: outcome.included_messages,
                    interval: outcome.committed_at - last_commit[c],
                };
                last_commit[c] = outcome.committed_at;
                blocks[c].push(record);

                // The commit only notifies the relayer processes whose edge
                // touches this chain; their pipeline work runs at the wake
                // events scheduled below, in ascending process-id order (for
                // the two-chain topology every relayer touches every chain,
                // which is exactly the legacy notify-all behaviour).
                let mut woken = 0;
                for id in 0..testnet.relayers.len() {
                    let (src, dst) = testnet.relayer_chains[id];
                    if src != c && dst != c {
                        continue;
                    }
                    if src == c {
                        testnet.relayers[id]
                            .notify_source_block(outcome.height, outcome.committed_at);
                    }
                    if dst == c {
                        testnet.relayers[id]
                            .notify_dest_block(outcome.height, outcome.committed_at);
                    }
                    sched.schedule_at(t, Ev::RelayerWake(id));
                    woken += 1;
                }
                note_wakes(&mut wakes_due, t, woken);

                // Hop-plan second legs chain off this block's first-leg
                // acknowledgements; without routes this is a no-op.
                forwarder.on_block_commit(
                    c,
                    outcome.height,
                    outcome.committed_at,
                    &testnet.chains[c],
                );

                if c == 0 {
                    // Measurement bookkeeping: block 2 is the first block
                    // that can contain workload transactions.
                    let measured = blocks[0].len() as u64; // block heights 2, 3, …
                    if measured == 1 {
                        measurement_start = outcome.committed_at;
                    }
                    if measured == target_blocks {
                        measurement_end = outcome.committed_at;
                    }

                    if !workload.finished_submitting() {
                        let dest_height = testnet.chains[1].borrow().height();
                        workload.submit_window(outcome.committed_at, dest_height);
                    }

                    let stop = if measured < target_blocks {
                        false
                    } else if !workload_config.run_to_completion {
                        true
                    } else {
                        let outstanding = outstanding_packets(
                            &testnet.paths,
                            &testnet.path_ends,
                            &testnet.chains,
                        );
                        // Forwarded second legs still sitting in a mid
                        // chain's mempool are not yet `sent`, so the
                        // outstanding count alone would miss them.
                        let hops_pending = forwarder.routes().iter().any(|route| {
                            let src = testnet.path_ends[route.second_leg].0;
                            testnet.chains[src].borrow().mempool_size() > 0
                        });
                        let done =
                            workload.finished_submitting() && outstanding == 0 && !hops_pending;
                        done || measured >= target_blocks + grace_blocks
                    };
                    if !stop {
                        let interval = block_interval(&stretch, 0, t);
                        sched.schedule_at(outcome.committed_at.max(t + interval), Ev::Block(0));
                    } else {
                        source_running = false;
                        if measurement_end == SimTime::ZERO {
                            measurement_end = outcome.committed_at;
                        }
                    }
                } else {
                    // The other chains keep producing blocks for as long as
                    // the primary side is still running; once it has
                    // stopped, pending recvs can no longer complete anyway.
                    if source_running {
                        let interval = block_interval(&stretch, c, t);
                        sched.schedule_at(outcome.committed_at.max(t + interval), Ev::Block(c));
                    }
                }
            }
            Ev::RelayerWake(id) => {
                prof::bump_relayer_wake();
                if let Some((_, pending)) = wakes_due.iter_mut().find(|(at, _)| *at == t) {
                    *pending = pending.saturating_sub(1);
                }
                wakes_due.retain(|(at, pending)| *at > t || *pending > 0);
                testnet.relayers[id].wake(t);
            }
            // Out-of-range relayer / path indices are tolerated so a sweep
            // can apply one plan across deployments of different sizes: the
            // fault simply has no target.
            Ev::Fault(FaultEvent::RelayerCrash { relayer, .. }) => {
                if let Some(process) = testnet.relayers.get_mut(relayer) {
                    process.crash(t);
                }
            }
            Ev::Fault(FaultEvent::RelayerRestart { relayer, .. }) => {
                if let Some(process) = testnet.relayers.get_mut(relayer) {
                    process.restart(t);
                    // Rejoin through the ordinary wake protocol so the
                    // replayed inbox drains on the process's own lane.
                    sched.schedule_at(t, Ev::RelayerWake(relayer));
                    note_wakes(&mut wakes_due, t, 1);
                }
            }
            Ev::Fault(FaultEvent::ChainHalt {
                chain, duration, ..
            }) => {
                let c = chain.index();
                halt_until[c] = halt_until[c].max(t + duration);
            }
            Ev::Fault(FaultEvent::BlockStretch {
                chain,
                factor,
                duration,
                ..
            }) => stretch[chain.index()] = (factor.max(1), t + duration),
            Ev::Fault(FaultEvent::ClientExpiry { path, .. }) => {
                // The trust period of the client *on the path's destination
                // chain* lapses: recv verification for this path is stranded
                // until out-of-band recovery (not modelled), while
                // source-side ack/timeout handling stays live.
                if let Some(stranded) = testnet.paths.get(path) {
                    let dst = testnet.path_ends[path].1;
                    let _ = testnet.chains[dst]
                        .borrow_mut()
                        .app_mut()
                        .ibc_mut()
                        .expire_client(&stranded.client_on_dst);
                }
            }
        }
    }

    // Merge telemetry from every relayer — re-keying each process's
    // edge-local channel indices into the global edge-major space — and
    // attach the workload's broadcast timestamps to the packet sequences
    // each committed transaction created.
    let mut telemetry = TelemetryLog::new();
    let mut relayer_stats = Vec::new();
    let mut rpc_lanes = Vec::new();
    for (r, relayer) in testnet.relayers.iter().enumerate() {
        telemetry.merge_offset(
            relayer.telemetry(),
            testnet.relayer_channel_offset[r] as u64,
        );
        relayer_stats.push(*relayer.stats());
        rpc_lanes.push(relayer.lane_stats());
    }
    let forwards = forwarder.records().iter().map(|f| &f.submission);
    for record in workload.records().iter().chain(forwards) {
        if !record.accepted {
            continue;
        }
        let src = path_src[record.channel];
        attach_broadcast(
            &mut telemetry,
            &testnet.chains[src],
            &record.tx_hash,
            record.channel,
            record.broadcast_at,
        );
    }

    // The Analysis module reads committed transactions straight off the
    // chains (the framework's Cross-chain Event Processor pulls block data
    // over RPC, independently of the relayers' subscriptions), so receive /
    // acknowledgement confirmations are backfilled at block commit time for
    // packets the relayers never observed — e.g. events lost to an
    // oversized WebSocket frame (§V). Steps the relayers did observe keep
    // their original event-delivery timestamps: the backfill never
    // overwrites an existing record.
    backfill_confirmations(&mut telemetry, &testnet, &blocks);

    Ok(RunOutput {
        blocks_a: blocks[0].clone(),
        blocks_b: blocks[1].clone(),
        blocks,
        telemetry,
        submission: workload.stats(),
        submission_records: workload.records().to_vec(),
        forwards: forwarder.records().to_vec(),
        forward_stats: SubmissionStats::of(forwarder.records().iter().map(|f| &f.submission)),
        hop_routes: forwarder.routes().to_vec(),
        relayer_stats,
        rpc_lanes,
        chain_a: testnet.chain_a.clone(),
        chain_b: testnet.chain_b.clone(),
        chains: testnet.chains.clone(),
        path: testnet.path.clone(),
        paths: testnet.paths.clone(),
        path_ends: testnet.path_ends.clone(),
        measurement_start,
        measurement_end,
        workload: workload_config.clone(),
        deployment: deployment.clone(),
        work: WorkProfile::from_counters(&prof::snapshot()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn a_small_run_completes_transfers_end_to_end() {
        let deployment = DeploymentConfig {
            user_accounts: 4,
            relayer_count: 1,
            network_rtt_ms: 0,
            ..DeploymentConfig::default()
        };
        let workload = WorkloadConfig {
            total_transfers: 200,
            submission_blocks: 1,
            measurement_blocks: 4,
            run_to_completion: true,
            completion_grace_blocks: 40,
            ..WorkloadConfig::default()
        };
        let run = run_experiment(&deployment, &workload).expect("pair deployment builds");
        assert_eq!(run.submission.submitted, 200);
        // All 200 transfers eventually acknowledge back on the source chain.
        assert_eq!(
            run.telemetry.count_for_step(TransferStep::AckConfirmation),
            200
        );
        assert!(run.blocks_a.len() >= 4);
        assert!(!run.blocks_b.is_empty());
        assert_eq!(run.blocks.len(), 2);
        assert_eq!(run.blocks[0], run.blocks_a);
        assert!(run.forwards.is_empty());
        assert!(run.measurement_end > run.measurement_start);
        // Funds actually moved: vouchers exist on chain B.
        let voucher = format!("transfer/{}/uatom", run.path.dst_channel);
        let total: u128 = (0..4)
            .map(|i| {
                run.chain_b
                    .borrow()
                    .app()
                    .bank()
                    .balance(&format!("user-{i}").into(), &voucher)
            })
            .sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn a_hub_run_forwards_second_legs_and_conserves_hops() {
        let spokes = 2;
        let deployment = DeploymentConfig {
            user_accounts: 4,
            relayer_count: 1,
            network_rtt_ms: 0,
            topology: Topology::hub_and_spoke(spokes),
            ..DeploymentConfig::default()
        };
        let workload = WorkloadConfig {
            total_transfers: 100,
            submission_blocks: 1,
            measurement_blocks: 4,
            run_to_completion: true,
            completion_grace_blocks: 60,
            // Direct traffic only enters the spoke→hub legs; the forwarder
            // owns the hub→spoke legs.
            channel_weights: vec![1, 1, 0, 0],
            hop_plan: Topology::hub_and_spoke_routes(spokes, 1),
            ..WorkloadConfig::default()
        };
        let run = run_experiment(&deployment, &workload).expect("hub deployment builds");
        assert_eq!(run.chains.len(), spokes + 1);
        assert_eq!(run.hop_routes.len(), spokes);
        assert_eq!(run.submission.submitted, 100);
        // Every first-leg ack spawned a second-leg transfer, and every
        // second leg completed: two acks per transfer overall.
        assert_eq!(run.forward_stats.submitted, 100);
        assert!(run
            .forwards
            .iter()
            .all(|f| f.submission.broadcast_at >= f.triggered_at));
        assert_eq!(
            run.telemetry.count_for_step(TransferStep::AckConfirmation),
            200
        );
    }
}
