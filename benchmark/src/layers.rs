//! Per-layer numbers that need no tracing: (a) exact counts read off one
//! untraced run's `RunOutput`, and (c) layer drives — public functions of a
//! single layer timed directly on the finished run's own data, with op
//! counts fixed by the workload.

use std::hint::black_box;

use xcc_bench::timing::Stopwatch;
use xcc_chain::tx::Tx;
use xcc_framework::analysis;
use xcc_framework::outcome::ScenarioOutcome;
use xcc_framework::runner::RunOutput;
use xcc_framework::testnet::make_rpc;
use xcc_ibc::commitment::CommitmentStore;
use xcc_ibc::host::packet_commitment_path;
use xcc_ibc::ids::Sequence;
use xcc_relayer::relayer::RelayerStats;
use xcc_relayer::telemetry::{TelemetryLog, TransferStep};
use xcc_rpc::cost::RequestKind;
use xcc_sim::{DetRng, Scheduler, SimTime};
use xcc_tendermint::block::RawTx;
use xcc_tendermint::hash::sha256;
use xcc_tendermint::merkle::MerkleTree;

use crate::metrics::Metrics;
use crate::stats::median;
use crate::workloads::Workload;

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// (a) Exact counts of one run: work done per layer, read off the run's
/// work profile, relayer and lane statistics, block records and final chain
/// state. They repeat exactly from run to run.
pub fn counts(
    workload: &Workload,
    run: &RunOutput,
    outcome: &ScenarioOutcome,
    metrics: &mut Metrics,
) {
    let work = &run.work;
    let records = || run.blocks.iter().flatten();
    let txs_committed: u64 = records().map(|b| b.tx_count as u64).sum();
    let relayers = |field: fn(&RelayerStats) -> u64| -> f64 {
        run.relayer_stats.iter().map(field).sum::<u64>() as f64
    };
    let lanes = || run.rpc_lanes.iter().flat_map(|(src, dst)| [src, dst]);
    let packets_cleared: u64 = run.relayer_stats.iter().map(|s| s.packets_cleared).sum();

    metrics.put_layer("sim.events_popped", work.events_popped as f64);
    metrics.put_layer("tendermint.blocks_committed", records().count() as f64);
    metrics.put_layer("tendermint.txs_committed", txs_committed as f64);
    metrics.put_layer(
        "tendermint.max_block_txs",
        records().map(|b| b.tx_count).max().unwrap_or(0) as f64,
    );
    metrics.put_layer("chain.txs_encoded", work.txs_encoded as f64);
    metrics.put_layer("chain.txs_decoded", work.txs_decoded as f64);
    metrics.put_layer("chain.bytes_serialized", work.bytes_serialized as f64);
    metrics.put_layer(
        "chain.decodes_per_committed_tx",
        ratio(work.txs_decoded, txs_committed),
    );
    metrics.put_layer(
        "ibc.packets_sent",
        analysis::committed_transfers(run) as f64,
    );
    metrics.put_layer(
        "ibc.packets_unacked_final",
        analysis::stranded_packets(run) as f64,
    );
    metrics.put_layer("rpc.calls_total", work.total_rpc_calls() as f64);
    for kind in [
        RequestKind::BroadcastTxSync,
        RequestKind::PacketDataPull,
        RequestKind::AccountQuery,
        RequestKind::UnconfirmedAccountQuery,
        RequestKind::UnreceivedQuery,
        RequestKind::ClientUpdateData,
    ] {
        let calls = work.rpc_calls.get(kind.name()).copied().unwrap_or(0);
        metrics.put_layer(&format!("rpc.calls.{}", kind.name()), calls as f64);
    }
    metrics.put_layer(
        "rpc.lane_busy_sim_s",
        lanes()
            .map(|l| l.busy_time.as_secs_f64())
            .fold(0.0, |a, b| a + b),
    );
    metrics.put_layer(
        "rpc.lane_wait_sim_s",
        lanes()
            .map(|l| l.total_wait.as_secs_f64())
            .fold(0.0, |a, b| a + b),
    );
    metrics.put_layer(
        "rpc.lane_max_backlog_sim_s",
        lanes()
            .map(|l| l.max_backlog.as_secs_f64())
            .fold(0.0, f64::max),
    );
    metrics.put_layer("relayer.wakes", work.relayer_wakes as f64);
    metrics.put_layer("relayer.recv_txs", relayers(|s| s.recv_txs_submitted));
    metrics.put_layer("relayer.ack_txs", relayers(|s| s.ack_txs_submitted));
    metrics.put_layer(
        "relayer.broadcast_failures",
        relayers(|s| s.broadcast_failures),
    );
    metrics.put_layer(
        "relayer.event_collection_failures",
        relayers(|s| s.event_collection_failures),
    );
    metrics.put_layer("relayer.packets_cleared", packets_cleared as f64);
    metrics.put_layer("relayer.clear_scan_visits", work.clear_scan_visits as f64);
    metrics.put_layer(
        "relayer.clear_visits_per_cleared_packet",
        ratio(work.clear_scan_visits, packets_cleared),
    );
    metrics.put_layer("relayer.telemetry_records", work.telemetry_records as f64);
    metrics.put_layer(
        "relayer.telemetry_records_per_transfer",
        ratio(work.telemetry_records, run.submission.requests_made),
    );
    metrics.put_layer(
        "framework.sim_completion_latency_s",
        if workload.drains() {
            outcome.completion_latency_secs()
        } else {
            0.0
        },
    );
}

/// How often each drive repeats its pass; the median pass is reported.
const PASSES: usize = 5;
/// Cap on the packets one pull pass proves: a proof costs O(commitments), so
/// an uncapped pass over the bare chain's 20,000 commitments would take
/// longer than the run it describes.
const PULL_PACKETS: usize = 2_000;
/// Packets per `pull_packet_data` call, the relayer's own chunk size.
const PULL_CHUNK: usize = 50;

/// Median host seconds of `pass` over [`PASSES`] repetitions. `pass` returns
/// the seconds it measured itself, so untimed preparation stays outside.
fn median_pass(mut pass: impl FnMut() -> f64) -> f64 {
    let secs: Vec<f64> = (0..PASSES).map(|_| pass()).collect();
    median(&secs)
}

fn timed<T>(call: impl FnOnce() -> T) -> f64 {
    let watch = Stopwatch::start();
    black_box(call());
    watch.elapsed_secs()
}

fn per_op(secs: f64, ops: usize, scale: f64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        secs * scale / ops as f64
    }
}

const MICROS: f64 = 1e6;
const NANOS: f64 = 1e9;

/// (c) Layer drives on the data of the finished `run`.
pub fn drives(run: &RunOutput, metrics: &mut Metrics) {
    // chain: the tx codec over every committed transaction of both chains.
    let raws: Vec<RawTx> = run
        .chains
        .iter()
        .flat_map(|chain| {
            let chain = chain.borrow();
            (1..=chain.height())
                .filter_map(|h| chain.block_at(h).map(|b| b.block.data.txs.clone()))
                .flatten()
                .collect::<Vec<_>>()
        })
        .collect();
    let decode = median_pass(|| {
        timed(|| {
            for raw in &raws {
                black_box(Tx::decode(raw).expect("committed txs decode"));
            }
        })
    });
    metrics.put_layer(
        "chain.codec_decode_us_per_tx",
        per_op(decode, raws.len(), MICROS),
    );
    let txs: Vec<Tx> = raws
        .iter()
        .map(|raw| Tx::decode(raw).expect("committed txs decode"))
        .collect();
    let encode = median_pass(|| {
        // A clone carries no encode cache, so every pass pays the encoding.
        let fresh: Vec<Tx> = txs.clone();
        timed(|| {
            for tx in &fresh {
                black_box(tx.encode());
            }
        })
    });
    metrics.put_layer(
        "chain.codec_encode_us_per_tx",
        per_op(encode, txs.len(), MICROS),
    );
    drop((raws, txs));

    // rpc: the relayer's data pull and its unreceived filter, on fresh lanes
    // over the finished chains.
    let path = &run.paths[0];
    let (src, dst) = run.path_ends[0];
    let rng = DetRng::new(run.deployment.seed);
    let now = run.chains[src].borrow().last_block_time();
    let height = run.chains[src].borrow().height();
    let (sent, outstanding) = {
        let chain = run.chains[src].borrow();
        let ibc = chain.app().ibc();
        let sent = ibc.sent_sequences(&path.port, &path.src_channel);
        let outstanding = ibc.unacknowledged_packets(&path.port, &path.src_channel, &sent);
        (sent, outstanding)
    };
    let pulled = &outstanding[..outstanding.len().min(PULL_PACKETS)];
    let pull = median_pass(|| {
        let mut lane = make_rpc(&run.chains[src], &run.deployment, &rng, "bench-pull");
        timed(|| {
            for chunk in pulled.chunks(PULL_CHUNK) {
                black_box(lane.pull_packet_data(now, height, &path.port, &path.src_channel, chunk));
            }
        })
    });
    metrics.put_layer(
        "rpc.pull_packet_data_host_us_per_packet",
        per_op(pull, pulled.len(), MICROS),
    );
    const UNRECEIVED_CALLS: usize = 20;
    let unreceived = median_pass(|| {
        let mut lane = make_rpc(&run.chains[dst], &run.deployment, &rng, "bench-unreceived");
        timed(|| {
            for _ in 0..UNRECEIVED_CALLS {
                black_box(lane.unreceived_packets(now, &path.port, &path.dst_channel, &sent));
            }
        })
    });
    metrics.put_layer(
        "rpc.unreceived_query_host_us_per_call",
        per_op(unreceived, UNRECEIVED_CALLS, MICROS),
    );

    // ibc + tendermint: a commitment store and a Merkle tree of as many
    // entries as the run sent packets.
    let entries = sent.len();
    let paths: Vec<String> = (1..=entries as u64)
        .map(|seq| packet_commitment_path(&path.port, &path.src_channel, Sequence::from(seq)))
        .collect();
    let mut store = CommitmentStore::new();
    for (i, commitment_path) in paths.iter().enumerate() {
        store.set(commitment_path.clone(), sha256(&i.to_le_bytes()));
    }
    // One `set` invalidates the memoized tree; the `root` after it pays the
    // rebuild — the cost every block with a new commitment pays.
    const STORE_OPS: usize = 4;
    let rewritten = &paths[..STORE_OPS.min(entries)];
    let set_root = median_pass(|| {
        timed(|| {
            for commitment_path in rewritten {
                store.set(commitment_path.clone(), sha256(commitment_path.as_bytes()));
                black_box(store.root());
            }
        })
    });
    metrics.put_layer(
        "ibc.commitment_set_root_us",
        per_op(set_root, rewritten.len(), MICROS),
    );
    const PROOFS: usize = 500;
    let stride = (entries / PROOFS).max(1);
    let proven: Vec<&String> = paths.iter().step_by(stride).collect();
    black_box(store.root());
    let prove = median_pass(|| {
        timed(|| {
            for commitment_path in &proven {
                black_box(store.prove_membership(commitment_path));
            }
        })
    });
    metrics.put_layer(
        "ibc.commitment_prove_us",
        per_op(prove, proven.len(), MICROS),
    );

    let leaves: Vec<[u8; 8]> = (0..entries as u64).map(u64::to_le_bytes).collect();
    let build = median_pass(|| timed(|| MerkleTree::build(leaves.iter().map(|l| l.as_slice()))));
    metrics.put_layer(
        "tendermint.merkle_build_us_per_leaf",
        per_op(build, entries, MICROS),
    );
    let tree = MerkleTree::build(leaves.iter().map(|l| l.as_slice()));
    let indices: Vec<usize> = (0..entries).step_by(stride).collect();
    let merkle_prove = median_pass(|| {
        timed(|| {
            for index in &indices {
                black_box(tree.prove(*index));
            }
        })
    });
    metrics.put_layer(
        "tendermint.merkle_prove_us",
        per_op(merkle_prove, indices.len(), MICROS),
    );

    // sim: the scheduler alone, far beyond the hundred or so events a run pops.
    const EVENTS: usize = 100_000;
    let scheduler = median_pass(|| {
        let mut sched: Scheduler<u32> = Scheduler::new();
        timed(|| {
            for i in 0..EVENTS as u64 {
                // A fixed multiplicative scramble: out-of-order insertion.
                let at = SimTime::from_nanos(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24);
                sched.schedule_at(at, i as u32);
            }
            while let Some(event) = sched.pop() {
                black_box(event);
            }
        })
    });
    metrics.put_layer(
        "sim.scheduler_ns_per_event",
        per_op(scheduler, EVENTS, NANOS),
    );

    // relayer: telemetry writes and the end-of-run merge, at the run's size.
    let records = run.work.telemetry_records as usize;
    let steps = TransferStep::ALL.len();
    let record = median_pass(|| {
        let mut log = TelemetryLog::new();
        timed(|| {
            for i in 0..records {
                log.record_on(
                    0,
                    Sequence::from((1 + i / steps) as u64),
                    TransferStep::ALL[i % steps],
                    SimTime::from_nanos(i as u64),
                );
            }
        })
    });
    metrics.put_layer(
        "relayer.telemetry_record_ns",
        per_op(record, records, NANOS),
    );
    let merge = median_pass(|| {
        let mut log = TelemetryLog::new();
        timed(|| log.merge_offset(&run.telemetry, 0))
    });
    metrics.put_layer("relayer.telemetry_merge_s", merge);
}
