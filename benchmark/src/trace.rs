//! The traced run: the harness's own two-chain driver, calling the layers'
//! public functions in the order `xcc_framework::runner::run_experiment`
//! does, with an in-memory span around each call.
//!
//! The spans are recorded from outside the program — nothing in the
//! simulator knows it is being traced — so the per-layer host times exist
//! before any in-program tracing does. The price is a second copy of the
//! runner's event loop, and a copy can drift: the [`Digest`] is compared between
//! every traced run and the untraced run of the same spec, and the harness
//! refuses to report spans that describe a different run.
//!
//! The driver covers what the benchmark's workloads use: one edge between
//! two chains, no fault plan, no hop plan.

use std::collections::BTreeMap;

use xcc_bench::timing::Stopwatch;
use xcc_chain::chain::SharedChain;
use xcc_framework::runner::{BlockRecord, RunOutput};
use xcc_framework::scenarios;
use xcc_framework::spec::ExperimentSpec;
use xcc_framework::testnet::{make_rpc, SetupError, Testnet};
use xcc_framework::work::WorkProfile;
use xcc_framework::workload::{SubmissionStats, WorkloadConnector};
use xcc_ibc::events as ibc_events;
use xcc_relayer::telemetry::{TelemetryLog, TransferStep};
use xcc_sim::{prof, Scheduler, SchedulerBackend, SimTime};

use crate::checks::Digest;

/// The span every other span of a rep hangs under; its duration is the
/// traced total.
pub const ROOT: &str = "run";

/// One recorded interval. Times are host seconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Which traced rep the span belongs to.
    pub rep: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans in memory; nothing is written until the run has ended.
pub struct Tracer {
    watch: Stopwatch,
    spans: Vec<Span>,
    open: Option<usize>,
    rep: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            watch: Stopwatch::start(),
            spans: Vec::new(),
            open: None,
            rep: 0,
        }
    }

    /// Opens the root span of the next rep.
    fn begin_rep(&mut self) {
        let now = self.watch.elapsed_secs();
        self.open = Some(self.spans.len());
        self.spans.push(Span {
            name: ROOT,
            start: now,
            end: now,
            parent: None,
            rep: self.rep,
        });
    }

    /// Closes the rep's root span.
    fn end_rep(&mut self) {
        if let Some(root) = self.open.take() {
            self.spans[root].end = self.watch.elapsed_secs();
        }
        self.rep += 1;
    }

    /// Runs `call` inside a span named `name`, a child of the open root.
    pub fn span<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let start = self.watch.elapsed_secs();
        let out = call();
        let end = self.watch.elapsed_secs();
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open,
            rep: self.rep,
        });
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of completed reps.
    pub fn reps(&self) -> usize {
        self.rep
    }
}

/// Per-rep aggregation of the spans: how the traced total splits by name.
pub struct RepBreakdown {
    /// Duration of the rep's root span.
    pub total: f64,
    /// Summed duration and longest single span per child name.
    pub by_name: Vec<(&'static str, f64, f64)>,
    /// Number of child spans.
    pub spans: usize,
}

impl RepBreakdown {
    /// Summed duration of the spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.entry(name).map_or(0.0, |(_, total, _)| *total)
    }

    /// The longest single span named `name`.
    pub fn longest(&self, name: &str) -> f64 {
        self.entry(name).map_or(0.0, |(_, _, max)| *max)
    }

    fn entry(&self, name: &str) -> Option<&(&'static str, f64, f64)> {
        self.by_name.iter().find(|(n, _, _)| *n == name)
    }

    /// The share of the traced total the child spans cover; the rest is the
    /// root's self time (the driver's own glue between calls).
    pub fn coverage(&self) -> f64 {
        let covered: f64 = self.by_name.iter().map(|(_, total, _)| total).sum();
        if self.total > 0.0 {
            covered / self.total
        } else {
            0.0
        }
    }
}

/// Splits the recorded spans by rep and aggregates each rep by span name.
pub fn breakdowns(spans: &[Span]) -> Vec<RepBreakdown> {
    let mut reps: Vec<RepBreakdown> = Vec::new();
    for span in spans {
        while reps.len() <= span.rep {
            reps.push(RepBreakdown {
                total: 0.0,
                by_name: Vec::new(),
                spans: 0,
            });
        }
        let breakdown = &mut reps[span.rep];
        if span.parent.is_none() {
            breakdown.total = span.secs();
            continue;
        }
        breakdown.spans += 1;
        match breakdown
            .by_name
            .iter_mut()
            .find(|(name, _, _)| *name == span.name)
        {
            Some((_, total, max)) => {
                *total += span.secs();
                *max = max.max(span.secs());
            }
            None => breakdown
                .by_name
                .push((span.name, span.secs(), span.secs())),
        }
    }
    reps
}

/// Renders the spans as a JSON array, one object per span.
pub fn spans_to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \"parent\": {parent}, \"rep\": {}}}{}\n",
            span.name,
            span.start,
            span.end,
            span.rep,
            if i + 1 < spans.len() { "," } else { "" },
        ));
    }
    out.push(']');
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Block(usize),
    Wake(usize),
}

/// Records the broadcast time of every packet a committed workload
/// transaction sent (the runner's `attach_broadcast`).
fn attach_broadcasts(
    telemetry: &mut TelemetryLog,
    chain: &SharedChain,
    workload: &WorkloadConnector,
) {
    let chain = chain.borrow();
    for record in workload.records().iter().filter(|r| r.accepted) {
        let Some((_, _, result)) = chain.find_tx(&record.tx_hash) else {
            continue;
        };
        for event in &result.events {
            if event.kind != ibc_events::SEND_PACKET {
                continue;
            }
            if let Some(packet) = ibc_events::packet_from_event(event) {
                telemetry.record_on(
                    record.channel as u64,
                    packet.sequence,
                    TransferStep::TransferBroadcast,
                    record.broadcast_at,
                );
            }
        }
    }
}

/// Fills receive / acknowledgement confirmations from committed block data
/// for packets whose events no relayer delivered (the runner's
/// `backfill_confirmations`, for the single edge `0 → 1`).
fn backfill_confirmations(
    telemetry: &mut TelemetryLog,
    testnet: &Testnet,
    blocks: &[Vec<BlockRecord>],
) {
    for (c, records) in blocks.iter().enumerate() {
        let chain = testnet.chains[c].borrow();
        let (kind, step) = if c == 1 {
            (ibc_events::WRITE_ACK, TransferStep::RecvConfirmation)
        } else {
            (ibc_events::ACK_PACKET, TransferStep::AckConfirmation)
        };
        for record in records {
            let Some(block) = chain.block_at(record.height) else {
                continue;
            };
            let events = block
                .results
                .iter()
                .filter(|r| r.is_ok())
                .flat_map(|r| &r.events)
                .filter(|e| e.kind == kind);
            for event in events {
                let channel = testnet.paths.iter().position(|p| {
                    let end = if c == 1 {
                        &p.dst_channel
                    } else {
                        &p.src_channel
                    };
                    ibc_events::is_for_channel(event, &p.port, end)
                });
                let (Some(channel), Some(packet)) = (channel, ibc_events::packet_from_event(event))
                else {
                    continue;
                };
                let channel = channel as u64;
                if telemetry
                    .step_time_on(channel, packet.sequence, step)
                    .is_none()
                {
                    telemetry.record_on(channel, packet.sequence, step, record.committed_at);
                }
            }
        }
    }
}

/// Packets sent on any path whose commitment is still outstanding (the
/// runner's per-block drain check).
fn outstanding_packets(testnet: &Testnet) -> usize {
    let chain = testnet.chains[0].borrow();
    let ibc = chain.app().ibc();
    testnet
        .paths
        .iter()
        .map(|path| {
            let sent = ibc.sent_sequences(&path.port, &path.src_channel);
            ibc.unacknowledged_packets(&path.port, &path.src_channel, &sent)
                .len()
        })
        .sum()
}

/// Drives `spec` through the layers' public functions under `tracer`, as one
/// rep, and returns the digest the untraced run must match.
///
/// # Panics
///
/// Panics on a spec outside the driver's coverage (more than two chains, a
/// fault plan or a hop plan): tracing it would silently describe less than
/// the runner does.
pub fn traced_run(spec: &ExperimentSpec, tracer: &mut Tracer) -> Result<Digest, SetupError> {
    let deployment = spec.resolved_deployment();
    let config = &spec.workload;
    assert!(
        deployment.fault_plan.is_empty() && config.hop_plan.is_empty(),
        "the traced driver replays fault-free, hop-free specs only"
    );

    tracer.begin_rep();
    prof::reset();
    let mut testnet = tracer.span("framework.testnet_build_s", || {
        Testnet::try_build(&deployment)
    })?;
    assert_eq!(
        testnet.chains.len(),
        2,
        "the traced driver replays the two-chain pair only"
    );
    let rpc = make_rpc(
        &testnet.chains[0],
        &deployment,
        &testnet.rng,
        "workload-cli",
    );
    let mut workload = WorkloadConnector::with_paths(
        config.clone(),
        testnet.paths.clone(),
        rpc,
        deployment.user_accounts,
    );

    let min_interval = deployment.min_block_interval;
    let mut sched: Scheduler<Ev> = Scheduler::with_backend(SchedulerBackend::Heap);
    tracer.span("sim.scheduler_s", || {
        for c in 0..2 {
            sched.schedule_at(SimTime::ZERO + min_interval, Ev::Block(c));
        }
    });

    let mut blocks: Vec<Vec<BlockRecord>> = vec![Vec::new(), Vec::new()];
    let mut last_commit = [SimTime::ZERO; 2];
    let mut measurement_start = SimTime::ZERO;
    let mut measurement_end = SimTime::ZERO;
    let dest_height = testnet.chains[1].borrow().height();
    tracer.span("framework.workload_submit_s", || {
        workload.submit_window(SimTime::ZERO, dest_height)
    });

    let target_blocks = config.measurement_blocks;
    let mut source_running = true;
    // Relayer wakes in the scheduler, per instant (the runner's `wakes_due`).
    let mut wakes_due: BTreeMap<SimTime, usize> = BTreeMap::new();

    while let Some((t, ev)) = tracer.span("sim.scheduler_s", || sched.pop()) {
        match ev {
            // The runner's yield rule: a block popping while wakes are
            // pending at the same instant goes behind them.
            Ev::Block(_) if wakes_due.contains_key(&t) => {
                tracer.span("sim.scheduler_s", || sched.schedule_at(t, ev));
            }
            Ev::Block(c) => {
                let span = if c == 0 {
                    "chain.produce_block_src_s"
                } else {
                    "chain.produce_block_dst_s"
                };
                let outcome = tracer.span(span, || testnet.chains[c].borrow_mut().produce_block(t));
                blocks[c].push(BlockRecord {
                    height: outcome.height,
                    proposed_at: t,
                    committed_at: outcome.committed_at,
                    tx_count: outcome.tx_count,
                    events: outcome.included_messages,
                    interval: outcome.committed_at - last_commit[c],
                });
                last_commit[c] = outcome.committed_at;

                for id in 0..testnet.relayers.len() {
                    tracer.span("relayer.wake_s", || {
                        if c == 0 {
                            testnet.relayers[id]
                                .notify_source_block(outcome.height, outcome.committed_at);
                        } else {
                            testnet.relayers[id]
                                .notify_dest_block(outcome.height, outcome.committed_at);
                        }
                    });
                    tracer.span("sim.scheduler_s", || sched.schedule_at(t, Ev::Wake(id)));
                }
                if !testnet.relayers.is_empty() {
                    *wakes_due.entry(t).or_insert(0) += testnet.relayers.len();
                }

                let next = outcome.committed_at.max(t + min_interval);
                if c == 1 {
                    if source_running {
                        tracer.span("sim.scheduler_s", || sched.schedule_at(next, ev));
                    }
                    continue;
                }
                let measured = blocks[0].len() as u64;
                if measured == 1 {
                    measurement_start = outcome.committed_at;
                }
                if measured == target_blocks {
                    measurement_end = outcome.committed_at;
                }
                if !workload.finished_submitting() {
                    let dest_height = testnet.chains[1].borrow().height();
                    tracer.span("framework.workload_submit_s", || {
                        workload.submit_window(outcome.committed_at, dest_height)
                    });
                }
                let stop = if measured < target_blocks {
                    false
                } else if !config.run_to_completion {
                    true
                } else {
                    let outstanding =
                        tracer.span("framework.drain_check_s", || outstanding_packets(&testnet));
                    (workload.finished_submitting() && outstanding == 0)
                        || measured >= target_blocks + config.completion_grace_blocks
                };
                if !stop {
                    tracer.span("sim.scheduler_s", || sched.schedule_at(next, ev));
                } else {
                    source_running = false;
                    if measurement_end == SimTime::ZERO {
                        measurement_end = outcome.committed_at;
                    }
                }
            }
            Ev::Wake(id) => {
                prof::bump_relayer_wake();
                if let Some(pending) = wakes_due.get_mut(&t) {
                    *pending -= 1;
                    if *pending == 0 {
                        wakes_due.remove(&t);
                    }
                }
                let next = tracer.span("relayer.wake_s", || testnet.relayers[id].wake(t));
                if let Some(next) = next {
                    let at = next.max(t);
                    tracer.span("sim.scheduler_s", || sched.schedule_at(at, Ev::Wake(id)));
                    *wakes_due.entry(at).or_insert(0) += 1;
                }
            }
        }
    }

    let (run, outcome) = {
        let (telemetry, relayer_stats, rpc_lanes) = tracer.span("framework.collect_s", || {
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
            attach_broadcasts(&mut telemetry, &testnet.chains[0], &workload);
            backfill_confirmations(&mut telemetry, &testnet, &blocks);
            (telemetry, relayer_stats, rpc_lanes)
        });
        let run = RunOutput {
            blocks_a: blocks[0].clone(),
            blocks_b: blocks[1].clone(),
            blocks,
            telemetry,
            submission: workload.stats(),
            submission_records: workload.records().to_vec(),
            forwards: Vec::new(),
            forward_stats: SubmissionStats::default(),
            hop_routes: Vec::new(),
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
            workload: config.clone(),
            deployment: deployment.clone(),
            work: WorkProfile::from_counters(&prof::snapshot()),
        };
        let outcome = tracer.span("framework.analysis_s", || {
            scenarios::outcome_from(spec, &run)
        });
        (run, outcome)
    };
    let digest = Digest::of(&run, &outcome);
    tracer.span("framework.teardown_s", || {
        drop((run, outcome, testnet, workload, sched))
    });
    tracer.end_rep();
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_aggregate_per_rep_and_name() {
        let mut tracer = Tracer::new();
        for _ in 0..2 {
            tracer.begin_rep();
            tracer.span("a", || ());
            tracer.span("b", || ());
            tracer.span("a", || ());
            tracer.end_rep();
        }
        assert_eq!(tracer.reps(), 2);
        let reps = breakdowns(tracer.spans());
        assert_eq!(reps.len(), 2);
        for rep in &reps {
            assert_eq!(rep.spans, 3);
            assert_eq!(rep.by_name.len(), 2);
            assert!(rep.secs("a") >= rep.longest("a"));
            assert_eq!(rep.secs("missing"), 0.0);
            assert!(rep.coverage() <= 1.0 + 1e-9);
        }
        // Children point at their rep's root, roots at nothing.
        let spans = tracer.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[4].parent, None);
        assert_eq!(spans[5].parent, Some(4));
        assert_eq!(spans[5].rep, 1);
    }

    #[test]
    fn spans_render_as_a_json_array() {
        let mut tracer = Tracer::new();
        tracer.begin_rep();
        tracer.span("a", || ());
        tracer.end_rep();
        let parsed: serde_json::Value =
            serde_json::from_str(&spans_to_json(tracer.spans())).expect("valid JSON");
        assert_eq!(parsed.as_seq().map(<[_]>::len), Some(2));
    }

    #[test]
    fn the_traced_driver_reproduces_the_runner_exactly() {
        // A small relayed stream and a small lossy drain: between them every
        // arm of the driver (yield rule, drain check, backfill) runs.
        let specs = [
            ExperimentSpec::relayer_throughput()
                .input_rate(20)
                .rtt_ms(200)
                .measurement_blocks(4),
            ExperimentSpec::latency()
                .transfers(400)
                .rtt_ms(200)
                .frame_limit(16 * 1024)
                .packet_clearing(2),
        ];
        for spec in specs {
            let run = scenarios::try_run_raw(&spec).expect("runs");
            let outcome = scenarios::outcome_from(&spec, &run);
            let untraced = Digest::of(&run, &outcome);
            let traced = traced_run(&spec, &mut Tracer::new()).expect("runs");
            assert_eq!(traced.diff(&untraced), Vec::<String>::new());
        }
    }
}
