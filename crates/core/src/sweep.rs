//! Declarative parameter sweeps executed on a worker pool.
//!
//! A [`SweepGrid`] is a base [`ExperimentSpec`] plus the axes set on it (the
//! axis order is the variant order of the private `Axis` enum, input rate
//! outermost, topology innermost).
//! [`SweepGrid::points`] expands the cartesian product into a deterministic,
//! ordered list of specs; [`run_parallel`] executes any spec list on a
//! `std::thread::scope` worker pool. Because every run is fully determined
//! by its spec (no model draws a random number), a parallel sweep produces
//! outcomes identical to a sequential one — the engine asserts nothing
//! less, and `tests/spec_api.rs` verifies it byte-for-byte.
//!
//! This module is also the single home of the sweep-related environment
//! variables that the bench binaries used to parse individually:
//!
//! * `XCC_FULL_SWEEP` — when set, use the paper's full parameter ranges
//!   ([`SweepMode::from_env`]);
//! * `XCC_SWEEP_THREADS` — worker-pool size ([`worker_threads`]), defaulting
//!   to the machine's available parallelism;
//! * `XCC_OUTPUT` — `text` (default), `json` or `csv` figure output
//!   ([`OutputFormat::from_env`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use xcc_relayer::strategy::{ChannelPolicy, RelayerStrategy, SequenceTracking};

use crate::fault::FaultPlan;
use crate::outcome::ScenarioOutcome;
use crate::scenarios;
use crate::spec::ExperimentSpec;
use crate::topology::Topology;

/// Quick sweeps keep CI fast; full sweeps reproduce the paper's ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepMode {
    /// Reduced parameter ranges (default).
    Quick,
    /// The paper's complete parameter ranges (`XCC_FULL_SWEEP`).
    Full,
}

impl SweepMode {
    /// Reads the mode from the `XCC_FULL_SWEEP` environment variable.
    pub fn from_env() -> Self {
        if std::env::var("XCC_FULL_SWEEP").is_ok() {
            SweepMode::Full
        } else {
            SweepMode::Quick
        }
    }

    /// Picks `full` in full mode, `quick` otherwise.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            SweepMode::Quick => quick,
            SweepMode::Full => full,
        }
    }
}

/// How figure runners emit their results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// The human-readable figure table (default).
    Text,
    /// One JSON document carrying every outcome (spec included).
    Json,
    /// A CSV table, one row per sweep point.
    Csv,
}

impl OutputFormat {
    /// Reads the format from the `XCC_OUTPUT` environment variable.
    pub fn from_env() -> Self {
        match std::env::var("XCC_OUTPUT").as_deref() {
            Ok("json") => OutputFormat::Json,
            Ok("csv") => OutputFormat::Csv,
            _ => OutputFormat::Text,
        }
    }
}

/// The worker-pool size: `XCC_SWEEP_THREADS` if set, otherwise the machine's
/// available parallelism.
pub fn worker_threads() -> usize {
    if let Ok(raw) = std::env::var("XCC_SWEEP_THREADS") {
        if let Ok(n) = raw.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The sweep axes. The variant order is the axis order, stated here once:
/// [`SweepGrid::points`] nests the axes outermost-first in it, applies their
/// values to the spec in it (so the channel policy, frame limit and sequence
/// tracking land on top of the point's `Strategy`) and appends their tags to
/// the point name in it. Adding an axis is one variant here and in
/// [`AxisValue`], one arm in each of its methods, and one setter on
/// [`SweepGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Axis {
    InputRate,
    Channels,
    RttMs,
    SubmissionBlocks,
    Strategy,
    ChannelPolicy,
    FrameLimit,
    SequenceTracking,
    FaultPlan,
    Topology,
}

/// One value on one sweep axis.
#[derive(Debug, Clone, PartialEq)]
enum AxisValue {
    InputRate(u64),
    Channels(usize),
    RttMs(u64),
    SubmissionBlocks(u64),
    Strategy(RelayerStrategy),
    ChannelPolicy(ChannelPolicy),
    FrameLimit(u64),
    SequenceTracking(SequenceTracking),
    FaultPlan(FaultPlan),
    Topology(Topology),
}

impl AxisValue {
    /// `spec` with this value set through the matching spec builder.
    fn apply(&self, spec: ExperimentSpec) -> ExperimentSpec {
        match self {
            AxisValue::InputRate(rate) => spec.input_rate(*rate),
            AxisValue::Channels(count) => spec.channels(*count),
            AxisValue::RttMs(rtt) => spec.rtt_ms(*rtt),
            AxisValue::SubmissionBlocks(blocks) => spec.submission_blocks(*blocks),
            AxisValue::Strategy(strategy) => spec.strategy(*strategy),
            AxisValue::ChannelPolicy(policy) => spec.channel_policy(*policy),
            AxisValue::FrameLimit(bytes) => spec.frame_limit(*bytes),
            AxisValue::SequenceTracking(tracking) => spec.sequence_tracking(*tracking),
            AxisValue::FaultPlan(plan) => spec.fault_plan(plan.clone()),
            AxisValue::Topology(topology) => spec.topology(topology.clone()),
        }
    }

    /// The `/key=value` suffix this value adds to a point's name.
    fn tag(&self) -> String {
        match self {
            AxisValue::InputRate(rate) => format!("/rate={rate}"),
            AxisValue::Channels(count) => format!("/channels={count}"),
            AxisValue::RttMs(rtt) => format!("/rtt={rtt}"),
            AxisValue::SubmissionBlocks(blocks) => format!("/blocks={blocks}"),
            AxisValue::Strategy(strategy) => format!("/strategy={}", strategy.label()),
            AxisValue::ChannelPolicy(policy) => format!("/policy={}", policy.label()),
            AxisValue::FrameLimit(bytes) => format!("/frame={bytes}"),
            AxisValue::SequenceTracking(tracking) => format!("/seqtrack={}", tracking.label()),
            AxisValue::FaultPlan(plan) => format!("/faults={}", plan.label()),
            AxisValue::Topology(topology) => format!("/topo={}", topology.label()),
        }
    }
}

/// A declarative parameter grid over one base spec.
///
/// An axis that was never set (or was set to an empty list) keeps the base
/// spec's value. [`points`](SweepGrid::points) iterates the cartesian product
/// with input rate as the outermost axis and topology as the innermost,
/// whatever order the setters were called in, so outcomes group naturally
/// per configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// The spec every point starts from.
    pub base: ExperimentSpec,
    /// The axes that were set, each non-empty; iterates in axis order.
    axes: BTreeMap<Axis, Vec<AxisValue>>,
}

impl SweepGrid {
    /// A grid with no axes: exactly one point, the base spec itself.
    pub fn new(base: ExperimentSpec) -> Self {
        SweepGrid {
            base,
            axes: BTreeMap::new(),
        }
    }

    /// Sets (or replaces) `axis`; an empty list clears it.
    fn axis<T>(
        mut self,
        axis: Axis,
        values: impl IntoIterator<Item = T>,
        wrap: fn(T) -> AxisValue,
    ) -> Self {
        let values: Vec<AxisValue> = values.into_iter().map(wrap).collect();
        if values.is_empty() {
            self.axes.remove(&axis);
        } else {
            self.axes.insert(axis, values);
        }
        self
    }

    /// Sets the input-rate axis, in transfers per second.
    pub fn input_rates(self, rates: impl IntoIterator<Item = u64>) -> Self {
        self.axis(Axis::InputRate, rates, AxisValue::InputRate)
    }

    /// Sets the channel-count axis (concurrent channels per deployment).
    pub fn channel_counts(self, counts: impl IntoIterator<Item = usize>) -> Self {
        self.axis(Axis::Channels, counts, AxisValue::Channels)
    }

    /// Sets the RTT axis, in milliseconds.
    pub fn rtts_ms(self, rtts: impl IntoIterator<Item = u64>) -> Self {
        self.axis(Axis::RttMs, rtts, AxisValue::RttMs)
    }

    /// Sets the submission-strategy axis: block windows per batch.
    pub fn submission_blocks(self, blocks: impl IntoIterator<Item = u64>) -> Self {
        self.axis(Axis::SubmissionBlocks, blocks, AxisValue::SubmissionBlocks)
    }

    /// Sets the relayer-strategy axis.
    pub fn strategies(self, strategies: impl IntoIterator<Item = RelayerStrategy>) -> Self {
        self.axis(Axis::Strategy, strategies, AxisValue::Strategy)
    }

    /// Sets the channel-policy axis. Sweeping [`ChannelPolicy::Dedicated`]
    /// against [`channel_counts`](SweepGrid::channel_counts) sweeps fleet
    /// topology: dedicated points deploy one relayer process per channel.
    pub fn channel_policies(self, policies: impl IntoIterator<Item = ChannelPolicy>) -> Self {
        self.axis(Axis::ChannelPolicy, policies, AxisValue::ChannelPolicy)
    }

    /// Sets the WebSocket frame-limit axis in bytes (`0` = Tendermint's
    /// 16 MiB default) — the §V deployment limit.
    pub fn frame_limits(self, limits: impl IntoIterator<Item = u64>) -> Self {
        self.axis(Axis::FrameLimit, limits, AxisValue::FrameLimit)
    }

    /// Sets the account-sequence tracking axis — the §V sequence race. Every
    /// point of the axis reports `broadcast_failures`, the race's counter.
    pub fn sequence_trackings(self, modes: impl IntoIterator<Item = SequenceTracking>) -> Self {
        self.axis(Axis::SequenceTracking, modes, AxisValue::SequenceTracking)
    }

    /// Sets the fault-plan axis. Each plan runs as its own point; include
    /// [`FaultPlan::none`] to keep a fault-free control arm in the grid.
    pub fn fault_plans(self, plans: impl IntoIterator<Item = FaultPlan>) -> Self {
        self.axis(Axis::FaultPlan, plans, AxisValue::FaultPlan)
    }

    /// Sets the topology axis. Each graph runs as its own point; include
    /// [`Topology::pair`] to keep the two-chain baseline arm in the grid.
    pub fn topologies(self, topologies: impl IntoIterator<Item = Topology>) -> Self {
        self.axis(Axis::Topology, topologies, AxisValue::Topology)
    }

    /// The number of points the grid expands to.
    pub fn len(&self) -> usize {
        self.axes.values().map(Vec::len).product()
    }

    /// Whether the grid expands to no points (never: it is at least 1).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Expands the grid into an ordered list of specs. Point names extend the
    /// base name with the axis values that produced them, so sweep output is
    /// self-describing.
    pub fn points(&self) -> Vec<ExperimentSpec> {
        let mut points = vec![self.base.clone()];
        for axis in self.axes.values() {
            let mut expanded = Vec::with_capacity(points.len() * axis.len());
            for point in &points {
                for value in axis {
                    let name = format!("{}{}", point.name, value.tag());
                    expanded.push(value.apply(point.clone()).named(name));
                }
            }
            points = expanded;
        }
        points
    }

    /// Runs the whole grid on the default worker pool.
    pub fn run(&self) -> Vec<ScenarioOutcome> {
        run_parallel(&self.points(), worker_threads())
    }
}

/// Runs the specs sequentially, in order.
pub fn run_sequential(specs: &[ExperimentSpec]) -> Vec<ScenarioOutcome> {
    specs.iter().map(scenarios::run).collect()
}

/// Runs the specs on a pool of `threads` workers, returning outcomes in spec
/// order. Every run is deterministic in its spec, so the result is identical
/// to [`run_sequential`] regardless of scheduling.
pub fn run_parallel(specs: &[ExperimentSpec], threads: usize) -> Vec<ScenarioOutcome> {
    let threads = threads.max(1).min(specs.len().max(1));
    if threads <= 1 {
        return run_sequential(specs);
    }

    let next: AtomicUsize = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ScenarioOutcome>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(index) else { break };
                let outcome = scenarios::run(spec);
                // A poisoned slot only means another worker panicked after
                // completing its own point; this point's outcome is still
                // valid, so recover the guard and store it.
                *slots[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
            });
        }
    });

    slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // Every index below `next` was claimed by some worker; if a
                // slot is still empty (a worker died mid-point), recompute it
                // sequentially — determinism makes the rerun identical.
                .unwrap_or_else(|| scenarios::run(&specs[index]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expansion_is_the_cartesian_product_in_order() {
        // Setter call order is irrelevant: rate stays outermost, topology
        // innermost, and a repeated setter replaces the axis.
        let base = ExperimentSpec::relayer_throughput().measurement_blocks(4);
        let grid = SweepGrid::new(base.named("g"))
            .topologies([Topology::line(3)])
            .rtts_ms([0, 200])
            .input_rates([20, 40])
            .topologies([Topology::pair(), Topology::hub_and_spoke(3)]);
        assert_eq!(grid.len(), 8);
        let points = grid.points();
        assert_eq!(points.len(), 8);
        assert_eq!(points[0].name, "g/rate=20/rtt=0/topo=pair");
        assert_eq!(points[1].name, "g/rate=20/rtt=0/topo=hub-3");
        assert_eq!(points[2].name, "g/rate=20/rtt=200/topo=pair");
        assert_eq!(points[7].name, "g/rate=40/rtt=200/topo=hub-3");
        assert_eq!(points[7].deployment.topology, Topology::hub_and_spoke(3));
        assert_eq!(points[7].deployment.network_rtt_ms, 200);
        assert_eq!(points[7].workload.transfers_per_window(), 200);
    }

    #[test]
    fn empty_axes_keep_the_base_spec() {
        let base = ExperimentSpec::latency().transfers(100);
        let grid = SweepGrid::new(base.clone());
        assert_eq!(grid.len(), 1);
        assert_eq!(grid.points(), vec![base]);
        // An empty list clears an axis that was set earlier.
        assert_eq!(grid.clone().rtts_ms([0, 200]).rtts_ms([]), grid);
    }

    #[test]
    fn channel_and_frame_axes_expand_like_any_other() {
        let grid = SweepGrid::new(
            ExperimentSpec::relayer_throughput()
                .input_rate(20)
                .measurement_blocks(3),
        )
        .channel_counts([1, 2])
        .frame_limits([0, 1 << 20]);
        assert_eq!(grid.len(), 4);
        let points = grid.points();
        assert_eq!(points[0].name, "relayer_throughput/channels=1/frame=0");
        assert_eq!(
            points[3].name,
            "relayer_throughput/channels=2/frame=1048576"
        );
        assert_eq!(points[3].deployment.channel_count, 2);
        assert_eq!(
            points[3].deployment.relayer_strategy.ws_frame_limit_bytes,
            1 << 20
        );
        // Frame limits compose with the strategy axis.
        let composed = SweepGrid::new(ExperimentSpec::relayer_throughput())
            .strategies([RelayerStrategy::batched_pulls()])
            .frame_limits([4096])
            .points();
        assert_eq!(
            composed[0].deployment.relayer_strategy,
            RelayerStrategy::batched_pulls().frame_limit(4096)
        );
    }

    #[test]
    fn sequence_tracking_axis_expands_like_any_other() {
        let grid = SweepGrid::new(
            ExperimentSpec::relayer_throughput()
                .input_rate(20)
                .measurement_blocks(3),
        )
        .sequence_trackings([SequenceTracking::Resync, SequenceTracking::MempoolAware]);
        assert_eq!(grid.len(), 2);
        let points = grid.points();
        assert_eq!(points[0].name, "relayer_throughput/seqtrack=resync");
        assert_eq!(points[1].name, "relayer_throughput/seqtrack=mempool");
        assert_eq!(
            points[1].deployment.relayer_strategy.sequence_tracking,
            SequenceTracking::MempoolAware
        );
        // Every point of the tracking axis reports the race's counter.
        assert!(points
            .iter()
            .all(|p| p.deployment.report_broadcast_failures));
        // The tracking mode composes with the strategy axis.
        let composed = SweepGrid::new(ExperimentSpec::relayer_throughput())
            .strategies([RelayerStrategy::batched_pulls()])
            .sequence_trackings([SequenceTracking::MempoolAware])
            .points();
        assert_eq!(
            composed[0].deployment.relayer_strategy,
            RelayerStrategy::batched_pulls().sequence_tracking(SequenceTracking::MempoolAware)
        );
    }

    #[test]
    fn fault_plan_axis_expands_with_control_arm_and_labels() {
        use crate::fault::{FaultEvent, FaultPlan};
        use xcc_sim::SimDuration;

        let crash_plan = FaultPlan::new([
            FaultEvent::RelayerCrash {
                relayer: 0,
                at: SimDuration::from_secs(16),
            },
            FaultEvent::RelayerRestart {
                relayer: 0,
                at: SimDuration::from_secs(26),
            },
        ]);
        let grid = SweepGrid::new(
            ExperimentSpec::relayer_throughput()
                .input_rate(20)
                .measurement_blocks(3),
        )
        .fault_plans([FaultPlan::none(), crash_plan.clone()])
        .rtts_ms([0, 200]);
        assert_eq!(grid.len(), 4);
        let points = grid.points();
        assert_eq!(points[0].name, "relayer_throughput/rtt=0/faults=none");
        assert_eq!(
            points[3].name,
            "relayer_throughput/rtt=200/faults=crash0@16s+restart0@26s"
        );
        assert!(points[0].deployment.fault_plan.is_empty());
        assert_eq!(points[3].deployment.fault_plan, crash_plan);
        assert_eq!(points[3].deployment.network_rtt_ms, 200);
    }

    #[test]
    fn topology_axis_expands_with_pair_control_arm_and_labels() {
        let grid = SweepGrid::new(
            ExperimentSpec::relayer_throughput()
                .input_rate(20)
                .measurement_blocks(3),
        )
        .topologies([Topology::pair(), Topology::hub_and_spoke(3)])
        .rtts_ms([0, 200]);
        assert_eq!(grid.len(), 4);
        let points = grid.points();
        assert_eq!(points[0].name, "relayer_throughput/rtt=0/topo=pair");
        assert_eq!(points[3].name, "relayer_throughput/rtt=200/topo=hub-3");
        assert!(points[0].deployment.topology.is_legacy_pair());
        assert_eq!(points[3].deployment.topology, Topology::hub_and_spoke(3));
        assert_eq!(points[3].deployment.network_rtt_ms, 200);
    }

    #[test]
    fn parallel_matches_sequential_for_a_small_grid() {
        let grid = SweepGrid::new(
            ExperimentSpec::relayer_throughput()
                .measurement_blocks(3)
                .rtt_ms(0),
        )
        .input_rates([10, 20])
        .channel_counts([1, 2]);
        let specs = grid.points();
        let sequential = run_sequential(&specs);
        let parallel = run_parallel(&specs, 4);
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.len(), 4);
    }

    #[test]
    fn mode_pick_selects_by_variant() {
        assert_eq!(SweepMode::Quick.pick(1, 2), 1);
        assert_eq!(SweepMode::Full.pick(1, 2), 2);
    }
}
