//! Named scenario registry: every table and figure of the paper, runnable by
//! name.
//!
//! The registry is a table. Each [`ScenarioEntry`] states its name once and
//! pairs one parameter grid with a renderer that formats the sweep's
//! outcomes the way the paper's table or figure presents them;
//! [`ScenarioEntry::grid`] stamps the name on every point (quick mode runs
//! the grid [`thinned`](SweepGrid::thinned), never a smaller workload) and
//! [`ScenarioEntry::render`] on the report. A row-per-outcome renderer is a
//! list of `Column`s handed to `table`, which derives the header row, the
//! data rows and the report metrics from the same definitions. The `figure`
//! CLI and external callers all go through this registry:
//!
//! ```rust,no_run
//! use xcc_framework::registry;
//! use xcc_framework::sweep::SweepMode;
//!
//! let entry = registry::get("fig8").expect("fig8 is registered");
//! let report = entry.report(SweepMode::Quick);
//! println!("{report}");
//! ```

use xcc_relayer::strategy::{ChannelPolicy, RelayerStrategy, SequenceTracking};
use xcc_sim::SimDuration;

use crate::fault::{FaultChain, FaultEvent, FaultPlan};
use crate::outcome::{keys, ScenarioOutcome};
use crate::report::ExecutionReport;
use crate::spec::ExperimentSpec;
use crate::sweep::{SweepGrid, SweepMode};
use crate::topology::Topology;

/// One named, registered scenario.
pub struct ScenarioEntry {
    /// The registry key (`fig6` … `fig13`, `table1`, the
    /// `*_batched_pulls`-style strategy counterfactuals, the
    /// beyond-the-paper scenarios, `smoke`).
    pub name: &'static str,
    /// One-line description shown by `--list`.
    pub title: &'static str,
    grid: fn() -> SweepGrid,
    render: fn(&mut ExecutionReport, &[ScenarioOutcome]),
}

impl ScenarioEntry {
    /// The parameter grid this scenario sweeps in `mode`: every point in full
    /// mode, the [`thinned`](SweepGrid::thinned) subset of them in quick
    /// mode. Every point's name starts with the scenario's.
    pub fn grid(&self, mode: SweepMode) -> SweepGrid {
        let mut grid = (self.grid)();
        grid.base.name = self.name.to_string();
        match mode {
            SweepMode::Quick => grid.thinned(),
            SweepMode::Full => grid,
        }
    }

    /// Runs the sweep on the default worker pool and returns raw outcomes.
    pub fn run(&self, mode: SweepMode) -> Vec<ScenarioOutcome> {
        self.grid(mode).run()
    }

    /// Formats already-computed outcomes as this scenario's table (no
    /// outcomes, no table: the renderers may rely on a first outcome).
    pub fn render(&self, outcomes: &[ScenarioOutcome]) -> ExecutionReport {
        let mut report = ExecutionReport::new(self.name);
        if !outcomes.is_empty() {
            (self.render)(&mut report, outcomes);
        }
        report
    }

    /// Runs the sweep and renders the figure in one step.
    pub fn report(&self, mode: SweepMode) -> ExecutionReport {
        self.render(&self.run(mode))
    }
}

/// Every registered scenario, in paper order.
pub fn entries() -> &'static [ScenarioEntry] {
    ENTRIES
}

/// Looks a scenario up by name.
pub fn get(name: &str) -> Option<&'static ScenarioEntry> {
    ENTRIES.iter().find(|e| e.name == name)
}

/// The registered name closest to `name` (case-insensitive Levenshtein
/// distance), if any is close enough to plausibly be a typo. Drives the
/// `figure` CLI's "did you mean" hint.
pub fn suggest(name: &str) -> Option<&'static str> {
    let query = name.to_ascii_lowercase();
    ENTRIES
        .iter()
        .map(|e| (edit_distance(&query, e.name), e.name))
        .filter(|(distance, candidate)| *distance <= candidate.len().div_ceil(2))
        .min_by_key(|(distance, _)| *distance)
        .map(|(_, candidate)| candidate)
}

fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut previous: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut current = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let substitute = previous[j] + usize::from(ca != cb);
            current.push(substitute.min(previous[j + 1] + 1).min(current[j] + 1));
        }
        previous = current;
    }
    previous[b.len()]
}

static ENTRIES: &[ScenarioEntry] = &[
    ScenarioEntry {
        name: "fig6",
        title: "Tendermint throughput (TFPS) vs input rate",
        grid: fig6_grid,
        render: fig6_render,
    },
    ScenarioEntry {
        name: "fig7",
        title: "Average block interval vs input rate",
        grid: fig6_grid,
        render: fig7_render,
    },
    ScenarioEntry {
        name: "fig8",
        title: "Cross-chain throughput with one relayer",
        grid: fig8_grid,
        render: relayer_throughput_render,
    },
    ScenarioEntry {
        name: "fig9",
        title: "Cross-chain throughput with two relayers",
        grid: fig9_grid,
        render: relayer_throughput_render,
    },
    ScenarioEntry {
        name: "fig10",
        title: "Completion status, one relayer, 200 ms RTT",
        grid: fig10_grid,
        render: completion_render,
    },
    ScenarioEntry {
        name: "fig11",
        title: "Completion status, two relayers, 200 ms RTT",
        grid: fig11_grid,
        render: completion_render,
    },
    ScenarioEntry {
        name: "fig12",
        title: "Latency breakdown of one large batch",
        grid: fig12_grid,
        render: fig12_render,
    },
    ScenarioEntry {
        name: "fig13",
        title: "Completion latency vs submission strategy",
        grid: fig13_grid,
        render: fig13_render,
    },
    ScenarioEntry {
        name: "table1",
        title: "Tendermint throughput execution summary",
        grid: table1_grid,
        render: table1_render,
    },
    ScenarioEntry {
        name: "fig8_batched_pulls",
        title: "Fig. 8 counterfactual: batched data pulls",
        grid: fig8_batched_grid,
        render: relayer_throughput_render,
    },
    ScenarioEntry {
        name: "fig11_coordinated",
        title: "Fig. 11 counterfactual: partitioned relayers",
        grid: fig11_coordinated_grid,
        render: completion_render,
    },
    ScenarioEntry {
        name: "fig12_parallel_fetch",
        title: "Fig. 12 counterfactual: concurrent data pulls",
        grid: fig12_parallel_grid,
        render: fig12_render,
    },
    ScenarioEntry {
        name: "fig13_adaptive_submission",
        title: "Fig. 13 counterfactual: adaptive relayer batching",
        grid: fig13_adaptive_grid,
        render: fig13_render,
    },
    ScenarioEntry {
        name: "multi_channel_scaling",
        title: "Cross-chain throughput vs concurrent channel count",
        grid: multi_channel_grid,
        render: multi_channel_render,
    },
    ScenarioEntry {
        name: "frame_limit_sweep",
        title: "WebSocket frame limit × packet clearing as sweep axes",
        grid: frame_limit_grid,
        render: frame_limit_render,
    },
    ScenarioEntry {
        name: "channel_contention",
        title: "Weighted multi-channel load under channel policies",
        grid: channel_contention_grid,
        render: channel_contention_render,
    },
    ScenarioEntry {
        name: "sequence_race",
        title: "§V account-sequence race: resync vs mempool-aware tracking",
        grid: sequence_race_grid,
        render: sequence_race_render,
    },
    ScenarioEntry {
        name: "dedicated_scaling",
        title: "Dedicated per-channel relayer fleet vs one shared process",
        grid: dedicated_scaling_grid,
        render: dedicated_scaling_render,
    },
    ScenarioEntry {
        name: "relayer_crash",
        title: "Relayer crash/restart: recovery via packet clearing",
        grid: relayer_crash_grid,
        render: relayer_crash_render,
    },
    ScenarioEntry {
        name: "chain_halt",
        title: "Source-chain halt and block stretch vs steady state",
        grid: chain_halt_grid,
        render: chain_halt_render,
    },
    ScenarioEntry {
        name: "client_expiry",
        title: "Light-client expiry stranding a channel mid-run",
        grid: client_expiry_grid,
        render: client_expiry_render,
    },
    ScenarioEntry {
        name: "hub_spoke_scaling",
        title: "Hub-and-spoke topology with multi-hop relaying vs one pair",
        grid: hub_spoke_grid,
        render: hub_spoke_render,
    },
    ScenarioEntry {
        name: "mesh_contention",
        title: "Full-mesh topology under uniform load vs one pair",
        grid: mesh_contention_grid,
        render: mesh_contention_render,
    },
    ScenarioEntry {
        name: "smoke",
        title: "Cheap end-to-end run for CI smoke checks",
        grid: smoke_grid,
        render: completion_render,
    },
];

// ---------------------------------------------------------------------------
// Grids (the paper's parameter ranges; quick mode thins them, see `grid`)
// ---------------------------------------------------------------------------

/// The base every relayer-throughput grid starts from: `relayers` instances
/// at `rtt_ms`, measured over `blocks` source blocks, seed 42.
fn relayed(relayers: usize, rtt_ms: u64, blocks: u64) -> ExperimentSpec {
    ExperimentSpec::relayer_throughput()
        .relayers(relayers)
        .rtt_ms(rtt_ms)
        .measurement_blocks(blocks)
        .seed(42)
}

/// Figs. 8–11's sweep: `relayers` instances at `rtt_ms` over 20–300 rps in
/// 20 rps steps, each point measured over the paper's 50 source blocks.
fn relayed_rates(relayers: usize, rtt_ms: u64) -> SweepGrid {
    SweepGrid::new(relayed(relayers, rtt_ms, 50)).input_rates((20..=300).step_by(20))
}

/// Figs. 6 and 7: one chain-only sweep, two views of its outcomes.
fn fig6_grid() -> SweepGrid {
    SweepGrid::new(ExperimentSpec::tendermint_throughput().seed(42)).input_rates([
        250, 500, 750, 1_000, 2_000, 3_000, 4_000, 5_000, 6_000, 7_000, 8_000, 9_000, 10_000,
        11_000, 12_000, 13_000,
    ])
}

fn fig8_grid() -> SweepGrid {
    relayed_rates(1, 0).rtts_ms([0, 200])
}

fn fig9_grid() -> SweepGrid {
    relayed_rates(2, 0).rtts_ms([0, 200])
}

fn fig10_grid() -> SweepGrid {
    relayed_rates(1, 200)
}

fn fig11_grid() -> SweepGrid {
    relayed_rates(2, 200)
}

fn fig12_grid() -> SweepGrid {
    SweepGrid::new(
        ExperimentSpec::latency()
            .transfers(5_000)
            .submission_blocks(1)
            .rtt_ms(200)
            .seed(42),
    )
}

fn fig13_grid() -> SweepGrid {
    SweepGrid::new(
        ExperimentSpec::latency()
            .transfers(5_000)
            .rtt_ms(200)
            .seed(42),
    )
    .submission_blocks([1, 2, 4, 8, 16, 32, 64])
}

fn table1_grid() -> SweepGrid {
    SweepGrid::new(ExperimentSpec::tendermint_throughput().seed(42)).input_rates([
        250, 1_000, 3_000, 6_000, 9_000, 10_000, 11_000, 12_000, 13_000, 14_000,
    ])
}

// -- strategy counterfactuals: a paper grid plus the one strategy it flips --

/// `grid` with every point running `strategy` instead of the paper's
/// pipeline (set on the base spec, so point names are the paper grid's).
fn with_strategy(mut grid: SweepGrid, strategy: RelayerStrategy) -> SweepGrid {
    grid.base = grid.base.strategy(strategy);
    grid
}

/// Fig. 8's one-relayer sweep with the data pulls batched into one query per
/// flush — probing how much of the ~90 TFPS cap is the chunked block scans.
fn fig8_batched_grid() -> SweepGrid {
    with_strategy(fig8_grid(), RelayerStrategy::batched_pulls())
}

/// Fig. 11's two-relayer completion sweep with sequence-partitioned
/// instances — the redundant-message losses of Figs. 9/11 should vanish.
/// (A one-value strategy axis, so its points carry a `/strategy=` tag.)
fn fig11_coordinated_grid() -> SweepGrid {
    fig11_grid().strategies([RelayerStrategy::coordinated()])
}

/// Fig. 12's latency breakdown with the chunked pulls issued concurrently —
/// probing the sequential-RPC share (~69%) of completion latency.
fn fig12_parallel_grid() -> SweepGrid {
    with_strategy(fig12_grid(), RelayerStrategy::parallel_fetch())
}

/// Fig. 13's submission sweep with the relayer batching adaptively on top —
/// relayer-side generalization of the client-side submission strategies.
fn fig13_adaptive_grid() -> SweepGrid {
    with_strategy(fig13_grid(), RelayerStrategy::adaptive_submission(4))
}

// -- multi-channel and deployment-limit scenarios (beyond the paper) --------

/// Does the ~90 TFPS single-relayer cap (Fig. 8) scale with channels, or is
/// it a per-relayer-process limit? One relayer serves 1/2/4/8 concurrent
/// channels under fair-share scheduling at the same total input rate.
fn multi_channel_grid() -> SweepGrid {
    SweepGrid::new(relayed(1, 200, 15))
        .input_rates([20, 60, 100, 140, 200, 300])
        .channel_counts([1, 2, 4, 8])
}

/// The §V deployment limits as sweep axes: the WebSocket frame limit (`0` =
/// the 16 MiB default) crossed with packet clearing on/off, over one
/// oversized submission window. Clearing is the knob that rescues the 81.8%
/// of transfers the paper reports stuck; the paper's own experiment is the
/// `16MiB*` / `off` row (100,000 transfers in one window).
fn frame_limit_grid() -> SweepGrid {
    SweepGrid::new(
        ExperimentSpec::websocket_limit()
            .transfers(100_000)
            .seed(42),
    )
    .strategies([
        RelayerStrategy::default(),
        RelayerStrategy::default().packet_clearing(4),
    ])
    .frame_limits([1 << 20, 4 << 20, 8 << 20, 0, 64 << 20, 256 << 20])
}

/// Three channels under a skewed 4:1:1 load, one `relayer_count` worth of
/// capacity under each channel policy: fair-share and priority are a single
/// process rotating (or prioritising) the three channels on one packet
/// worker, while `Dedicated` expands into a real fleet of three processes —
/// one per channel, each with its own RPC lanes — so the busy channel no
/// longer queues behind (or ahead of) the idle ones.
fn channel_contention_grid() -> SweepGrid {
    SweepGrid::new(
        relayed(1, 200, 15)
            .channels(3)
            .channel_weights([4, 1, 1])
            .input_rate(120),
    )
    .strategies([
        RelayerStrategy::default(),
        RelayerStrategy::with_channel_policy(ChannelPolicy::Priority),
        RelayerStrategy::with_channel_policy(ChannelPolicy::Dedicated),
    ])
}

/// Does the ~90 TFPS cap break once "more relayers" means more *processes*?
/// `ChannelPolicy` × `channel_count`: the shared arm is the paper's one
/// process serving N channels on one RPC lane pair (flat, as in
/// `multi_channel_scaling`); the dedicated arm deploys one relayer process
/// per channel, each with its own lanes, and scales with the channel count.
fn dedicated_scaling_grid() -> SweepGrid {
    SweepGrid::new(relayed(1, 0, 15).input_rate(200))
        .channel_counts([1, 2, 4, 8])
        .channel_policies([ChannelPolicy::FairShare, ChannelPolicy::Dedicated])
}

/// The §V account-sequence race as a strategy comparison: a sustained load
/// whose relayer flushes straddle destination commits deterministically
/// (seeded), swept over both sequence-tracking arms. Under `Resync` every
/// straddle burns a submission window on a duplicate sequence; under
/// `MempoolAware` the relayer holds the batch one block instead, driving
/// `broadcast_failures` to zero.
fn sequence_race_grid() -> SweepGrid {
    SweepGrid::new(relayed(1, 200, 15).input_rate(100))
        .sequence_trackings([SequenceTracking::Resync, SequenceTracking::MempoolAware])
}

// -- fault-injection scenarios (dependability beyond the paper's testbed) ---
//
// These and the two topology scenarios are the golden sets `goldens --check`
// pulls from the registry, so their sizes are the fixtures' sizes.

/// One relayer crashing mid-run against the no-fault control arm, on a
/// fixed-batch run measured to full completion: relayer 0 dies at 16 s
/// (mid-measurement, with packets in flight) and comes back cold ten seconds
/// — two source blocks — later. Packet clearing every 2 blocks is the
/// recovery mechanism under test: the restarted process re-reads its
/// sequences, replays missed block notices and clears whatever the crash
/// stranded, so every transfer still completes, `double_submitted` and
/// `stranded_packets` stay 0, and `recovery_secs` stays within one clear
/// interval plus a block.
fn relayer_crash_grid() -> SweepGrid {
    SweepGrid::new(
        ExperimentSpec::latency()
            .transfers(240)
            .submission_blocks(4)
            // Far enough past the drain point that the completion cutoff
            // (measurement_end) covers the whole batch in both arms.
            .measurement_blocks(12)
            .rtt_ms(0)
            .packet_clearing(2)
            .seed(42),
    )
    .fault_plans([
        FaultPlan::none(),
        FaultPlan::new([
            FaultEvent::RelayerCrash {
                relayer: 0,
                at: SimDuration::from_secs(16),
            },
            FaultEvent::RelayerRestart {
                relayer: 0,
                at: SimDuration::from_secs(26),
            },
        ]),
    ])
}

/// The source chain halting outright for 20 s, and the gentler variant of the
/// same outage — a 4× block stretch over the same window — against the
/// no-fault control arm. Both push the average block interval up and the
/// measured TFPS down without losing a single transfer.
fn chain_halt_grid() -> SweepGrid {
    let chain = FaultChain::Source;
    let from = SimDuration::from_secs(15);
    let duration = SimDuration::from_secs(20);
    SweepGrid::new(relayed(1, 0, 8).input_rate(20)).fault_plans([
        FaultPlan::none(),
        FaultPlan::new([FaultEvent::ChainHalt {
            chain,
            from,
            duration,
        }]),
        FaultPlan::new([FaultEvent::BlockStretch {
            chain,
            factor: 4,
            from,
            duration,
        }]),
    ])
}

/// The relay path's light client lapsing mid-run against the no-fault control
/// arm: every recv/ack proof fails from 15 s on, so transfers initiated after
/// that strand on the source chain. The timeout window (6 source blocks) is
/// the only rescue still open — as for a real trust-period expiry.
fn client_expiry_grid() -> SweepGrid {
    SweepGrid::new(relayed(1, 200, 8).input_rate(20).timeout_blocks(6)).fault_plans([
        FaultPlan::none(),
        FaultPlan::new([FaultEvent::ClientExpiry {
            path: 0,
            at: SimDuration::from_secs(15),
        }]),
    ])
}

// -- topology scenarios (the chain graph as the experimental variable) ------

/// The fixed batch both topology scenarios share: submitted in one block
/// window and measured to full completion, so the stranding counter is a real
/// invariant (everything must drain) and the aggregate-throughput comparison
/// is a drain-rate comparison.
fn topology_base() -> ExperimentSpec {
    ExperimentSpec::latency()
        .transfers(600)
        .submission_blocks(1)
        .measurement_blocks(12)
        .rtt_ms(0)
        .relayers(1)
        .seed(42)
}

/// A hub and three spokes against the single-pair baseline. The workload
/// submits on the three spoke→hub channels only; the hop plan forwards every
/// first leg at the hub onto a hub→spoke channel, so each transfer is two
/// chained IBC legs. The pair arm keeps the same spec: its weight list
/// truncates to channel 0 and its hop routes reference channels it does not
/// have, so they deactivate — the paper's deployment, untouched. The batch
/// saturates the pair arm's single relayer process (~90 TFPS), which the hub
/// arm splits over three spoke relayers.
fn hub_spoke_grid() -> SweepGrid {
    SweepGrid::new(
        topology_base()
            .channel_weights([1, 1, 1, 0, 0, 0])
            .hop_plan(Topology::hub_and_spoke_routes(3, 1)),
    )
    .topologies([Topology::default(), Topology::hub_and_spoke(3)])
}

/// A 3-chain full mesh (six directed channels, each with its own relayer
/// process) against the single-pair baseline, the batch spread uniformly
/// over every channel. No hop plan: the mesh arm measures pure per-edge
/// contention, not multi-hop routing.
fn mesh_contention_grid() -> SweepGrid {
    SweepGrid::new(topology_base()).topologies([Topology::default(), Topology::full_mesh(3)])
}

/// One cheap, representative end-to-end run (~seconds): CI's smoke check.
fn smoke_grid() -> SweepGrid {
    SweepGrid::new(relayed(1, 0, 4).input_rate(20))
}

// ---------------------------------------------------------------------------
// Tables: one column type, one printer
// ---------------------------------------------------------------------------

/// What one cell shows, and the value its column's metric records for it.
type Cell = (String, Option<f64>);

/// One column of a table whose rows are `R`s (outcomes, or pivot groups of
/// them). The header row, the data rows and the report metrics all derive
/// from this one definition, so a row cannot drift from its header.
struct Column<R> {
    header: String,
    /// Header and cells are right-aligned to this many characters.
    width: usize,
    cell: Box<dyn Fn(&R) -> Cell>,
    /// Metric name, `{}` standing for the row's key: every row whose cell has
    /// a value records it under that name.
    metric: Option<String>,
}

impl<R> Column<R> {
    fn new(header: impl Into<String>, width: usize, cell: impl Fn(&R) -> Cell + 'static) -> Self {
        Column {
            header: header.into(),
            width,
            cell: Box::new(cell),
            metric: None,
        }
    }

    /// A label column: text only, nothing a metric could record.
    fn text<T: ToString>(header: &str, width: usize, get: impl Fn(&R) -> T + 'static) -> Self {
        Self::new(header, width, move |row| (get(row).to_string(), None))
    }

    fn count(header: impl Into<String>, width: usize, get: impl Fn(&R) -> u64 + 'static) -> Self {
        Self::new(header, width, move |row| {
            let n = get(row);
            (n.to_string(), Some(n as f64))
        })
    }

    /// A measurement printed to one decimal.
    fn float(header: impl Into<String>, width: usize, get: impl Fn(&R) -> f64 + 'static) -> Self {
        Self::new(header, width, move |row| {
            let value = get(row);
            (format!("{value:.1}"), Some(value))
        })
    }

    /// A measurement some runs do not emit: those rows print `-`.
    fn optional(header: &str, width: usize, get: impl Fn(&R) -> Option<f64> + 'static) -> Self {
        Self::new(header, width, move |row| {
            let value = get(row);
            (value.map_or("-".into(), |v| format!("{v:.1}")), value)
        })
    }

    fn metric(mut self, template: impl Into<String>) -> Self {
        self.metric = Some(template.into());
        self
    }
}

/// Prints `columns` over `rows`: the header row, one aligned row per `R`,
/// and each column's metric with `key(row)` substituted for its `{}`.
fn table<R, K: ToString>(
    report: &mut ExecutionReport,
    rows: &[R],
    key: impl Fn(&R) -> K,
    columns: &[Column<R>],
) {
    let line = |cells: Vec<String>| cells.join(" | ");
    let pad = |text: &str, column: &Column<R>| format!("{text:>width$}", width = column.width);
    report.add_row(line(columns.iter().map(|c| pad(&c.header, c)).collect()));
    for row in rows {
        let key = key(row).to_string();
        let mut cells = Vec::with_capacity(columns.len());
        for column in columns {
            let (text, value) = (column.cell)(row);
            cells.push(pad(&text, column));
            if let (Some(metric), Some(value)) = (&column.metric, value) {
                report.set_metric(metric.replace("{}", &key), value);
            }
        }
        report.add_row(line(cells));
    }
}

type Col = Column<ScenarioOutcome>;

fn rate_of(outcome: &ScenarioOutcome) -> u64 {
    outcome.input_rate_rps() as u64
}

fn rate_column() -> Col {
    Col::count("rate (rps)", 12, rate_of)
}

/// `count (share%)` of a total — one formatter for both percent tables. The
/// widths its callers pick leave room for full-mode counts next to `100.0%`.
fn count_pct(
    header: &str,
    width: usize,
    count: fn(&ScenarioOutcome) -> u64,
    of: fn(&ScenarioOutcome) -> u64,
) -> Col {
    Col::new(header, width, move |o| {
        let n = count(o);
        let pct = 100.0 * n as f64 / of(o).max(1) as f64;
        (format!("{n} ({pct:>5.1}%)"), Some(n as f64))
    })
}

/// Short per-arm tag for the fault scenarios' metric keys: `baseline` for the
/// empty plan, otherwise the kind of the plan's first event.
fn fault_arm(outcome: &ScenarioOutcome) -> &'static str {
    match outcome.spec.deployment.fault_plan.events.first() {
        None => "baseline",
        Some(FaultEvent::RelayerCrash { .. }) | Some(FaultEvent::RelayerRestart { .. }) => "crash",
        Some(FaultEvent::ChainHalt { .. }) => "halt",
        Some(FaultEvent::BlockStretch { .. }) => "stretch",
        Some(FaultEvent::ClientExpiry { .. }) => "expiry",
    }
}

fn faults_column() -> Col {
    Col::text("faults", 24, |o| o.spec.deployment.fault_plan.label())
}

fn topology_label(outcome: &ScenarioOutcome) -> String {
    outcome.spec.deployment.topology.label()
}

/// One pivot row: the outcomes sharing a row value (a rate, a channel count).
type Group<'a> = (u64, Vec<&'a ScenarioOutcome>);

/// Groups outcomes into pivot rows by `row_of`, in first-seen order.
fn pivot(outcomes: &[ScenarioOutcome], row_of: impl Fn(&ScenarioOutcome) -> u64) -> Vec<Group<'_>> {
    let mut groups: Vec<Group> = Vec::new();
    for outcome in outcomes {
        let row = row_of(outcome);
        match groups.iter_mut().find(|(r, _)| *r == row) {
            Some((_, group)) => group.push(outcome),
            None => groups.push((row, vec![outcome])),
        }
    }
    groups
}

/// A pivot's first column: the value its rows are grouped by.
fn row_column<'a>(header: &str, width: usize) -> Column<Group<'a>> {
    Column::count(header, width, |group: &Group| group.0)
}

/// The pivot row's outcome on `arm`, if the sweep has one.
fn outcome_on<'a>(
    group: &Group<'a>,
    arm: impl Fn(&ScenarioOutcome) -> bool,
) -> Option<&'a ScenarioOutcome> {
    group.1.iter().copied().find(|o| arm(o))
}

/// TFPS of the pivot row's outcome on `arm` (0 when the sweep has none).
fn tfps_on(group: &Group, arm: impl Fn(&ScenarioOutcome) -> bool) -> f64 {
    outcome_on(group, arm).map_or(0.0, |o| o.throughput_tfps())
}

/// A pivot's arm column: [`tfps_on`] `arm`, one cell per row.
fn tfps_column<'a>(
    header: impl Into<String>,
    width: usize,
    arm: impl Fn(&ScenarioOutcome) -> bool + 'static,
) -> Column<Group<'a>> {
    Column::float(header, width, move |group: &Group| tfps_on(group, &arm))
}

// ---------------------------------------------------------------------------
// Renderers (one table per scenario, printed by `figure <name>`)
// ---------------------------------------------------------------------------

fn fig6_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    // One run per rate: no model draws a random number, so a run at another
    // seed would repeat this one.
    report.add_note("Fig. 6 — Tendermint throughput (TFPS) vs input rate, one run per rate");
    let tfps = Col::float("TFPS", 10, ScenarioOutcome::tendermint_throughput_tfps);
    let columns = [rate_column(), tfps.metric("median_tfps_at_{}")];
    table(report, outcomes, rate_of, &columns);
}

fn fig7_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    report.add_note("Fig. 7 — average block interval vs input rate");
    let interval = Col::float("interval (s)", 16, ScenarioOutcome::avg_block_interval_secs);
    let columns = [rate_column(), interval.metric("block_interval_secs_at_{}")];
    table(report, outcomes, rate_of, &columns);
}

/// Figs. 8 and 9: one row per rate with 0 ms and 200 ms columns (and the
/// redundant-message count when more than one relayer serves the channel).
fn relayer_throughput_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    let relayers = outcomes[0].spec.deployment.relayer_count;
    report.add_note(format!(
        "{} — throughput with {relayers} relayer(s) ({} source blocks)",
        report.name, outcomes[0].spec.workload.measurement_blocks
    ));
    let at_rtt = |rtt: u64| move |o: &ScenarioOutcome| o.spec.deployment.network_rtt_ms == rtt;
    let mut columns = vec![
        row_column("rate (rps)", 12),
        tfps_column("0 ms (TFPS)", 14, at_rtt(0)).metric("tfps_lan_at_{}"),
        tfps_column("200 ms (TFPS)", 14, at_rtt(200)).metric("tfps_wan_at_{}"),
    ];
    if relayers > 1 {
        columns.push(Column::count("redundant msgs", 16, move |group: &Group| {
            outcome_on(group, at_rtt(200)).map_or(0, |o| o.redundant_packet_errors())
        }));
    }
    table(report, &pivot(outcomes, rate_of), |group| group.0, &columns);
}

/// Figs. 10 and 11: completion-status breakdown per rate.
fn completion_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    let spec = &outcomes[0].spec;
    report.add_note(format!(
        "{} — completion status, {} relayer(s), {} ms ({} blocks)",
        report.name,
        spec.deployment.relayer_count,
        spec.deployment.network_rtt_ms,
        spec.workload.measurement_blocks
    ));
    let columns = [
        rate_column(),
        Col::count("completed", 10, ScenarioOutcome::completed).metric("completed_at_{}"),
        Col::count("partial", 10, ScenarioOutcome::partial),
        Col::count("initiated", 10, ScenarioOutcome::initiated),
        Col::count("not committed", 14, ScenarioOutcome::not_committed),
    ];
    table(report, outcomes, rate_of, &columns);
}

/// Labelled lines rather than a table: one run, one value per phase.
fn fig12_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    let o = &outcomes[0];
    report.add_note(format!(
        "{} — latency breakdown for {} transfers submitted in one block \
         (paper baseline: Fig. 12)",
        report.name, o.spec.workload.total_transfers
    ));
    report.add_row(format!(
        "completion latency:    {:>8.1} s   (paper, 5,000 transfers: 455 s)",
        o.completion_latency_secs()
    ));
    report.add_row(format!(
        "transfer phase (1-4):  {:>8.1} s   (paper: 126 s / 27.6%)",
        o.transfer_phase_secs()
    ));
    report.add_row(format!(
        "receive phase  (5-9):  {:>8.1} s   (paper: 261 s / 57.3%)",
        o.recv_phase_secs()
    ));
    report.add_row(format!(
        "ack phase    (10-13):  {:>8.1} s   (paper:  68 s / 14.9%)",
        o.ack_phase_secs()
    ));
    report.add_row(format!(
        "transfer data pull:    {:>8.1} s   (paper: 110 s / 24%)",
        o.transfer_pull_secs()
    ));
    report.add_row(format!(
        "recv data pull:        {:>8.1} s   (paper: 207 s / 45%)",
        o.recv_pull_secs()
    ));
    report.add_row(format!(
        "data-pull share:       {:>8.0} %   (paper: ~69%)",
        o.data_pull_share() * 100.0
    ));
    for (key, value) in &o.metrics {
        report.set_metric(key.clone(), *value);
    }
}

fn fig13_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    report.add_note(format!(
        "{} — completion latency vs submission strategy ({} transfers, \
         paper baseline: Fig. 13)",
        report.name, outcomes[0].spec.workload.total_transfers
    ));
    let blocks = |o: &ScenarioOutcome| o.spec.workload.submission_blocks;
    let latency = Col::float(
        "completion latency (s)",
        22,
        ScenarioOutcome::completion_latency_secs,
    );
    let columns = [
        Col::count("blocks", 14, blocks),
        latency.metric("latency_secs_over_{}_blocks"),
    ];
    table(report, outcomes, blocks, &columns);
    report.add_note(
        "paper, 5,000 transfers: 455 / 286 / 219 / 143 / 138 / 240 / 441 s for 1..64 blocks",
    );
}

fn table1_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    report.add_note("Table I — Tendermint throughput execution summary (simulated)");
    let columns = [
        rate_column(),
        Col::count("requests made", 14, ScenarioOutcome::requests_made),
        count_pct(
            "submitted (%)",
            22,
            ScenarioOutcome::submitted,
            ScenarioOutcome::requests_made,
        ),
        count_pct(
            "committed of submitted (%)",
            26,
            ScenarioOutcome::committed,
            ScenarioOutcome::submitted,
        )
        .metric("committed_at_{}"),
    ];
    table(report, outcomes, rate_of, &columns);
}

/// `multi_channel_scaling`: one row per input rate, one TFPS column per
/// channel count.
fn multi_channel_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    report.add_note(format!(
        "{} — TFPS with {} relayer serving N concurrent \
         channels (beyond the paper's single-channel testbed)",
        report.name, outcomes[0].spec.deployment.relayer_count
    ));
    let mut channel_counts: Vec<usize> = outcomes.iter().map(|o| o.channel_count()).collect();
    channel_counts.sort_unstable();
    channel_counts.dedup();
    let mut columns = vec![row_column("rate (rps)", 12)];
    for n in channel_counts {
        let tfps = tfps_column(format!("{n} ch (TFPS)"), 12, move |o| {
            o.channel_count() == n
        });
        columns.push(tfps.metric(format!("tfps_at_{{}}_channels_{n}")));
    }
    table(report, &pivot(outcomes, rate_of), |group| group.0, &columns);
}

/// `frame_limit_sweep`: completion under each frame limit, with and without
/// packet clearing.
fn frame_limit_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    report.add_note(format!(
        "{} — {} transfers in one window; the §V frame limit \
         and packet-clear interval as strategy knobs \
         (paper at 16 MiB, no clearing: 2.5% completed, 81.8% stuck)",
        report.name,
        outcomes[0].requests_made()
    ));
    let limit = |o: &ScenarioOutcome| o.spec.deployment.relayer_strategy.ws_frame_limit_bytes;
    let clear = |o: &ScenarioOutcome| o.spec.deployment.relayer_strategy.packet_clear_interval;
    let columns = [
        Col::text("frame limit", 14, move |o| match limit(o) {
            0 => "16MiB*".to_string(),
            bytes if bytes % (1 << 20) == 0 => format!("{}MiB", bytes >> 20),
            bytes => format!("{bytes}B"),
        }),
        Col::text("clearing", 9, move |o| match clear(o) {
            0 => "off".to_string(),
            blocks => format!("every {blocks}"),
        }),
        count_pct(
            "completed",
            16,
            ScenarioOutcome::completed,
            ScenarioOutcome::requests_made,
        )
        .metric("completed_at_{}"),
        Col::count("stuck", 10, ScenarioOutcome::stuck),
        Col::count("cleared", 10, ScenarioOutcome::packets_cleared),
        Col::count("failures", 8, ScenarioOutcome::event_collection_failures),
    ];
    let key = |o: &ScenarioOutcome| format!("{}_clear_{}", limit(o), clear(o));
    table(report, outcomes, key, &columns);
    report.add_note("* 0 = Tendermint's 16 MiB default frame limit");
}

/// `channel_contention`: one row per channel policy with the aggregate and
/// per-channel completion under a skewed load.
fn channel_contention_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    let first = &outcomes[0];
    report.add_note(format!(
        "{} — {} channels under weighted load {:?}: \
         fair-share / priority are {} shared process(es), dedicated \
         expands into one relayer process per channel",
        report.name,
        first.channel_count(),
        first.spec.workload.channel_weights,
        first.spec.deployment.relayer_count
    ));
    let policy = |o: &ScenarioOutcome| o.spec.deployment.relayer_strategy.channel_policy.label();
    let mut columns = vec![
        Col::text("policy", 12, policy),
        Col::count("completed", 10, ScenarioOutcome::completed).metric("completed_{}"),
        Col::count("redundant msgs", 14, |o| o.redundant_packet_errors()).metric("redundant_{}"),
    ];
    for ch in 0..first.channel_count() {
        columns.push(Col::count(format!("ch{ch}"), 8, move |o| {
            o.completed_on(ch)
        }));
    }
    table(report, outcomes, policy, &columns);
}

/// `dedicated_scaling`: one row per channel count with the shared-process
/// and dedicated-fleet TFPS side by side, plus the scaling ratio.
fn dedicated_scaling_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    report.add_note(format!(
        "{} — {} rps split over N channels: one shared relayer \
         process (the paper's per-process ~90 TFPS cap) vs a dedicated fleet of \
         one process per channel, each with its own RPC lanes",
        report.name,
        rate_of(&outcomes[0])
    ));
    let on = |policy: ChannelPolicy| {
        move |o: &ScenarioOutcome| o.spec.deployment.relayer_strategy.channel_policy == policy
    };
    let scaling = Column::new("scaling", 8, move |group: &Group| {
        let shared = tfps_on(group, on(ChannelPolicy::FairShare));
        let dedicated = tfps_on(group, on(ChannelPolicy::Dedicated));
        let scaling = if shared > 0.0 {
            dedicated / shared
        } else {
            0.0
        };
        (format!("{scaling:.2}x"), Some(scaling))
    });
    let columns = [
        row_column("channels", 10),
        tfps_column("shared (TFPS)", 14, on(ChannelPolicy::FairShare))
            .metric("tfps_shared_channels_{}"),
        tfps_column("dedicated (TFPS)", 17, on(ChannelPolicy::Dedicated))
            .metric("tfps_dedicated_channels_{}"),
        scaling.metric("scaling_at_channels_{}"),
    ];
    let mut rows = pivot(outcomes, |o| o.channel_count() as u64);
    rows.sort_by_key(|(channels, _)| *channels);
    table(report, &rows, |group| group.0, &columns);
}

/// `sequence_race`: one row per sequence-tracking arm, showing what the §V
/// race costs and that mempool-aware tracking eliminates it.
fn sequence_race_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    report.add_note(format!(
        "{} — the §V account-sequence race at {} rps over {} blocks: \
         relayer flushes that straddle a destination commit burn a submission window \
         under committed-state resync; mempool-aware tracking holds the batch instead",
        report.name,
        rate_of(&outcomes[0]),
        outcomes[0].spec.workload.measurement_blocks
    ));
    let tracking =
        |o: &ScenarioOutcome| o.spec.deployment.relayer_strategy.sequence_tracking.label();
    let failures = Col::count(
        "broadcast failures",
        18,
        ScenarioOutcome::broadcast_failures,
    );
    let columns = [
        Col::text("tracking", 10, tracking),
        Col::count("completed", 10, ScenarioOutcome::completed).metric("completed_{}"),
        Col::count("stuck", 10, ScenarioOutcome::stuck),
        failures.metric("broadcast_failures_{}"),
    ];
    table(report, outcomes, tracking, &columns);
}

/// `relayer_crash`: the recovery story in one table — the faulted arm next to
/// its control, with the double-submission and stranding counters that must
/// stay at zero and the recovery clock that must stay within one clear
/// interval.
fn relayer_crash_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    report.add_note(format!(
        "{} — one relayer crashing and restarting cold mid-run, \
         packet clearing every {} blocks as the recovery mechanism \
         (control arm: same batch, no fault)",
        report.name,
        outcomes[0]
            .spec
            .deployment
            .relayer_strategy
            .packet_clear_interval
    ));
    let latency = Col::float("latency (s)", 12, ScenarioOutcome::completion_latency_secs);
    let columns = [
        faults_column(),
        Col::count("completed", 10, ScenarioOutcome::completed).metric("completed_{}"),
        latency.metric("latency_secs_{}"),
        Col::count("double-sub", 11, ScenarioOutcome::double_submitted),
        Col::count("stranded", 9, ScenarioOutcome::stranded_packets),
        Col::optional("recovery (s)", 13, ScenarioOutcome::recovery_secs),
    ];
    table(report, outcomes, fault_arm, &columns);
    // The recovery invariants are the faulted arm's alone, so unkeyed.
    for outcome in outcomes.iter().filter(|o| fault_arm(o) != "baseline") {
        report.set_metric(keys::DOUBLE_SUBMITTED, outcome.double_submitted() as f64);
        report.set_metric(keys::STRANDED_PACKETS, outcome.stranded_packets() as f64);
        if let Some(secs) = outcome.recovery_secs() {
            report.set_metric(keys::RECOVERY_SECS, secs);
        }
    }
}

/// `chain_halt`: block-production faults against the control arm — a halt and
/// a stretch both push the average block interval up and the measured TFPS
/// down, while completion stays intact.
fn chain_halt_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    report.add_note(format!(
        "{} — the source chain halting for 20 s (and, gentler, \
         stretching its block interval 4x over the same window): transfers \
         slow down but none are lost",
        report.name
    ));
    let interval = Col::float("interval (s)", 14, ScenarioOutcome::avg_block_interval_secs);
    let columns = [
        faults_column(),
        Col::count("completed", 10, ScenarioOutcome::completed).metric("completed_{}"),
        interval.metric("block_interval_secs_{}"),
        Col::float("TFPS", 12, ScenarioOutcome::throughput_tfps).metric("tfps_{}"),
    ];
    table(report, outcomes, fault_arm, &columns);
}

/// `client_expiry`: the stranded channel against its control arm — completion
/// collapses after the lapse and the unacknowledged packets pile up on the
/// source chain, with the timeout window as the only rescue.
fn client_expiry_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    report.add_note(format!(
        "{} — the relay path's light client lapsing at 15 s: recv \
         and ack proofs fail from then on, stranding the channel; transfers \
         can still time out after {} source blocks",
        report.name, outcomes[0].spec.workload.timeout_blocks
    ));
    let columns = [
        faults_column(),
        Col::count("completed", 10, ScenarioOutcome::completed).metric("completed_{}"),
        Col::count("stranded", 9, ScenarioOutcome::stranded_packets).metric("stranded_{}"),
        Col::count("stuck", 9, ScenarioOutcome::stuck).metric("stuck_{}"),
    ];
    table(report, outcomes, fault_arm, &columns);
}

/// `hub_spoke_scaling`: the hub arm next to its single-pair control — the
/// aggregate throughput the extra spokes buy, the hub's forwarding volume,
/// and the per-hop latency breakdown of the two chained legs.
fn hub_spoke_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    report.add_note(format!(
        "{} — {} transfers in one window over a hub \
         and three spokes, every transfer forwarded at the hub as a second \
         IBC leg, vs the same spec on the single-pair baseline",
        report.name, outcomes[0].spec.workload.total_transfers
    ));
    let lag = |o: &ScenarioOutcome| o.metric(keys::FORWARD_LAG_SECS);
    let columns = [
        Col::text("topo", 8, topology_label),
        Col::count("completed", 10, ScenarioOutcome::completed).metric("completed_{}"),
        Col::float("TFPS", 10, ScenarioOutcome::throughput_tfps).metric("tfps_{}"),
        Col::count("forwarded", 10, ScenarioOutcome::forwarded),
        Col::optional("hop1 (s)", 9, ScenarioOutcome::hop1_latency_secs),
        Col::optional("hop2 (s)", 9, ScenarioOutcome::hop2_latency_secs),
        Col::optional("lag (s)", 8, lag),
        Col::count("stranded", 9, ScenarioOutcome::stranded_packets).metric("stranded_{}"),
    ];
    table(report, outcomes, topology_label, &columns);
    // The forwarding metrics are the hub arm's alone, so unkeyed.
    let (mut tfps_pair, mut tfps_hub) = (0.0, 0.0);
    for outcome in outcomes {
        if outcome.spec.deployment.topology == Topology::default() {
            tfps_pair = outcome.throughput_tfps();
            continue;
        }
        tfps_hub = outcome.throughput_tfps();
        report.set_metric(keys::FORWARDED, outcome.forwarded() as f64);
        for key in [
            keys::HOP1_LATENCY_SECS,
            keys::HOP2_LATENCY_SECS,
            keys::FORWARD_LAG_SECS,
        ] {
            if let Some(secs) = outcome.metric(key) {
                report.set_metric(key, secs);
            }
        }
    }
    if tfps_pair > 0.0 {
        let scaling = tfps_hub / tfps_pair;
        report.add_row(format!(
            "hub aggregate scaling: {scaling:.2}x over the single-pair baseline"
        ));
        report.set_metric("hub_scaling", scaling);
    }
}

/// `mesh_contention`: the full-mesh arm next to its single-pair control —
/// six relayer fleets sharing the same total input rate, with the stranding
/// and redundancy counters that must stay at zero.
fn mesh_contention_render(report: &mut ExecutionReport, outcomes: &[ScenarioOutcome]) {
    report.add_note(format!(
        "{} — {} transfers spread uniformly over a \
         3-chain full mesh (six directed channels, one relayer process each) \
         vs the same batch on the single-pair baseline",
        report.name, outcomes[0].spec.workload.total_transfers
    ));
    let columns = [
        Col::text("topo", 8, topology_label),
        Col::count("completed", 10, ScenarioOutcome::completed).metric("completed_{}"),
        Col::float("TFPS", 10, ScenarioOutcome::throughput_tfps).metric("tfps_{}"),
        Col::count("redundant msgs", 14, |o| o.redundant_packet_errors()),
        Col::count("stranded", 9, ScenarioOutcome::stranded_packets).metric("stranded_{}"),
    ];
    table(report, outcomes, topology_label, &columns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_parallel;

    #[test]
    fn strategy_scenarios_carry_their_strategy_in_every_point() {
        let cases = [
            ("fig8_batched_pulls", RelayerStrategy::batched_pulls()),
            ("fig11_coordinated", RelayerStrategy::coordinated()),
            ("fig12_parallel_fetch", RelayerStrategy::parallel_fetch()),
            (
                "fig13_adaptive_submission",
                RelayerStrategy::adaptive_submission(4),
            ),
        ];
        for (name, strategy) in cases {
            let entry = get(name).unwrap_or_else(|| panic!("{name} not registered"));
            for point in entry.grid(SweepMode::Quick).points() {
                assert_eq!(
                    point.deployment.relayer_strategy, strategy,
                    "{name} point {} lost its strategy",
                    point.name
                );
            }
        }
        // The paper scenarios keep the default pipeline.
        for point in get("fig8").unwrap().grid(SweepMode::Quick).points() {
            assert_eq!(
                point.deployment.relayer_strategy,
                RelayerStrategy::default()
            );
        }
    }

    #[test]
    fn suggest_finds_close_names_and_rejects_nonsense() {
        assert_eq!(suggest("fig88"), Some("fig8"));
        assert_eq!(suggest("FIG12"), Some("fig12"));
        assert_eq!(suggest("frame_limit"), Some("frame_limit_sweep"));
        assert_eq!(suggest("fig8_batched"), Some("fig8_batched_pulls"));
        assert_eq!(suggest("smok"), Some("smoke"));
        assert_eq!(suggest("completely-unrelated-zzz"), None);
    }

    #[test]
    fn full_grids_are_supersets_of_quick_grids() {
        // Spec for spec, name included, and in the full grid's order: quick
        // mode runs fewer points, never a different workload.
        for entry in entries() {
            let full = entry.grid(SweepMode::Full).points();
            let mut rest = full.iter();
            for point in entry.grid(SweepMode::Quick).points() {
                assert!(
                    rest.any(|f| *f == point),
                    "{}: quick point {} is no full point, or out of order",
                    entry.name,
                    point.name
                );
            }
        }
    }

    #[test]
    fn frame_limit_render_reports_the_cliff_and_the_rescue() {
        // A miniature frame_limit_sweep: one oversized window against a
        // 16 KiB frame, with and without clearing, plus a permissive limit.
        let entry = get("frame_limit_sweep").unwrap();
        let grid = SweepGrid::new(
            ExperimentSpec::websocket_limit()
                .named("frame_limit_sweep")
                .transfers(400)
                .seed(42),
        )
        .strategies([
            RelayerStrategy::default(),
            RelayerStrategy::default().packet_clearing(3),
        ])
        .frame_limits([16 << 10, 64 << 20]);
        let outcomes = run_parallel(&grid.points(), 2);
        assert_eq!(outcomes.len(), 4);
        let report = entry.render(&outcomes);
        assert_eq!(report.rows.len(), 5); // header + 4 rows
                                          // Tight frame, no clearing: stranded. Tight frame, clearing: rescued.
        let stranded = report.metric("completed_at_16384_clear_0").unwrap();
        let cleared = report.metric("completed_at_16384_clear_3").unwrap();
        let permissive = report.metric("completed_at_67108864_clear_0").unwrap();
        assert_eq!(stranded, 0.0);
        assert!(cleared > stranded);
        assert!(permissive > 0.0);
    }

    #[test]
    fn sequence_race_render_shows_the_race_and_the_fix() {
        // A miniature sequence_race: small enough for a unit test, still
        // deterministically straddling destination commits under Resync.
        let entry = get("sequence_race").unwrap();
        let grid = SweepGrid::new(
            ExperimentSpec::relayer_throughput()
                .named("sequence_race")
                .relayers(1)
                .rtt_ms(0)
                .input_rate(40)
                .measurement_blocks(6)
                .seed(42),
        )
        .sequence_trackings([SequenceTracking::Resync, SequenceTracking::MempoolAware]);
        let outcomes = run_parallel(&grid.points(), 2);
        assert_eq!(outcomes.len(), 2);
        let report = entry.render(&outcomes);
        assert_eq!(report.rows.len(), 3); // header + 2 arms
        let resync_failures = report.metric("broadcast_failures_resync").unwrap();
        let mempool_failures = report.metric("broadcast_failures_mempool").unwrap();
        assert!(resync_failures > 0.0, "the repro must exhibit the race");
        assert_eq!(mempool_failures, 0.0, "mempool-aware tracking never fails");
        let resync_completed = report.metric("completed_resync").unwrap();
        let mempool_completed = report.metric("completed_mempool").unwrap();
        assert!(
            mempool_completed >= resync_completed,
            "holding a straddled batch must not lose throughput \
             (mempool {mempool_completed} vs resync {resync_completed})"
        );
    }

    #[test]
    fn dedicated_scaling_render_pairs_the_policy_arms() {
        // A miniature dedicated_scaling point pair: cheap enough for a unit
        // test, the full ≥2× scaling claim is pinned by the fixture test.
        let entry = get("dedicated_scaling").unwrap();
        let grid = SweepGrid::new(
            ExperimentSpec::relayer_throughput()
                .named("dedicated_scaling")
                .relayers(1)
                .rtt_ms(0)
                .input_rate(40)
                .measurement_blocks(3)
                .seed(42),
        )
        .channel_counts([2])
        .channel_policies([ChannelPolicy::FairShare, ChannelPolicy::Dedicated]);
        let points = grid.points();
        assert_eq!(points.len(), 2);
        assert_eq!(
            points[0].name,
            "dedicated_scaling/channels=2/policy=fair-share"
        );
        assert_eq!(
            points[1].deployment.relayer_strategy.channel_policy,
            ChannelPolicy::Dedicated
        );
        let outcomes = run_parallel(&points, 2);
        let report = entry.render(&outcomes);
        assert_eq!(report.rows.len(), 2); // header + 1 channel count
        assert!(report.metric("tfps_shared_channels_2").unwrap() > 0.0);
        assert!(report.metric("tfps_dedicated_channels_2").unwrap() > 0.0);
        assert!(report.metric("scaling_at_channels_2").is_some());
    }

    #[test]
    fn relayer_crash_render_recovers_without_double_submission() {
        // A miniature relayer_crash: crash after the first transfer block,
        // restart two blocks later, clearing on. The full-size recovery bound
        // is pinned by the fixture test; here we check the render contract.
        let entry = get("relayer_crash").unwrap();
        let plan = FaultPlan::new([
            FaultEvent::RelayerCrash {
                relayer: 0,
                at: SimDuration::from_secs(8),
            },
            FaultEvent::RelayerRestart {
                relayer: 0,
                at: SimDuration::from_secs(18),
            },
        ]);
        let grid = SweepGrid::new(
            ExperimentSpec::latency()
                .named("relayer_crash")
                .transfers(120)
                .submission_blocks(3)
                .measurement_blocks(10)
                .rtt_ms(0)
                .packet_clearing(2)
                .seed(42),
        )
        .fault_plans([FaultPlan::none(), plan]);
        let outcomes = run_parallel(&grid.points(), 2);
        assert_eq!(outcomes.len(), 2);
        let report = entry.render(&outcomes);
        assert_eq!(report.rows.len(), 3); // header + 2 arms
                                          // Both arms drain the whole batch: the crash delays, it does not lose.
        assert_eq!(report.metric("completed_baseline"), Some(120.0));
        assert_eq!(report.metric("completed_crash"), Some(120.0));
        assert_eq!(report.metric("double_submitted"), Some(0.0));
        assert_eq!(report.metric("stranded_packets"), Some(0.0));
        assert!(
            report.metric("recovery_secs").unwrap() > 0.0,
            "the crashed arm must observe a post-restart recovery"
        );
        // No cross-arm latency inequality: perhaps surprisingly, the crash
        // arm can beat its control on average latency, because the *baseline*
        // trips the §V account-sequence race (its failed receive txs wait for
        // the clear scan) while the restarted process resyncs its sequence
        // tracker cold and dodges the race. Both arms must report a latency.
        assert!(report.metric("latency_secs_baseline").unwrap() > 0.0);
        assert!(report.metric("latency_secs_crash").unwrap() > 0.0);
    }

    #[test]
    fn chain_halt_render_slows_blocks_but_loses_nothing() {
        let entry = get("chain_halt").unwrap();
        let from = SimDuration::from_secs(8);
        let duration = SimDuration::from_secs(15);
        let grid = SweepGrid::new(
            ExperimentSpec::relayer_throughput()
                .named("chain_halt")
                .relayers(1)
                .rtt_ms(0)
                .input_rate(20)
                .measurement_blocks(6)
                .seed(42),
        )
        .fault_plans([
            FaultPlan::none(),
            FaultPlan::new([FaultEvent::ChainHalt {
                chain: FaultChain::Source,
                from,
                duration,
            }]),
            FaultPlan::new([FaultEvent::BlockStretch {
                chain: FaultChain::Source,
                factor: 4,
                from,
                duration,
            }]),
        ]);
        let outcomes = run_parallel(&grid.points(), 2);
        assert_eq!(outcomes.len(), 3);
        let report = entry.render(&outcomes);
        assert_eq!(report.rows.len(), 4); // header + 3 arms
        let baseline = report.metric("block_interval_secs_baseline").unwrap();
        let halt = report.metric("block_interval_secs_halt").unwrap();
        let stretch = report.metric("block_interval_secs_stretch").unwrap();
        assert!(halt > baseline, "a 15 s halt must show up in the interval");
        assert!(
            stretch > baseline,
            "a 4x stretch must show up in the interval"
        );
        // Production faults delay commits but never lose them: every arm
        // still commits every submitted transfer.
        for outcome in &outcomes {
            assert!(
                outcome.completed() > 0,
                "{} completed nothing",
                outcome.spec.name
            );
            assert_eq!(
                outcome.committed(),
                outcome.submitted(),
                "{} lost committed transfers",
                outcome.spec.name
            );
        }
    }

    #[test]
    fn client_expiry_render_strands_more_and_completes_less_on_the_faulted_arm() {
        let entry = get("client_expiry").unwrap();
        let grid = SweepGrid::new(
            ExperimentSpec::relayer_throughput()
                .named("client_expiry")
                .relayers(1)
                .rtt_ms(0)
                .input_rate(20)
                .measurement_blocks(6)
                .seed(42),
        )
        .fault_plans([
            FaultPlan::none(),
            FaultPlan::new([FaultEvent::ClientExpiry {
                path: 0,
                at: SimDuration::from_secs(8),
            }]),
        ]);
        let outcomes = run_parallel(&grid.points(), 2);
        assert_eq!(outcomes.len(), 2);
        let report = entry.render(&outcomes);
        assert_eq!(report.rows.len(), 3); // header + 2 arms
        assert!(
            report.metric("stranded_expiry").unwrap() > report.metric("stranded_baseline").unwrap(),
            "an expired client must strand more packets than its control"
        );
        assert!(
            report.metric("completed_expiry").unwrap()
                < report.metric("completed_baseline").unwrap(),
            "the stranded channel must complete fewer transfers than its control"
        );
    }

    #[test]
    fn hub_spoke_render_reports_forwarding_and_scaling() {
        // A miniature hub_spoke_scaling: two spokes instead of three, a low
        // rate and a short window. The full-size ≥3-spoke scaling claim is
        // pinned by the fixture test; here we check the render contract.
        let entry = get("hub_spoke_scaling").unwrap();
        let grid = SweepGrid::new(
            ExperimentSpec::latency()
                .named("hub_spoke_scaling")
                .transfers(120)
                .submission_blocks(1)
                .measurement_blocks(8)
                .rtt_ms(0)
                .relayers(1)
                .channel_weights([1, 1, 0, 0])
                .hop_plan(Topology::hub_and_spoke_routes(2, 1))
                .seed(42),
        )
        .topologies([Topology::default(), Topology::hub_and_spoke(2)]);
        let outcomes = run_parallel(&grid.points(), 2);
        assert_eq!(outcomes.len(), 2);
        let report = entry.render(&outcomes);
        assert!(report.metric("tfps_pair").unwrap() > 0.0);
        assert!(report.metric("tfps_hub-2").unwrap() > 0.0);
        assert!(
            report.metric("forwarded").unwrap() > 0.0,
            "the hub arm must forward second legs"
        );
        assert!(report.metric("hop1_latency_secs").is_some());
        assert!(report.metric("hop2_latency_secs").is_some());
        assert!(report.metric("hub_scaling").is_some());
        // No faults: nothing may strand in either arm.
        assert_eq!(report.metric("stranded_pair"), Some(0.0));
        assert_eq!(report.metric("stranded_hub-2"), Some(0.0));
    }

    #[test]
    fn mesh_contention_render_pairs_the_topology_arms() {
        let entry = get("mesh_contention").unwrap();
        let grid = SweepGrid::new(
            ExperimentSpec::latency()
                .named("mesh_contention")
                .transfers(120)
                .submission_blocks(1)
                .measurement_blocks(8)
                .rtt_ms(0)
                .relayers(1)
                .seed(42),
        )
        .topologies([Topology::default(), Topology::full_mesh(3)]);
        let outcomes = run_parallel(&grid.points(), 2);
        assert_eq!(outcomes.len(), 2);
        let report = entry.render(&outcomes);
        assert_eq!(report.rows.len(), 3); // header + 2 arms
        assert!(report.metric("tfps_pair").unwrap() > 0.0);
        assert!(report.metric("tfps_mesh-3").unwrap() > 0.0);
        assert_eq!(report.metric("stranded_mesh-3"), Some(0.0));
    }

    #[test]
    fn rendering_uses_sweep_outcomes() {
        // Tiny synthetic sweep: run the cheapest entry end to end.
        let entry = get("fig7").unwrap();
        let grid = SweepGrid::new(
            ExperimentSpec::tendermint_throughput()
                .named("fig7")
                .seed(1),
        )
        .input_rates([20, 40]);
        let outcomes = run_parallel(&grid.points(), 2);
        let report = entry.render(&outcomes);
        assert_eq!(report.rows.len(), 3); // header + 2 rates
        assert!(report.metric("block_interval_secs_at_20").is_some());
    }
}
