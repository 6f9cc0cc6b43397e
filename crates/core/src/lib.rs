//! The cross-chain performance evaluation framework — the paper's primary
//! contribution (Fig. 5).
//!
//! The framework has the three modules the paper describes:
//!
//! * **Setup** ([`testnet`]): deploys two simulated Cosmos Gaia chains,
//!   opens the IBC clients/connection/channel between them and instantiates
//!   the configured number of Hermes-like relayers (the Cross-chain
//!   Communicator).
//! * **Benchmark** ([`workload`], [`runner`]): the Cross-chain Workload
//!   Connector submits batched `MsgTransfer` workloads through the relayer
//!   CLI path while the experiment driver advances both chains and the
//!   relayers in virtual time.
//! * **Analysis** ([`analysis`], [`report`]): the Cross-chain Data and Event
//!   Connectors collect chain data and relayer telemetry; the Event Processor
//!   aggregates them into the throughput, latency, completion-status and
//!   scalability metrics the paper reports, emitted as execution reports.
//!
//! Experiments are described declaratively: a serializable
//! [`spec::ExperimentSpec`] (built fluently) feeds [`scenarios::run`], which
//! returns the unified [`outcome::ScenarioOutcome`]. The [`sweep`] module
//! expands parameter grids (rates × RTTs × relayers × seeds) and executes
//! them on a worker pool, and [`registry`] names every one of the paper's
//! tables and figures (`"fig6"` … `"fig13"`, `"table1"`, §V's
//! `"frame_limit_sweep"`) so any of them can be regenerated by name.
//!
//! # Example
//!
//! ```rust,no_run
//! use xcc_framework::scenarios;
//! use xcc_framework::spec::ExperimentSpec;
//!
//! // One point of Fig. 8: 60 requests/second, one relayer, 200 ms RTT.
//! let spec = ExperimentSpec::relayer_throughput()
//!     .input_rate(60)
//!     .relayers(1)
//!     .rtt_ms(200)
//!     .measurement_blocks(10)
//!     .seed(42);
//! let outcome = scenarios::run(&spec);
//! println!(
//!     "completed {} transfers at {:.1} TFPS",
//!     outcome.completed(),
//!     outcome.throughput_tfps()
//! );
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod analysis;
pub mod config;
pub mod fault;
pub mod outcome;
pub mod registry;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod spec;
pub mod sweep;
pub mod testnet;
pub mod topology;
pub mod work;
pub mod workload;

pub use fault::{FaultChain, FaultEvent, FaultPlan};
pub use outcome::ScenarioOutcome;
pub use spec::{ExperimentSpec, ScenarioKind};
pub use sweep::{SweepGrid, SweepMode};
pub use topology::{HopRoute, Topology, TopologyEdge};
pub use work::WorkProfile;
