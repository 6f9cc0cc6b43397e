//! A Hermes-like IBC relayer.
//!
//! The relayer is the paper's "Cross-chain Communicator": an off-chain
//! process that watches both chains' event streams, pulls pending packet data
//! and proofs out of the source chain's RPC endpoint, batches up to 100
//! messages per transaction and submits receive / acknowledgement / timeout
//! transactions to the appropriate chain.
//!
//! Structure (mirroring Fig. 4 of the paper):
//!
//! * [`config::RelayerConfig`] — what a deployment sets per process
//!   (accounts, strategy, fleet position), beside the pipeline constants
//!   nothing varies ([`config::MAX_MSGS_PER_TX`] and three processing costs);
//! * [`strategy::RelayerStrategy`] — the serde-able description of the
//!   pipeline: event source, data fetcher, submission mode, coordination
//!   mode and channel policy. The default reproduces the paper's Hermes
//!   pipeline; the other arms open the paper's "what if?" counterfactuals
//!   (batched/parallel pulls, windowed submission, coordinated instances);
//! * [`stages`] — what each arm does, as methods on the strategy enums
//!   ([`strategy::EventSourceKind::collect_events`],
//!   [`strategy::FetchStrategy::fetch_packet_data`],
//!   [`strategy::SubmissionMode::should_flush`],
//!   [`strategy::CoordinationMode::assigned`],
//!   [`strategy::ChannelPolicy::flush_order`]);
//! * [`relayer::Relayer`] — the thin driver asking the strategy at each
//!   decision, for every channel it serves, including redundant-packet
//!   detection, account-sequence management and timeout relaying. The relay
//!   queue and the timeout watch share one handle on a packet, and from the
//!   queue to the message everything is a move;
//! * [`sequence::SequenceTracker`] — the per-chain account-sequence state
//!   behind the broadcast path, implementing both arms of
//!   [`strategy::SequenceTracking`] (the §V sequence race and its
//!   mempool-aware fix);
//! * [`telemetry::TelemetryLog`] — per-packet timestamps for the 13 steps of
//!   a cross-chain transfer (Fig. 12) plus the error log (redundant packets,
//!   "Failed to collect events", sequence mismatches).
//!
//! Integration tests for the full relaying pipeline live in the workspace
//! `tests/` directory and in the `xcc-framework` crate, which owns the
//! experiment driver that feeds block events to relayer instances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod relayer;
pub mod sequence;
pub mod stages;
pub mod strategy;
pub mod telemetry;

pub use strategy::RelayerStrategy;
