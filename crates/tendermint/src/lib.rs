//! Tendermint-like BFT blockchain substrate.
//!
//! This crate provides the consensus-layer building blocks the paper's
//! testbed runs on: block structures (header, data, last commit — Fig. 1 of
//! the paper; its evidence list is always empty here), validator sets with
//! quorum accounting, consensus limits and a timing model calibrated to the
//! latencies the paper cites (§III-C), all constants, a bounded FIFO mempool
//! (Tendermint's 5,000-transaction limit), an ABCI-style application
//! interface (plus the undo journal applications use to make `DeliverTx`
//! transactional), a full node that produces and executes blocks, and
//! light-client verification used by the IBC client layer.
//!
//! Everything here is a *pure state machine*: nodes never sleep or spawn
//! threads. The experiment driver advances them in virtual time, which is
//! what makes the reproduction deterministic and fast.
//!
//! # Example
//!
//! ```rust
//! use xcc_tendermint::abci::{Application, CheckTxResult, DeliverTxResult};
//! use xcc_tendermint::block::{Header, RawTx};
//! use xcc_tendermint::hash::Hash;
//! use xcc_tendermint::node::Node;
//! use xcc_tendermint::validator::ValidatorSet;
//! use xcc_sim::{SimDuration, SimTime};
//!
//! struct NoopApp;
//! impl Application for NoopApp {
//!     type Decoded = ();
//!     fn check_tx(&mut self, _tx: &()) -> CheckTxResult {
//!         CheckTxResult { code: 0, log: String::new(), gas_wanted: 1, sender: "a".into(), sequence: 0 }
//!     }
//!     fn begin_block(&mut self, _header: &Header) {}
//!     fn deliver_tx(&mut self, _tx: ()) -> DeliverTxResult {
//!         DeliverTxResult { code: 0, log: String::new(), gas_used: 1, gas_wanted: 1, events: vec![] }
//!     }
//!     fn end_block(&mut self, _height: u64) {}
//!     fn commit(&mut self) -> Hash { Hash::ZERO }
//! }
//!
//! let mut node = Node::new(
//!     "demo-chain",
//!     ValidatorSet::with_equal_power(5, 10),
//!     SimDuration::from_secs(5),
//!     NoopApp,
//! );
//! node.submit_tx(RawTx::new(b"hello".to_vec()), (), SimTime::ZERO).unwrap();
//! let outcome = node.produce_block(SimTime::from_secs(5));
//! assert_eq!(outcome.height, 1);
//! assert_eq!(outcome.tx_count, 1);
//! ```

// `Cargo.toml` denies `unsafe_code` here rather than forbidding it: `sha_ni`
// carries the crate's one `unsafe` block under a local `expect` (the call into
// its `#[target_feature]` kernel after CPUID detection). Any other `unsafe`
// fails that `deny`, and every block needs a `// SAFETY:` comment.
#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod abci;
pub mod block;
pub mod hash;
pub mod journal;
pub mod light;
pub mod mempool;
pub mod merkle;
pub mod node;
pub mod params;
#[cfg(target_arch = "x86_64")]
mod sha_ni;
pub mod validator;
pub mod vote;
