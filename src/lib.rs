//! Umbrella crate for the IBC performance reproduction workspace.
//!
//! Re-exports every sub-crate under a single dependency so the examples,
//! integration tests and downstream users can reach the whole stack through
//! one import:
//!
//! * [`sim`] — discrete-event simulation kernel;
//! * [`tendermint`] — Tendermint-like consensus substrate;
//! * [`chain`] — Cosmos-SDK-like application chain;
//! * [`ibc`] — the IBC protocol (clients, connections, channels, ICS-20);
//! * [`rpc`] — the sequential Tendermint RPC / WebSocket model;
//! * [`relayer`] — the Hermes-like relayer;
//! * [`framework`] — the paper's cross-chain benchmarking framework.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub use xcc_chain as chain;
pub use xcc_framework as framework;
pub use xcc_ibc as ibc;
pub use xcc_relayer as relayer;
pub use xcc_rpc as rpc;
pub use xcc_sim as sim;
pub use xcc_tendermint as tendermint;
