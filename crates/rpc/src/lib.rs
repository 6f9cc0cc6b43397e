//! Simulated Tendermint RPC and WebSocket endpoints.
//!
//! The paper's headline finding is that cross-chain relaying spends roughly
//! 69% of its time waiting for the blockchain's RPC endpoint, because
//! Tendermint serves queries sequentially and the packet-data queries return
//! very large responses. This crate models that subsystem:
//!
//! * [`cost::service_time`] — response-size- and content-aware service times
//!   from one table of constants calibrated to the block-query measurements
//!   reported in §V of the paper;
//! * [`endpoint::RpcEndpoint`] — a single-server FIFO query queue bound to a
//!   simulated chain, exposing the queries the workload CLI and the relayer
//!   issue (`broadcast_tx_sync`, account sequences, packet/ack pulls with
//!   proofs, client update data, unreceived filters);
//! * [`websocket::WebSocketSubscription`] — the per-relayer event
//!   subscription with Tendermint's 16 MiB frame limit and its
//!   "Failed to collect events" failure mode.
//!
//! # Example
//!
//! ```rust
//! use xcc_chain::chain::Chain;
//! use xcc_chain::genesis::GenesisConfig;
//! use xcc_rpc::endpoint::RpcEndpoint;
//! use xcc_sim::{SimDuration, SimTime};
//!
//! let chain = Chain::new(GenesisConfig::new("chain-a")).into_shared();
//! let mut rpc = RpcEndpoint::new(chain, SimDuration::ZERO);
//! let sequence = rpc.account_sequence(SimTime::ZERO, &"user-0".into());
//! assert_eq!(sequence.value, 0);
//! assert!(sequence.ready_at > SimTime::ZERO, "queries take service time");
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "the lane prices each request with `cost::service_time`, and the unit tests pin it"
)]

pub mod cost;
pub mod endpoint;
pub mod websocket;
