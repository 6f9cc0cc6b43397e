//! Simulated Tendermint RPC and WebSocket endpoints.
//!
//! The paper's headline finding is that cross-chain relaying spends roughly
//! 69% of its time waiting for the blockchain's RPC endpoint, because
//! Tendermint serves queries sequentially and the packet-data queries return
//! very large responses. This crate models that subsystem:
//!
//! * [`cost::service_time`] — response-size- and content-aware service times
//!   from one table of constants calibrated to the block-query measurements
//!   reported in §V of the paper, with the batched pull's per-item surcharge
//!   ([`cost::BATCHED_PULL_PER_ITEM`]) the one value a deployment sets;
//! * [`endpoint::RpcEndpoint`] — a single-server FIFO query queue bound to a
//!   simulated chain, exposing the queries the relayer and the analysis
//!   tooling need (`broadcast_tx_sync`, `tx_search`, packet/ack pulls with
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
//! use xcc_rpc::cost::BATCHED_PULL_PER_ITEM;
//! use xcc_rpc::endpoint::RpcEndpoint;
//! use xcc_sim::{DetRng, LatencyModel, SimTime};
//!
//! let chain = Chain::new(GenesisConfig::new("chain-a")).into_shared();
//! let mut rpc = RpcEndpoint::new(chain, BATCHED_PULL_PER_ITEM, LatencyModel::Zero, DetRng::new(1));
//! let status = rpc.status(SimTime::ZERO);
//! assert_eq!(status.value.0, "chain-a");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod endpoint;
pub mod websocket;
