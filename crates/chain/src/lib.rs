//! A Cosmos-SDK-like application chain ("Gaia simulator").
//!
//! This crate provides the host blockchain the paper's experiments run on:
//! accounts with replay-protecting sequence numbers, an ante handler that
//! reproduces the "account sequence mismatch" behaviour, a bank module, gas
//! costs calibrated to the per-message costs the paper reports, a
//! transaction format with 100-message batching, and a complete ABCI
//! application embedding the IBC module from `xcc-ibc`.
//!
//! [`chain::Chain`] glues the application to a Tendermint node from
//! `xcc-tendermint`, giving the benchmarking framework a fully functional
//! chain it can drive block by block in virtual time.
//!
//! # Example
//!
//! ```rust
//! use xcc_chain::chain::Chain;
//! use xcc_chain::genesis::GenesisConfig;
//! use xcc_chain::msg::Msg;
//! use xcc_chain::coin::Coin;
//! use xcc_chain::tx::Tx;
//! use xcc_sim::SimTime;
//!
//! let mut chain = Chain::new(
//!     GenesisConfig::new("demo").with_funded_accounts("user", 1, 1_000_000),
//! );
//! let tx = Tx::new(
//!     "user-0".into(),
//!     0,
//!     vec![Msg::BankSend { from: "user-0".into(), to: "user-0".into(), amount: Coin::new("uatom", 1) }],
//!     "uatom",
//! );
//! chain.submit_tx(tx, SimTime::ZERO).unwrap();
//! let outcome = chain.produce_block(SimTime::from_secs(5));
//! assert_eq!(outcome.tx_count, 1);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod account;
pub mod ante;
pub mod app;
pub mod bank;
pub mod chain;
pub mod coin;
pub mod gas;
pub mod genesis;
pub mod msg;
pub mod tx;
