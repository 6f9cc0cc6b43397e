//! Inter-Blockchain Communication (IBC) protocol implementation.
//!
//! This crate implements the protocol layer the paper evaluates: ICS-02
//! clients backed by a Tendermint light client, ICS-03 connections, ICS-04
//! channels with the full packet life cycle (send / receive / acknowledge /
//! timeout, Figs. 2 and 3 of the paper), the ICS-20 fungible token transfer
//! application, ICS-24 host paths and a commitment store with membership and
//! non-membership proofs.
//!
//! The crate is host-agnostic: a chain embeds [`module::IbcModule`], supplies
//! a [`transfer::BankKeeper`] for token movements, and emits the returned
//! ABCI events so that relayers can observe protocol progress.
//!
//! # Example
//!
//! ```rust
//! use xcc_ibc::ids::ClientId;
//! use xcc_ibc::module::IbcModule;
//!
//! let module = IbcModule::new("chain-a");
//! assert_eq!(module.chain_id(), "chain-a");
//! assert!(module.client(&ClientId::with_index(0)).is_none());
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod channel;
pub mod client;
pub mod commitment;
pub mod connection;
pub mod error;
pub mod events;
pub mod height;
pub mod host;
pub mod ids;
pub mod module;
pub mod packet;
pub mod transfer;
