//! Deterministic discrete-event simulation kernel.
//!
//! This crate provides the building blocks used by every other crate in the
//! workspace to reproduce the experiments of *"Analyzing the Performance of
//! the Inter-Blockchain Communication Protocol"* (DSN 2023) without the
//! paper's physical five-machine testbed:
//!
//! * a virtual clock and strongly-typed time/duration values ([`SimTime`],
//!   [`SimDuration`]),
//! * a deterministic event scheduler generic over the event payload
//!   ([`Scheduler`]),
//! * a single-server FIFO queue used to model the *sequential* Tendermint RPC
//!   endpoint that the paper identifies as the main bottleneck
//!   ([`FifoServer`]),
//! * network latency models (constant RTT, uniform jitter) ([`LatencyModel`]),
//! * deterministic random number streams ([`DetRng`]),
//! * deterministic work counters — the xcc-prof profiling layer whose
//!   totals are exact-match regression signals, unlike wall-clock
//!   ([`prof`]).
//!
//! # Example
//!
//! ```rust
//! use xcc_sim::{Scheduler, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_at(SimTime::ZERO + SimDuration::from_secs(5), Ev::Pong);
//! sched.schedule_at(SimTime::ZERO + SimDuration::from_secs(1), Ev::Ping);
//!
//! let (t1, e1) = sched.pop().unwrap();
//! assert_eq!(e1, Ev::Ping);
//! assert_eq!(t1.as_secs_f64(), 1.0);
//! let (_, e2) = sched.pop().unwrap();
//! assert_eq!(e2, Ev::Pong);
//! assert!(sched.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod latency;
pub mod prof;
mod rng;
mod scheduler;
mod server;
mod time;

pub use latency::LatencyModel;
pub use rng::DetRng;
pub use scheduler::{Scheduler, SchedulerBackend};
pub use server::FifoServer;
pub use time::{SimDuration, SimTime};
