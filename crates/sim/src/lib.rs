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
//! * [`server::Server`], the single FIFO server of every sequential resource,
//! * [`DetRng`], the zero-sized name of a random stream no model draws from,
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
//! assert!(sched.pop().is_none());
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod prof;
mod rng;
mod scheduler;
pub mod server;
mod time;

pub use rng::DetRng;
pub use scheduler::{Scheduler, SchedulerBackend};
pub use time::{SimDuration, SimTime};
