//! # xcc-lint — determinism auditor for the workspace
//!
//! The simulator's headline guarantee is bit-identical replay: the same
//! `ExperimentSpec` must produce the same event trace and the same golden
//! fixtures on every machine, forever. That guarantee is easy to break with
//! one innocuous line — iterating a `HashMap`, reading `Instant::now()`,
//! leaning on float rounding — and such breaks surface only later, as a
//! flaky `goldens --check` failure that is miserable to bisect.
//!
//! Clippy and rustc catch what type resolution can: the workspace
//! `clippy.toml` lists `HashMap`, `HashSet`, `Instant`, `SystemTime` and
//! `RandomState` under `disallowed-types` and the RPC cost table
//! (`xcc_rpc::cost::service_time`) under `disallowed-methods`; every
//! `crates/*` library root (and this crate's binary) denies
//! `clippy::unwrap_used`, `clippy::expect_used` and `clippy::panic`; a
//! private field keeps an `RpcResponse` from being built outside the RPC
//! lane; and tendermint's `deny(unsafe_code)` and
//! `deny(clippy::undocumented_unsafe_blocks)` hold its one `unsafe` block.
//!
//! `xcc-lint` checks what no standard tool does. It is a dependency-free
//! static auditor (no `rustc` internals, no `syn`; the workspace builds
//! offline) built on a comment- and string-aware scrubbing
//! scanner ([`lexer::Scrubbed`]) and a shallow [workspace item
//! graph](items) parsed from the scrubbed token stream. Five rules run over
//! `crates/*/src`, `tests/`, and friends:
//!
//! * **D4 `float-determinism`** — every `f32`/`f64` in sim/chain/tendermint/
//!   relayer code carries a reasoned annotation.
//! * **V1 `value-detour`** — the six simulation crates never call
//!   `to_value`/`from_value`, `serde::binary::{to_bytes, from_bytes}` or
//!   `serde::json::{encoded_len, parse}`: a transaction streams to bytes and
//!   back without a `serde::Value` tree.
//! * **U1 `unsafe-code`** — every crate root keeps `#![forbid(unsafe_code)]`,
//!   except tendermint's, which keeps `#![deny(unsafe_code)]` so that its
//!   SHA-256 kernel dispatch can `expect` the lint on the one `unsafe` block.
//! * **K1 `dead-knob`** — every pub config field is read outside its
//!   defining file, and every non-test `pub fn` of the seven simulation
//!   crates (`SweepGrid`'s axes among them) is named somewhere other than a
//!   test: another scanned file's non-test lines (`tests/` and
//!   `#[cfg(test)]` code never count), its own non-test lines,
//!   `benchmark/src` or a rustdoc example.
//! * **R1 `registry-docs`** — scenario registry ↔ README/PAPER rows stay
//!   consistent.
//!
//! Plus a meta-rule, `suppression`, that keeps the escape hatch honest:
//! suppressions must be well-formed, carry a reason, name a known rule, and
//! actually match a finding.
//!
//! Run it as CI does:
//!
//! ```text
//! cargo run --release -p xcc-lint -- --check
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;

pub use report::{to_json, Finding};
pub use rules::{run, Config, Outcome, RuleId};
