//! xcc-prof: deterministic work counters.
//!
//! Wall-clock timings of a simulation run depend on the host machine and are
//! useless as an exact regression signal on shared CI runners. The counters
//! in this module measure *work performed* instead — events scheduled and
//! popped, RPC calls served per request kind, transactions encoded and
//! decoded, modelled and host bytes serialized, telemetry records written, relayer wakes,
//! clear-scan visits, SHA-256 blocks compressed and Merkle inner nodes hashed. Because every run of the simulator is single-threaded
//! and fully deterministic (PRs 5–9), these counters are bit-stable across
//! machines: the same spec and seed always produce the same counter vector,
//! so `goldens --check` can enforce them with exact equality while
//! wall-clock stays a human-facing, informational number.
//!
//! # Design
//!
//! Counters live in one thread-local [`WorkCounters`], not in a context
//! object threaded through every API. A simulation run executes entirely on one thread
//! (the experiment runner is a plain event loop), so thread-locality is
//! exactly run-locality: the runner calls [`reset`] when a run starts and
//! [`snapshot`] when it ends, and concurrent runs on sibling threads never
//! observe each other's work. A bump function adds to one field of that
//! value — cheap enough to leave enabled unconditionally, which is what
//! keeps the counters trustworthy: there is no "profiling build" whose
//! behaviour could drift from the real one.
//!
//! RPC calls are counted per request kind in a fixed-size table indexed by
//! the kind's stable index ([`RPC_KIND_SLOTS`] slots). The `sim` crate does
//! not know the `RequestKind` enum (it lives upstream in `xcc-rpc`), so the
//! table is positional here and named by the caller when it surfaces a
//! snapshot.

use std::cell::RefCell;

/// Number of positional RPC-kind slots in [`WorkCounters::rpc_calls`].
///
/// `xcc-rpc` currently defines 8 request kinds; the table leaves headroom
/// so adding a kind does not change this crate.
pub const RPC_KIND_SLOTS: usize = 16;

/// A snapshot of the deterministic work counters for one simulation run.
///
/// Obtained from [`snapshot`]; all fields are plain totals since the last
/// [`reset`] on the current thread.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkCounters {
    /// Events pushed into any [`crate::Scheduler`].
    pub events_scheduled: u64,
    /// Events popped from any [`crate::Scheduler`].
    pub events_popped: u64,
    /// RPC calls served, indexed by request-kind slot.
    pub rpc_calls: [u64; RPC_KIND_SLOTS],
    /// Transactions encoded to wire bytes.
    pub txs_encoded: u64,
    /// Transactions decoded from wire bytes.
    pub txs_decoded: u64,
    /// Total modelled wire bytes (JSON length) of the transactions encoded.
    pub bytes_serialized: u64,
    /// Total host payload bytes (binary encoding) of the transactions
    /// encoded.
    pub payload_bytes: u64,
    /// Telemetry step records written (earliest-wins duplicates included).
    pub telemetry_records: u64,
    /// Relayer wake events processed by the runner.
    pub relayer_wakes: u64,
    /// Packets visited by the periodic clear scan.
    pub clear_scan_visits: u64,
    /// SHA-256 blocks compressed, padding included, by either backend.
    pub sha256_blocks: u64,
    /// Merkle inner nodes hashed (tree builds, proofs and their checks).
    pub merkle_inner_hashes: u64,
}

impl WorkCounters {
    /// Total RPC calls across every request kind.
    pub fn total_rpc_calls(&self) -> u64 {
        self.rpc_calls.iter().sum()
    }
}

const ZERO: WorkCounters = WorkCounters {
    events_scheduled: 0,
    events_popped: 0,
    rpc_calls: [0; RPC_KIND_SLOTS],
    txs_encoded: 0,
    txs_decoded: 0,
    bytes_serialized: 0,
    payload_bytes: 0,
    telemetry_records: 0,
    relayer_wakes: 0,
    clear_scan_visits: 0,
    sha256_blocks: 0,
    merkle_inner_hashes: 0,
};

thread_local! {
    static COUNTERS: RefCell<WorkCounters> = const { RefCell::new(ZERO) };
}

/// Resets every counter on the current thread to zero.
///
/// The experiment runner calls this at the start of a run so a snapshot at
/// the end measures exactly that run's work.
pub fn reset() {
    COUNTERS.with_borrow_mut(|c| *c = ZERO);
}

/// Reads the current thread's counters without resetting them.
pub fn snapshot() -> WorkCounters {
    COUNTERS.with_borrow(WorkCounters::clone)
}

#[inline]
fn bump(add: impl FnOnce(&mut WorkCounters)) {
    COUNTERS.with_borrow_mut(add);
}

/// Counts one event pushed into a scheduler.
#[inline]
pub fn bump_event_scheduled() {
    bump(|c| c.events_scheduled += 1);
}

/// Counts one event popped from a scheduler.
#[inline]
pub fn bump_event_popped() {
    bump(|c| c.events_popped += 1);
}

/// Counts one RPC call of the kind with the given stable index.
///
/// Indices beyond [`RPC_KIND_SLOTS`] are counted in the last slot rather
/// than dropped, so a future kind added without growing the table is still
/// visible in totals.
#[inline]
pub fn bump_rpc_call(kind_index: usize) {
    bump(|c| c.rpc_calls[kind_index.min(RPC_KIND_SLOTS - 1)] += 1);
}

/// Counts one transaction encoded, contributing its modelled `wire_bytes`
/// to the serialized-bytes total and its host `payload_bytes` to theirs.
#[inline]
pub fn bump_tx_encoded(wire_bytes: u64, payload_bytes: u64) {
    bump(|c| {
        c.txs_encoded += 1;
        c.bytes_serialized += wire_bytes;
        c.payload_bytes += payload_bytes;
    });
}

/// Counts one transaction decoded from wire bytes.
#[inline]
pub fn bump_tx_decoded() {
    bump(|c| c.txs_decoded += 1);
}

/// Counts one telemetry step record written.
#[inline]
pub fn bump_telemetry_record() {
    bump(|c| c.telemetry_records += 1);
}

/// Counts one relayer wake processed by the runner's event loop.
#[inline]
pub fn bump_relayer_wake() {
    bump(|c| c.relayer_wakes += 1);
}

/// Counts one packet visited by the periodic clear scan.
#[inline]
pub fn bump_clear_scan_visit() {
    bump(|c| c.clear_scan_visits += 1);
}

/// Counts the `blocks` one SHA-256 digest compressed.
#[inline]
pub fn bump_sha256_blocks(blocks: u64) {
    bump(|c| c.sha256_blocks += blocks);
}

/// Counts one Merkle inner node hashed.
#[inline]
pub fn bump_merkle_inner_hash() {
    bump(|c| c.merkle_inner_hashes += 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_then_bump_then_snapshot_round_trips() {
        reset();
        bump_event_scheduled();
        bump_event_scheduled();
        bump_event_popped();
        bump_rpc_call(0);
        bump_rpc_call(3);
        bump_rpc_call(3);
        bump_tx_encoded(128, 40);
        bump_tx_decoded();
        bump_telemetry_record();
        bump_relayer_wake();
        bump_clear_scan_visit();
        bump_sha256_blocks(3);
        bump_merkle_inner_hash();

        let snap = snapshot();
        assert_eq!(snap.events_scheduled, 2);
        assert_eq!(snap.events_popped, 1);
        assert_eq!(snap.rpc_calls[0], 1);
        assert_eq!(snap.rpc_calls[3], 2);
        assert_eq!(snap.total_rpc_calls(), 3);
        assert_eq!(snap.txs_encoded, 1);
        assert_eq!(snap.bytes_serialized, 128);
        assert_eq!(snap.payload_bytes, 40);
        assert_eq!(snap.txs_decoded, 1);
        assert_eq!(snap.telemetry_records, 1);
        assert_eq!(snap.relayer_wakes, 1);
        assert_eq!(snap.clear_scan_visits, 1);
        assert_eq!(snap.sha256_blocks, 3);
        assert_eq!(snap.merkle_inner_hashes, 1);

        reset();
        assert_eq!(snapshot(), WorkCounters::default());
    }

    #[test]
    fn out_of_range_rpc_kind_lands_in_the_last_slot() {
        reset();
        bump_rpc_call(RPC_KIND_SLOTS + 5);
        let snap = snapshot();
        assert_eq!(snap.rpc_calls[RPC_KIND_SLOTS - 1], 1);
        assert_eq!(snap.total_rpc_calls(), 1);
    }
}
