//! xcc-prof: deterministic work counters.
//!
//! Wall-clock timings of a simulation run depend on the host machine and are
//! useless as an exact regression signal on shared CI runners. The counters
//! in this module measure *work performed* instead — events scheduled and
//! popped, RPC calls served per request kind, transactions encoded and
//! decoded, modelled and host bytes serialized, telemetry records written, relayer wakes,
//! clear-scan visits and Merkle inner nodes hashed. Because every run of the simulator is single-threaded
//! and fully deterministic (PRs 5–9), these counters are bit-stable across
//! machines: the same spec and seed always produce the same counter vector,
//! so `goldens --bench --compare` can enforce them with exact equality while
//! wall-clock stays a human-facing, informational number.
//!
//! # Design
//!
//! Counters live in thread-local cells, not in a context object threaded
//! through every API. A simulation run executes entirely on one thread
//! (the experiment runner is a plain event loop), so thread-locality is
//! exactly run-locality: the runner calls [`reset`] when a run starts and
//! [`snapshot`] when it ends, and concurrent runs on sibling threads never
//! observe each other's work. The bump functions are a single `Cell`
//! increment — cheap enough to leave enabled unconditionally, which is what
//! keeps the counters trustworthy: there is no "profiling build" whose
//! behaviour could drift from the real one.
//!
//! RPC calls are counted per request kind in a fixed-size table indexed by
//! the kind's stable index ([`RPC_KIND_SLOTS`] slots). The `sim` crate does
//! not know the `RequestKind` enum (it lives upstream in `xcc-rpc`), so the
//! table is positional here and named by the caller when it surfaces a
//! snapshot.

use std::cell::Cell;

/// Number of positional RPC-kind slots in [`WorkCounters::rpc_calls`].
///
/// `xcc-rpc` currently defines 10 request kinds; the table leaves headroom
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
    /// Merkle inner nodes hashed (tree builds, proofs and their checks).
    pub merkle_inner_hashes: u64,
}

impl WorkCounters {
    /// Total RPC calls across every request kind.
    pub fn total_rpc_calls(&self) -> u64 {
        self.rpc_calls.iter().sum()
    }

    /// Field-wise sum of two snapshots (used to aggregate a fixture set).
    pub fn merged(&self, other: &WorkCounters) -> WorkCounters {
        let mut rpc_calls = self.rpc_calls;
        for (slot, n) in rpc_calls.iter_mut().zip(other.rpc_calls.iter()) {
            *slot += n;
        }
        WorkCounters {
            events_scheduled: self.events_scheduled + other.events_scheduled,
            events_popped: self.events_popped + other.events_popped,
            rpc_calls,
            txs_encoded: self.txs_encoded + other.txs_encoded,
            txs_decoded: self.txs_decoded + other.txs_decoded,
            bytes_serialized: self.bytes_serialized + other.bytes_serialized,
            payload_bytes: self.payload_bytes + other.payload_bytes,
            telemetry_records: self.telemetry_records + other.telemetry_records,
            relayer_wakes: self.relayer_wakes + other.relayer_wakes,
            clear_scan_visits: self.clear_scan_visits + other.clear_scan_visits,
            merkle_inner_hashes: self.merkle_inner_hashes + other.merkle_inner_hashes,
        }
    }
}

struct CounterCells {
    events_scheduled: Cell<u64>,
    events_popped: Cell<u64>,
    rpc_calls: [Cell<u64>; RPC_KIND_SLOTS],
    txs_encoded: Cell<u64>,
    txs_decoded: Cell<u64>,
    bytes_serialized: Cell<u64>,
    payload_bytes: Cell<u64>,
    telemetry_records: Cell<u64>,
    relayer_wakes: Cell<u64>,
    clear_scan_visits: Cell<u64>,
    merkle_inner_hashes: Cell<u64>,
}

impl CounterCells {
    const fn new() -> Self {
        CounterCells {
            events_scheduled: Cell::new(0),
            events_popped: Cell::new(0),
            rpc_calls: [const { Cell::new(0) }; RPC_KIND_SLOTS],
            txs_encoded: Cell::new(0),
            txs_decoded: Cell::new(0),
            bytes_serialized: Cell::new(0),
            payload_bytes: Cell::new(0),
            telemetry_records: Cell::new(0),
            relayer_wakes: Cell::new(0),
            clear_scan_visits: Cell::new(0),
            merkle_inner_hashes: Cell::new(0),
        }
    }
}

thread_local! {
    static COUNTERS: CounterCells = const { CounterCells::new() };
}

/// Resets every counter on the current thread to zero.
///
/// The experiment runner calls this at the start of a run so a snapshot at
/// the end measures exactly that run's work.
pub fn reset() {
    COUNTERS.with(|c| {
        c.events_scheduled.set(0);
        c.events_popped.set(0);
        for slot in &c.rpc_calls {
            slot.set(0);
        }
        c.txs_encoded.set(0);
        c.txs_decoded.set(0);
        c.bytes_serialized.set(0);
        c.payload_bytes.set(0);
        c.telemetry_records.set(0);
        c.relayer_wakes.set(0);
        c.clear_scan_visits.set(0);
        c.merkle_inner_hashes.set(0);
    });
}

/// Reads the current thread's counters without resetting them.
pub fn snapshot() -> WorkCounters {
    COUNTERS.with(|c| {
        let mut rpc_calls = [0u64; RPC_KIND_SLOTS];
        for (out, slot) in rpc_calls.iter_mut().zip(c.rpc_calls.iter()) {
            *out = slot.get();
        }
        WorkCounters {
            events_scheduled: c.events_scheduled.get(),
            events_popped: c.events_popped.get(),
            rpc_calls,
            txs_encoded: c.txs_encoded.get(),
            txs_decoded: c.txs_decoded.get(),
            bytes_serialized: c.bytes_serialized.get(),
            payload_bytes: c.payload_bytes.get(),
            telemetry_records: c.telemetry_records.get(),
            relayer_wakes: c.relayer_wakes.get(),
            clear_scan_visits: c.clear_scan_visits.get(),
            merkle_inner_hashes: c.merkle_inner_hashes.get(),
        }
    })
}

#[inline]
fn bump(field: impl Fn(&CounterCells) -> &Cell<u64>) {
    COUNTERS.with(|c| {
        let cell = field(c);
        cell.set(cell.get() + 1);
    });
}

/// Counts one event pushed into a scheduler.
#[inline]
pub fn bump_event_scheduled() {
    bump(|c| &c.events_scheduled);
}

/// Counts one event popped from a scheduler.
#[inline]
pub fn bump_event_popped() {
    bump(|c| &c.events_popped);
}

/// Counts one RPC call of the kind with the given stable index.
///
/// Indices beyond [`RPC_KIND_SLOTS`] are counted in the last slot rather
/// than dropped, so a future kind added without growing the table is still
/// visible in totals.
#[inline]
pub fn bump_rpc_call(kind_index: usize) {
    COUNTERS.with(|c| {
        let cell = &c.rpc_calls[kind_index.min(RPC_KIND_SLOTS - 1)];
        cell.set(cell.get() + 1);
    });
}

/// Counts one transaction encoded, contributing its modelled `wire_bytes`
/// to the serialized-bytes total and its host `payload_bytes` to theirs.
#[inline]
pub fn bump_tx_encoded(wire_bytes: u64, payload_bytes: u64) {
    COUNTERS.with(|c| {
        c.txs_encoded.set(c.txs_encoded.get() + 1);
        c.bytes_serialized
            .set(c.bytes_serialized.get() + wire_bytes);
        c.payload_bytes.set(c.payload_bytes.get() + payload_bytes);
    });
}

/// Counts one transaction decoded from wire bytes.
#[inline]
pub fn bump_tx_decoded() {
    bump(|c| &c.txs_decoded);
}

/// Counts one telemetry step record written.
#[inline]
pub fn bump_telemetry_record() {
    bump(|c| &c.telemetry_records);
}

/// Counts one relayer wake processed by the runner's event loop.
#[inline]
pub fn bump_relayer_wake() {
    bump(|c| &c.relayer_wakes);
}

/// Counts one packet visited by the periodic clear scan.
#[inline]
pub fn bump_clear_scan_visit() {
    bump(|c| &c.clear_scan_visits);
}

/// Counts one Merkle inner node hashed.
#[inline]
pub fn bump_merkle_inner_hash() {
    bump(|c| &c.merkle_inner_hashes);
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

    #[test]
    fn merged_sums_field_wise() {
        let mut a = WorkCounters {
            events_scheduled: 1,
            txs_encoded: 2,
            ..WorkCounters::default()
        };
        a.rpc_calls[1] = 5;
        let mut b = WorkCounters {
            events_scheduled: 10,
            bytes_serialized: 7,
            payload_bytes: 3,
            ..WorkCounters::default()
        };
        b.rpc_calls[1] = 3;
        let m = a.merged(&b);
        assert_eq!(m.events_scheduled, 11);
        assert_eq!(m.txs_encoded, 2);
        assert_eq!(m.bytes_serialized, 7);
        assert_eq!(m.payload_bytes, 3);
        assert_eq!(m.rpc_calls[1], 8);
    }
}
