//! Named, serializable view of the xcc-prof deterministic work counters.
//!
//! [`xcc_sim::prof`] accumulates raw per-run counters in positional slots so
//! the sim crate never has to know domain names. This module is the naming
//! surface: the runner snapshots the raw [`WorkCounters`] at the end of every
//! run and converts them into a [`WorkProfile`], labelling each RPC slot with
//! its [`RequestKind`] name. The profile is what `goldens --bench` writes
//! into `BENCH_golden.json` and what `goldens --check` exact-matches in CI
//! and under `cargo test` — counters are pure functions of the event
//! sequence, so any drift is a behaviour change, not noise (see
//! docs/PERFORMANCE.md).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use xcc_rpc::cost::RequestKind;
use xcc_sim::prof::WorkCounters;

/// Which SHA-256 backend this host's CPU selected (`"sha-ni"` or
/// `"portable"`). Not a work counter — those are host-independent — but what
/// `goldens --bench` records beside the wall-clock it reports with them:
/// hashing is the largest single host cost of a run, and the two backends
/// differ about twofold.
pub use xcc_tendermint::hash::backend as sha256_backend;

/// RPC-call counts that landed in overflow slots beyond the kinds named by
/// [`RequestKind::ALL`] are reported under this key. A non-zero value means a
/// call was counted in a slot no [`RequestKind::index`] names.
pub const RPC_OTHER_KEY: &str = "other";

/// The deterministic work profile of one experiment run.
///
/// Every field is an exact count of work performed, independent of host
/// speed: two runs of the same spec on any machines produce identical
/// profiles. Wall-clock time is deliberately *not* part of this struct —
/// the bench harness reports it separately, as a human-facing signal only.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WorkProfile {
    /// Events inserted into the simulation scheduler.
    pub events_scheduled: u64,
    /// Events popped from the simulation scheduler.
    pub events_popped: u64,
    /// RPC requests served, keyed by [`RequestKind::name`] (zero-count kinds
    /// are omitted so profiles stay compact and insertion-free).
    pub rpc_calls: BTreeMap<String, u64>,
    /// Transactions encoded to their wire form (cache misses only: a
    /// [`Tx::hash`](xcc_chain::tx::Tx::hash) served from the encode cache
    /// does not count).
    pub txs_encoded: u64,
    /// Transactions decoded from their wire form: none in a run, since every
    /// submission hands the chain the transaction its client built.
    pub txs_decoded: u64,
    /// Modelled wire bytes of the transactions encoded: the length of each
    /// one's compact JSON rendering ([`RawTx::len`](xcc_tendermint::block::RawTx::len)),
    /// which is what the simulation sizes blocks, mempools and frames by.
    pub bytes_serialized: u64,
    /// Host bytes of the transactions encoded: the length of each one's
    /// binary payload, counted at the same cache miss as `txs_encoded`.
    pub payload_bytes: u64,
    /// Telemetry step/error records written across all relayers.
    pub telemetry_records: u64,
    /// Relayer wake events processed by the experiment driver.
    pub relayer_wakes: u64,
    /// Packet-clear scan visits (per packet considered by a clear pass).
    pub clear_scan_visits: u64,
    /// Merkle inner nodes hashed: commitment-store tree builds, block data
    /// roots, proofs and proof checks.
    pub merkle_inner_hashes: u64,
}

impl WorkProfile {
    /// Names the positional slots of a raw counter snapshot.
    pub fn from_counters(counters: &WorkCounters) -> Self {
        let mut rpc_calls = BTreeMap::new();
        let mut named = 0u64;
        for kind in RequestKind::ALL {
            let count = counters.rpc_calls[kind.index()];
            named += count;
            if count > 0 {
                rpc_calls.insert(kind.name().to_string(), count);
            }
        }
        let overflow = counters.total_rpc_calls() - named;
        if overflow > 0 {
            rpc_calls.insert(RPC_OTHER_KEY.to_string(), overflow);
        }
        WorkProfile {
            events_scheduled: counters.events_scheduled,
            events_popped: counters.events_popped,
            rpc_calls,
            txs_encoded: counters.txs_encoded,
            txs_decoded: counters.txs_decoded,
            bytes_serialized: counters.bytes_serialized,
            payload_bytes: counters.payload_bytes,
            telemetry_records: counters.telemetry_records,
            relayer_wakes: counters.relayer_wakes,
            clear_scan_visits: counters.clear_scan_visits,
            merkle_inner_hashes: counters.merkle_inner_hashes,
        }
    }

    /// Total RPC calls across every kind.
    pub fn total_rpc_calls(&self) -> u64 {
        self.rpc_calls.values().sum()
    }

    /// The element-wise sum of two profiles — how `goldens --bench`
    /// aggregates per-scenario profiles into a fixture-set profile.
    pub fn merged(&self, other: &WorkProfile) -> WorkProfile {
        let mut rpc_calls = self.rpc_calls.clone();
        for (kind, count) in &other.rpc_calls {
            *rpc_calls.entry(kind.clone()).or_insert(0) += count;
        }
        WorkProfile {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naming_follows_request_kind_slots() {
        let mut counters = WorkCounters::default();
        counters.rpc_calls[RequestKind::AccountQuery.index()] = 7;
        counters.rpc_calls[RequestKind::BroadcastTxSync.index()] = 3;
        // An unmapped overflow slot surfaces as "other" instead of vanishing.
        counters.rpc_calls[xcc_sim::prof::RPC_KIND_SLOTS - 1] = 2;
        let profile = WorkProfile::from_counters(&counters);
        assert_eq!(profile.rpc_calls.get("account_query"), Some(&7));
        assert_eq!(profile.rpc_calls.get("broadcast_tx_sync"), Some(&3));
        assert_eq!(profile.rpc_calls.get(RPC_OTHER_KEY), Some(&2));
        assert_eq!(profile.rpc_calls.get("proof_query"), None);
        assert_eq!(profile.total_rpc_calls(), 12);
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = WorkProfile {
            events_scheduled: 10,
            ..WorkProfile::default()
        };
        a.rpc_calls.insert("account_query".to_string(), 4);
        let mut b = WorkProfile {
            events_scheduled: 5,
            ..WorkProfile::default()
        };
        b.rpc_calls.insert("account_query".to_string(), 1);
        b.rpc_calls.insert("proof_query".to_string(), 9);
        let m = a.merged(&b);
        assert_eq!(m.events_scheduled, 15);
        assert_eq!(m.rpc_calls.get("account_query"), Some(&5));
        assert_eq!(m.rpc_calls.get("proof_query"), Some(&9));
    }

    #[test]
    fn profiles_round_trip_through_json() {
        let mut p = WorkProfile {
            events_scheduled: 123,
            bytes_serialized: 9_999,
            ..WorkProfile::default()
        };
        p.rpc_calls.insert("account_query".to_string(), 4);
        let json = serde_json::to_string(&p).unwrap();
        let back: WorkProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
