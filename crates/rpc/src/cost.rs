//! The RPC cost model.
//!
//! The paper identifies the Tendermint RPC endpoint as the dominant
//! cross-chain bottleneck: queries are served one at a time, and the queries
//! the relayer uses to pull packet data back out of the chain return large
//! responses whose service time grows with the amount of IBC data in the
//! queried block (§IV-B, §V "Transaction data collection"). The model here is
//! calibrated against the two measurements the paper reports: a block of 20
//! transactions with 100 `MsgTransfer` each takes ≈2.9 s to query, and the
//! same block shape with `MsgRecvPacket` takes ≈5.7 s.

use serde::{Deserialize, Serialize};

use xcc_sim::SimDuration;

/// Declares [`RequestKind`] from one list of `Variant => "name"` pairs, so
/// the enum, [`RequestKind::ALL`], [`RequestKind::index`] and
/// [`RequestKind::name`] cannot disagree: a variant outside `ALL` cannot be
/// written.
macro_rules! request_kinds {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// The kind of RPC request being served, which determines its cost profile.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
        pub enum RequestKind {
            $($(#[$doc])* $variant,)*
        }

        impl RequestKind {
            /// Every request kind, in declaration order. The position of a
            /// kind in this table is its xcc-prof counter slot within a run
            /// (see [`RequestKind::index`]); outputs key counts by
            /// [`name`](RequestKind::name), so the slots may be renumbered.
            pub const ALL: [RequestKind; [$(stringify!($variant)),*].len()] =
                [$(RequestKind::$variant),*];

            /// The kind's position in [`RequestKind::ALL`], used as its
            /// work-counter slot in `xcc_sim::prof`.
            pub fn index(self) -> usize {
                self as usize
            }

            /// The kind's wire-style snake_case name, used as its key in
            /// profiled bench output (`BENCH_golden.json`).
            pub fn name(self) -> &'static str {
                match self {
                    $(RequestKind::$variant => $name,)*
                }
            }
        }
    };
}

request_kinds! {
    /// `broadcast_tx_sync`: submit a transaction and run `CheckTx`.
    BroadcastTxSync => "broadcast_tx_sync",
    /// `abci_query` for an account (sequence / balance lookups).
    AccountQuery => "account_query",
    /// Mempool-aware account-sequence query: the committed sequence plus the
    /// account's unconfirmed mempool window (Tendermint's `unconfirmed_txs`
    /// filtered by sender). Costs a mempool scan on top of the account read.
    UnconfirmedAccountQuery => "unconfirmed_account_query",
    /// Packet-data pull: the `tx_search`-style query the relayer issues per
    /// source transaction to rebuild packets, including proofs.
    PacketDataPull => "packet_data_pull",
    /// A batched packet-data pull covering many transactions in one query:
    /// the block scan is paid once and a per-item pagination surcharge is
    /// added instead (the "what if pulls were batched?" counterfactual).
    BatchedDataPull => "batched_data_pull",
    /// Proof query for a single packet commitment or acknowledgement.
    ProofQuery => "proof_query",
    /// Header/commit/validator-set query used to build client updates.
    ClientUpdateData => "client_update_data",
    /// Unreceived-packet / unreceived-ack filter queries.
    UnreceivedQuery => "unreceived_query",
}

// The cost table (docs/ARCHITECTURE.md, "The model's constants", names what
// calibrates each value). A value becomes a `DeploymentConfig` field only when
// two scenarios need different values of it.

/// Fixed cost of accepting and dispatching any request.
const BASE: SimDuration = SimDuration::from_millis(5);

/// Cost per kilobyte of response payload.
const PER_RESPONSE_KILOBYTE: SimDuration = SimDuration::from_micros(900);

/// Additional cost of a packet-data pull per IBC *message committed in the
/// queried block* when the messages are transfers: the super-linear term that
/// makes large submission batches so expensive (Figs. 12 and 13). Calibrated
/// so that 50 pulls over a 5,000-message block cost ≈110 s (transfer) and
/// ≈207 s (recv), the Fig. 12 breakdown.
const DATA_PULL_PER_BLOCK_MSG_TRANSFER: SimDuration = SimDuration::from_micros(439);

/// As above, for receive messages (larger responses: packets plus proofs plus
/// acknowledgements).
const DATA_PULL_PER_BLOCK_MSG_RECV: SimDuration = SimDuration::from_micros(823);

/// Cost of running `CheckTx` during `broadcast_tx_sync`, per message in the
/// submitted transaction.
const BROADCAST_PER_MSG: SimDuration = SimDuration::from_micros(30);

/// Per-pending-transaction cost of an unconfirmed-aware account query: the
/// node walks its mempool to count the account's in-flight window, so the
/// scan grows with the mempool backlog.
const UNCONFIRMED_QUERY_PER_PENDING_TX: SimDuration = SimDuration::from_micros(4);

/// The calibrated per-requested-item surcharge of a batched data pull: result
/// assembly and pagination for every packet the single query returns.
/// Batching amortizes the block scan but is not free.
pub const BATCHED_PULL_PER_ITEM: SimDuration = SimDuration::from_micros(120);

/// Context describing the request being priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestProfile {
    /// What kind of request this is.
    pub kind: RequestKind,
    /// Estimated response payload in bytes.
    pub response_bytes: usize,
    /// For data pulls and broadcasts: the number of IBC messages in the
    /// queried block / submitted transaction.
    pub messages: usize,
    /// For data pulls: whether the block being queried is dominated by
    /// receive messages (larger per-message responses).
    pub recv_heavy: bool,
    /// For batched data pulls: the number of items the single query returns.
    pub items: usize,
}

impl RequestProfile {
    /// A small fixed-size request (account query, proof query…).
    pub fn small(kind: RequestKind) -> Self {
        RequestProfile {
            kind,
            response_bytes: 512,
            messages: 0,
            recv_heavy: false,
            items: 0,
        }
    }
}

/// The server-side service time of a request.
///
/// Only the RPC lane calls this (the workspace `clippy.toml` lists it under
/// `disallowed-methods`): a request priced anywhere else would take no lane
/// slot. Every `RequestKind` is priced by name; the two wildcard lints keep a
/// `_` arm from pricing a new kind by accident.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub fn service_time(profile: &RequestProfile) -> SimDuration {
    let size_cost = PER_RESPONSE_KILOBYTE * (profile.response_bytes as u64 / 1024);
    let data_pull_per_msg = if profile.recv_heavy {
        DATA_PULL_PER_BLOCK_MSG_RECV
    } else {
        DATA_PULL_PER_BLOCK_MSG_TRANSFER
    };
    let kind_cost = match profile.kind {
        RequestKind::BroadcastTxSync => BROADCAST_PER_MSG * profile.messages as u64,
        RequestKind::PacketDataPull => data_pull_per_msg * profile.messages as u64,
        RequestKind::BatchedDataPull => {
            // One block scan for the whole batch plus a per-item pagination
            // surcharge, instead of one scan per chunk.
            data_pull_per_msg * profile.messages as u64
                + BATCHED_PULL_PER_ITEM * profile.items as u64
        }
        RequestKind::UnconfirmedAccountQuery => {
            // The mempool scan: `items` carries the pending-tx count the node
            // walked to answer the query.
            UNCONFIRMED_QUERY_PER_PENDING_TX * profile.items as u64
        }
        // Metadata lookups answered from indexed state: no per-message work
        // beyond the base fee and response-size cost.
        RequestKind::AccountQuery
        | RequestKind::ProofQuery
        | RequestKind::ClientUpdateData
        | RequestKind::UnreceivedQuery => SimDuration::ZERO,
    };
    BASE + size_cost + kind_cost
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request's service time in seconds.
    #[expect(
        clippy::disallowed_types,
        reason = "seconds as a float, so the tests can state service times in the paper's units"
    )]
    fn priced(kind: RequestKind, response_bytes: usize, messages: usize, recv_heavy: bool) -> f64 {
        let profile = RequestProfile {
            kind,
            response_bytes,
            messages,
            recv_heavy,
            items: 0,
        };
        service_time(&profile).as_secs_f64()
    }

    /// One row per `RequestKind` at `response_bytes 70_000, messages 5_000,
    /// items 100`, read at the commit before the cost table became constants:
    /// a mistyped constant fails here, not only in a golden.
    #[test]
    fn service_times_are_pinned_per_kind() {
        let nanos = |kind, recv_heavy| {
            let profile = RequestProfile {
                kind,
                response_bytes: 70_000,
                messages: 5_000,
                recv_heavy,
                items: 100,
            };
            service_time(&profile).as_nanos()
        };
        let table: [(RequestKind, u64, u64); 8] = [
            (RequestKind::BroadcastTxSync, 216_200_000, 216_200_000),
            (RequestKind::AccountQuery, 66_200_000, 66_200_000),
            (RequestKind::UnconfirmedAccountQuery, 66_600_000, 66_600_000),
            (RequestKind::PacketDataPull, 2_261_200_000, 4_181_200_000),
            (RequestKind::BatchedDataPull, 2_273_200_000, 4_193_200_000),
            (RequestKind::ProofQuery, 66_200_000, 66_200_000),
            (RequestKind::ClientUpdateData, 66_200_000, 66_200_000),
            (RequestKind::UnreceivedQuery, 66_200_000, 66_200_000),
        ];
        for (kind, transfer, recv_heavy) in table {
            assert_eq!(nanos(kind, false), transfer, "{kind:?}");
            assert_eq!(nanos(kind, true), recv_heavy, "{kind:?} recv-heavy");
        }
    }

    #[test]
    fn default_model_reproduces_paper_block_query_costs() {
        // A single data pull over a block holding 2,000 transfer messages
        // (the paper's 20 × 100 example) should take roughly 2.9 s…
        let t = priced(RequestKind::PacketDataPull, 1_200_000, 2_000, false);
        // …and the recv-heavy equivalent roughly 5.7 s.
        let r = priced(RequestKind::PacketDataPull, 2_400_000, 2_000, true);
        assert!((1.5..4.5).contains(&t), "transfer pull {t}s");
        assert!((3.5..8.0).contains(&r), "recv pull {r}s");
        assert!(r > t * 1.5, "recv pulls must be substantially slower");
    }

    #[test]
    fn fig12_scale_data_pull_costs() {
        // 50 pulls over a 5,000-message block: ≈110 s for transfers and
        // ≈207 s for receives (±20%).
        let transfer_total = 50.0 * priced(RequestKind::PacketDataPull, 70_000, 5_000, false);
        let recv_total = 50.0 * priced(RequestKind::PacketDataPull, 140_000, 5_000, true);
        assert!(
            (88.0..132.0).contains(&transfer_total),
            "transfer pulls total {transfer_total}s"
        );
        assert!(
            (165.0..250.0).contains(&recv_total),
            "recv pulls total {recv_total}s"
        );
    }

    #[test]
    fn batched_pull_amortizes_the_block_scan() {
        // Fig. 12 shape: 5,000 packets pulled out of a 5,000-message block.
        // Sequentially that is 50 chunked pulls, each paying the block scan…
        let sequential = 50.0 * priced(RequestKind::PacketDataPull, 70_000, 5_000, false);
        // …while one batched query pays it once plus a per-item surcharge.
        let batched_profile = |items| RequestProfile {
            kind: RequestKind::BatchedDataPull,
            response_bytes: 3_500_000,
            messages: 5_000,
            recv_heavy: false,
            items,
        };
        let batched = service_time(&batched_profile(5_000)).as_secs_f64();
        assert!(
            batched * 10.0 < sequential,
            "batched {batched}s vs sequential {sequential}s"
        );
        // The surcharge keeps batching from being free: it is exactly the
        // per-item term on top of one unbatched pull of the same response.
        let unbatched_single = service_time(&RequestProfile {
            kind: RequestKind::PacketDataPull,
            ..batched_profile(5_000)
        });
        assert_eq!(
            service_time(&batched_profile(5_000)) - unbatched_single,
            BATCHED_PULL_PER_ITEM * 5_000
        );
    }

    #[test]
    fn service_time_is_monotone_in_size_and_messages() {
        let small = priced(RequestKind::AccountQuery, 512, 0, false);
        let big = priced(RequestKind::AccountQuery, 10_000_000, 0, false);
        assert!(big > small);

        let few = priced(RequestKind::BroadcastTxSync, 1_000, 10, false);
        let many = priced(RequestKind::BroadcastTxSync, 1_000, 100, false);
        assert!(many > few);
    }

    #[test]
    fn small_queries_cost_little() {
        let account = service_time(&RequestProfile::small(RequestKind::AccountQuery));
        assert!(account < SimDuration::from_millis(20));
    }

    #[test]
    fn unconfirmed_query_scales_with_the_mempool_scan() {
        let cost = |items| {
            let profile = RequestProfile {
                kind: RequestKind::UnconfirmedAccountQuery,
                response_bytes: 512,
                messages: 0,
                recv_heavy: false,
                items,
            };
            service_time(&profile)
        };
        let account = RequestProfile::small(RequestKind::AccountQuery);
        assert_eq!(
            cost(0),
            service_time(&account),
            "an empty mempool costs no more than a plain account query"
        );
        assert_eq!(
            cost(5_000) - cost(0),
            UNCONFIRMED_QUERY_PER_PENDING_TX * 5_000,
            "the mempool walk is linear in the backlog"
        );
    }
}
