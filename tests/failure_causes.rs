//! Failure causes stay typed from where they happen to where they are
//! counted: the ABCI code every IBC error commits with, and the cause of
//! every submission a chain-only run loses.

use ibc_perf_repro::chain::ante;
use ibc_perf_repro::chain::app::CODE_MSG_FAILED;
use ibc_perf_repro::framework::scenarios;
use ibc_perf_repro::framework::spec::ExperimentSpec;
use ibc_perf_repro::ibc::error::{IbcError, CODE_REDUNDANT_PACKET};
use ibc_perf_repro::ibc::height::Height;
use ibc_perf_repro::ibc::ids::{ChannelId, ClientId, ConnectionId, PortId, Sequence};
use ibc_perf_repro::tendermint::mempool::MempoolError;
use ibc_perf_repro::tendermint::node::SubmitError;

/// The row of each variant in the table below. No wildcard arm: a new
/// variant does not compile here until it has a row and a pinned code.
fn row(error: &IbcError) -> usize {
    match error {
        IbcError::ClientNotFound { .. } => 0,
        IbcError::ClientUpdateFailed { .. } => 1,
        IbcError::ClientExpired { .. } => 2,
        IbcError::ConsensusStateNotFound { .. } => 3,
        IbcError::ConnectionNotFound { .. } => 4,
        IbcError::ChannelNotFound { .. } => 5,
        IbcError::InvalidState { .. } => 6,
        IbcError::InvalidProof { .. } => 7,
        IbcError::PacketCommitmentNotFound { .. } => 8,
        IbcError::PacketCommitmentMismatch { .. } => 9,
        IbcError::PacketTimedOut { .. } => 10,
        IbcError::TimeoutNotReached { .. } => 11,
        IbcError::PacketAlreadyReceived { .. } => 12,
        IbcError::PacketAlreadyAcknowledged { .. } => 13,
        IbcError::Transfer { .. } => 14,
    }
}

/// Every `IbcError` variant, one row each in `row` order, with the code its
/// `DeliverTx` result carries.
#[test]
fn ibc_error_codes_are_pinned_per_variant() {
    let client_id = ClientId::with_index(0);
    let sequence = Sequence::from(7);
    let reason = String::from("x");
    let table: [(IbcError, u32); 15] = [
        (
            IbcError::ClientNotFound {
                client_id: client_id.clone(),
            },
            201,
        ),
        (
            IbcError::ClientUpdateFailed {
                reason: reason.clone(),
            },
            202,
        ),
        (
            IbcError::ClientExpired {
                client_id: client_id.clone(),
            },
            203,
        ),
        (
            IbcError::ConsensusStateNotFound {
                client_id,
                height: Height::at(3),
            },
            204,
        ),
        (
            IbcError::ConnectionNotFound {
                connection_id: ConnectionId::with_index(0),
            },
            301,
        ),
        (
            IbcError::ChannelNotFound {
                port_id: PortId::transfer(),
                channel_id: ChannelId::with_index(0),
            },
            401,
        ),
        (
            IbcError::InvalidState {
                reason: reason.clone(),
            },
            402,
        ),
        (
            IbcError::InvalidProof {
                context: reason.clone(),
            },
            403,
        ),
        (IbcError::PacketCommitmentNotFound { sequence }, 404),
        (IbcError::PacketCommitmentMismatch { sequence }, 405),
        (
            IbcError::PacketTimedOut {
                sequence,
                timeout_height: Height::at(3),
            },
            406,
        ),
        (IbcError::TimeoutNotReached { sequence }, 407),
        (IbcError::PacketAlreadyReceived { sequence }, 410),
        (IbcError::PacketAlreadyAcknowledged { sequence }, 410),
        (IbcError::Transfer { reason }, 501),
    ];
    let taken = [
        0,
        CODE_MSG_FAILED,
        ante::CODE_EMPTY_TX,
        ante::CODE_UNAUTHORIZED,
        ante::CODE_INSUFFICIENT_FUNDS,
        ante::CODE_UNKNOWN_ACCOUNT,
        ante::CODE_SEQUENCE_MISMATCH,
    ];
    for (i, (error, code)) in table.iter().enumerate() {
        assert_eq!(row(error), i, "{error:?} is not in its row");
        assert_eq!(error.code(), *code, "{error:?}");
        assert!(!taken.contains(code), "{error:?} reuses code {code}");
    }
    // The two redundant relays share the one code `double_submitted_packets`
    // counts, and no other failure has it.
    let redundant: Vec<usize> = (0..table.len())
        .filter(|&i| table[i].0.code() == CODE_REDUNDANT_PACKET)
        .collect();
    assert_eq!(redundant, [12, 13]);
}

/// Table I's shape at its lowest rate, over three blocks: the workload CLI
/// loses submissions, and every one it loses is a byte-identical duplicate
/// of a transaction still pending in the mempool.
#[test]
fn every_submission_a_chain_only_run_loses_is_already_pending() {
    let spec = ExperimentSpec::tendermint_throughput()
        .input_rate(250)
        .measurement_blocks(3)
        .seed(42);
    let run = scenarios::run_raw(&spec);
    let records = &run.submission_records;
    assert!(records.iter().all(|r| r.accepted == r.error.is_none()));
    let lost: Vec<_> = records.iter().filter(|r| !r.accepted).collect();
    assert!(!lost.is_empty(), "the spec must lose submissions");
    let already_pending = SubmitError::Mempool(MempoolError::AlreadyPending);
    for record in &lost {
        assert_eq!(record.error.as_ref(), Some(&already_pending));
    }
    let lost_transfers: usize = lost.iter().map(|r| r.transfers).sum();
    assert_eq!(run.submission.rejected, lost_transfers as u64);
}
