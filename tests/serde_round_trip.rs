//! Wire-format pins, one per type whose JSON shape committed fixtures and
//! spec files depend on: each value must survive `to_string → from_str`
//! unchanged, and its compact JSON must equal the pinned literal. The
//! literals were captured from the hand-written impls these derives
//! replaced, so any byte of drift here is a wire-format change.
//!
//! Below them, one `wire_round_trip!` line per type a `Tx` can hold: the
//! transaction codec streams these to bytes and back without a `Value` tree,
//! and each line holds that path to the tree-building one it replaced, tree
//! for tree. The bytes themselves are pinned by literals at the end of the
//! file, not by the tree path, whose `Value` has no byte runs.

#[path = "support/record_tree.rs"]
mod record_tree;

use record_tree::record_tree;

use ibc_perf_repro::chain::account::AccountId;
use ibc_perf_repro::chain::coin::Coin;
use ibc_perf_repro::chain::msg::Msg;
use ibc_perf_repro::chain::tx::Tx;
use ibc_perf_repro::framework::config::{DeploymentConfig, WorkloadConfig};
use ibc_perf_repro::framework::fault::{FaultChain, FaultEvent, FaultPlan};
use ibc_perf_repro::framework::topology::{HopRoute, Topology, TopologyEdge};
use ibc_perf_repro::ibc::client::ClientUpdate;
use ibc_perf_repro::ibc::commitment::{CommitmentProof, CommitmentStore, NonMembershipProof};
use ibc_perf_repro::ibc::height::Height;
use ibc_perf_repro::ibc::ids::{ChainId, ChannelId, ClientId, ConnectionId, PortId, Sequence};
use ibc_perf_repro::ibc::module::TransferParams;
use ibc_perf_repro::ibc::packet::{Acknowledgement, Packet};
use ibc_perf_repro::relayer::strategy::{ChannelPolicy, RelayerStrategy};
use ibc_perf_repro::sim::{SimDuration, SimTime};
use ibc_perf_repro::tendermint::block::{BlockId, Header, Version};
use ibc_perf_repro::tendermint::hash::{sha256, Hash};
use ibc_perf_repro::tendermint::validator::{Validator, ValidatorAddress, ValidatorSet};
use ibc_perf_repro::tendermint::vote::{BlockIdFlag, Commit, CommitSig};
use serde::Serialize;

/// One `#[test]` per wire type: round trip plus pinned JSON text.
macro_rules! serde_round_trip {
    ($($name:ident: $ty:ty = $value:expr => $json:expr;)*) => {$(
        #[test]
        fn $name() {
            let value: $ty = $value;
            let json = serde_json::to_string(&value).unwrap();
            assert_eq!(json, $json);
            let back: $ty = serde_json::from_str(&json).unwrap();
            assert_eq!(back, value);
        }
    )*};
}

fn sample_tx() -> Tx {
    let msg = Msg::BankSend {
        from: AccountId::new("alice"),
        to: AccountId::new("bob"),
        amount: Coin::new("uatom", 7),
    };
    let tx = Tx::new(AccountId::new("alice"), 3, vec![msg], "uatom");
    // Populate the encode cache: it must never reach the wire.
    tx.hash();
    tx
}

fn sample_store() -> CommitmentStore {
    let mut store = CommitmentStore::new();
    store.set("acks/1", sha256(b"ack"));
    store.set("commitments/1", sha256(b"data"));
    store
}

serde_round_trip! {
    topology_edge: TopologyEdge = TopologyEdge::new("ibc-0", "ibc-1") => r#"{"src":"ibc-0","dst":"ibc-1"}"#;
    topology: Topology = Topology::line(3) => r#"{"chains":["ibc-0","ibc-1","ibc-2"],"edges":[{"src":"ibc-0","dst":"ibc-1"},{"src":"ibc-1","dst":"ibc-2"}]}"#;
    hop_route: HopRoute = HopRoute { first_leg: 0, second_leg: 3 } => r#"{"first_leg":0,"second_leg":3}"#;
    fault_chain: FaultChain = FaultChain::Destination => r#""destination""#;
    fault_event: FaultEvent = FaultEvent::BlockStretch {
        chain: FaultChain::Source,
        factor: 4,
        from: SimDuration::from_secs(80),
        duration: SimDuration::from_secs(20),
    } => r#"{"BlockStretch":{"chain":"source","factor":4,"from":80000000000,"duration":20000000000}}"#;
    fault_plan: FaultPlan = FaultPlan::new([
        FaultEvent::RelayerCrash { relayer: 0, at: SimDuration::from_secs(16) },
        FaultEvent::ChainHalt {
            chain: FaultChain::Destination,
            from: SimDuration::from_secs(40),
            duration: SimDuration::from_secs(30),
        },
        FaultEvent::ClientExpiry { path: 1, at: SimDuration::from_secs(55) },
    ]) => r#"{"events":[{"RelayerCrash":{"relayer":0,"at":16000000000}},{"ChainHalt":{"chain":"destination","from":40000000000,"duration":30000000000}},{"ClientExpiry":{"path":1,"at":55000000000}}]}"#;
    relayer_strategy: RelayerStrategy = RelayerStrategy::with_channel_policy(ChannelPolicy::Dedicated)
        .frame_limit(262_144)
        .packet_clearing(4) => r#"{"fetcher":"Sequential","submission":"Eager","coordination":"None","channel_policy":"Dedicated","ws_frame_limit_bytes":262144,"packet_clear_interval":4,"sequence_tracking":"Resync"}"#;
    workload_config: WorkloadConfig = WorkloadConfig {
        channel_weights: vec![2, 1],
        hop_plan: Topology::hub_and_spoke_routes(1, 1),
        ..WorkloadConfig::default()
    } => r#"{"total_transfers":5000,"submission_blocks":1,"measurement_blocks":50,"timeout_blocks":0,"run_to_completion":true,"completion_grace_blocks":400,"channel_weights":[2,1],"hop_plan":[{"first_leg":0,"second_leg":1}]}"#;
    deployment_config: DeploymentConfig = DeploymentConfig::default() => r#"{"network_rtt_ms":200,"min_block_interval":5000000000,"relayer_count":1,"channel_count":1,"relayer_strategy":{"fetcher":"Sequential","submission":"Eager","coordination":"None","channel_policy":"FairShare","ws_frame_limit_bytes":0,"packet_clear_interval":0,"sequence_tracking":"Resync"},"user_accounts":64,"seed":42,"fault_plan":{"events":[]},"topology":{"chains":["ibc-0","ibc-1"],"edges":[{"src":"ibc-0","dst":"ibc-1"}]}}"#;
    deployment_config_customised: DeploymentConfig = DeploymentConfig {
        channel_count: 2,
        topology: Topology::line(3),
        ..DeploymentConfig::default()
    } => r#"{"network_rtt_ms":200,"min_block_interval":5000000000,"relayer_count":1,"channel_count":2,"relayer_strategy":{"fetcher":"Sequential","submission":"Eager","coordination":"None","channel_policy":"FairShare","ws_frame_limit_bytes":0,"packet_clear_interval":0,"sequence_tracking":"Resync"},"user_accounts":64,"seed":42,"fault_plan":{"events":[]},"topology":{"chains":["ibc-0","ibc-1","ibc-2"],"edges":[{"src":"ibc-0","dst":"ibc-1"},{"src":"ibc-1","dst":"ibc-2"}]}}"#;
    // The identifier newtypes and `AccountId` are bare strings on the wire,
    // whatever holds their text in memory.
    port_id: PortId = PortId::transfer() => r#""transfer""#;
    channel_id: ChannelId = ChannelId::with_index(0) => r#""channel-0""#;
    client_id: ClientId = ClientId::with_index(7) => r#""07-tendermint-7""#;
    connection_id: ConnectionId = ConnectionId::with_index(12) => r#""connection-12""#;
    chain_id: ChainId = ChainId::new("ibc-0") => r#""ibc-0""#;
    account_id: AccountId = AccountId::new("cosmos1\u{e9}\t") => "\"cosmos1\u{e9}\\t\"";
    tx: Tx = sample_tx() => r#"{"msgs":[{"BankSend":{"from":"alice","to":"bob","amount":{"denom":"uatom","amount":7}}}],"signer":"alice","sequence":3,"gas_limit":105000,"fee":{"denom":"uatom","amount":1050},"memo":"","signature":[192,180,75,238,247,23,158,213,157,37,235,128,135,81,148,124,254,38,46,180,196,229,5,205,203,189,194,18,227,71,140,181]}"#;
}

/// One circular `#[test]` per type on the transaction wire: the streamed
/// bytes read back as the value by the typed reader and as its record tree
/// (each struct the array of its fields) by the tree reader; that tree's
/// own bytes (byte arrays spelt as integers) and the keyed tree's read back
/// as the value too; and the streamed length is the length of the JSON text.
macro_rules! wire_round_trip {
    ($($name:ident: $ty:ty = $value:expr;)*) => {$(
        #[test]
        fn $name() {
            let value: $ty = $value;
            let bytes = serde::binary::write(&value);
            assert_eq!(serde::binary::read::<$ty>(&bytes).unwrap(), value);
            let records = record_tree(&value);
            assert_eq!(serde::binary::from_bytes(&bytes).unwrap(), records);
            let spelt = serde::binary::to_bytes(&records);
            assert_eq!(serde::binary::read::<$ty>(&spelt).unwrap(), value);
            let keyed = serde::binary::to_bytes(&value.to_value());
            assert_eq!(serde::binary::read::<$ty>(&keyed).unwrap(), value);
            let mut len = serde::json::Len::default();
            value.serialize(&mut len);
            assert_eq!(len.0, serde_json::to_string(&value).unwrap().len());
        }
    )*};
}

fn sample_packet() -> Packet {
    Packet {
        sequence: Sequence(300),
        source_port: PortId::transfer(),
        source_channel: ChannelId::with_index(0),
        destination_port: PortId::transfer(),
        destination_channel: ChannelId::with_index(129),
        data: b"denom=uatom\namount=1\n\x00\x7f\x80\xff".to_vec(),
        timeout_height: Height::new(1, 500),
        timeout_timestamp: SimTime::from_secs(90),
    }
}

fn sample_transfer() -> TransferParams {
    TransferParams {
        source_port: PortId::transfer(),
        source_channel: ChannelId::with_index(0),
        denom: "uatom".into(),
        amount: u128::MAX,
        sender: "alice \"a\"".into(),
        receiver: "bob\n".into(),
        timeout_height: Height::at(500),
        timeout_timestamp: SimTime::ZERO,
    }
}

/// A real Merkle branch: nine entries make a four-level tree.
fn sample_proof() -> CommitmentProof {
    let mut store = CommitmentStore::new();
    for i in 0..9u8 {
        store.set(format!("commitments/{i}"), sha256(&[i]));
    }
    store.prove_membership("commitments/4").expect("present")
}

fn sample_absence() -> NonMembershipProof {
    sample_store()
        .prove_non_membership("receipts/9")
        .expect("absent")
}

fn sample_validators() -> ValidatorSet {
    ValidatorSet::new(vec![
        Validator::new("val-0", 10),
        Validator::new("val-1", 200),
    ])
}

fn sample_commit() -> Commit {
    let signatures = [BlockIdFlag::Commit, BlockIdFlag::Nil, BlockIdFlag::Absent]
        .into_iter()
        .zip(0u8..)
        .map(|(flag, i)| CommitSig {
            flag,
            validator: ValidatorAddress::from_name(&format!("val-{i}")),
            timestamp: SimTime::from_secs(5),
            signature: sha256(&[i]),
        })
        .collect();
    Commit {
        height: 7,
        round: 1,
        block_id: BlockId {
            hash: sha256(b"block"),
        },
        signatures,
    }
}

fn sample_header() -> Header {
    Header {
        version: Version::default(),
        chain_id: "ibc-0".into(),
        height: 7,
        time: SimTime::from_secs(35),
        last_block_id: BlockId {
            hash: sha256(b"previous"),
        },
        last_commit_hash: sha256(b"last-commit"),
        data_hash: Hash::ZERO,
        validators_hash: sample_validators().hash(),
        next_validators_hash: sample_validators().hash(),
        consensus_hash: sha256(b"consensus"),
        app_hash: sha256(b"app"),
        last_results_hash: sha256(b"results"),
        evidence_hash: Hash([0xff; 32]),
        proposer_address: ValidatorAddress::from_name("val-0"),
    }
}

fn sample_update() -> ClientUpdate {
    ClientUpdate {
        header: sample_header(),
        commit: sample_commit(),
        validators: sample_validators(),
        ibc_root: sample_store().root(),
    }
}

fn relayer_tx() -> Tx {
    let msgs = vec![
        Msg::IbcUpdateClient {
            client_id: ClientId::with_index(0),
            update: Box::new(sample_update()),
            signer: AccountId::new("relayer-0"),
        },
        Msg::IbcRecvPacket {
            packet: sample_packet(),
            proof_commitment: sample_proof(),
            proof_height: Height::at(7),
            signer: AccountId::new("relayer-0"),
        },
    ];
    Tx::new(AccountId::new("relayer-0"), 12, msgs, "uatom")
}

wire_round_trip! {
    wire_msg_bank_send: Msg = sample_tx().msgs.remove(0);
    wire_msg_transfer: Msg = Msg::IbcTransfer(sample_transfer());
    wire_msg_recv_packet: Msg = relayer_tx().msgs.remove(1);
    wire_msg_acknowledgement: Msg = Msg::IbcAcknowledgement {
        packet: sample_packet(),
        acknowledgement: Acknowledgement::success(),
        proof_acked: sample_proof(),
        proof_height: Height::at(8),
        signer: AccountId::new("relayer-0"),
    };
    wire_msg_timeout: Msg = Msg::IbcTimeout {
        packet: sample_packet(),
        proof_unreceived: sample_absence(),
        proof_height: Height::at(9),
        signer: AccountId::new("relayer-0"),
    };
    wire_msg_update_client: Msg = relayer_tx().msgs.remove(0);
    wire_tx_user: Tx = sample_tx();
    wire_tx_relayer: Tx = relayer_tx();
    wire_transfer_params: TransferParams = sample_transfer();
    wire_packet: Packet = sample_packet();
    wire_ack_success: Acknowledgement = Acknowledgement::success();
    wire_ack_error: Acknowledgement = Acknowledgement::error("insufficient funds: \"uatom\"");
    wire_commitment_proof: CommitmentProof = sample_proof();
    wire_non_membership_proof: NonMembershipProof = sample_absence();
    wire_client_update: ClientUpdate = sample_update();
    wire_header: Header = sample_header();
    wire_commit: Commit = sample_commit();
    wire_commit_sig: CommitSig = sample_commit().signatures.remove(1);
    wire_validator_set: ValidatorSet = sample_validators();
    wire_validator: Validator = Validator::new("val-0", u64::MAX);
    wire_block_id: BlockId = BlockId { hash: sha256(b"block") };
    wire_version: Version = Version::default();
    wire_height: Height = Height::new(3, u64::MAX);
    wire_sim_time: SimTime = SimTime::from_secs(86_400);
    wire_coin: Coin = Coin::new("ibc/27394FB092D2ECCD", u128::MAX);
    wire_account_id: AccountId = AccountId::new("cosmos1\u{e9}\t");
    wire_hash: Hash = Hash(std::array::from_fn(|i| (i * 9) as u8));
    wire_port_id: PortId = PortId::transfer();
    wire_channel_id: ChannelId = ChannelId::with_index(4_000);
    wire_client_id: ClientId = ClientId::with_index(0);
    wire_connection_id: ConnectionId = ConnectionId::with_index(12);
    wire_chain_id: ChainId = ChainId::new("ibc-0");
    wire_sequence: Sequence = Sequence(u64::MAX);
}

/// The streamed bytes of each shared-string newtype, captured at the commit
/// before they held an `Arc<str>` (PR 21): a string tag, the length, the text.
/// `wire_round_trip!` above holds the streamed path to the tree path; this
/// holds the streamed path to the bytes every committed transaction hash is
/// made from.
#[test]
fn identifier_wire_bytes_are_pinned() {
    fn bytes(value: impl Serialize) -> Vec<u8> {
        serde::binary::write(&value)
    }
    assert_eq!(bytes(PortId::transfer()), b"\x06\x08transfer");
    assert_eq!(bytes(ChannelId::with_index(4_000)), b"\x06\x0cchannel-4000");
    assert_eq!(bytes(ClientId::with_index(0)), b"\x06\x0f07-tendermint-0");
    assert_eq!(
        bytes(ConnectionId::with_index(12)),
        b"\x06\x0dconnection-12"
    );
    assert_eq!(bytes(ChainId::new("ibc-0")), b"\x06\x05ibc-0");
    assert_eq!(
        bytes(AccountId::new("cosmos1\u{e9}\t")),
        b"\x06\x0acosmos1\xc3\xa9\t"
    );
}

/// A byte array is one run: tag 9, the length as a varint, the raw bytes.
/// These literals fix the format every transaction hash is made from; the
/// tree path spells the same arrays as integers and cannot.
#[test]
fn byte_run_wire_bytes_are_pinned() {
    let hash = Hash(std::array::from_fn(|i| (i * 9) as u8));
    let mut expected = b"\x09\x20".to_vec();
    expected.extend(b"\x00\x09\x12\x1b\x24\x2d\x36\x3f\x48\x51\x5a\x63\x6c\x75\x7e\x87");
    expected.extend(b"\x90\x99\xa2\xab\xb4\xbd\xc6\xcf\xd8\xe1\xea\xf3\xfc\x05\x0e\x17");
    assert_eq!(serde::binary::write(&hash), expected);
    assert_eq!(serde::binary::write(&Vec::<u8>::new()), b"\x09\x00");
    let data: Vec<u8> = (0..1_025u32).map(|i| (i % 251) as u8).collect();
    let bytes = serde::binary::write(&data);
    assert_eq!(bytes.len(), 3 + 1_025);
    assert_eq!(bytes[..3], *b"\x09\x81\x08");
    assert_eq!(bytes[3..], data[..]);
}

/// A struct is a record: tag 7, its field count, then its field values in
/// declared order with no names. A variant keeps its tag as the one key of a
/// map (tag 8). These literals fix the layout every transaction hash is made
/// from; the keyed tree `to_value` builds cannot.
#[test]
fn record_wire_bytes_are_pinned() {
    let coin = Coin::new("uatom", 7);
    assert_eq!(
        serde::binary::write(&coin),
        b"\x07\x02\x06\x05uatom\x04\x07"
    );
    assert_eq!(
        serde::binary::write(&Height::new(3, 300)),
        b"\x07\x02\x04\x03\x04\xac\x02"
    );
    let send = sample_tx().msgs.remove(0);
    let mut expected = b"\x08\x01\x08BankSend\x07\x03".to_vec();
    expected.extend(b"\x06\x05alice\x06\x03bob\x07\x02\x06\x05uatom\x04\x07");
    assert_eq!(serde::binary::write(&send), expected);
}
