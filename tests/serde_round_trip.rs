//! Wire-format pins, one per type whose JSON shape committed fixtures and
//! spec files depend on: each value must survive `to_string → from_str`
//! unchanged, and its compact JSON must equal the pinned literal. The
//! literals were captured from the hand-written impls these derives
//! replaced, so any byte of drift here is a wire-format change.

use ibc_perf_repro::chain::account::AccountId;
use ibc_perf_repro::chain::coin::Coin;
use ibc_perf_repro::chain::msg::Msg;
use ibc_perf_repro::chain::tx::Tx;
use ibc_perf_repro::framework::config::{DeploymentConfig, WorkloadConfig};
use ibc_perf_repro::framework::fault::{FaultChain, FaultEvent, FaultPlan};
use ibc_perf_repro::framework::topology::{HopRoute, Topology, TopologyEdge};
use ibc_perf_repro::ibc::commitment::CommitmentStore;
use ibc_perf_repro::relayer::strategy::{ChannelPolicy, RelayerStrategy};
use ibc_perf_repro::sim::SimDuration;
use ibc_perf_repro::tendermint::hash::sha256;

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
    // Populate the Merkle memo: it must never reach the wire.
    store.root();
    store
}

serde_round_trip! {
    topology_edge: TopologyEdge = TopologyEdge::new("ibc-0", "ibc-1") => r#"{"src":"ibc-0","dst":"ibc-1","channels":0}"#;
    topology: Topology = Topology::line(3) => r#"{"chains":["ibc-0","ibc-1","ibc-2"],"edges":[{"src":"ibc-0","dst":"ibc-1","channels":0},{"src":"ibc-1","dst":"ibc-2","channels":0}]}"#;
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
        .packet_clearing(4) => r#"{"event_source":"WebSocket","fetcher":"Sequential","submission":"Eager","coordination":"None","channel_policy":"Dedicated","ws_frame_limit_bytes":262144,"packet_clear_interval":4,"sequence_tracking":"Resync"}"#;
    workload_config: WorkloadConfig = WorkloadConfig {
        channel_weights: vec![2, 1],
        hop_plan: Topology::hub_and_spoke_routes(1),
        ..WorkloadConfig::default()
    } => r#"{"total_transfers":5000,"transfers_per_tx":100,"submission_blocks":1,"measurement_blocks":50,"timeout_blocks":0,"cli_cost_per_tx":12000000,"run_to_completion":true,"completion_grace_blocks":400,"channel_weights":[2,1],"hop_plan":[{"first_leg":0,"second_leg":1}]}"#;
    deployment_config: DeploymentConfig = DeploymentConfig::default() => r#"{"source_chain_id":"ibc-0","destination_chain_id":"ibc-1","validators_per_chain":5,"network_rtt_ms":200,"min_block_interval":5000000000,"relayer_count":1,"channel_count":1,"relayer_strategy":{"event_source":"WebSocket","fetcher":"Sequential","submission":"Eager","coordination":"None","channel_policy":"FairShare","ws_frame_limit_bytes":0,"packet_clear_interval":0,"sequence_tracking":"Resync"},"user_accounts":64,"account_balance":1000000000000,"seed":42,"batched_pull_per_item_us":120,"report_broadcast_failures":false,"fault_plan":{"events":[]},"topology":{"chains":[],"edges":[]}}"#;
    deployment_config_profiled: DeploymentConfig = DeploymentConfig {
        channel_count: 2,
        batched_pull_per_item_us: 0,
        report_broadcast_failures: true,
        topology: Topology::line(2),
        profile_work: true,
        ..DeploymentConfig::default()
    } => r#"{"source_chain_id":"ibc-0","destination_chain_id":"ibc-1","validators_per_chain":5,"network_rtt_ms":200,"min_block_interval":5000000000,"relayer_count":1,"channel_count":2,"relayer_strategy":{"event_source":"WebSocket","fetcher":"Sequential","submission":"Eager","coordination":"None","channel_policy":"FairShare","ws_frame_limit_bytes":0,"packet_clear_interval":0,"sequence_tracking":"Resync"},"user_accounts":64,"account_balance":1000000000000,"seed":42,"batched_pull_per_item_us":0,"report_broadcast_failures":true,"fault_plan":{"events":[]},"topology":{"chains":["ibc-0","ibc-1"],"edges":[{"src":"ibc-0","dst":"ibc-1","channels":0}]},"profile_work":true}"#;
    tx: Tx = sample_tx() => r#"{"msgs":[{"BankSend":{"from":"alice","to":"bob","amount":{"denom":"uatom","amount":7}}}],"signer":"alice","sequence":3,"gas_limit":105000,"fee":{"denom":"uatom","amount":1050},"memo":"","signature":[192,180,75,238,247,23,158,213,157,37,235,128,135,81,148,124,254,38,46,180,196,229,5,205,203,189,194,18,227,71,140,181]}"#;
    commitment_store: CommitmentStore = sample_store() => r#"{"entries":{"acks/1":[100,163,121,41,251,17,62,24,218,166,38,58,31,177,249,12,81,210,98,85,46,250,90,80,89,111,95,101,59,169,85,248],"commitments/1":[58,110,176,121,15,57,172,135,201,79,56,86,178,221,44,93,17,14,104,17,96,34,97,169,169,35,211,187,35,173,200,183]}}"#;
}
