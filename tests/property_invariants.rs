//! Property-based tests on core data structures and protocol invariants.

use proptest::prelude::*;

use ibc_perf_repro::chain::account::AccountKeeper;
use ibc_perf_repro::chain::bank::BankModule;
use ibc_perf_repro::chain::coin::Coin;
use ibc_perf_repro::ibc::commitment::CommitmentStore;
use ibc_perf_repro::ibc::height::Height;
use ibc_perf_repro::ibc::ids::{ChannelId, PortId, Sequence};
use ibc_perf_repro::ibc::packet::Packet;
use ibc_perf_repro::ibc::transfer::{
    escrow_address, on_recv_packet, refund, send_coins, BankKeeper, FungibleTokenPacketData,
};
use ibc_perf_repro::sim::{FifoServer, SimDuration, SimTime};
use ibc_perf_repro::tendermint::hash::{sha256, Sha256};
use ibc_perf_repro::tendermint::merkle::{prove, simple_root};

proptest! {
    /// Merkle proofs generated for any leaf of any tree verify against the
    /// root, and fail against a different leaf.
    #[test]
    fn merkle_proofs_verify_for_all_leaves(leaves in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..40), index in any::<prop::sample::Index>()) {
        let refs: Vec<&[u8]> = leaves.iter().map(|l| l.as_slice()).collect();
        let i = index.index(refs.len());
        let root = simple_root(refs.iter().copied());
        let (proved_root, proof) = prove(refs.iter().copied(), i).expect("index in range");
        prop_assert_eq!(proved_root, root);
        prop_assert!(proof.verify(&root, &leaves[i]));
        prop_assert!(!proof.verify(&root, b"not-a-leaf-of-this-tree"));
    }

    /// However the input is cut into `update` calls — empty ones included —
    /// the streaming hasher's digest is the one-shot digest.
    #[test]
    fn sha256_is_independent_of_how_the_input_is_split(data in prop::collection::vec(any::<u8>(), 0..4097), cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..12)) {
        let mut cuts: Vec<usize> = cuts.iter().map(|cut| cut.index(data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut hasher = Sha256::new();
        let mut fed = 0;
        for cut in cuts {
            hasher.update(&data[fed..cut]);
            fed = cut;
        }
        hasher.update(&data[fed..]);
        prop_assert_eq!(hasher.finalize(), sha256(&data));
    }

    /// The commitment store root is insensitive to insertion order.
    #[test]
    fn commitment_root_is_order_independent(entries in prop::collection::btree_map("[a-z]{1,12}", prop::collection::vec(any::<u8>(), 1..16), 1..20)) {
        let mut forward = CommitmentStore::new();
        let mut backward = CommitmentStore::new();
        for (key, value) in entries.iter() {
            forward.set(key.clone(), sha256(value));
        }
        for (key, value) in entries.iter().rev() {
            backward.set(key.clone(), sha256(value));
        }
        prop_assert_eq!(forward.root(), backward.root());
    }

    /// Bank transfers never create or destroy supply, whatever sequence of
    /// valid operations runs.
    #[test]
    fn bank_transfers_conserve_supply(amounts in prop::collection::vec(1u128..1_000, 1..30)) {
        let mut bank = BankModule::new();
        let alice = "alice".into();
        let bob = "bob".into();
        let initial: u128 = 1_000_000;
        bank.mint_coins(&alice, &Coin::new("uatom", initial));
        for amount in amounts {
            let _ = bank.transfer(&alice, &bob, &Coin::new("uatom", amount));
            let _ = bank.transfer(&bob, &alice, &Coin::new("uatom", amount / 2));
        }
        prop_assert_eq!(bank.total_supply("uatom"), initial);
        prop_assert_eq!(bank.balance(&alice, "uatom") + bank.balance(&bob, "uatom"), initial);
    }

    /// ICS-20 escrow/refund round-trips leave the sender's balance unchanged,
    /// and escrow/recv conserves value across the two chains.
    #[test]
    fn ics20_escrow_and_refund_conserve_value(amount in 1u128..10_000) {
        let port = PortId::transfer();
        let chan_a = ChannelId::with_index(0);
        let chan_b = ChannelId::with_index(0);
        let mut bank_a = BankModule::new();
        let mut bank_b = BankModule::new();
        bank_a.mint_coins(&"alice".into(), &Coin::new("uatom", amount));

        let data = FungibleTokenPacketData {
            denom: "uatom".into(),
            amount,
            sender: "alice".into(),
            receiver: "bob".into(),
        };
        send_coins(&mut bank_a, &port, &chan_a, &data).unwrap();
        let escrow = escrow_address(&port, &chan_a);
        prop_assert_eq!(bank_a.balance(&"alice".into(), "uatom"), 0);
        prop_assert_eq!(bank_a.balance(&escrow.as_str().into(), "uatom"), amount);

        let packet = Packet {
            sequence: Sequence::FIRST,
            source_port: port.clone(),
            source_channel: chan_a.clone(),
            destination_port: port.clone(),
            destination_channel: chan_b.clone(),
            data: data.to_bytes(),
            timeout_height: Height::ZERO,
            timeout_timestamp: SimTime::ZERO,
        };
        // Either the packet is delivered (vouchers minted on B)…
        let ack = on_recv_packet(&mut bank_b, &packet);
        prop_assert!(ack.is_success());
        let voucher = format!("transfer/{chan_b}/uatom");
        prop_assert_eq!(BankKeeper::send(&mut bank_b, "bob", "carol", &voucher, amount), Ok(()));
        // …or, on a parallel universe source chain, it times out and the
        // refund restores the sender in full.
        let mut bank_a2 = BankModule::new();
        bank_a2.mint_coins(&"alice".into(), &Coin::new("uatom", amount));
        send_coins(&mut bank_a2, &port, &chan_a, &data).unwrap();
        refund(&mut bank_a2, &packet).unwrap();
        prop_assert_eq!(bank_a2.balance(&"alice".into(), "uatom"), amount);
    }

    /// The FIFO server never finishes a job before it arrived, never before a
    /// previously submitted job, and its busy time equals the sum of service
    /// times.
    #[test]
    fn fifo_server_is_causal_and_work_conserving(jobs in prop::collection::vec((0u64..10_000, 1u64..5_000), 1..50)) {
        let mut server = FifoServer::new("prop");
        let mut arrivals: Vec<(u64, u64)> = jobs;
        arrivals.sort_by_key(|(at, _)| *at);
        let mut previous_completion = SimTime::ZERO;
        let mut total_service = SimDuration::ZERO;
        for (at, service_ms) in arrivals {
            let arrival = SimTime::from_nanos(at * 1_000_000);
            let service = SimDuration::from_millis(service_ms);
            let completion = server.submit(arrival, service);
            prop_assert!(completion >= arrival + service);
            prop_assert!(completion >= previous_completion);
            previous_completion = completion;
            total_service += service;
        }
        prop_assert_eq!(server.busy_time(), total_service);
    }

    /// Account sequences increase monotonically no matter the interleaving of
    /// increments.
    #[test]
    fn account_sequences_are_monotone(ops in prop::collection::vec(0usize..3, 1..60)) {
        let mut keeper = AccountKeeper::new();
        let users = ["a", "b", "c"];
        for user in users {
            keeper.get_or_create(&user.into());
        }
        let mut last = [0u64; 3];
        for op in ops {
            keeper.increment_sequence(&users[op].into());
            let now = keeper.sequence(&users[op].into());
            prop_assert_eq!(now, last[op] + 1);
            last[op] = now;
        }
    }
}
