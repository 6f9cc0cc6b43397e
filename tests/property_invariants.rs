//! Property-based tests on core data structures and protocol invariants.

use std::collections::BTreeMap;

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
use ibc_perf_repro::tendermint::hash::{sha256, Hash, Sha256};
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

    /// However the input is cut into `update` calls — empty ones included,
    /// and cuts that land exactly on a 64-byte block edge, where a whole run
    /// of blocks goes to the block kernel straight from the caller's slice —
    /// the streaming hasher's digest is the one-shot digest.
    #[test]
    fn sha256_is_independent_of_how_the_input_is_split(data in prop::collection::vec(any::<u8>(), 0..4097), cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..12), edges in prop::collection::vec(any::<prop::sample::Index>(), 0..4)) {
        let mut cuts: Vec<usize> = cuts.iter().map(|cut| cut.index(data.len() + 1)).collect();
        cuts.extend(edges.iter().map(|edge| 64 * edge.index(data.len() / 64 + 1)));
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

    /// The commitment store root is insensitive to insertion order, and under
    /// any interleaving of writes and reads the store answers like the free
    /// functions over the sorted `path 0x00 value` encodings. A write step
    /// checks its return value only, so runs of writes reach a read with no
    /// tree build between them.
    #[test]
    fn commitment_root_is_order_independent(entries in prop::collection::btree_map("[a-z]{1,12}", prop::collection::vec(any::<u8>(), 1..16), 1..20), steps in prop::collection::vec((0u8..5, "[a-c]{1,2}", any::<u8>()), 0..60)) {
        let mut forward = CommitmentStore::new();
        let mut backward = CommitmentStore::new();
        for (key, value) in entries.iter() {
            forward.set(key.clone(), sha256(value));
        }
        for (key, value) in entries.iter().rev() {
            backward.set(key.clone(), sha256(value));
        }
        prop_assert_eq!(forward.root(), backward.root());

        let mut store = forward;
        let mut model: BTreeMap<String, Hash> = entries.iter().map(|(key, value)| (key.clone(), sha256(value))).collect();
        let encodings = |model: &BTreeMap<String, Hash>| -> Vec<Vec<u8>> {
            model.iter().map(|(path, value)| [path.as_bytes(), &[0], value.as_bytes()].concat()).collect()
        };
        for (kind, key, byte) in steps {
            // Deletes and proofs aim at the step's own key when it is present
            // and otherwise, two times in three, at the path whose rank the
            // byte picks; the rest stay absent.
            let target = match model.keys().nth(byte as usize % model.len().max(1)) {
                Some(present) if !model.contains_key(&key) && byte % 3 != 0 => present.clone(),
                _ => key.clone(),
            };
            match kind {
                0 | 1 => prop_assert_eq!(store.set(key.clone(), sha256(&[byte])), model.insert(key, sha256(&[byte]))),
                2 => prop_assert_eq!(store.delete(&target), model.remove(&target)),
                3 if model.is_empty() => prop_assert_eq!(store.root(), CommitmentStore::new().root()),
                3 => prop_assert_eq!(store.root(), simple_root(encodings(&model).iter().map(|e| e.as_slice()))),
                _ => {
                    let Some(rank) = model.keys().position(|path| *path == target) else {
                        prop_assert!(store.prove_membership(&target).is_none());
                        continue;
                    };
                    let (root, merkle) = prove(encodings(&model).iter().map(|e| e.as_slice()), rank).expect("rank in range");
                    let proof = store.prove_membership(&target).expect("path is present");
                    prop_assert_eq!((&proof.path, proof.value, proof.root), (&target, model[&target], root));
                    prop_assert!(proof.verify(&root));
                    prop_assert_eq!(proof.encoded_size(), target.len() + 96 + 32 * merkle.siblings.len());
                    let branch = format!("\"merkle\":{}", serde_json::to_string(&merkle).unwrap());
                    prop_assert!(serde_json::to_string(&proof).unwrap().contains(&branch));
                }
            }
        }
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
            denom: "uatom",
            amount,
            sender: "alice",
            receiver: "bob",
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

// ---------------------------------------------------------------------------
// The typed transaction codec against the `Value` path it replaced
// ---------------------------------------------------------------------------

mod codec {
    use std::fmt::Debug;

    use ibc_perf_repro::chain::msg::Msg;
    use ibc_perf_repro::chain::tx::Tx;
    use ibc_perf_repro::framework::config::DeploymentConfig;
    use ibc_perf_repro::ibc::client::ClientUpdate;
    use ibc_perf_repro::ibc::commitment::CommitmentStore;
    use ibc_perf_repro::ibc::height::Height;
    use ibc_perf_repro::ibc::ids::{ChannelId, ClientId, PortId, Sequence};
    use ibc_perf_repro::ibc::packet::{Acknowledgement, Packet};
    use ibc_perf_repro::relayer::strategy::RelayerStrategy;
    use ibc_perf_repro::sim::SimTime;
    use ibc_perf_repro::tendermint::block::{BlockId, Header, RawTx, Version};
    use ibc_perf_repro::tendermint::hash::{sha256, Hash};
    use ibc_perf_repro::tendermint::validator::{ValidatorAddress, ValidatorSet};
    use ibc_perf_repro::tendermint::vote::{BlockIdFlag, Commit, CommitSig};
    use proptest::prelude::*;
    use serde::{binary, Deserialize, Serialize, Value};

    /// The typed reader and the tree-building path must both fail on `bytes`
    /// or both give the same `T`.
    fn assert_same_verdict<T: Deserialize + PartialEq + Debug>(bytes: &[u8]) -> Option<T> {
        let typed = binary::read::<T>(bytes).ok();
        let by_value = binary::from_bytes(bytes)
            .and_then(|tree| T::from_value(&tree))
            .ok();
        assert_eq!(typed, by_value, "verdicts differ on {bytes:?}");
        typed
    }

    fn assert_same_tx_verdict(bytes: &[u8]) -> Option<Tx> {
        let verdict = assert_same_verdict::<Tx>(bytes);
        assert_eq!(Tx::decode(&RawTx::new(bytes.to_vec())).ok(), verdict);
        verdict
    }

    fn packet(seq: u64, data: &[u8]) -> Packet {
        Packet {
            sequence: Sequence(seq),
            source_port: PortId::transfer(),
            source_channel: ChannelId::with_index(0),
            destination_port: PortId::transfer(),
            destination_channel: ChannelId::with_index(1),
            data: data.to_vec(),
            timeout_height: Height::at(seq / 2),
            timeout_timestamp: SimTime::from_nanos(seq),
        }
    }

    fn update_client(root: Hash, height: u64) -> Msg {
        let validators = ValidatorSet::with_equal_power(2, 10);
        let block_id = BlockId {
            hash: sha256(&height.to_be_bytes()),
        };
        let signatures = validators
            .validators()
            .iter()
            .map(|v| CommitSig {
                flag: BlockIdFlag::Commit,
                validator: v.address,
                timestamp: SimTime::from_secs(height),
                signature: sha256(v.name.as_bytes()),
            })
            .collect();
        let header = Header {
            version: Version::default(),
            chain_id: "ibc-1".into(),
            height,
            time: SimTime::from_secs(5 * height),
            last_block_id: block_id,
            last_commit_hash: root,
            data_hash: Hash::ZERO,
            validators_hash: validators.hash(),
            next_validators_hash: validators.hash(),
            consensus_hash: root,
            app_hash: root,
            last_results_hash: Hash::ZERO,
            evidence_hash: Hash::ZERO,
            proposer_address: ValidatorAddress::from_name("val-0"),
        };
        Msg::IbcUpdateClient {
            client_id: ClientId::with_index(0),
            update: Box::new(ClientUpdate {
                header,
                commit: Commit {
                    height,
                    round: 0,
                    block_id,
                    signatures,
                },
                validators,
                ibc_root: root,
            }),
            signer: "relayer-0".into(),
        }
    }

    /// A relayer batch as Hermes builds one: an update-client, then a recv
    /// or an ack per packet, each with the Merkle branch of a store that
    /// holds every packet of the batch and `padding` more entries.
    fn relayer_tx(packets: &[(u64, Vec<u8>)], padding: u8, nonce: u64) -> Tx {
        let mut store = CommitmentStore::new();
        for i in 0..padding {
            store.set(format!("acks/{i}"), sha256(&[i]));
        }
        for (seq, data) in packets {
            store.set(
                format!("commitments/{seq}"),
                packet(*seq, data).commitment(),
            );
        }
        let mut msgs = vec![update_client(store.root(), nonce % 1_000 + 2)];
        for (seq, data) in packets {
            let packet = packet(*seq, data);
            let proof = store
                .prove_membership(&format!("commitments/{seq}"))
                .expect("just committed");
            msgs.push(if seq % 2 == 0 {
                Msg::IbcRecvPacket {
                    packet,
                    proof_commitment: proof,
                    proof_height: Height::at(nonce),
                    signer: "relayer-0".into(),
                }
            } else {
                Msg::IbcAcknowledgement {
                    packet,
                    acknowledgement: if seq % 3 == 0 {
                        Acknowledgement::error("denied")
                    } else {
                        Acknowledgement::success()
                    },
                    proof_acked: proof,
                    proof_height: Height::at(nonce),
                    signer: "relayer-0".into(),
                }
            });
        }
        Tx::new("relayer-0".into(), nonce, msgs, "uatom")
    }

    /// Applies `edit` to the `pick`-th map of a copy of `tree` (counting
    /// outermost first, wrapping around) and returns the copy's bytes.
    fn with_edited_map(
        tree: &Value,
        pick: usize,
        edit: impl FnOnce(&mut Vec<(String, Value)>),
    ) -> Vec<u8> {
        fn nth<'a>(tree: &'a mut Value, n: &mut usize) -> Option<&'a mut Vec<(String, Value)>> {
            match tree {
                Value::Map(entries) => {
                    if *n == 0 {
                        return Some(entries);
                    }
                    *n -= 1;
                    entries.iter_mut().find_map(|(_, value)| nth(value, n))
                }
                Value::Seq(items) => items.iter_mut().find_map(|item| nth(item, n)),
                _ => None,
            }
        }
        fn count(tree: &Value) -> usize {
            match tree {
                Value::Map(entries) => 1 + entries.iter().map(|(_, v)| count(v)).sum::<usize>(),
                Value::Seq(items) => items.iter().map(count).sum(),
                _ => 0,
            }
        }
        let mut copy = tree.clone();
        let mut n = pick % count(tree).max(1);
        if let Some(entries) = nth(&mut copy, &mut n) {
            edit(entries);
        }
        binary::to_bytes(&copy)
    }

    /// The key edits a hand-written or older payload can carry, each applied
    /// to one map somewhere in the tree: reordered, unknown, duplicated (the
    /// impostor before or after the real entry) and missing keys.
    fn assert_map_edits_agree<T: Deserialize + Serialize + PartialEq + Debug>(
        value: &T,
        pick: usize,
        at: usize,
    ) {
        let tree = value.to_value();
        let junk = Value::Seq(vec![Value::Str("junk".into()), Value::Null]);
        let slot = |entries: &Vec<(String, Value)>| at % entries.len().max(1);

        let rotated = with_edited_map(&tree, pick, |entries| {
            let by = slot(entries);
            entries.rotate_left(by);
        });
        assert_eq!(assert_same_verdict::<T>(&rotated).as_ref(), Some(value));
        let reversed = with_edited_map(&tree, pick, |entries| entries.reverse());
        assert_eq!(assert_same_verdict::<T>(&reversed).as_ref(), Some(value));

        let unknown = with_edited_map(&tree, pick, |entries| {
            let i = at % (entries.len() + 1);
            entries.insert(i, ("no_such_field".into(), junk.clone()));
        });
        assert_same_verdict::<T>(&unknown);

        let shadowed_late = with_edited_map(&tree, pick, |entries| {
            if let Some((key, _)) = entries.get(slot(entries)).cloned() {
                entries.push((key, junk.clone()));
            }
        });
        assert_same_verdict::<T>(&shadowed_late);
        let shadowed_early = with_edited_map(&tree, pick, |entries| {
            if let Some((key, _)) = entries.get(slot(entries)).cloned() {
                entries.insert(0, (key, junk.clone()));
            }
        });
        assert_same_verdict::<T>(&shadowed_early);

        let missing = with_edited_map(&tree, pick, |entries| {
            if !entries.is_empty() {
                entries.remove(slot(entries));
            }
        });
        assert_same_verdict::<T>(&missing);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Random relayer batches encode to the bytes and the length the
        /// tree path gives, and every truncation of the payload is rejected
        /// by both decoders.
        #[test]
        fn relayer_batches_encode_identically_and_reject_every_truncation(
            packets in prop::collection::vec((1u64..5_000, prop::collection::vec(any::<u8>(), 0..40)), 0..3),
            padding in 0u8..40,
            nonce in any::<u64>(),
        ) {
            let tx = relayer_tx(&packets, padding, nonce);
            let raw = tx.encode();
            let tree = tx.to_value();
            prop_assert_eq!(raw.as_bytes(), binary::to_bytes(&tree).as_slice());
            prop_assert_eq!(raw.len(), serde::json::encoded_len(&tree));
            prop_assert_eq!(raw.len(), serde_json::to_string(&tx).unwrap().len());
            prop_assert_eq!(assert_same_tx_verdict(raw.as_bytes()), Some(tx));
            for cut in 0..raw.as_bytes().len() {
                prop_assert_eq!(assert_same_tx_verdict(&raw.as_bytes()[..cut]), None);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A flipped byte anywhere in a payload — a tag, a length, a key, a
        /// digit of a hash — gets the same verdict from both decoders, and
        /// when it still decodes, the same transaction.
        #[test]
        fn byte_flips_get_the_same_verdict(
            packets in prop::collection::vec((1u64..5_000, prop::collection::vec(any::<u8>(), 0..40)), 1..4),
            padding in 0u8..40,
            flips in prop::collection::vec((any::<prop::sample::Index>(), 1u16..256), 40..41),
        ) {
            let bytes = relayer_tx(&packets, padding, 7).encode().as_bytes().to_vec();
            for (at, mask) in flips {
                let mut mutated = bytes.clone();
                mutated[at.index(bytes.len())] ^= mask as u8;
                assert_same_tx_verdict(&mutated);
            }
        }

        /// Keys reordered, unknown, duplicated or missing in any one map of
        /// the tree — the transaction's own, a message's, a proof's, a
        /// header's — resolve the way a lookup in the parsed map does; the
        /// two config types carry the `#[serde(default)]` fields.
        #[test]
        fn edited_maps_get_the_same_verdict(
            packets in prop::collection::vec((1u64..5_000, prop::collection::vec(any::<u8>(), 0..8)), 1..3),
            pick in any::<usize>(),
            at in any::<usize>(),
        ) {
            assert_map_edits_agree(&relayer_tx(&packets, 5, 1), pick, at);
            assert_map_edits_agree(&RelayerStrategy::default().frame_limit(4_096), pick, at);
            assert_map_edits_agree(&DeploymentConfig::default(), pick, at);
        }
    }
}

// ---------------------------------------------------------------------------
// The commitment-prefix walk against the scan over history it replaced
// ---------------------------------------------------------------------------

mod outstanding {
    use ibc_perf_repro::chain::bank::BankModule;
    use ibc_perf_repro::chain::chain::Chain;
    use ibc_perf_repro::chain::coin::Coin;
    use ibc_perf_repro::chain::genesis::GenesisConfig;
    use ibc_perf_repro::ibc::channel::Order;
    use ibc_perf_repro::ibc::commitment::{CommitmentRoot, NonMembershipProof};
    use ibc_perf_repro::ibc::height::Height;
    use ibc_perf_repro::ibc::host;
    use ibc_perf_repro::ibc::ids::{ChannelId, PortId, Sequence};
    use ibc_perf_repro::ibc::module::{HostContext, IbcModule, TransferParams};
    use ibc_perf_repro::sim::SimTime;
    use proptest::prelude::*;

    /// Two connected modules with eleven open transfer channels, so that the
    /// source end has both `channel-1` and `channel-10` — one id a string
    /// prefix of the other.
    struct Pair {
        a: IbcModule,
        b: IbcModule,
        bank_a: BankModule,
        bank_b: BankModule,
        /// B's root as A's client of it recorded it: what a non-receipt proof
        /// is checked against.
        root_b_on_a: CommitmentRoot,
    }

    const CHANNELS: [u64; 2] = [1, 10];

    fn ctx() -> HostContext {
        HostContext {
            height: Height::at(2),
            time: SimTime::from_secs(10),
        }
    }

    impl Pair {
        fn new() -> Self {
            let header = |chain_id: &str| {
                let mut chain = Chain::new(GenesisConfig::new(chain_id));
                chain.produce_block(SimTime::from_secs(5));
                chain.block_at(1).unwrap().block.header.clone()
            };
            let mut a = IbcModule::new("chain-a");
            let mut b = IbcModule::new("chain-b");
            let root_b_on_a = b.commitment_root();
            let (client_on_a, _) = a.create_client(&header("chain-b"), root_b_on_a);
            let (client_on_b, _) = b.create_client(&header("chain-a"), a.commitment_root());
            let (conn_a, _) = a.conn_open_init(&client_on_a, &client_on_b).unwrap();
            let (conn_b, _) = b
                .conn_open_try(&client_on_b, &client_on_a, &conn_a)
                .unwrap();
            a.conn_open_ack(&conn_a, &conn_b).unwrap();
            b.conn_open_confirm(&conn_b).unwrap();
            let port = PortId::transfer();
            for _ in 0..=CHANNELS[1] {
                let (chan_a, _) = a
                    .chan_open_init(&port, &conn_a, &port, Order::Unordered)
                    .unwrap();
                let (chan_b, _) = b
                    .chan_open_try(&port, &conn_b, &port, &chan_a, Order::Unordered)
                    .unwrap();
                a.chan_open_ack(&port, &chan_a, &chan_b).unwrap();
                b.chan_open_confirm(&port, &chan_b).unwrap();
            }
            let mut bank_a = BankModule::new();
            bank_a.mint_coins(&"alice".into(), &Coin::new("uatom", 1_000_000));
            Pair {
                a,
                b,
                bank_a,
                bank_b: BankModule::new(),
                root_b_on_a,
            }
        }

        fn send(&mut self, channel: &ChannelId) {
            let params = TransferParams {
                source_port: PortId::transfer(),
                source_channel: channel.clone(),
                denom: "uatom".into(),
                amount: 1,
                sender: "alice".into(),
                receiver: "bob".into(),
                timeout_height: Height::at(5),
                timeout_timestamp: SimTime::ZERO,
            };
            (self.a.send_transfer(&ctx(), &mut self.bank_a, &params)).unwrap();
        }

        /// Receives `seq` on B; a second receive is refused and changes
        /// nothing.
        fn recv(&mut self, channel: &ChannelId, seq: Sequence) {
            let port = PortId::transfer();
            let packet = self.a.sent_packet(&port, channel, seq).unwrap().clone();
            let proof = self.a.prove_packet_commitment(&port, channel, seq).unwrap();
            let _ = (self.b).recv_packet(&ctx(), &mut self.bank_b, &packet, &proof, Height::at(1));
        }

        fn acknowledge(&mut self, channel: &ChannelId, seq: Sequence) {
            self.recv(channel, seq);
            let port = PortId::transfer();
            let packet = self.a.sent_packet(&port, channel, seq).unwrap().clone();
            let ack = (self.b.packet_acknowledgement(&port, channel, seq))
                .unwrap()
                .clone();
            let proof = (self.b.prove_packet_acknowledgement(&port, channel, seq)).unwrap();
            (self.a)
                .acknowledge_packet(
                    &ctx(),
                    &mut self.bank_a,
                    &packet,
                    &ack,
                    &proof,
                    Height::at(1),
                )
                .unwrap();
        }

        fn timeout(&mut self, channel: &ChannelId, seq: Sequence) {
            let port = PortId::transfer();
            let packet = self.a.sent_packet(&port, channel, seq).unwrap().clone();
            let proof = NonMembershipProof {
                path: host::packet_receipt_path(&port, channel, seq),
                root: self.root_b_on_a,
            };
            (self.a)
                .timeout_packet(&ctx(), &mut self.bank_a, &packet, &proof, Height::at(9))
                .unwrap();
        }

        /// The new query and its count agree with the scan over everything
        /// ever sent, on both channels.
        fn assert_agrees_with_the_scan(&self) {
            let port = PortId::transfer();
            for index in CHANNELS {
                let channel = ChannelId::with_index(index);
                let sent = self.a.sent_sequences(&port, &channel);
                let scanned = self.a.unacknowledged_packets(&port, &channel, &sent);
                let walked = self.a.outstanding_commitments(&port, &channel);
                prop_assert_eq!(&walked, &scanned);
                let count = self.a.outstanding_commitment_count(&port, &channel);
                prop_assert_eq!(count, scanned.len());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random send / recv / acknowledge / timeout / rolled-back steps over
        /// `channel-1` and `channel-10`, with sequences crossing 9 → 10 on
        /// one and 99 → 100 on the other: after every step the prefix walk
        /// (sorted ascending) is the old scan's answer.
        #[test]
        fn outstanding_commitments_equal_the_scan_over_everything_sent(
            steps in prop::collection::vec((0u8..5, any::<bool>(), any::<prop::sample::Index>()), 1..80),
            drained in any::<bool>(),
        ) {
            let mut pair = Pair::new();
            pair.assert_agrees_with_the_scan();
            // Park each channel just below a digit boundary; on half the
            // cases with nothing outstanding, so the empty answer is covered.
            for (index, warm_up) in CHANNELS.into_iter().zip([8u64, 98]) {
                let channel = ChannelId::with_index(index);
                for seq in 1..=warm_up {
                    pair.send(&channel);
                    if drained || seq % 3 == 0 {
                        pair.acknowledge(&channel, Sequence::from(seq));
                    }
                }
            }
            pair.assert_agrees_with_the_scan();

            let port = PortId::transfer();
            for (op, on_ten, pick) in steps {
                let channel = ChannelId::with_index(CHANNELS[usize::from(on_ten)]);
                let outstanding = pair.a.outstanding_commitments(&port, &channel);
                let picked = (!outstanding.is_empty()).then(|| outstanding[pick.index(outstanding.len())]);
                match (op, picked) {
                    (0, _) | (_, None) => pair.send(&channel),
                    (1, Some(seq)) => pair.recv(&channel, seq),
                    (2, Some(seq)) => pair.acknowledge(&channel, seq),
                    (3, Some(seq)) => {
                        if pair.b.has_receipt(&port, &channel, seq) {
                            pair.acknowledge(&channel, seq);
                        } else {
                            pair.timeout(&channel, seq);
                        }
                    }
                    // A failed transaction: a send and an acknowledgement
                    // that the journal takes back.
                    (_, Some(seq)) => {
                        pair.recv(&channel, seq);
                        pair.a.begin_tx();
                        pair.send(&channel);
                        pair.acknowledge(&channel, seq);
                        pair.a.rollback_tx();
                        prop_assert_eq!(pair.a.outstanding_commitments(&port, &channel), outstanding);
                    }
                }
                pair.assert_agrees_with_the_scan();
            }
        }
    }
}
