//! Property-based tests on core data structures and protocol invariants.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use proptest::prelude::*;

use ibc_perf_repro::chain::account::AccountKeeper;
use ibc_perf_repro::chain::bank::BankModule;
use ibc_perf_repro::chain::coin::Coin;
use ibc_perf_repro::chain::genesis::GenesisConfig;
use ibc_perf_repro::chain::msg::Msg;
use ibc_perf_repro::chain::tx::Tx;
use ibc_perf_repro::ibc::commitment::CommitmentStore;
use ibc_perf_repro::ibc::height::Height;
use ibc_perf_repro::ibc::ids::{ChannelId, PortId, Sequence};
use ibc_perf_repro::ibc::packet::Packet;
use ibc_perf_repro::ibc::transfer::{
    escrow_address, on_recv_packet, refund, send_coins, BankKeeper, FungibleTokenPacketData,
};
use ibc_perf_repro::rpc::cost::{service_time, RequestKind, RequestProfile};
use ibc_perf_repro::rpc::endpoint::RpcEndpoint;
use ibc_perf_repro::sim::server::{Server, ServerStats};
use ibc_perf_repro::sim::{Scheduler, SimDuration, SimTime};
use ibc_perf_repro::tendermint::hash::{sha256, Hash, Sha256};
use ibc_perf_repro::tendermint::merkle::{leaf_hash, prove, simple_root, VerifiedPath};

#[path = "support/record_tree.rs"]
mod record_tree;

/// Drives a scheduler through generated steps and returns every pop. Each
/// step `(offset_us, pops, reschedule)` schedules one event `offset_us` after
/// the clock, then pops up to `pops % 4` events; with `reschedule`, every pop
/// plants a fresh event at the instant just popped (schedule-during-pop, the
/// case the `(time, seq)` FIFO contract exists for). Ids are insertion order.
fn drive_scheduler(steps: &[(u64, u8, bool)]) -> Vec<(SimTime, u32)> {
    let mut sched: Scheduler<u32> = Scheduler::new();
    let mut now = SimTime::ZERO;
    let mut next_id = 0u32;
    let mut out = Vec::new();
    for &(offset_us, pops, reschedule) in steps {
        sched.schedule_at(now + SimDuration::from_micros(offset_us), next_id);
        next_id += 1;
        for _ in 0..pops % 4 {
            let Some((t, id)) = sched.pop() else { break };
            now = t;
            out.push((t, id));
            if reschedule {
                sched.schedule_at(t, next_id);
                next_id += 1;
            }
        }
    }
    out.extend(std::iter::from_fn(|| sched.pop()));
    out
}

/// What a FIFO server must answer for `jobs` (arrival, service), taken in
/// order, recomputed without a server: each job's start, and the statistics.
/// Job `i` starts at the latest of `a_j + s_j + … + s_(i-1)` over `j ≤ i`
/// (Lindley's recursion unrolled), so no running watermark is kept.
fn naive_fifo(jobs: &[(SimTime, SimDuration)]) -> (Vec<SimTime>, ServerStats) {
    let starts: Vec<SimTime> = (0..jobs.len())
        .map(|i| {
            (0..=i)
                .map(|j| jobs[j..i].iter().fold(jobs[j].0, |t, (_, s)| t + *s))
                .fold(SimTime::ZERO, SimTime::max)
        })
        .collect();
    let mut stats = ServerStats::default();
    for (&(arrives, service), &start) in jobs.iter().zip(&starts) {
        stats.served += 1;
        stats.busy_time += service;
        stats.total_wait += start - arrives;
        stats.max_backlog = stats.max_backlog.max(start + service - arrives);
    }
    (starts, stats)
}

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
        let verifies = |leaf: &[u8]| proof.verify(&root, leaf_hash(leaf), &mut VerifiedPath::default());
        prop_assert!(verifies(&leaves[i]));
        prop_assert!(!verifies(b"not-a-leaf-of-this-tree"));
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
    fn commitment_root_is_order_independent(entries in prop::collection::btree_map("[a-z]{1,12}", prop::collection::vec(any::<u8>(), 1..16), 1..100), steps in prop::collection::vec((0u8..5, "[a-c]{1,2}", any::<u8>()), 0..60)) {
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
                    prop_assert!(proof.verify(&root, &mut VerifiedPath::default()));
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
        let escrow = escrow_address(&port, &chan_a);
        send_coins(&mut bank_a, &port, &chan_a, &escrow, &data).unwrap();
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
        let ack = on_recv_packet(&mut bank_b, &packet, &escrow_address(&port, &chan_b));
        prop_assert!(ack.is_success());
        let voucher = format!("transfer/{chan_b}/uatom");
        prop_assert_eq!(BankKeeper::send(&mut bank_b, "bob", "carol", &voucher, amount), Ok(()));
        // …or, on a parallel universe source chain, it times out and the
        // refund restores the sender in full.
        let mut bank_a2 = BankModule::new();
        bank_a2.mint_coins(&"alice".into(), &Coin::new("uatom", amount));
        send_coins(&mut bank_a2, &port, &chan_a, &escrow, &data).unwrap();
        refund(&mut bank_a2, &packet, &escrow).unwrap();
        prop_assert_eq!(bank_a2.balance(&"alice".into(), "uatom"), amount);
    }

    /// A FIFO server starts no job before it arrived or before the job
    /// ahead of it is done, and its statistics equal a recomputation over
    /// the jobs that keeps no watermark. `jobs` mixes `serve` calls with
    /// `start`/`occupy` pairs, at arrivals in any order. `sends` is one RPC
    /// lane's input: broadcasts of `n` bank sends at sorted instants, priced
    /// by the cost table and a one-way delay each way; a rejected broadcast
    /// is served like an accepted one.
    #[test]
    fn fifo_server_is_causal_and_work_conserving(
        jobs in prop::collection::vec((0u64..10_000, 1u64..2_000, any::<bool>()), 1..30),
        sends in prop::collection::vec((0u64..10_000, 1usize..20), 1..30),
    ) {
        let ms = SimDuration::from_millis;
        let drawn: Vec<(SimTime, SimDuration)> =
            jobs.iter().map(|&(at, len, _)| (SimTime::ZERO + ms(at), ms(len))).collect();
        let (starts, expected) = naive_fifo(&drawn);
        let mut server = Server::default();
        let mut previous_done = SimTime::ZERO;
        for ((&(arrives, service), &(.., one_call)), &naive_start) in
            drawn.iter().zip(&jobs).zip(&starts)
        {
            let start = if one_call {
                server.serve(arrives, service) - service
            } else {
                let start = server.start(arrives);
                server.occupy(arrives, start + service);
                start
            };
            prop_assert!(start >= arrives && start >= previous_done);
            prop_assert_eq!(start, naive_start);
            previous_done = start + service;
        }
        prop_assert_eq!(server.stats(), expected);

        let genesis = GenesisConfig::new("chain-a").with_funded_accounts("user", 2, 1_000_000);
        let chain = Rc::new(RefCell::new(genesis.into_chain()));
        let one_way = ms(50);
        let mut rpc = RpcEndpoint::new(chain, one_way);
        let mut sends = sends;
        sends.sort_by_key(|(at, _)| *at);
        let mut lane_jobs = Vec::new();
        let mut completions = Vec::new();
        for &(at, n) in &sends {
            let sent = SimTime::ZERO + ms(at);
            let msgs = (0..n)
                .map(|_| Msg::BankSend {
                    from: "user-0".into(),
                    to: "user-1".into(),
                    amount: Coin::new("uatom", 1),
                })
                .collect();
            #[expect(
                clippy::disallowed_methods,
                reason = "the oracle: each answer is held to the cost table's service time"
            )]
            let service = service_time(&RequestProfile {
                kind: RequestKind::BroadcastTxSync,
                response_bytes: 256,
                messages: n,
                recv_heavy: false,
                items: 0,
            });
            let tx = Tx::new("user-0".into(), 0, msgs, "uatom");
            completions.push(rpc.broadcast_tx_sync(sent, tx).ready_at);
            lane_jobs.push((sent + one_way, service));
        }
        let (starts, expected) = naive_fifo(&lane_jobs);
        for ((&(arrives, service), &start), &completion) in
            lane_jobs.iter().zip(&starts).zip(&completions)
        {
            prop_assert!(start >= arrives);
            prop_assert_eq!(completion, start + service + one_way);
        }
        prop_assert_eq!(rpc.lane_stats(), expected);
    }

    /// Same-instant bursts: every event lands on one of a handful of
    /// instants, so FIFO tie-breaking decides nearly every pop. Time never
    /// goes backwards, and events at one instant come out in insertion order.
    #[test]
    fn same_instant_bursts_preserve_fifo_order(steps in prop::collection::vec((0u64..4, any::<u8>(), any::<bool>()), 1..60)) {
        let popped = drive_scheduler(&steps);
        for window in popped.windows(2) {
            prop_assert!(window[0].0 <= window[1].0, "time went backwards: {:?}", window);
            if window[0].0 == window[1].0 {
                prop_assert!(window[0].1 < window[1].1, "FIFO violated: {:?}", window);
            }
        }
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
// A store that keeps its tree across writes against one filled from scratch
// ---------------------------------------------------------------------------

mod commitment_history {
    use std::collections::BTreeMap;

    use ibc_perf_repro::ibc::commitment::CommitmentStore;
    use ibc_perf_repro::tendermint::hash::{sha256, Hash, Sha256};
    use proptest::prelude::*;

    /// Packet commitment `seq` on `channel-0`. Decimal sequences scatter in
    /// path order: `…/10` sorts between `…/1` and `…/2`.
    fn commitment_path(seq: u64) -> String {
        format!("commitments/ports/transfer/channels/channel-0/sequences/{seq}")
    }

    fn set(
        store: &mut CommitmentStore,
        model: &mut BTreeMap<String, Hash>,
        path: &str,
        value: Hash,
    ) {
        assert_eq!(
            store.set(path, value),
            model.insert(path.to_string(), value)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The store rebuilds its tree from the last one, copying what no
        /// write touched. Over histories of up to about 600 entries —
        /// batches of inserts, range deletes, rewrites, writes rolled back to
        /// what they replaced, and clones taken between a write and the next
        /// read — the root and sampled proofs after every batch are those of
        /// a store filled from scratch with the same entries.
        #[test]
        fn a_store_rebuilt_across_writes_answers_like_a_fresh_one(
            initial in 0u64..500,
            batches in prop::collection::vec((0u8..5, 1usize..80, any::<prop::sample::Index>(), any::<u8>()), 1..12),
        ) {
            let mut store = CommitmentStore::new();
            let mut model = BTreeMap::new();
            for seq in 1..=initial {
                set(&mut store, &mut model, &commitment_path(seq), sha256(&seq.to_le_bytes()));
            }
            store.root();
            let mut next = initial + 1;
            for (kind, count, pick, salt) in batches {
                let from = pick.index(model.len().max(1));
                let picked: Vec<String> = model.keys().skip(from).take(count).cloned().collect();
                match kind {
                    0 => {
                        for seq in next..next + count as u64 {
                            set(&mut store, &mut model, &commitment_path(seq), sha256(&seq.to_le_bytes()));
                        }
                        next += count as u64;
                    }
                    1 => {
                        for path in &picked {
                            prop_assert_eq!(store.delete(path), model.remove(path));
                        }
                    }
                    2 => {
                        for path in picked.iter().step_by(3) {
                            set(&mut store, &mut model, path, sha256(&[salt]));
                        }
                    }
                    // What a failed transaction's journal does: a rewrite,
                    // a delete or an insert, each undone before the next
                    // read, so the entries end as they were.
                    3 => {
                        for (i, path) in picked.iter().enumerate() {
                            let old = model[path];
                            match i % 3 {
                                0 => {
                                    store.set(path.clone(), sha256(b"undone"));
                                    store.set(path.clone(), old);
                                }
                                1 => {
                                    store.delete(path);
                                    store.set(path.clone(), old);
                                }
                                _ => {
                                    let extra = format!("{path}0");
                                    if !model.contains_key(&extra) {
                                        store.set(extra.clone(), old);
                                        store.delete(&extra);
                                    }
                                }
                            }
                        }
                    }
                    _ => {
                        for seq in next..next + (count as u64).min(8) {
                            set(&mut store, &mut model, &commitment_path(seq), sha256(&[salt]));
                        }
                        next += (count as u64).min(8);
                        store = store.clone();
                    }
                }
                let mut fresh = CommitmentStore::new();
                for (path, value) in &model {
                    fresh.set(path.clone(), *value);
                }
                prop_assert_eq!(store.root(), fresh.root());
                for path in model.keys().step_by((model.len() / 8).max(1)) {
                    prop_assert_eq!(store.prove_membership(path), fresh.prove_membership(path));
                }
            }
        }
    }

    /// A `chain_only`-shaped history: 3,000 packet commitments sent in
    /// blocks of 100, each send advancing the channel end, and every third
    /// block also acknowledging most of an older block (its commitments
    /// deleted, receipts and acknowledgements written). The root after every
    /// block is folded into one digest, read before the store kept its tree
    /// across writes.
    #[test]
    fn roots_of_a_chain_only_history_are_pinned() {
        let channel = "ports/transfer/channels/channel-0";
        let mut s = CommitmentStore::new();
        let mut roots = Sha256::new();
        for block in 0..30u64 {
            for seq in block * 100 + 1..=block * 100 + 100 {
                let commitment = format!("commitments/{channel}/sequences/{seq}");
                s.set(commitment, sha256(&seq.to_le_bytes()));
                s.set(format!("channelEnds/{channel}"), sha256(&seq.to_be_bytes()));
            }
            if block % 3 == 2 {
                for seq in (block - 2) * 100 + 1..=(block - 1) * 100 {
                    if seq % 7 == 0 {
                        continue;
                    }
                    s.delete(&format!("commitments/{channel}/sequences/{seq}"));
                    s.set(format!("receipts/{channel}/sequences/{seq}"), sha256(b"ok"));
                    s.set(
                        format!("acks/{channel}/sequences/{seq}"),
                        sha256(&[seq as u8]),
                    );
                }
            }
            roots.update(s.root().as_bytes());
        }
        assert_eq!(s.len(), 3_857);
        assert_eq!(
            roots.finalize().to_hex(),
            "67fd15e8002a444c3907980f1a632bb00006773d8e1ba8cb4e8798a6f99fd8ba"
        );
    }
}

// ---------------------------------------------------------------------------
// Proofs checked through one remembered path against the recursive check
// ---------------------------------------------------------------------------

mod verified_path {
    use ibc_perf_repro::tendermint::hash::{sha256, Hash};
    use ibc_perf_repro::tendermint::merkle::{leaf_hash, MerkleProof, MerkleTree, VerifiedPath};
    use proptest::prelude::*;

    /// The recursive verification `MerkleProof::verify` replaced: recompute
    /// the root from the leaf, consuming siblings bottom-up, with nothing
    /// remembered between calls.
    fn oracle(proof: &MerkleProof, root: &Hash, leaf: Hash) -> bool {
        fn inner(left: &Hash, right: &Hash) -> Hash {
            sha256(&[&[1u8][..], left.as_bytes(), right.as_bytes()].concat())
        }
        fn split_point(n: usize) -> usize {
            let mut k = 1;
            while k * 2 < n {
                k *= 2;
            }
            k
        }
        fn compute_root(
            siblings: &[Hash],
            leaf: Hash,
            index: usize,
            total: usize,
            used: usize,
        ) -> Option<(Hash, usize)> {
            match total {
                0 => None,
                1 => Some((leaf, used)),
                _ => {
                    let k = split_point(total);
                    if index < k {
                        let (left, used) = compute_root(siblings, leaf, index, k, used)?;
                        Some((inner(&left, siblings.get(used)?), used + 1))
                    } else {
                        let (right, used) =
                            compute_root(siblings, leaf, index - k, total - k, used)?;
                        Some((inner(siblings.get(used)?, &right), used + 1))
                    }
                }
            }
        }
        if proof.index >= proof.total {
            return false;
        }
        match compute_root(&proof.siblings, leaf, proof.index, proof.total, 0) {
            Some((computed, used)) => used == proof.siblings.len() && &computed == root,
            None => false,
        }
    }

    fn leaf(tag: u8, i: usize) -> Vec<u8> {
        format!("{tag}/{i}").into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Two random trees that share all leaves but one, and a sequence of
        /// proofs drawn from either — in index order, reversed, or as drawn
        /// with repeats — each proof possibly tampered with: a sibling
        /// flipped at any level, a wrong leaf, a wrong index or total, a
        /// sibling missing or extra, or the other tree's root. Checked in
        /// turn through one `VerifiedPath`, so roots alternate on it, every
        /// verdict is the recursive check's.
        #[test]
        fn a_remembered_path_never_changes_a_verdict(
            sizes in (1usize..300, 1usize..300),
            changed in any::<prop::sample::Index>(),
            draws in prop::collection::vec((any::<bool>(), any::<prop::sample::Index>(), 0u8..16, any::<prop::sample::Index>()), 1..80),
            order in 0u8..3,
        ) {
            let changed = changed.index(sizes.0.min(sizes.1));
            let leaves_of = |size: usize, tag: u8| -> Vec<Vec<u8>> {
                (0..size).map(|i| if tag == 1 && i == changed { leaf(1, i) } else { leaf(0, i) }).collect()
            };
            let leaves = [leaves_of(sizes.0, 0), leaves_of(sizes.1, 1)];
            let trees = leaves.clone().map(|leaves| MerkleTree::build(leaves.iter().map(|l| l.as_slice())));
            let mut draws: Vec<(usize, usize, u8, prop::sample::Index)> = draws
                .into_iter()
                .map(|(second, index, tamper, at)| {
                    let tree = usize::from(second);
                    (tree, index.index(trees[tree].len()), tamper, at)
                })
                .collect();
            match order {
                0 => draws.sort_by_key(|&(tree, index, ..)| (index, tree)),
                1 => draws.sort_by_key(|&(tree, index, ..)| std::cmp::Reverse((index, tree))),
                _ => {}
            }
            let mut path = VerifiedPath::default();
            for (tree, index, tamper, at) in draws {
                let mut proof = trees[tree].prove(index).expect("index in range");
                let mut root = trees[tree].root();
                let mut data = leaves[tree][index].clone();
                let depth = proof.siblings.len();
                match tamper {
                    0 if depth > 0 => proof.siblings[at.index(depth)].0[at.index(32)] ^= 1,
                    1 => data = b"not this leaf".to_vec(),
                    2 => proof.index = (index + 1 + at.index(3)) % (proof.total + 1),
                    3 => proof.total += 1,
                    4 => proof.total -= 1,
                    5 if depth > 0 => {
                        proof.siblings.remove(at.index(depth));
                    }
                    6 => proof.siblings.insert(at.index(depth + 1), sha256(b"extra")),
                    7 => root = trees[1 - tree].root(),
                    // Untampered: the remembered path only changes on these.
                    _ => {}
                }
                let verdict = proof.verify(&root, leaf_hash(&data), &mut path);
                prop_assert_eq!(verdict, oracle(&proof, &root, leaf_hash(&data)), "tree {} leaf {} tamper {}", tree, index, tamper);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Typed store paths against the text they spell
// ---------------------------------------------------------------------------

mod store_paths {
    use ibc_perf_repro::ibc::commitment::CommitmentStore;
    use ibc_perf_repro::ibc::host::{ChannelPaths, StorePath};
    use ibc_perf_repro::ibc::ids::{ChannelId, PortId, Sequence};
    use ibc_perf_repro::tendermint::hash::sha256;
    use ibc_perf_repro::tendermint::merkle::leaf_hash_parts;
    use proptest::prelude::*;

    /// Ports and channels whose ids start one another's.
    const PORTS: [&str; 3] = ["transfer", "transfer-x", "transfer.x"];
    const CHANNELS: [u64; 3] = [1, 10, 0];
    const FAMILIES: [&str; 3] = ["commitments", "receipts", "acks"];
    /// Text handed to the store: under a section but not canonical, the
    /// section itself, and paths of no section.
    const TEXTS: [&str; 9] = [
        "commitments/ports/transfer/channels/channel-1/sequences/007",
        "commitments/ports/transfer/channels/channel-1/sequences/+5",
        "commitments/ports/transfer/channels/channel-1/sequences/0",
        "commitments/ports/transfer/channels/channel-1/sequences/",
        "commitments/ports/transfer/channels/channel-1",
        "channelEnds/ports/transfer/channels/channel-1/x",
        "a/b/1",
        "a",
        "",
    ];

    /// Every digit boundary up to `u64::MAX`, and its neighbours.
    fn boundaries() -> Vec<u64> {
        let mut numbers = vec![0, u64::MAX - 1, u64::MAX];
        for power in (0..20).map(|k| 10u64.pow(k)) {
            numbers.extend([power - 1, power, power + 1]);
        }
        numbers
    }

    /// The key two random words pick, and the text it must spell, written
    /// here with `format!`, not by the code under test. `shape` picks the
    /// port, channel and family (the three sequence families, or the channel
    /// end itself) and the kind: two in three keys are typed, from one of
    /// `ends`' two separately built `ChannelPaths` of that end; one in six
    /// is the same spelling handed over as text; one in six is from `TEXTS`.
    /// `number` picks the sequence: a digit boundary or a neighbour of one
    /// three times in four, any `u64` otherwise.
    fn draw(shape: u64, number: u64, ends: &[[[ChannelPaths; 2]; 3]; 3]) -> (StorePath, String) {
        let mut bits = shape;
        let mut pick = |n: usize| {
            let picked = bits % n as u64;
            bits /= n as u64;
            picked as usize
        };
        let sequence = if pick(4) == 0 {
            number
        } else {
            let boundaries = boundaries();
            boundaries[number as usize % boundaries.len()]
        };
        let (port, channel, family) = (pick(3), pick(3), pick(4));
        let (port_id, channel_id) = (PORTS[port], CHANNELS[channel]);
        let text = match FAMILIES.get(family) {
            Some(family) => format!(
                "{family}/ports/{port_id}/channels/channel-{channel_id}/sequences/{sequence}"
            ),
            None => format!("channelEnds/ports/{port_id}/channels/channel-{channel_id}"),
        };
        match pick(6) {
            0..=3 => {
                let paths = &ends[port][channel][pick(2)];
                let seq = Sequence::from(sequence);
                let path = match family {
                    0 => paths.commitment(seq),
                    1 => paths.receipt(seq),
                    2 => paths.ack(seq),
                    _ => paths.end().clone(),
                };
                (path, text)
            }
            4 => (StorePath::from(text.as_str()), text),
            _ => {
                let text = TEXTS[pick(TEXTS.len())];
                (StorePath::from(text), text.to_owned())
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Typed keys and text keys mixed: each spells its text, text read
        /// as a key spells itself back and equals the typed key it spells,
        /// every pair orders as its two spellings' bytes, the typed leaf
        /// hash is the text's, and a store of typed keys and one of their
        /// text have one root.
        #[test]
        fn a_typed_path_orders_spells_and_hashes_as_its_text(
            words in prop::collection::vec((any::<u64>(), any::<u64>()), 1..24),
        ) {
            let end = |port: &str, channel: u64| {
                ChannelPaths::new(&PortId::new(port), &ChannelId::with_index(channel))
            };
            let ends = PORTS.map(|port| CHANNELS.map(|channel| [end(port, channel), end(port, channel)]));
            let keys: Vec<(StorePath, String)> = (words.iter())
                .map(|&(shape, number)| draw(shape, number, &ends))
                .collect();
            let mut typed = CommitmentStore::new();
            let mut texts = CommitmentStore::new();
            for (path, text) in &keys {
                prop_assert_eq!(&path.spell(), text);
                let parsed = StorePath::from(text.as_str());
                prop_assert_eq!(&parsed.spell(), text);
                prop_assert_eq!(&parsed, path);
                let value = sha256(text.as_bytes());
                prop_assert_eq!(
                    path.leaf(&value),
                    leaf_hash_parts(&[text.as_bytes(), &[0], value.as_bytes()])
                );
                typed.set(path.clone(), value);
                texts.set(text.as_str(), value);
            }
            for (a, text_a) in &keys {
                for (b, text_b) in &keys {
                    prop_assert_eq!(a.cmp(b), text_a.as_bytes().cmp(text_b.as_bytes()), "{} vs {}", text_a, text_b);
                    prop_assert_eq!(a == b, text_a == text_b);
                }
            }
            prop_assert_eq!(typed.len(), texts.len());
            prop_assert_eq!(typed.root(), texts.root());
        }
    }
}

// ---------------------------------------------------------------------------
// The store against an oracle that does not use it
// ---------------------------------------------------------------------------

mod store_oracle {
    use std::collections::BTreeMap;

    use ibc_perf_repro::ibc::commitment::CommitmentStore;
    use ibc_perf_repro::ibc::host::{ChannelPaths, StorePath};
    use ibc_perf_repro::ibc::ids::{ChannelId, PortId, Sequence};
    use ibc_perf_repro::tendermint::hash::{sha256, Hash};
    use ibc_perf_repro::tendermint::merkle::{simple_root, VerifiedPath};
    use proptest::prelude::*;

    /// Sequences at every digit boundary from 0 to `u64::MAX`, and a few
    /// small ones that fill one window.
    const NUMBERS: [u64; 16] = [
        0,
        1,
        2,
        9,
        10,
        11,
        63,
        64,
        99,
        100,
        130,
        999_999,
        1_000_000,
        u64::MAX / 10,
        u64::MAX - 1,
        u64::MAX,
    ];

    /// Text under channel-1's commitment section that spells none of its
    /// paths, and text that only looks nested.
    const TEXTS: [&str; 8] = [
        "commitments/ports/transfer/channels/channel-1/sequences/007",
        "commitments/ports/transfer/channels/channel-1/sequences/+5",
        "commitments/ports/transfer/channels/channel-1/sequences/",
        "commitments/ports/transfer/channels/channel-1/sequences/5/x",
        "x/sequences/1",
        "x/sequences/1/sequences/5",
        "x/sequences/10",
        "x/sequences/",
    ];

    /// A key as the store is handed it: a typed path, or text.
    #[derive(Debug, Clone)]
    enum Key {
        Typed(StorePath),
        Text(String),
    }

    impl Key {
        fn set(&self, store: &mut CommitmentStore, value: Hash) -> Option<Hash> {
            match self {
                Key::Typed(path) => store.set(path.clone(), value),
                Key::Text(text) => store.set(text.as_str(), value),
            }
        }

        fn delete(&self, store: &mut CommitmentStore) -> Option<Hash> {
            match self {
                Key::Typed(path) => store.delete(path),
                Key::Text(text) => store.delete(text.as_str()),
            }
        }

        fn get(&self, store: &CommitmentStore) -> Option<Hash> {
            match self {
                Key::Typed(path) => store.get(path).copied(),
                Key::Text(text) => store.get(text.as_str()).copied(),
            }
        }
    }

    /// The key `kind` and `number` pick, and its spelling, written here with
    /// `format!`: a typed commitment of channel-1 or channel-10, the same
    /// spelling as text, or one of `TEXTS`.
    fn draw(kind: u8, number: usize, ends: &[ChannelPaths; 2]) -> (Key, String) {
        let seq = NUMBERS[number % NUMBERS.len()];
        let channel = usize::from(kind % 2);
        let spelt = format!(
            "commitments/ports/transfer/channels/channel-{}/sequences/{seq}",
            [1, 10][channel]
        );
        match kind % 6 {
            0..=3 => (Key::Typed(ends[channel].commitment(Sequence(seq))), spelt),
            4 => (Key::Text(spelt.clone()), spelt),
            _ => {
                let text = TEXTS[number % TEXTS.len()].to_owned();
                (Key::Text(text.clone()), text)
            }
        }
    }

    /// The root of `model` computed without the store: the Merkle root of
    /// `spelling ‖ 0x00 ‖ value`, sorted by the spelling's bytes.
    fn oracle_root(model: &BTreeMap<String, Hash>) -> Hash {
        let leaves: Vec<Vec<u8>> = (model.iter())
            .map(|(path, value)| [path.as_bytes(), &[0], value.as_bytes()].concat())
            .collect();
        simple_root(leaves.iter().map(Vec::as_slice))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Writes of typed keys (two sections, sequences from 0 to
        /// `u64::MAX`), the same spellings as text, text under a section
        /// that spells none of its paths, and text that only looks nested:
        /// set, delete, overwrite, delete then reinsert, insert then delete,
        /// and clones taken between a write and a read. At every read the
        /// root is the oracle's and a sample of proofs, asked by text and by
        /// the drawn key, verifies against the oracle's root.
        #[test]
        fn the_store_answers_like_an_oracle_that_does_not_use_it(
            steps in prop::collection::vec((0u8..8, any::<u8>(), any::<usize>(), any::<u8>()), 1..80),
        ) {
            let port = PortId::transfer();
            let ends = [1, 10].map(|index| ChannelPaths::new(&port, &ChannelId::with_index(index)));
            let mut store = CommitmentStore::new();
            let mut model: BTreeMap<String, Hash> = BTreeMap::new();
            for (op, kind, number, byte) in steps {
                let (key, spelt) = draw(kind, number, &ends);
                let value = sha256(&[byte, kind]);
                match op {
                    0 | 1 => prop_assert_eq!(key.set(&mut store, value), model.insert(spelt.clone(), value)),
                    2 => prop_assert_eq!(key.delete(&mut store), model.remove(&spelt)),
                    3 => {
                        key.delete(&mut store);
                        prop_assert_eq!(key.set(&mut store, value), None);
                        model.insert(spelt.clone(), value);
                    }
                    4 => {
                        key.set(&mut store, value);
                        prop_assert_eq!(key.delete(&mut store), Some(value));
                        model.remove(&spelt);
                    }
                    5 => store = store.clone(),
                    _ => {
                        prop_assert_eq!(store.len(), model.len());
                        let root = store.root();
                        if model.is_empty() {
                            prop_assert_eq!(root, CommitmentStore::new().root());
                            continue;
                        }
                        prop_assert_eq!(root, oracle_root(&model));
                        let stride = (model.len() / 6).max(1);
                        for (path, value) in model.iter().skip(usize::from(byte) % stride).step_by(stride) {
                            let proof = store.prove_membership(path.as_str()).expect("present");
                            prop_assert_eq!((&proof.path, &proof.value), (path, value));
                            prop_assert!(proof.verify(&root, &mut VerifiedPath::default()));
                        }
                        if let Some(value) = model.get(&spelt) {
                            let proof = match &key {
                                Key::Typed(path) => store.prove_membership(path),
                                Key::Text(text) => store.prove_membership(text.as_str()),
                            };
                            let proof = proof.expect("present");
                            prop_assert_eq!((&proof.path, &proof.value), (&spelt, value));
                            prop_assert!(proof.verify(&root, &mut VerifiedPath::default()));
                        }
                    }
                }
                prop_assert_eq!(key.get(&store), model.get(&spelt).copied());
            }
            prop_assert_eq!(store.root(), if model.is_empty() { CommitmentStore::new().root() } else { oracle_root(&model) });
        }

        /// A proof checks the slot after the last proven rank before it
        /// searches. Proofs asked in ascending, descending, repeated and
        /// cross-section order, with a write between two orders that leaves
        /// the hint stale, are each the proof a store with no hint gives:
        /// a copy of one built from the model that was never asked for a
        /// proof, so it finds the rank by search.
        #[test]
        fn proofs_in_any_order_are_the_searched_ones(
            keys in prop::collection::vec((any::<u8>(), any::<usize>()), 1..40),
            rewrite in (any::<u8>(), any::<usize>()),
        ) {
            let port = PortId::transfer();
            let ends = [1, 10].map(|index| ChannelPaths::new(&port, &ChannelId::with_index(index)));
            let mut store = CommitmentStore::new();
            let mut model: BTreeMap<String, Hash> = BTreeMap::new();
            for (i, &(kind, number)) in keys.iter().enumerate() {
                let (key, spelt) = draw(kind, number, &ends);
                let value = sha256(&i.to_le_bytes());
                key.set(&mut store, value);
                model.insert(spelt, value);
            }
            for pass in 0..2 {
                if pass == 1 {
                    let (key, spelt) = draw(rewrite.0, rewrite.1, &ends);
                    key.set(&mut store, Hash::ZERO);
                    model.insert(spelt, Hash::ZERO);
                }
                let root = store.root();
                prop_assert_eq!(root, oracle_root(&model));
                let mut searched = CommitmentStore::new();
                for (path, value) in &model {
                    searched.set(path.as_str(), *value);
                }
                prop_assert_eq!(searched.root(), root);
                let ascending: Vec<&String> = model.keys().collect();
                let descending: Vec<&String> = ascending.iter().rev().copied().collect();
                let repeated: Vec<&String> = ascending.iter().flat_map(|p| [*p, *p]).collect();
                let (first, other): (Vec<&String>, Vec<&String>) =
                    ascending.iter().partition(|p| p.contains("/channel-1/"));
                let crossed: Vec<&String> = (0..first.len().max(other.len()))
                    .flat_map(|i| [first.get(i), other.get(i)])
                    .flatten()
                    .copied()
                    .collect();
                for order in [ascending, descending, repeated, crossed] {
                    for path in order {
                        let proof = store.prove_membership(path.as_str()).expect("present");
                        let reference = searched.clone().prove_membership(path.as_str());
                        prop_assert_eq!(Some(&proof), reference.as_ref());
                        prop_assert_eq!((&proof.path, &proof.value), (path, &model[path]));
                        prop_assert!(proof.verify(&root, &mut VerifiedPath::default()));
                    }
                }
            }
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

    use super::record_tree::record_tree;

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

        /// Random relayer batches encode to bytes that read back as their
        /// record tree and to the length the keyed tree's JSON has, and
        /// every truncation of the payload is rejected by both decoders.
        #[test]
        fn relayer_batches_encode_identically_and_reject_every_truncation(
            packets in prop::collection::vec((1u64..5_000, prop::collection::vec(any::<u8>(), 0..40)), 0..3),
            padding in 0u8..40,
            nonce in any::<u64>(),
        ) {
            let tx = relayer_tx(&packets, padding, nonce);
            let raw = tx.encode();
            prop_assert_eq!(binary::from_bytes(raw.as_bytes()).unwrap(), record_tree(&tx));
            prop_assert_eq!(raw.len(), serde::json::encoded_len(&tx.to_value()));
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
        /// header's — resolve the way a lookup in the parsed map does, and so
        /// do the maps of the two config types.
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

    /// The places of the records in `records`, the tree `binary::write`
    /// gives, outermost first: where `keyed`, the same value's `to_value`,
    /// has a struct's map, `records` has the array of its fields. A place is
    /// the child indices from the root.
    fn record_paths(
        keyed: &Value,
        records: &Value,
        path: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        fn values(entries: &[(String, Value)]) -> impl Iterator<Item = &Value> {
            entries.iter().map(|(_, v)| v)
        }
        let children: Vec<(&Value, &Value)> = match (keyed, records) {
            (Value::Map(entries), Value::Seq(items)) => {
                out.push(path.clone());
                values(entries).zip(items).collect()
            }
            (Value::Map(a), Value::Map(b)) => values(a).zip(values(b)).collect(),
            (Value::Seq(a), Value::Seq(b)) => a.iter().zip(b).collect(),
            _ => return,
        };
        for (i, (k, r)) in children.into_iter().enumerate() {
            path.push(i);
            record_paths(k, r, path, out);
            path.pop();
        }
    }

    fn node_at<'a>(tree: &'a mut Value, path: &[usize]) -> &'a mut Value {
        path.iter().fold(tree, |node, &i| match node {
            Value::Seq(items) => &mut items[i],
            Value::Map(entries) => &mut entries[i].1,
            _ => unreachable!("a place runs through containers"),
        })
    }

    /// The arity edits of the `pick`-th record of `value`'s binary tree
    /// (wrapping around): one value short or one value over is refused by
    /// both decoders, the keyed map the record stands for reads back as
    /// the value, and the record's bytes cut at every offset get the same
    /// verdict from both.
    fn assert_record_edits_agree<T: Deserialize + Serialize + PartialEq + Debug>(
        value: &T,
        pick: usize,
    ) {
        let (mut keyed, records) = (value.to_value(), record_tree(value));
        let mut paths = Vec::new();
        record_paths(&keyed, &records, &mut Vec::new(), &mut paths);
        let path = &paths[pick % paths.len()];
        let keyed = node_at(&mut keyed, path).clone();
        let edited = |edit: &dyn Fn(Vec<Value>) -> Value| {
            let mut copy = records.clone();
            let node = node_at(&mut copy, path);
            let Value::Seq(items) = node else {
                unreachable!("a record is an array");
            };
            *node = edit(std::mem::take(items));
            binary::to_bytes(&copy)
        };

        let short = edited(&|mut items| {
            items.pop();
            Value::Seq(items)
        });
        let expected = (keyed.as_map().map(<[_]>::len) == Some(0)).then_some(value);
        assert_eq!(
            assert_same_verdict::<T>(&short).as_ref(),
            expected,
            "short at {path:?}"
        );
        let long = edited(&|mut items| {
            items.push(Value::Null);
            Value::Seq(items)
        });
        assert_eq!(assert_same_verdict::<T>(&long), None, "long at {path:?}");
        let by_key = edited(&|_| keyed.clone());
        assert_eq!(assert_same_verdict::<T>(&by_key).as_ref(), Some(value));

        let marker = Value::Str("a record is cut here".into());
        let marked = edited(&|_| marker.clone());
        let marker = binary::to_bytes(&marker);
        let at = (0..marked.len())
            .find(|&at| marked[at..].starts_with(&marker))
            .expect("the marker is written");
        let record = binary::to_bytes(node_at(&mut records.clone(), path));
        for cut in 0..record.len() {
            let spliced = [&marked[..at], &record[..cut], &marked[at + marker.len()..]].concat();
            assert_same_verdict::<T>(&spliced);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A struct on the wire is a record of exactly its fields: any one
        /// record of a payload — the transaction's, a message's, a packet's,
        /// a proof's, a header's, a config's — one value short or one value
        /// over is refused by both decoders, never read with a value in the
        /// wrong field; cut at any offset it gets the same verdict from
        /// both; and the keyed map it stands for reads back.
        #[test]
        fn records_of_the_wrong_arity_are_refused(
            packets in prop::collection::vec((1u64..5_000, prop::collection::vec(any::<u8>(), 0..8)), 1..3),
            pick in any::<usize>(),
        ) {
            assert_record_edits_agree(&relayer_tx(&packets, 5, 1), pick);
            assert_record_edits_agree(&RelayerStrategy::default().frame_limit(4_096), pick);
            assert_record_edits_agree(&DeploymentConfig::default(), pick);
        }
    }

    /// Every map key of `tree`, each once.
    fn keys_of(tree: &Value, out: &mut Vec<String>) {
        match tree {
            Value::Map(entries) => {
                for (key, value) in entries {
                    if !out.contains(key) {
                        out.push(key.clone());
                    }
                    keys_of(value, out);
                }
            }
            Value::Seq(items) => items.iter().for_each(|item| keys_of(item, out)),
            _ => {}
        }
    }

    /// Where `key` is written in `bytes` (its one-byte length, then its
    /// text), at any depth.
    fn key_positions(bytes: &[u8], key: &str) -> Vec<usize> {
        let mut written = vec![key.len() as u8];
        written.extend_from_slice(key.as_bytes());
        (0..bytes.len())
            .filter(|&at| bytes[at..].starts_with(&written))
            .collect()
    }

    /// A relayer batch whose packets and signers name channels and
    /// accounts picked from `names`: a few picks repeat names across the
    /// messages, many picks spell out a distinct one in each.
    fn named_batch(names: &[(u8, u8, u8)]) -> Tx {
        let mut store = CommitmentStore::new();
        let packets: Vec<Packet> = (names.iter().zip(1u64..))
            .map(|(&(src, dst, _), seq)| Packet {
                source_channel: ChannelId::with_index(src.into()),
                destination_channel: ChannelId::with_index(dst.into()),
                ..packet(seq, &[src, dst])
            })
            .collect();
        for packet in &packets {
            store.set(
                format!("commitments/{}", packet.sequence),
                packet.commitment(),
            );
        }
        let msgs = (packets.into_iter().zip(names))
            .map(|(packet, &(.., signer))| Msg::IbcRecvPacket {
                proof_commitment: store
                    .prove_membership(&format!("commitments/{}", packet.sequence))
                    .expect("just committed"),
                packet,
                proof_height: Height::at(3),
                signer: format!("relayer-{signer}").as_str().into(),
            })
            .collect();
        Tx::new("relayer-0".into(), 1, msgs, "uatom")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Packet data longer than the 1,024 bytes a `Vec` reserves from a
        /// length read off the wire, so a payload is copied out of its byte
        /// run in more than one piece: bytes that read back as the record
        /// tree, the same transaction back, and every cut across it rejected
        /// by both decoders.
        #[test]
        fn packet_data_across_reserve_runs_reads_back(
            data in prop::collection::vec(any::<u8>(), 1_000..2_200),
            seq in 1u64..5_000,
        ) {
            let tx = relayer_tx(&[(seq, data)], 3, 9);
            let raw = tx.encode();
            prop_assert_eq!(binary::from_bytes(raw.as_bytes()).unwrap(), record_tree(&tx));
            prop_assert_eq!(assert_same_tx_verdict(raw.as_bytes()), Some(tx));
            for cut in 0..raw.as_bytes().len() {
                prop_assert_eq!(assert_same_tx_verdict(&raw.as_bytes()[..cut]), None);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A variant key anywhere in a transaction (a message's tag, the only
        /// keys a payload of records still has) turned into invalid UTF-8 —
        /// of its own length, one byte longer or one shorter, and still
        /// starting like the tag — is refused by both decoders.
        #[test]
        fn keys_edited_into_invalid_utf8_are_refused(
            packets in prop::collection::vec((1u64..5_000, prop::collection::vec(any::<u8>(), 0..8)), 1..3),
            pick in any::<prop::sample::Index>(),
            at in any::<prop::sample::Index>(),
        ) {
            let tx = relayer_tx(&packets, 5, 1);
            let bytes = tx.encode().as_bytes().to_vec();
            let mut keys = Vec::new();
            keys_of(&record_tree(&tx), &mut keys);
            let key = &keys[pick.index(keys.len())];
            let positions = key_positions(&bytes, key);
            prop_assert!(!positions.is_empty(), "{} is written somewhere", key);
            let start = positions[at.index(positions.len())];
            let (len, text) = (key.len(), start + 1..start + 1 + key.len());
            let mut garbled = key.as_bytes().to_vec();
            garbled[at.index(len)] = 0xff;
            let mut longer = key.as_bytes().to_vec();
            longer.push(0xc3);
            let mut shorter = key.as_bytes()[..len - 1].to_vec();
            if let Some(last) = shorter.last_mut() {
                *last = 0x80;
            }
            for edit in [garbled, longer, shorter] {
                let mut edited = bytes[..start].to_vec();
                edited.push(edit.len() as u8);
                edited.extend_from_slice(&edit);
                edited.extend_from_slice(&bytes[text.end..]);
                prop_assert_eq!(assert_same_tx_verdict(&edited), None, "{} → {:?}", key, edit);
            }
        }

        /// Batches whose messages repeat a few channel and signer names, or
        /// name a different one each: every name reads back as written, the
        /// decoded names are one allocation per distinct text, and key
        /// edits still resolve as a map lookup does.
        #[test]
        fn repeated_and_distinct_names_read_back(
            names in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..12),
            few in any::<bool>(),
            pick in any::<usize>(),
            at in any::<usize>(),
        ) {
            let names: Vec<(u8, u8, u8)> = if few {
                names.into_iter().map(|(a, b, c)| (a % 2, b % 3, c % 2)).collect()
            } else {
                names
            };
            let tx = named_batch(&names);
            let decoded = assert_same_tx_verdict(tx.encode().as_bytes()).expect("decodes");
            prop_assert_eq!(&decoded, &tx);
            let channels: Vec<&ChannelId> = decoded
                .msgs
                .iter()
                .flat_map(|msg| match msg {
                    Msg::IbcRecvPacket { packet, .. } => [&packet.source_channel, &packet.destination_channel],
                    other => panic!("not a receive: {other:?}"),
                })
                .collect();
            for a in &channels {
                for b in &channels {
                    prop_assert_eq!(std::sync::Arc::ptr_eq(&a.shared(), &b.shared()), a == b, "{} / {}", a, b);
                }
            }
            assert_map_edits_agree(&tx, pick, at);
        }
    }
}

// ---------------------------------------------------------------------------
// The commitment-prefix walk against the scan over history it replaced
// ---------------------------------------------------------------------------

mod outstanding {
    use ibc_perf_repro::chain::bank::BankModule;
    use ibc_perf_repro::chain::coin::Coin;
    use ibc_perf_repro::chain::genesis::GenesisConfig;
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
                let mut chain = GenesisConfig::new(chain_id).into_chain();
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
                let (chan_a, _) = a.chan_open_init(&port, &conn_a, &port).unwrap();
                let (chan_b, _) = b.chan_open_try(&port, &conn_b, &port, &chan_a).unwrap();
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
            let packet = self
                .a
                .end(&port, channel)
                .and_then(|end| end.sent_packet(seq))
                .unwrap()
                .clone();
            let proof = self
                .a
                .end(&port, channel)
                .and_then(|end| end.prove_commitment(seq))
                .unwrap();
            let _ = (self.b).recv_packet(&ctx(), &mut self.bank_b, &packet, &proof, Height::at(1));
        }

        fn acknowledge(&mut self, channel: &ChannelId, seq: Sequence) {
            self.recv(channel, seq);
            let port = PortId::transfer();
            let packet = self
                .a
                .end(&port, channel)
                .and_then(|end| end.sent_packet(seq))
                .unwrap()
                .clone();
            let ack = (self
                .b
                .end(&port, channel)
                .and_then(|end| end.acknowledgement(seq)))
            .unwrap()
            .clone();
            let proof = (self
                .b
                .end(&port, channel)
                .and_then(|end| end.prove_acknowledgement(seq)))
            .unwrap();
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
            let packet = self
                .a
                .end(&port, channel)
                .and_then(|end| end.sent_packet(seq))
                .unwrap()
                .clone();
            let proof = NonMembershipProof {
                path: host::packet_receipt_path(&port, channel, seq),
                root: self.root_b_on_a,
            };
            (self.a)
                .timeout_packet(&ctx(), &mut self.bank_a, &packet, &proof, Height::at(9))
                .unwrap();
        }

        /// The new query, its count and the drain check's "any left?"
        /// agree with the scan over everything ever sent, on both channels.
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
                let any = self.a.has_outstanding_commitments(&port, &channel);
                prop_assert_eq!(any, !scanned.is_empty());
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
                        if pair.b.end(&port, &channel).is_some_and(|end| end.has_receipt(seq)) {
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

// ---------------------------------------------------------------------------
// Packet events read back as the packets they were built from
// ---------------------------------------------------------------------------

mod packet_events {
    use std::rc::Rc;

    use ibc_perf_repro::ibc::events::{
        ack_packet_event, is_for_channel, packet_from_event, packet_sequence, recv_packet_event,
        send_packet_event, timeout_packet_event, write_ack_event,
    };
    use ibc_perf_repro::ibc::height::Height;
    use ibc_perf_repro::ibc::ids::{ChannelId, PortId, Sequence};
    use ibc_perf_repro::ibc::packet::{Acknowledgement, Packet};
    use ibc_perf_repro::sim::SimTime;
    use ibc_perf_repro::tendermint::abci::Event;
    use proptest::prelude::*;

    /// `raw` cut down to one of 64 magnitudes, so that every digit count
    /// from 1 to 20 turns up, not only the 19- and 20-digit values a uniform
    /// `u64` almost always has.
    fn spread(raw: u64, shift: u8) -> u64 {
        raw >> (shift % 64)
    }

    /// `is_for_channel` as it read the attributes when they were text: the
    /// rendered port and channel on the side the event's kind names.
    fn matched_as_text(event: &Event, port: &PortId, channel: &ChannelId) -> bool {
        let text = |key| event.attr(key).as_ref().map(ToString::to_string);
        let (port_key, channel_key) = match event.kind {
            "send_packet" | "acknowledge_packet" | "timeout_packet" => {
                ("packet_src_port", "packet_src_channel")
            }
            "recv_packet" | "write_acknowledgement" => ("packet_dst_port", "packet_dst_channel"),
            _ => return false,
        };
        text(port_key).as_deref() == Some(port.as_str())
            && text(channel_key).as_deref() == Some(channel.as_str())
    }

    proptest! {
        /// Each of the five packet events gives its packet back — with empty
        /// data for the two that carry none — `packet_sequence` reads the
        /// same sequence, and `is_for_channel` picks the source or the
        /// destination end exactly as it did over the attributes' text.
        #[test]
        fn packet_events_give_their_packet_back(
            raw in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            shifts in (0u8..64, 0u8..64, 0u8..64, 0u8..64),
            channels in (any::<u64>(), any::<u64>(), 0u8..64, 0u8..64),
            ports in ("[a-z]{2,10}", "[a-z]{2,10}"),
            data in prop::collection::vec(any::<u8>(), 0..48),
            failed in any::<bool>(),
        ) {
            let packet = Packet {
                sequence: Sequence::from(spread(raw.0, shifts.0)),
                source_port: PortId::new(ports.0),
                source_channel: ChannelId::with_index(spread(channels.0, channels.2)),
                destination_port: PortId::new(ports.1),
                destination_channel: ChannelId::with_index(spread(channels.1, channels.3)),
                data,
                timeout_height: Height::new(spread(raw.1, shifts.1), spread(raw.2, shifts.2)),
                timeout_timestamp: SimTime::from_nanos(spread(raw.3, shifts.3)),
            };
            let ack = if failed {
                Acknowledgement::error("insufficient funds")
            } else {
                Acknowledgement::success()
            };
            let without_data = Packet { data: Vec::new(), ..packet.clone() };
            let shared = Rc::new(packet.clone());
            let events = [
                (send_packet_event(&shared), &packet),
                (recv_packet_event(&shared), &packet),
                (write_ack_event(&shared, &ack), &packet),
                (ack_packet_event(&packet), &without_data),
                (timeout_packet_event(&packet), &without_data),
            ];
            let ends = [
                (&packet.source_port, &packet.source_channel),
                (&packet.destination_port, &packet.destination_channel),
                (&packet.source_port, &packet.destination_channel),
                (&packet.destination_port, &packet.source_channel),
            ];
            for (event, expected) in &events {
                prop_assert_eq!(packet_from_event(event).as_deref(), Some(*expected), "{}", event.kind);
                prop_assert_eq!(packet_sequence(event), Some(packet.sequence));
                for (port, channel) in ends {
                    prop_assert_eq!(
                        is_for_channel(event, port, channel),
                        matched_as_text(event, port, channel),
                        "{} on {}/{}", event.kind, port, channel
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The telemetry column store against one map of (channel, sequence, step)
// ---------------------------------------------------------------------------

mod telemetry {
    use std::collections::BTreeMap;

    use ibc_perf_repro::ibc::ids::Sequence;
    use ibc_perf_repro::relayer::relayer::ChainRole;
    use ibc_perf_repro::relayer::telemetry::{
        RelayerError, RelayerErrorKind, TelemetryLog, TransferStep,
    };
    use ibc_perf_repro::sim::SimTime;
    use proptest::prelude::*;

    /// Every cell the log should hold: the earliest time per key.
    type Reference = BTreeMap<(u64, u64, usize), SimTime>;

    /// `record_on(channel, sequence(code), ALL[step], time)`, or an error
    /// line when `step` is 13.
    type Record = (u64, u64, usize, u64);

    const CHANNELS: u64 = 3;
    const MAX_OFFSET: u64 = 2;
    const MAX_SEQUENCE: u64 = 45;

    /// Sequences 0–5, 20–25 and 40–45: records in random order climb, fall
    /// below the smallest sequence seen and leave gaps.
    fn sequence(code: u64) -> u64 {
        [0, 20, 40][(code / 6) as usize] + code % 6
    }

    /// Times as few as the cells, so cells repeat at earlier and later times.
    fn record() -> impl Strategy<Value = Record> {
        (
            0..CHANNELS,
            0u64..18,
            0..TransferStep::ALL.len() + 1,
            1u64..40,
        )
    }

    fn apply(
        log: &mut TelemetryLog,
        reference: &mut Reference,
        errors: &mut Vec<RelayerError>,
        records: &[Record],
    ) {
        for &(channel, code, step, time) in records {
            let sequence = sequence(code);
            let time = SimTime::from_nanos(time);
            let Some(&transfer_step) = TransferStep::ALL.get(step) else {
                let kind = RelayerErrorKind::Redundant {
                    to: ChainRole::Destination,
                    skipped: (channel * 100 + sequence) as usize,
                };
                log.record_error(time, kind.clone());
                errors.push(RelayerError { at: time, kind });
                continue;
            };
            log.record_on(channel, Sequence::from(sequence), transfer_step, time);
            let cell = reference.entry((channel, sequence, step)).or_insert(time);
            *cell = (*cell).min(time);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Records and merges at channel offsets answer every read — a cell,
        /// the packet list, a step's times in (channel, sequence) order, its
        /// count and the error lines — as the map does, over every key.
        #[test]
        fn the_column_store_answers_like_one_map_of_cells(
            own in prop::collection::vec(record(), 0..80),
            merged in prop::collection::vec(
                (prop::collection::vec(record(), 0..60), 0..MAX_OFFSET + 1, prop::collection::vec(record(), 0..20)),
                0..3,
            ),
        ) {
            let mut log = TelemetryLog::new();
            let mut reference = Reference::new();
            let mut errors = Vec::new();
            apply(&mut log, &mut reference, &mut errors, &own);
            for (other_records, offset, after) in &merged {
                let mut other = TelemetryLog::new();
                let mut other_reference = Reference::new();
                let mut other_errors = Vec::new();
                apply(&mut other, &mut other_reference, &mut other_errors, other_records);
                log.merge_offset(&other, *offset);
                for ((channel, sequence, step), time) in other_reference {
                    let cell = reference.entry((channel + offset, sequence, step)).or_insert(time);
                    *cell = (*cell).min(time);
                }
                errors.extend(other_errors);
                apply(&mut log, &mut reference, &mut errors, after);
            }

            for channel in 0..CHANNELS + MAX_OFFSET + 1 {
                for sequence in 0..=MAX_SEQUENCE + 1 {
                    for (slot, step) in TransferStep::ALL.into_iter().enumerate() {
                        prop_assert_eq!(
                            log.step_time_on(channel, Sequence::from(sequence), step),
                            reference.get(&(channel, sequence, slot)).copied(),
                            "channel {} sequence {} step {}", channel, sequence, slot + 1
                        );
                    }
                }
            }
            let mut packets: Vec<(u64, Sequence)> = reference
                .keys()
                .map(|&(channel, sequence, _)| (channel, Sequence::from(sequence)))
                .collect();
            packets.dedup();
            prop_assert_eq!(log.packets(), packets);
            for (slot, step) in TransferStep::ALL.into_iter().enumerate() {
                let times: Vec<SimTime> = reference
                    .iter()
                    .filter(|((_, _, s), _)| *s == slot)
                    .map(|(_, time)| *time)
                    .collect();
                prop_assert_eq!(log.count_for_step(step), times.len());
                prop_assert_eq!(log.step_times(step).collect::<Vec<_>>(), times);
            }
            prop_assert_eq!(log.errors(), &errors[..]);
        }
    }
}
