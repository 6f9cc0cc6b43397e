//! Block production's short cuts against the long ways round.
//!
//! A block's commit hashes short messages in one kernel call, finds a
//! written store path near the last one before it searches, updates an
//! existing balance with one search per map, and renders packet data
//! without the formatting machinery. Each test here drives one of those
//! beside the path it skips — the streaming hasher, a store built from
//! scratch and the free Merkle functions, a rollback to the prior state,
//! `format!` — and asks for the same bytes, roots, proofs, states and
//! counted work.

use std::collections::BTreeMap;

use ibc_perf_repro::chain::bank::BankModule;
use ibc_perf_repro::chain::coin::Coin;
use ibc_perf_repro::ibc::commitment::CommitmentStore;
use ibc_perf_repro::ibc::host::{ChannelPaths, StorePath};
use ibc_perf_repro::ibc::ids::{ChannelId, PortId, Sequence};
use ibc_perf_repro::ibc::transfer::{BankKeeper, FungibleTokenPacketData};
use ibc_perf_repro::sim::prof;
use ibc_perf_repro::tendermint::hash::{hash_fields, sha256, FieldHasher, Hash, Sha256};
use ibc_perf_repro::tendermint::merkle::{leaf_hash, leaf_hash_parts, simple_root, VerifiedPath};

/// `digest()`'s result and the SHA-256 blocks it counted.
fn counted(digest: impl FnOnce() -> Hash) -> (Hash, u64) {
    prof::reset();
    let hash = digest();
    (hash, prof::snapshot().sha256_blocks)
}

/// The streaming digest of `pieces`, one `update` each.
fn streamed(pieces: &[&[u8]]) -> Hash {
    let mut hasher = Sha256::new();
    for piece in pieces {
        hasher.update(piece);
    }
    hasher.finalize()
}

/// Every length from 0 to 200 bytes — across the 119 bytes that still fit
/// one call and the block edges around it — cut in two at every offset:
/// `sha256`, a leaf of two parts, two framed fields and an inner node give
/// the streaming hasher's digest and count the same blocks.
#[test]
fn one_call_digests_are_the_streamed_ones() {
    for len in 0..=200usize {
        let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(
            counted(|| sha256(&data)),
            counted(|| streamed(&[&data])),
            "sha256 of {len} bytes"
        );
        for cut in 0..=len {
            let (head, tail) = data.split_at(cut);
            assert_eq!(
                counted(|| leaf_hash_parts(&[head, tail])),
                counted(|| streamed(&[&[0], head, tail])),
                "leaf of {len} bytes cut at {cut}"
            );
            assert_eq!(
                counted(|| hash_fields(&[head, tail])),
                counted(|| {
                    let mut fields = FieldHasher::new();
                    fields.field(head);
                    fields.field(tail);
                    fields.finish()
                }),
                "fields of {len} bytes cut at {cut}"
            );
        }
        let (left, right) = (leaf_hash(&data), leaf_hash(&data[..len / 2]));
        let node = simple_root([data.as_slice(), &data[..len / 2]]);
        assert_eq!(
            node,
            streamed(&[&[1], left.as_bytes(), right.as_bytes()]),
            "inner node over leaves of {len} and {} bytes",
            len / 2
        );
    }
}

/// The store's paths and values, kept apart from it: a typed path's
/// spelling, and the value it holds.
struct History {
    store: CommitmentStore,
    model: BTreeMap<String, Hash>,
    ends: [ChannelPaths; 2],
    written: u64,
}

impl History {
    /// Channel-1 commitments 1–990 and 1011–3000, and channel-10's 9000–9990:
    /// 3,971 entries with gaps across 999/1000 and 9999/10000.
    fn new() -> History {
        let port = PortId::transfer();
        let ends = [1, 10].map(|index| ChannelPaths::new(&port, &ChannelId::with_index(index)));
        let mut history = History {
            store: CommitmentStore::new(),
            model: BTreeMap::new(),
            ends,
            written: 0,
        };
        let seqs = (1..=990).chain(1011..=3000).map(|seq| (0, seq));
        history.block(seqs.chain((9000..=9990).map(|seq| (1, seq))), []);
        history
    }

    fn path(&self, end: usize, seq: u64) -> StorePath {
        self.ends[end].commitment(Sequence(seq))
    }

    /// One block: sets a fresh value at every `(end, seq)` of `sets` and
    /// deletes every one of `deletes`, then checks the store.
    fn block(
        &mut self,
        sets: impl IntoIterator<Item = (usize, u64)>,
        deletes: impl IntoIterator<Item = (usize, u64)>,
    ) {
        for (end, seq) in sets {
            self.written += 1;
            let (path, value) = (self.path(end, seq), sha256(&self.written.to_be_bytes()));
            let prior = self.model.insert(path.spell(), value);
            assert_eq!(self.store.set(path, value), prior);
        }
        for (end, seq) in deletes {
            let path = self.path(end, seq);
            assert_eq!(self.store.delete(&path), self.model.remove(&path.spell()));
        }
        self.check();
    }

    /// The root is the Merkle root of the model's `spelling ‖ 0x00 ‖ value`
    /// in spelling order, and every 97th proof, and the first and last,
    /// verify against it and are the proofs of a store built from scratch.
    fn check(&self) {
        let leaves: Vec<Vec<u8>> = (self.model.iter())
            .map(|(path, value)| [path.as_bytes(), &[0], value.as_bytes()].concat())
            .collect();
        let root = simple_root(leaves.iter().map(Vec::as_slice));
        assert_eq!(self.store.root(), root);
        let mut scratch = CommitmentStore::new();
        for (path, value) in &self.model {
            scratch.set(path.as_str(), *value);
        }
        let last = self.model.len() - 1;
        for (rank, (path, value)) in self.model.iter().enumerate() {
            if rank % 97 != 0 && rank != last {
                continue;
            }
            let proof = self.store.prove_membership(path.as_str()).expect("present");
            assert_eq!(
                (&proof.path, &proof.value, &proof.root),
                (path, value, &root)
            );
            assert!(proof.verify(&root, &mut VerifiedPath::default()), "{path}");
            assert_eq!(
                Some(proof),
                scratch.prove_membership(path.as_str()),
                "{path}"
            );
        }
    }
}

/// A store of 3,971 paths through the blocks a chain commits: dense runs of
/// new sequences across 999/1000 and 9999/10000 (whose spellings sort out of
/// numeric order), a lone write, a block of overwrites only and one of
/// deletes only, in dense runs and scattered.
#[test]
fn store_histories_keep_the_from_scratch_roots_and_proofs() {
    let mut history = History::new();
    assert_eq!(history.store.len(), 3_971);
    let dense = (991..=1010).map(|seq| (0, seq));
    history.block(dense.chain((9991..=10_010).map(|seq| (1, seq))), []);
    history.block([(0, 2_000_000)], []);
    history.block([(1, 9_500)], []);
    let scattered = (1..=3000).step_by(211).map(|seq| (0, seq));
    history.block((995..=1005).map(|seq| (0, seq)).chain(scattered), []);
    history.block([], (9995..=10_005).map(|seq| (1, seq)));
    history.block([], (7..=3000).step_by(173).map(|seq| (0, seq)));
    history.block([], [(0, 2_000_000)]);
    assert_eq!(history.store.len(), 3_971 + 40 + 1 - 11 - 18 - 1);
}

/// One bank transaction that debits and credits existing balances, through
/// the bank and through the keeper the IBC module uses, refuses a debit
/// larger than the balance, creates a balance and burns: its writes land,
/// and rolling it back restores the prior state and its hash.
#[test]
fn a_rolled_back_bank_transaction_restores_the_prior_state() {
    let (alice, bob, carol) = ("alice".into(), "bob".into(), "carol".into());
    let mut bank = BankModule::new();
    bank.mint_coins(&alice, &Coin::new("uatom", 1_000));
    bank.mint_coins(&bob, &Coin::new("uatom", 50));
    bank.mint_coins(&bob, &Coin::new("stake", 7));
    let (prior, prior_hash) = (bank.clone(), bank.state_hash());

    bank.begin_tx();
    bank.transfer(&alice, &bob, &Coin::new("uatom", 300))
        .unwrap();
    BankKeeper::send(&mut bank, "bob", "alice", "stake", 2).unwrap();
    let refused = bank.transfer(&bob, &carol, &Coin::new("uatom", 351));
    assert!(refused.is_err(), "bob holds 350 uatom");
    bank.transfer(&bob, &carol, &Coin::new("uatom", 350))
        .unwrap();
    BankKeeper::burn(&mut bank, "carol", "uatom", 100).unwrap();
    assert!(BankKeeper::burn(&mut bank, "carol", "uatom", 251).is_err());
    assert_eq!(bank.balance(&alice, "uatom"), 700);
    assert_eq!(bank.balance(&alice, "stake"), 2);
    assert_eq!(bank.balance(&bob, "uatom"), 0);
    assert_eq!(bank.balance(&bob, "stake"), 5);
    assert_eq!(bank.balance(&carol, "uatom"), 250);
    assert_eq!(bank.total_supply("uatom"), 950);
    assert_ne!(bank.state_hash(), prior_hash);
    bank.rollback_tx();

    assert_eq!(bank.state_hash(), prior_hash);
    assert_eq!(bank, prior);
    assert_eq!(bank.balance(&carol, "uatom"), 0);
    assert_eq!(bank.total_supply("uatom"), 1_050);
}

/// Packet data of 51, 69, 135, 173 and 335 bytes, with amounts of one digit,
/// the most a `u64` spells, one past it and the most a `u128` spells: the
/// bytes and the buffer's capacity are `format!`'s.
#[test]
fn packet_data_renders_as_format_does() {
    let cases = [
        ("uatom", 1u128, 51),
        ("uatom", u128::from(u64::MAX), 69),
        ("transfer/channel-0/uatom", u128::from(u64::MAX) + 1, 135),
        ("stake", u128::MAX, 173),
        ("transfer/channel-7/transfer/channel-3/uatom", 9, 335),
    ];
    for (denom, amount, len) in cases {
        let names = len - 32 - denom.len() - amount.to_string().len();
        let (sender, receiver) = ("s".repeat(names / 3), "r".repeat(names - names / 3));
        let data = FungibleTokenPacketData {
            denom,
            amount,
            sender: &sender,
            receiver: &receiver,
        };
        let rendered =
            format!("denom={denom}\namount={amount}\nsender={sender}\nreceiver={receiver}");
        let bytes = data.to_bytes();
        assert_eq!(bytes.len(), len);
        assert_eq!(bytes, rendered.as_bytes(), "{len} bytes");
        assert_eq!(bytes.capacity(), rendered.capacity(), "{len} bytes");
    }
}
