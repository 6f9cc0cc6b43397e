//! Transactions: a signed batch of messages.

use std::cell::OnceCell;

use serde::{Deserialize, Serialize};

use crate::account::{sign, AccountId};
use crate::coin::Coin;
use crate::gas;
use crate::msg::Msg;
use xcc_ibc::transfer::decimal;
use xcc_sim::prof;
use xcc_tendermint::block::RawTx;
use xcc_tendermint::hash::{FieldHasher, Hash};

/// A transaction: one signer, a sequence number, a fee, and a batch of
/// messages.
///
/// The paper's workloads batch exactly 100 `MsgTransfer` messages per
/// transaction, the maximum Hermes allows, to work around the
/// one-transaction-per-account-per-block limitation (§III-D).
///
/// # Encode/hash caching
///
/// The wire encoding is computed once per transaction instance and
/// memoized: the broadcast path used to re-encode the same transaction up to
/// four times (hashing for telemetry, hashing for submission tracking,
/// encoding for the RPC call). The hash is not kept here at all — it is the
/// memoized [`RawTx::hash`] of the cached encoding, filled when the encoding
/// is made, and every [`Tx::encode`] hands out a clone that carries it. So
/// the payload is hashed once however many of `Tx::hash`, the node's
/// `submit_tx`, the mempool and the transaction index ask for its
/// identifier (`tx.hash() == tx.encode().hash()` costs one pass, pinned by
/// `hash_is_stable_and_needs_one_encoding`). It is the only pass over the
/// bytes: the block's data hash is a Merkle root over these ids, not over
/// the payloads.
///
/// A submission does not clone the encoding: [`Tx::take_encoded`] moves it
/// out, memo and all, and the chain stores that one payload in its block.
/// The payload is fitted to its length when it is made, so a block holds no
/// room the encoder grew into.
///
/// The body digest the signature covers is memoized the same way: the one
/// [`Tx::new`] signed is kept, and [`Tx::verify_signature`] reads it. The
/// ante handler runs at CheckTx and again at DeliverTx, and both still
/// check the signature against the signer and sequence, as the SDK's does,
/// but the 100 messages of a relayer or CLI transaction are hashed once,
/// not three times. A transaction read back by [`Tx::decode`] has no memo
/// and fills it on its first verification.
///
/// Both caches are deliberately conservative around the all-`pub` fields:
/// cloning a `Tx` drops them, so the `clone → tamper → re-verify` pattern
/// used in tests can never observe a stale encoding or digest. Mutating a
/// `Tx` *after* construction is the one pattern they do not support: an
/// in-place change to `signer`, `sequence` or `signature` still fails
/// verification, since the signature covers the first two beside the
/// digest, but one to `msgs` or `fee` is hidden by the kept digest, and any
/// change made after [`Tx::encode`]/[`Tx::hash`] is hidden from the
/// encoding. No simulator code does this (transactions are built, signed
/// and then treated as immutable).
///
/// # Decoding
///
/// [`Tx::decode`] is the inverse of [`Tx::encode`] and is counted by the
/// work profile every time it runs. The chain never runs it: every
/// submission hands the node the `Tx` its client built beside the encoding
/// (see `RpcEndpoint::broadcast_tx_sync`), and `CheckTx` and `DeliverTx` both run on that
/// `Tx`. Tests, and the benchmark's codec drive over committed blocks, decode
/// payloads to read them back.
#[derive(Debug, Serialize, Deserialize)]
pub struct Tx {
    /// The messages to execute, in order.
    pub msgs: Vec<Msg>,
    /// The fee-paying signer.
    pub signer: AccountId,
    /// The signer's account sequence this transaction consumes.
    pub sequence: u64,
    /// Gas limit requested.
    pub gas_limit: u64,
    /// Fee offered.
    pub fee: Coin,
    /// Free-form memo.
    pub memo: String,
    /// Simulated signature over the transaction body.
    pub signature: Hash,
    /// Memoized encoding (which memoizes its own hash), excluded from
    /// comparison, cloning and the wire format.
    #[serde(skip)]
    encoded: OnceCell<RawTx>,
    /// Memoized body digest, the one the signature was made over; excluded
    /// like the encoding.
    #[serde(skip)]
    digest: OnceCell<Hash>,
}

impl Clone for Tx {
    /// Clones the transaction *without* its encode and digest caches: the
    /// clone may be tampered with (tests forge signers this way), so it must
    /// re-encode and re-digest lazily from its own contents.
    fn clone(&self) -> Self {
        Tx {
            msgs: self.msgs.clone(),
            signer: self.signer.clone(),
            sequence: self.sequence,
            gas_limit: self.gas_limit,
            fee: self.fee.clone(),
            memo: self.memo.clone(),
            signature: self.signature,
            encoded: OnceCell::new(),
            digest: OnceCell::new(),
        }
    }
}

impl PartialEq for Tx {
    fn eq(&self, other: &Self) -> bool {
        self.msgs == other.msgs
            && self.signer == other.signer
            && self.sequence == other.sequence
            && self.gas_limit == other.gas_limit
            && self.fee == other.fee
            && self.memo == other.memo
            && self.signature == other.signature
    }
}

/// Errors produced when decoding a transaction from raw bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxDecodeError {
    /// Description of the malformation.
    pub reason: String,
}

impl std::fmt::Display for TxDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to decode tx: {}", self.reason)
    }
}

impl std::error::Error for TxDecodeError {}

impl Tx {
    /// Builds and signs a transaction.
    ///
    /// The gas limit and fee are derived from the message batch using the
    /// calibrated per-message costs and the configured gas price.
    pub fn new(signer: AccountId, sequence: u64, msgs: Vec<Msg>, fee_denom: &str) -> Self {
        let gas_limit = gas::TX_BASE_GAS + msgs.iter().map(Msg::gas_cost).sum::<u64>();
        let fee = Coin::new(fee_denom, gas::fee_for_gas(gas_limit));
        let body_digest = Self::body_digest(&signer, sequence, &msgs, &fee);
        let signature = sign(&signer, sequence, &body_digest);
        Tx {
            msgs,
            signer,
            sequence,
            gas_limit,
            fee,
            memo: String::new(),
            signature,
            encoded: OnceCell::new(),
            digest: OnceCell::from(body_digest),
        }
    }

    /// The digest a signature covers: `hash_fields` over the signer, the
    /// sequence, the fee as `Coin` displays it (amount, then denom) and, per
    /// message, its type URL followed by its encoded size. Computed once per
    /// transaction and kept (see "Encode/hash caching"); each field streams
    /// into a [`FieldHasher`] instead of being assembled on the heap first.
    fn body_digest(signer: &AccountId, sequence: u64, msgs: &[Msg], fee: &Coin) -> Hash {
        let mut hasher = FieldHasher::new();
        hasher.field(signer.as_str().as_bytes());
        hasher.field(&sequence.to_be_bytes());
        let mut digits = [0u8; 39];
        hasher.field_parts(&[decimal(fee.amount, &mut digits), fee.denom.as_bytes()]);
        for msg in msgs {
            let size = (msg.encoded_size() as u64).to_be_bytes();
            hasher.field_parts(&[msg.type_url().as_bytes(), &size]);
        }
        hasher.finish()
    }

    /// Whether the transaction's signature matches its contents and claimed
    /// signer. The body digest is the memoized one, computed here only for
    /// a transaction that was not built by [`Tx::new`].
    pub fn verify_signature(&self) -> bool {
        let digest = self
            .digest
            .get_or_init(|| Self::body_digest(&self.signer, self.sequence, &self.msgs, &self.fee));
        self.signature == sign(&self.signer, self.sequence, digest)
    }

    /// Serialises the transaction into opaque bytes for inclusion in a block.
    ///
    /// The payload is the vendored serde shim's compact binary format —
    /// every broadcast encodes a transaction, and JSON text on this path
    /// used to dominate experiment runtime. The returned [`RawTx`] still
    /// *declares* the exact byte length of the compact JSON rendering as
    /// its wire size, so every simulated quantity derived from transaction
    /// size (mempool and block byte limits, block processing time, WebSocket
    /// frame payloads) is unchanged: JSON remains the modelled wire format
    /// and survives at the reporting boundary only.
    ///
    /// Both come out of one walk over the transaction: its derived
    /// `serialize` feeds a [`serde::binary::Writer`], which appends the
    /// payload bytes, and a [`serde::json::Len`], which adds up the JSON
    /// length, side by side. No `serde::Value` tree and no JSON text exist at
    /// any point.
    pub fn encode(&self) -> RawTx {
        self.cached().clone()
    }

    /// Moves the memoized encoding out of the transaction, encoding it first
    /// if nothing has asked yet: what a submission hands the chain beside
    /// the transaction, so the payload is never copied. It carries its hash
    /// memo. The transaction keeps its contents, and a later
    /// [`Tx::encode`]/[`Tx::hash`] on it encodes afresh.
    pub fn take_encoded(&mut self) -> RawTx {
        self.encoded.take().unwrap_or_else(|| self.fresh_encoding())
    }

    /// The memoized encoding, computed on first use.
    fn cached(&self) -> &RawTx {
        self.encoded.get_or_init(|| self.fresh_encoding())
    }

    /// Encodes the transaction. This is the only path that counts as
    /// encoding work in the xcc-prof counters: a cache hit performs none.
    fn fresh_encoding(&self) -> RawTx {
        // One traversal feeds both consumers: the payload bytes and the
        // length of the JSON text they stand for.
        let mut sink = (
            serde::binary::Writer::default(),
            serde::json::Len::default(),
        );
        self.serialize(&mut sink);
        let (payload, serde::json::Len(wire_len)) = sink;
        // The writer grew by doubling; a committed block keeps this payload
        // to the end of the run, so it keeps exactly its bytes.
        let mut payload = payload.into_bytes();
        payload.shrink_to_fit();
        let raw = RawTx::with_wire_len(payload, wire_len);
        prof::bump_tx_encoded(raw.len() as u64, raw.as_bytes().len() as u64);
        // Every encoded transaction is identified by hash at least once
        // (submission); filling the memo here means each clone handed out by
        // `encode`, and the encoding `take_encoded` moves out, carries it.
        raw.hash();
        raw
    }

    /// Decodes a transaction previously produced by [`Tx::encode`].
    ///
    /// The derived `deserialize` pulls straight from a
    /// [`serde::binary::Reader`] over the payload, so the fields land in the
    /// `Tx` without a `serde::Value` tree in between. Each struct is read as
    /// the record `encode` wrote, exactly its fields by position; a struct
    /// spelt as a keyed map is looked up by key. Both go through
    /// `serde::Fields`, so the reader accepts exactly the payloads the
    /// tree-building `serde::binary::from_bytes` + `from_value` pair accepts.
    ///
    /// # Errors
    ///
    /// Fails when the bytes are not a valid encoded transaction: an unknown
    /// tag, truncation, invalid UTF-8, an oversized varint, containers nested
    /// more than [`serde::MAX_DEPTH`] deep, trailing bytes, or well-formed
    /// bytes that are not a `Tx`.
    pub fn decode(raw: &RawTx) -> Result<Self, TxDecodeError> {
        prof::bump_tx_decoded();
        serde::binary::read(raw.as_bytes()).map_err(|e| TxDecodeError {
            reason: e.to_string(),
        })
    }

    /// The transaction hash (identical to the hash of its encoding).
    ///
    /// Served from the encode cache: the first of `hash`/`encode` on an
    /// instance pays for the encoding and its one hashing pass, every later
    /// call is free. Pinned by `hash_is_stable_and_needs_one_encoding`.
    pub fn hash(&self) -> Hash {
        self.cached().hash()
    }

    /// Number of messages in the transaction.
    pub fn msg_count(&self) -> usize {
        self.msgs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcc_ibc::height::Height;
    use xcc_ibc::ids::{ChannelId, PortId};
    use xcc_ibc::module::TransferParams;
    use xcc_sim::SimTime;
    use xcc_tendermint::hash::sha256;

    fn transfer(amount: u128) -> Msg {
        Msg::IbcTransfer(TransferParams {
            source_port: PortId::transfer(),
            source_channel: ChannelId::with_index(0),
            denom: "uatom".into(),
            amount,
            sender: "alice".into(),
            receiver: "bob".into(),
            timeout_height: Height::at(500),
            timeout_timestamp: SimTime::ZERO,
        })
    }

    #[test]
    fn encode_decode_roundtrip() {
        let tx = Tx::new("alice".into(), 3, vec![transfer(10), transfer(20)], "uatom");
        let raw = tx.encode();
        let decoded = Tx::decode(&raw).unwrap();
        assert_eq!(decoded, tx);
        assert_eq!(decoded.msg_count(), 2);
        assert_eq!(tx.hash(), sha256(raw.as_bytes()));
    }

    /// A decoded 100-transfer transaction holds one copy of each text its
    /// messages repeat, as the CLI built it: `CheckTx` allocates a
    /// denomination and two addresses per transaction, not per message.
    #[test]
    fn decoded_transfers_share_their_texts() {
        let msgs: Vec<Msg> = (0..100).map(|i| transfer(i as u128 + 1)).collect();
        let decoded = Tx::decode(&Tx::new("alice".into(), 7, msgs, "uatom").encode()).unwrap();
        let params: Vec<&TransferParams> = (decoded.msgs.iter())
            .map(|msg| match msg {
                Msg::IbcTransfer(params) => params,
                other => panic!("not a transfer: {other:?}"),
            })
            .collect();
        assert_eq!(params.len(), 100);
        let first = params[0];
        for p in &params[1..] {
            assert!(std::sync::Arc::ptr_eq(&p.sender, &first.sender));
            assert!(std::sync::Arc::ptr_eq(&p.receiver, &first.receiver));
            assert!(std::sync::Arc::ptr_eq(&p.denom, &first.denom));
        }
        assert_eq!(
            (&*first.sender, &*first.receiver, &*first.denom),
            ("alice", "bob", "uatom")
        );
    }

    #[test]
    fn wire_length_models_the_json_rendering_exactly() {
        let msgs: Vec<Msg> = (0..100).map(|i| transfer(i as u128 + 1)).collect();
        let tx = Tx::new("alice".into(), 7, msgs, "uatom");
        let raw = tx.encode();
        let json = serde_json::to_vec(&tx).expect("tx serializes");
        // The declared wire size is the JSON rendering the real RPC would
        // carry, while the host payload is the (much smaller) binary form.
        assert_eq!(raw.len(), json.len());
        assert!(
            raw.as_bytes().len() < raw.len(),
            "binary payload ({}) should undercut the JSON wire size ({})",
            raw.as_bytes().len(),
            raw.len()
        );
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "builds a serde::Value map to append a key no field of Tx reads, which the streaming encoder cannot write"
    )]
    fn decode_rejects_garbage() {
        let err = Tx::decode(&RawTx::new(b"not json".to_vec())).unwrap_err();
        assert!(err.to_string().contains("failed to decode"));

        // 200,000 nested one-element arrays — 400 KB, smaller than a
        // relayer transaction — used to overflow the stack; both on their
        // own and hidden under a key no field of `Tx` reads.
        let deep = [7u8, 1].repeat(200_000);
        assert!(Tx::decode(&RawTx::new(deep.clone())).is_err());
        let tx = Tx::new("alice".into(), 3, vec![transfer(10)], "uatom");
        let mut entries = tx.to_value().as_map().expect("a map").to_vec();
        let with_extra = |entries: &[(String, serde::Value)]| {
            RawTx::new(serde::binary::to_bytes(&serde::Value::Map(
                entries.to_vec(),
            )))
        };
        entries.push(("extra".into(), serde::Value::Null));
        assert_eq!(Tx::decode(&with_extra(&entries)).unwrap(), tx);
        let mut hidden = with_extra(&entries).as_bytes().to_vec();
        assert_eq!(hidden.pop(), Some(0), "the trailing null of `extra`");
        hidden.extend(deep);
        let err = Tx::decode(&RawTx::new(hidden)).unwrap_err();
        assert!(err.reason.contains("nests deeper"), "{err}");
    }

    /// The streamed digest against the heap-assembled one it replaced, and
    /// against a literal captured before the change: every fixture
    /// transaction's signature covers this digest. The signature never sees
    /// the payload, so it kept its value when byte arrays became runs and
    /// again when structs became records; the tx hash and the payload length
    /// are those of the records (536 bytes while structs were keyed maps; the
    /// modelled JSON length, 722, did not move).
    #[test]
    fn body_digest_is_unchanged_by_streaming() {
        use xcc_tendermint::hash::hash_fields;
        let reference = |tx: &Tx| {
            let mut fields = vec![
                tx.signer.as_str().as_bytes().to_vec(),
                tx.sequence.to_be_bytes().to_vec(),
                tx.fee.to_string().into_bytes(),
            ];
            for msg in &tx.msgs {
                let mut bytes = msg.type_url().as_bytes().to_vec();
                bytes.extend_from_slice(&(msg.encoded_size() as u64).to_be_bytes());
                fields.push(bytes);
            }
            let refs: Vec<&[u8]> = fields.iter().map(|f| f.as_slice()).collect();
            hash_fields(&refs)
        };
        let digest = |tx: &Tx| Tx::body_digest(&tx.signer, tx.sequence, &tx.msgs, &tx.fee);

        let bank = Msg::BankSend {
            from: "alice".into(),
            to: "bob".into(),
            amount: Coin::new("uatom", 7),
        };
        let tx = Tx::new(
            "alice".into(),
            3,
            vec![transfer(10), bank, transfer(20)],
            "uatom",
        );
        assert_eq!(
            digest(&tx).to_hex(),
            "1076f03db749e1e0ec9958d8c8f941c9365184d31d59e924fa1286094349f71c"
        );
        assert_eq!(
            tx.signature.to_hex(),
            "f8c25fa4af119ed78eff537fb9e9e87283d1cd454b9c3db686e7ac75733e1d76"
        );
        assert_eq!(
            tx.hash().to_hex(),
            "afa6a364e290c85860e469c36720fc70151cac411a65174ccd1819076fc87802"
        );
        assert_eq!(
            (tx.encode().len(), tx.encode().as_bytes().len()),
            (722, 235)
        );

        let mut odd = Tx::new("".into(), u64::MAX, vec![], "");
        odd.fee.amount = u128::MAX;
        for tx in [tx, odd, Tx::new("bob".into(), 0, vec![], "ibc/27394FB0")] {
            assert_eq!(digest(&tx), reference(&tx));
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "a relative error against the paper's printed gas, in the test only"
    )]
    fn gas_limit_matches_paper_for_hundred_transfers() {
        let msgs: Vec<Msg> = (0..100).map(|i| transfer(i as u128 + 1)).collect();
        let tx = Tx::new("alice".into(), 0, msgs, "uatom");
        let diff = (tx.gas_limit as f64 - 3_669_161.0).abs() / 3_669_161.0;
        assert!(
            diff < 0.01,
            "gas limit {} deviates from the paper by {:.2}%",
            tx.gas_limit,
            diff * 100.0
        );
        assert_eq!(tx.fee.amount, gas::fee_for_gas(tx.gas_limit));
    }

    #[test]
    fn signature_verifies_and_detects_tampering() {
        let tx = Tx::new("alice".into(), 1, vec![transfer(5)], "uatom");
        assert!(tx.verify_signature());

        let mut forged = tx.clone();
        forged.signer = "mallory".into();
        assert!(!forged.verify_signature());

        // A clone re-digests its own messages.
        let mut edited = tx.clone();
        edited.msgs.push(transfer(6));
        assert!(!edited.verify_signature());

        // In place, on the instance that keeps the signed digest.
        let mut resigned = tx;
        let signature = resigned.signature;
        resigned.signature = sign(&"alice".into(), 1, &Hash::ZERO);
        assert!(!resigned.verify_signature());
        resigned.signature = signature;
        assert!(resigned.verify_signature());

        let mut replayed = resigned;
        replayed.sequence = 2;
        assert!(!replayed.verify_signature());
    }

    /// The digest `Tx::new` signed is the one both ante checks verify
    /// against: building a transaction and verifying it twice, as CheckTx
    /// and DeliverTx do, hashes its body once. A decoded transaction
    /// digests on its first verification only.
    #[test]
    fn two_verifications_cost_one_body_digest() {
        fn blocks<R>(f: impl FnOnce() -> R) -> (R, u64) {
            prof::reset();
            let out = f();
            (out, prof::snapshot().sha256_blocks)
        }
        let msgs: Vec<Msg> = (0..100).map(|i| transfer(i as u128 + 1)).collect();
        let (_, signing) = blocks(|| sign(&"alice".into(), 7, &Hash::ZERO));
        let (tx, building) = blocks(|| Tx::new("alice".into(), 7, msgs, "uatom"));
        let (_, digest) = blocks(|| Tx::body_digest(&tx.signer, tx.sequence, &tx.msgs, &tx.fee));
        assert!(digest > 20, "100 messages span many blocks: {digest}");
        assert_eq!(building, digest + signing);
        let (valid, verifying) = blocks(|| tx.verify_signature() && tx.verify_signature());
        assert!(valid);
        assert_eq!(verifying, 2 * signing, "two checks, no second digest");

        let (decoded, _) = blocks(|| Tx::decode(&tx.encode()).unwrap());
        let (valid, verifying) =
            blocks(|| decoded.verify_signature() && decoded.verify_signature());
        assert!(valid);
        assert_eq!(verifying, digest + 2 * signing);
    }

    /// `Tx::hash` used to re-encode the whole transaction on every call, and
    /// then to hash the payload a second time beside `RawTx::hash`. This
    /// pins (a) hash stability — the cached hash equals a from-scratch
    /// sha256 of a fresh encoding, including on clones, which drop the cache
    /// — (b) that repeated hash/encode calls cost exactly one encoding in
    /// the work counters, and (c) that they cost one hashing pass: every
    /// encoding handed out already carries the digest `Tx::hash` returns.
    #[test]
    fn hash_is_stable_and_needs_one_encoding() {
        let tx = Tx::new("alice".into(), 3, vec![transfer(10), transfer(20)], "uatom");

        prof::reset();
        // Encoding first: the hand-out is already hashed, so the node's
        // `submit_tx` and a later `tx.hash()` both read the memo.
        let first = tx.encode();
        assert_eq!(first.hash_if_computed(), Some(tx.hash()));
        let h1 = tx.hash();
        let h2 = tx.hash();
        let raw = tx.encode();
        assert_eq!(raw.hash_if_computed(), Some(h1));
        assert_eq!(tx.hash(), tx.encode().hash());
        assert_eq!(h1, h2);
        assert_eq!(h1, sha256(raw.as_bytes()));
        let snap = prof::snapshot();
        assert_eq!(snap.txs_encoded, 1, "hash + hash + encode = one encoding");
        assert_eq!(snap.bytes_serialized, raw.len() as u64);
        assert_eq!(snap.payload_bytes, raw.as_bytes().len() as u64);

        // A clone re-encodes from its own contents and lands on the same
        // bytes and hash.
        let cloned = tx.clone();
        assert_eq!(cloned.hash(), h1);
        assert_eq!(cloned.encode(), raw);
        assert_eq!(prof::snapshot().txs_encoded, 2);
        // The original still reads its own memo.
        assert_eq!(tx.hash(), h1);
        assert_eq!(prof::snapshot().txs_encoded, 2);
    }

    /// A submission moves the one encoding out: the same bytes with their
    /// hash memo and no second encoding. Taken, the cache is empty, so the
    /// transaction encodes afresh if asked again.
    #[test]
    fn take_encoded_moves_the_one_encoding_out() {
        let mut tx = Tx::new("alice".into(), 3, vec![transfer(10), transfer(20)], "uatom");

        prof::reset();
        let hash = tx.hash();
        let raw = tx.take_encoded();
        assert_eq!(raw.hash_if_computed(), Some(hash));
        assert_eq!(
            prof::snapshot().txs_encoded,
            1,
            "hash + take = one encoding"
        );
        assert_eq!(tx.encode(), raw);
        assert_eq!(prof::snapshot().txs_encoded, 2);

        // Taken before anything asked: encoded once, memo filled.
        let mut fresh = tx.clone();
        let taken = fresh.take_encoded();
        assert_eq!(taken, raw);
        assert_eq!(taken.hash_if_computed(), Some(hash));
        assert_eq!(prof::snapshot().txs_encoded, 3);
    }

    #[test]
    fn different_contents_give_different_hashes() {
        let a = Tx::new("alice".into(), 0, vec![transfer(1)], "uatom");
        let b = Tx::new("alice".into(), 0, vec![transfer(2)], "uatom");
        assert_ne!(a.hash(), b.hash());
    }
}
