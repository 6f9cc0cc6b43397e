//! Transactions: a signed batch of messages.

use std::cell::OnceCell;

use serde::{Deserialize, Serialize};

use crate::account::{sign, AccountId};
use crate::coin::Coin;
use crate::gas;
use crate::msg::Msg;
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
/// `hash_is_stable_and_needs_one_encoding`); the only other pass over the
/// bytes is the `0x00`-prefixed Merkle leaf of the block's data hash, which
/// is a different digest.
///
/// The cache is deliberately conservative around the all-`pub` fields:
/// cloning a `Tx` drops the cache, so the `clone → tamper → re-verify`
/// pattern used in tests can never observe a stale encoding. Mutating a `Tx`
/// *after* calling [`Tx::encode`]/[`Tx::hash`] on that same instance is the
/// one pattern the cache does not support; no simulator code does this
/// (transactions are built, signed and then treated as immutable).
///
/// # Decoding
///
/// [`Tx::decode`] is the inverse of [`Tx::encode`] and is counted by the
/// work profile every time it runs. The chain runs it once per submission —
/// `CheckTx` parses the transaction and hands the result to `DeliverTx`
/// through the mempool entry (see `GaiaApp`) — and any other caller pays for,
/// and is counted for, its own decode.
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
}

impl Clone for Tx {
    /// Clones the transaction *without* its encode cache: the clone may be
    /// tampered with (tests forge signers this way), so it must re-encode
    /// lazily from its own contents.
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
        }
    }

    /// The digest a signature covers: `hash_fields` over the signer, the
    /// sequence, the fee as `Coin` displays it (amount, then denom) and, per
    /// message, its type URL followed by its encoded size. Computed three
    /// times per transaction (signing, then the ante check at CheckTx and at
    /// DeliverTx), so each field streams into a [`FieldHasher`] instead of
    /// being assembled on the heap first.
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
    /// signer.
    pub fn verify_signature(&self) -> bool {
        let digest = Self::body_digest(&self.signer, self.sequence, &self.msgs, &self.fee);
        self.signature == sign(&self.signer, self.sequence, &digest)
    }

    /// Serialises the transaction into opaque bytes for inclusion in a block.
    ///
    /// The payload is the vendored serde shim's compact binary format —
    /// transactions are encoded and decoded millions of times per experiment,
    /// and JSON text on this path used to dominate experiment runtime. The
    /// returned [`RawTx`] still *declares* the exact byte length of the
    /// compact JSON rendering as its wire size, so every simulated quantity
    /// derived from transaction size (mempool and block byte limits, block
    /// processing time, WebSocket frame payloads) is unchanged: JSON remains
    /// the modelled wire format and survives at the reporting boundary only.
    ///
    /// Both come out of one walk over the transaction: its derived
    /// `serialize` feeds a [`serde::binary::Writer`], which appends the
    /// payload bytes, and a [`serde::json::Len`], which adds up the JSON
    /// length, side by side. No `serde::Value` tree and no JSON text exist at
    /// any point.
    pub fn encode(&self) -> RawTx {
        self.cached().clone()
    }

    /// The wire byte length of [`Tx::encode`]'s result, from the cache.
    pub fn encoded_len(&self) -> usize {
        self.cached().len()
    }

    /// The memoized encoding, computed on first use. Only this cache-miss
    /// path counts as encoding work in the xcc-prof counters: a cache hit
    /// performs none.
    fn cached(&self) -> &RawTx {
        self.encoded.get_or_init(|| {
            // One traversal feeds both consumers: the payload bytes and the
            // length of the JSON text they stand for.
            let mut sink = (
                serde::binary::Writer::default(),
                serde::json::Len::default(),
            );
            self.serialize(&mut sink);
            let (payload, serde::json::Len(wire_len)) = sink;
            let raw = RawTx::with_wire_len(payload.into_bytes(), wire_len);
            prof::bump_tx_encoded(raw.len() as u64);
            // Every encoded transaction is identified by hash at least once
            // (submission); filling the memo here means each clone handed out
            // by `encode` carries it, whichever of the two is asked first.
            raw.hash();
            raw
        })
    }

    /// Decodes a transaction previously produced by [`Tx::encode`].
    ///
    /// The derived `deserialize` pulls straight from a
    /// [`serde::binary::Reader`] over the payload, so the fields land in the
    /// `Tx` without a `serde::Value` tree in between. The reader takes keys in
    /// the order `encode` wrote them and falls back to a rescan for payloads
    /// that order them differently, so it accepts exactly the payloads the
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

/// The decimal digits of `n`, written into the tail of `buf` (a `u128` has at
/// most 39).
fn decimal(mut n: u128, buf: &mut [u8; 39]) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[at..];
        }
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
    /// transaction's signature covers this digest.
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
            "947b1dab0e1ba312a939dcd02030b75bbffcb2596eed210ea431d528fd86e86f"
        );
        assert_eq!(
            (tx.encode().len(), tx.encode().as_bytes().len()),
            (722, 587)
        );

        let mut odd = Tx::new("".into(), u64::MAX, vec![], "");
        odd.fee.amount = u128::MAX;
        for tx in [tx, odd, Tx::new("bob".into(), 0, vec![], "ibc/27394FB0")] {
            assert_eq!(digest(&tx), reference(&tx));
        }
    }

    #[test]
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

        let mut replayed = tx;
        replayed.sequence = 2;
        assert!(!replayed.verify_signature());
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
        assert_eq!(tx.encoded_len(), raw.len());
        let snap = prof::snapshot();
        assert_eq!(snap.txs_encoded, 1, "hash + hash + encode = one encoding");
        assert_eq!(snap.bytes_serialized, raw.len() as u64);

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

    #[test]
    fn different_contents_give_different_hashes() {
        let a = Tx::new("alice".into(), 0, vec![transfer(1)], "uatom");
        let b = Tx::new("alice".into(), 0, vec![transfer(2)], "uatom");
        assert_ne!(a.hash(), b.hash());
    }
}
