//! ICS-24 host paths, and the typed path the commitment store keys by.
//!
//! Every provable IBC state item lives at a well-known path in the host's
//! commitment store. The constructors here are used both by the writing side
//! (the IBC module) and by the verifying side (the counterparty checking a
//! proof), so the two can never disagree on a key.
//!
//! The store does not key by the path's text. A [`StorePath`] is a shared
//! [`Section`] plus a sequence: every packet commitment, receipt and
//! acknowledgement of one channel end shares the section its
//! [`ChannelPaths`] created once
//! (`commitments/ports/{port}/channels/{channel}/sequences/` and likewise
//! `receipts/…` and `acks/…`), so such a key holds no text of its own. Any
//! other path — a channel or connection end, a client or consensus state —
//! is a section of its own. A path orders and compares as its spelling does,
//! and is spelt only where bytes are needed: its leaf hash, a proof's
//! `path`, and the checks of a counterparty's proof path
//! ([`is_sequence_path`]), none of which builds the text.
//!
//! A key is its spelling, so text handed to the store is read by one rule:
//! text that ends in `/sequences/` and a `u64` in canonical decimal (no sign,
//! no leading zero) is that sequence of the section spelt up to and
//! including `/sequences/`, and any other text is a section of its own. Only
//! packet paths end that way, and text and typed paths of one spelling meet
//! in one store entry; `…/sequences/007`, `…/sequences/+5`, `…/sequences/5/x`
//! and a bare `…/sequences/` are sections of their own.
//!
//! The text builders write each path into a `String` of exactly the path's
//! length: `format!` would reserve an estimate (twice the literal text)
//! instead, and a key made from it would carry the difference.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt::Write as _;
use std::rc::Rc;

use xcc_tendermint::hash::Hash;
use xcc_tendermint::merkle::leaf_hash_parts;

use crate::height::Height;
use crate::ids::{ChannelId, ClientId, ConnectionId, PortId, Sequence};

/// One piece of a path: text as it is, or a number in decimal.
#[derive(Clone, Copy)]
enum Piece<'a> {
    Text(&'a str),
    Number(u64),
}

use Piece::{Number, Text};

/// The path made of `pieces`, in a `String` whose capacity is exactly its
/// length: the length is summed first and the text written into storage
/// allocated once, so converting the path into a `Box<str>` reallocates
/// nothing.
fn exact<'a>(pieces: impl IntoIterator<Item = Piece<'a>, IntoIter: Clone>) -> String {
    let pieces = pieces.into_iter();
    let len = (pieces.clone())
        .map(|piece| match piece {
            Text(text) => text.len(),
            Number(n) => n.checked_ilog10().map_or(1, |log| log as usize + 1),
        })
        .sum();
    let mut path = String::with_capacity(len);
    for piece in pieces {
        match piece {
            Text(text) => path.push_str(text),
            // Writing to a `String` cannot fail.
            Number(n) => {
                let _ = write!(path, "{n}");
            }
        }
    }
    path
}

/// A number's decimal digits, written on the stack.
struct Digits {
    bytes: [u8; 20],
    start: usize,
}

impl Digits {
    /// No digits: the tail of a path that ends with its section.
    const NONE: Digits = Digits {
        bytes: [0; 20],
        start: 20,
    };

    /// `n` in decimal (`u64::MAX` has 20 digits).
    fn of(mut n: u64) -> Digits {
        let mut digits = Digits::NONE;
        loop {
            digits.start -= 1;
            digits.bytes[digits.start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                return digits;
            }
        }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[self.start..]
    }
}

/// The byte order of `a` and `b` spelt in decimal, which is not their
/// numeric order: `10` sorts before `9`. Equal lengths compare as numbers;
/// otherwise the longer one's leading digits decide, and the shorter number
/// sorts first when it is those digits.
fn cmp_decimal(a: u64, b: u64) -> Ordering {
    let len = |n: u64| n.checked_ilog10().map_or(1, |log| log + 1);
    let (len_a, len_b) = (len(a), len(b));
    match len_a.cmp(&len_b) {
        Ordering::Equal => a.cmp(&b),
        Ordering::Less => a.cmp(&(b / 10u64.pow(len_b - len_a))).then(Ordering::Less),
        Ordering::Greater => (a / 10u64.pow(len_a - len_b))
            .cmp(&b)
            .then(Ordering::Greater),
    }
}

/// The text a [`StorePath`] starts with, shared by every path built on it.
#[derive(Debug, PartialEq)]
pub struct Section {
    pub(crate) text: Box<str>,
    /// Whether the paths of this section continue with a sequence in
    /// decimal; otherwise the text is the whole path.
    sequenced: bool,
}

/// A commitment-store key: a handle to a [`Section`], and the sequence that
/// follows its text when the section is sequenced. A clone shares the
/// section; the key itself owns no allocation and is as wide as a
/// `Box<str>`.
///
/// Equality and order are those of the spelling, byte by byte, whichever
/// sections two paths were built on. Two paths of one section compare their
/// sequences as decimal text, without spelling them.
#[derive(Debug, Clone)]
pub struct StorePath {
    pub(crate) section: Rc<Section>,
    /// Unread (and 0) unless the section is sequenced.
    sequence: u64,
}

impl StorePath {
    /// The path of `sequence` in `section`.
    pub(crate) fn sequenced(section: &Rc<Section>, sequence: Sequence) -> StorePath {
        StorePath {
            section: Rc::clone(section),
            sequence: sequence.value(),
        }
    }

    /// The path spelt `section` and then `sequence`, if any, on a section of
    /// its own.
    fn of_text(section: Box<str>, sequence: Option<u64>) -> StorePath {
        StorePath {
            section: Rc::new(Section {
                text: section,
                sequenced: sequence.is_some(),
            }),
            sequence: sequence.unwrap_or(0),
        }
    }

    /// The sequence after the section's text, if the section is sequenced.
    pub(crate) fn sequence(&self) -> Option<u64> {
        self.section.sequenced.then_some(self.sequence)
    }

    /// The digits after the section's text.
    fn digits(&self) -> Digits {
        if self.section.sequenced {
            Digits::of(self.sequence)
        } else {
            Digits::NONE
        }
    }

    /// The path as text, in a `String` of exactly its length.
    pub fn spell(&self) -> String {
        let digits = self.digits();
        let digits = std::str::from_utf8(digits.as_bytes()).unwrap_or_default();
        let mut path = String::with_capacity(self.section.text.len() + digits.len());
        path.push_str(&self.section.text);
        path.push_str(digits);
        path
    }

    /// The Merkle leaf hash of `spelling ‖ 0x00 ‖ value`, streamed into the
    /// hasher piece by piece.
    pub fn leaf(&self, value: &Hash) -> Hash {
        let digits = self.digits();
        leaf_hash_parts(&[
            self.section.text.as_bytes(),
            digits.as_bytes(),
            &[0],
            value.as_bytes(),
        ])
    }
}

/// Where the section of text `path` ends and the sequence that follows it,
/// when `path` ends in `/sequences/` and a `u64` in canonical decimal.
fn split_sequence(path: &str) -> Option<(usize, u64)> {
    let digits = path.bytes().rev().take_while(u8::is_ascii_digit).count();
    let (section, digits) = path.split_at(path.len() - digits);
    let canonical = digits == "0" || !digits.starts_with('0');
    if !section.ends_with("/sequences/") || digits.is_empty() || !canonical {
        return None;
    }
    Some((section.len(), digits.parse().ok()?))
}

impl From<String> for StorePath {
    /// The path spelt `path`, read by the text rule (see the module doc). A
    /// `String` whose capacity is its length that is not a packet path —
    /// every [`crate::host`] text path the store is written at — becomes its
    /// key's section without a copy or a reallocation.
    fn from(mut path: String) -> StorePath {
        let split = split_sequence(&path);
        if let Some((section, _)) = split {
            path.truncate(section);
        }
        StorePath::of_text(path.into_boxed_str(), split.map(|(_, sequence)| sequence))
    }
}

impl From<&str> for StorePath {
    fn from(path: &str) -> StorePath {
        let split = split_sequence(path);
        let section = split.map_or(path, |(section, _)| &path[..section]);
        StorePath::of_text(section.into(), split.map(|(_, sequence)| sequence))
    }
}

impl Ord for StorePath {
    fn cmp(&self, other: &StorePath) -> Ordering {
        if Rc::ptr_eq(&self.section, &other.section) {
            return if self.section.sequenced {
                cmp_decimal(self.sequence, other.sequence)
            } else {
                Ordering::Equal
            };
        }
        let (a, b) = (self.section.text.as_bytes(), other.section.text.as_bytes());
        let common = a.len().min(b.len());
        match a[..common].cmp(&b[..common]) {
            Ordering::Equal => {}
            unequal => return unequal,
        }
        // One text starts the other: the rest of each spelling decides.
        let (digits_a, digits_b) = (self.digits(), other.digits());
        let rest_a = a[common..].iter().chain(digits_a.as_bytes());
        rest_a.cmp(b[common..].iter().chain(digits_b.as_bytes()))
    }
}

impl PartialOrd for StorePath {
    fn partial_cmp(&self, other: &StorePath) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for StorePath {
    fn eq(&self, other: &StorePath) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for StorePath {}

/// What the commitment store can be asked about: a [`StorePath`], or text,
/// read by the text rule (see the module doc).
pub trait AsStorePath {
    /// The path, borrowed when it already is one.
    fn as_store_path(&self) -> Cow<'_, StorePath>;
}

impl AsStorePath for StorePath {
    fn as_store_path(&self) -> Cow<'_, StorePath> {
        Cow::Borrowed(self)
    }
}

impl AsStorePath for str {
    fn as_store_path(&self) -> Cow<'_, StorePath> {
        Cow::Owned(StorePath::from(self))
    }
}

impl AsStorePath for String {
    fn as_store_path(&self) -> Cow<'_, StorePath> {
        Cow::Owned(StorePath::from(self.as_str()))
    }
}

impl<T: AsStorePath + ?Sized> AsStorePath for &T {
    fn as_store_path(&self) -> Cow<'_, StorePath> {
        (**self).as_store_path()
    }
}

/// One channel end's paths: its end's own, and the sections its packet
/// commitments, receipts and acknowledgements share.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelPaths {
    end: StorePath,
    commitments: Rc<Section>,
    receipts: Rc<Section>,
    acks: Rc<Section>,
}

impl ChannelPaths {
    /// Spells the channel end's path and its three sections, once.
    pub fn new(port_id: &PortId, channel_id: &ChannelId) -> ChannelPaths {
        let section = |family| {
            Rc::new(Section {
                text: sequence_path(family, port_id, channel_id, None).into_boxed_str(),
                sequenced: true,
            })
        };
        ChannelPaths {
            end: StorePath::from(channel_path(port_id, channel_id)),
            commitments: section(Family::Commitments),
            receipts: section(Family::Receipts),
            acks: section(Family::Acks),
        }
    }

    /// The path of the channel end.
    pub fn end(&self) -> &StorePath {
        &self.end
    }

    /// The section every packet commitment of this end is a sequence of.
    pub fn commitments(&self) -> &Rc<Section> {
        &self.commitments
    }

    /// Path of the commitment of the packet sent with `sequence`.
    pub fn commitment(&self, sequence: Sequence) -> StorePath {
        StorePath::sequenced(&self.commitments, sequence)
    }

    /// Path of the receipt of the packet received with `sequence`.
    pub fn receipt(&self, sequence: Sequence) -> StorePath {
        StorePath::sequenced(&self.receipts, sequence)
    }

    /// Path of the acknowledgement written for the packet received with
    /// `sequence`.
    pub fn ack(&self, sequence: Sequence) -> StorePath {
        StorePath::sequenced(&self.acks, sequence)
    }
}

/// The item a channel end keeps per packet sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The packet commitment, on the sending end.
    Commitments,
    /// The receipt, on the receiving end.
    Receipts,
    /// The acknowledgement commitment, on the receiving end.
    Acks,
}

impl Family {
    fn as_str(self) -> &'static str {
        match self {
            Family::Commitments => "commitments",
            Family::Receipts => "receipts",
            Family::Acks => "acks",
        }
    }
}

/// Path of a client's client state.
pub fn client_state_path(client_id: &ClientId) -> String {
    exact([
        Text("clients/"),
        Text(client_id.as_str()),
        Text("/clientState"),
    ])
}

/// Path of a client's consensus state at a height, the height written as
/// `revision-height`.
pub fn consensus_state_path(client_id: &ClientId, height: Height) -> String {
    exact([
        Text("clients/"),
        Text(client_id.as_str()),
        Text("/consensusStates/"),
        Number(height.revision),
        Text("-"),
        Number(height.height),
    ])
}

/// Path of a connection end.
pub fn connection_path(connection_id: &ConnectionId) -> String {
    exact([Text("connections/"), Text(connection_id.as_str())])
}

/// Path of a channel end.
pub fn channel_path(port_id: &PortId, channel_id: &ChannelId) -> String {
    exact([
        Text("channelEnds/ports/"),
        Text(port_id.as_str()),
        Text("/channels/"),
        Text(channel_id.as_str()),
    ])
}

/// The path of one channel end's item under `family`, ending in
/// `/sequences/` and then `sequence`, if any. The trailing `/sequences/` is
/// what keeps `channel-10`'s paths from starting with `channel-1`'s
/// section.
fn sequence_path(
    family: Family,
    port_id: &PortId,
    channel_id: &ChannelId,
    sequence: Option<Sequence>,
) -> String {
    let head = [
        Text(family.as_str()),
        Text("/ports/"),
        Text(port_id.as_str()),
        Text("/channels/"),
        Text(channel_id.as_str()),
        Text("/sequences/"),
    ];
    exact(head.into_iter().chain(sequence.map(|s| Number(s.value()))))
}

/// Whether `path` spells the path of `family`'s item for `sequence` on a
/// channel end, compared piece by piece without building it.
pub fn is_sequence_path(
    path: &str,
    family: Family,
    port_id: &PortId,
    channel_id: &ChannelId,
    sequence: Sequence,
) -> bool {
    let digits = Digits::of(sequence.value());
    let pieces = [
        family.as_str().as_bytes(),
        b"/ports/",
        port_id.as_str().as_bytes(),
        b"/channels/",
        channel_id.as_str().as_bytes(),
        b"/sequences/",
        digits.as_bytes(),
    ];
    let rest = pieces
        .into_iter()
        .try_fold(path.as_bytes(), |rest, piece| rest.strip_prefix(piece));
    rest.is_some_and(<[u8]>::is_empty)
}

/// Path of a packet commitment.
pub fn packet_commitment_path(
    port_id: &PortId,
    channel_id: &ChannelId,
    sequence: Sequence,
) -> String {
    sequence_path(Family::Commitments, port_id, channel_id, Some(sequence))
}

/// Path of a packet receipt (unordered channels).
pub fn packet_receipt_path(port_id: &PortId, channel_id: &ChannelId, sequence: Sequence) -> String {
    sequence_path(Family::Receipts, port_id, channel_id, Some(sequence))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The text path of `family`'s item for `seq`.
    fn spelt(family: Family, port: &PortId, chan: &ChannelId, seq: Sequence) -> String {
        sequence_path(family, port, chan, Some(seq))
    }

    #[test]
    fn paths_are_namespaced_and_distinct() {
        let port = PortId::transfer();
        let chan = ChannelId::with_index(0);
        let seq = Sequence::from(5);
        let paths = [
            client_state_path(&ClientId::with_index(0)),
            consensus_state_path(&ClientId::with_index(0), Height::at(10)),
            connection_path(&ConnectionId::with_index(0)),
            channel_path(&port, &chan),
            packet_commitment_path(&port, &chan, seq),
            packet_receipt_path(&port, &chan, seq),
            spelt(Family::Acks, &port, &chan, seq),
        ];
        let mut sorted = paths;
        sorted.sort();
        assert!(
            sorted.windows(2).all(|pair| pair[0] != pair[1]),
            "store paths must be pairwise distinct: {sorted:?}"
        );
    }

    /// Every constructor writes the bytes `format!` wrote before it, and
    /// fills its storage exactly, at the digit boundaries of the numbers it
    /// writes; a channel end's typed paths spell the same bytes.
    #[test]
    fn paths_are_allocated_at_their_exact_length() {
        let port = PortId::transfer();
        for index in [0, 9, 10] {
            let chan = ChannelId::with_index(index);
            let client = ClientId::with_index(index);
            let typed = ChannelPaths::new(&port, &chan);
            for n in [0, 1, 9, 10, 99, 100, u64::MAX] {
                let seq = Sequence::from(n);
                let height = Height::new(n, u64::MAX - n);
                let connection = ConnectionId::with_index(index);
                let commitment =
                    format!("commitments/ports/{port}/channels/{chan}/sequences/{seq}");
                let receipt = format!("receipts/ports/{port}/channels/{chan}/sequences/{seq}");
                let ack = format!("acks/ports/{port}/channels/{chan}/sequences/{seq}");
                let paths = [
                    (
                        client_state_path(&client),
                        format!("clients/{client}/clientState"),
                    ),
                    (
                        consensus_state_path(&client, height),
                        format!("clients/{client}/consensusStates/{height}"),
                    ),
                    (
                        connection_path(&connection),
                        format!("connections/{connection}"),
                    ),
                    (
                        channel_path(&port, &chan),
                        format!("channelEnds/ports/{port}/channels/{chan}"),
                    ),
                    (typed.end().spell(), channel_path(&port, &chan)),
                    (
                        packet_commitment_path(&port, &chan, seq),
                        commitment.clone(),
                    ),
                    (typed.commitment(seq).spell(), commitment),
                    (packet_receipt_path(&port, &chan, seq), receipt.clone()),
                    (typed.receipt(seq).spell(), receipt),
                    (typed.ack(seq).spell(), ack),
                ];
                for (path, formatted) in paths {
                    assert_eq!(path, formatted);
                    assert_eq!(path.capacity(), path.len(), "{path}");
                }
            }
        }
    }

    #[test]
    fn commitment_paths_follow_ics24_shape() {
        assert_eq!(
            packet_commitment_path(
                &PortId::transfer(),
                &ChannelId::with_index(0),
                Sequence::from(1)
            ),
            "commitments/ports/transfer/channels/channel-0/sequences/1"
        );
        let acks = ChannelPaths::new(&PortId::transfer(), &ChannelId::with_index(3));
        assert_eq!(
            acks.ack(Sequence::from(7)).spell(),
            "acks/ports/transfer/channels/channel-3/sequences/7"
        );
    }

    /// The piecewise check accepts exactly the path's spelling: not another
    /// family, channel or sequence, not a prefix or an extension of it, and
    /// not a non-canonical spelling of its sequence.
    #[test]
    fn a_sequence_path_is_recognised_only_as_spelt() {
        let port = PortId::transfer();
        let one = ChannelId::with_index(1);
        let seq = Sequence::from(7);
        let is = |path: &str| is_sequence_path(path, Family::Commitments, &port, &one, seq);
        assert!(is(&packet_commitment_path(&port, &one, seq)));
        let prefix = "commitments/ports/transfer/channels/channel-1/sequences/";
        for other in [
            packet_commitment_path(&port, &ChannelId::with_index(10), seq),
            packet_commitment_path(&port, &one, Sequence::from(70)),
            packet_receipt_path(&port, &one, seq),
            spelt(Family::Acks, &port, &one, seq),
            channel_path(&port, &one),
            prefix.to_owned(),
            format!("{prefix}07"),
            format!("{prefix}+7"),
            format!("{prefix}7/"),
            String::new(),
        ] {
            assert!(!is(&other), "{other}");
        }
    }
}
