//! ICS-20 fungible token transfer application.
//!
//! This module implements the token-movement rules the paper's workload
//! exercises: escrowing native tokens on the source chain, minting voucher
//! denominations on the destination, burning vouchers when they travel back,
//! and refunding on failed or timed-out transfers.

use crate::error::IbcError;
use crate::ids::{ChannelId, PortId};
use crate::packet::{Acknowledgement, Packet};
use xcc_tendermint::hash::hash_fields;

/// The payload of an ICS-20 packet, as a view: the strings belong to the
/// message being sent or to the packet bytes being read, so building or
/// parsing one copies nothing.
///
/// # Example
///
/// ```rust
/// use xcc_ibc::transfer::FungibleTokenPacketData;
///
/// let data = FungibleTokenPacketData {
///     denom: "uatom",
///     amount: 1_000,
///     sender: "user-0",
///     receiver: "user-0",
/// };
/// let bytes = data.to_bytes();
/// assert_eq!(FungibleTokenPacketData::from_bytes(&bytes).unwrap(), data);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FungibleTokenPacketData<'a> {
    /// Denomination being transferred, possibly trace-prefixed
    /// (`transfer/channel-0/uatom`).
    pub denom: &'a str,
    /// Amount of the denomination.
    pub amount: u128,
    /// Sender address on the source chain.
    pub sender: &'a str,
    /// Receiver address on the destination chain.
    pub receiver: &'a str,
}

impl<'a> FungibleTokenPacketData<'a> {
    /// Serialises the packet data to bytes.
    ///
    /// The on-the-wire format is a simple length-unambiguous text encoding;
    /// its size is comparable to the JSON the real ICS-20 module produces,
    /// which is what matters for the RPC/WebSocket cost models.
    pub fn to_bytes(&self) -> Vec<u8> {
        format!(
            "denom={}\namount={}\nsender={}\nreceiver={}",
            self.denom, self.amount, self.sender, self.receiver
        )
        .into_bytes()
    }

    /// Parses packet data previously produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, IbcError> {
        let text = std::str::from_utf8(bytes).map_err(|_| IbcError::Transfer {
            reason: "packet data is not valid UTF-8".into(),
        })?;
        let mut denom = None;
        let mut amount = None;
        let mut sender = None;
        let mut receiver = None;
        for line in text.lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            match key {
                "denom" => denom = Some(value),
                "amount" => amount = value.parse::<u128>().ok(),
                "sender" => sender = Some(value),
                "receiver" => receiver = Some(value),
                _ => {}
            }
        }
        match (denom, amount, sender, receiver) {
            (Some(denom), Some(amount), Some(sender), Some(receiver)) => {
                Ok(FungibleTokenPacketData {
                    denom,
                    amount,
                    sender,
                    receiver,
                })
            }
            _ => Err(IbcError::Transfer {
                reason: "malformed ICS-20 packet data".into(),
            }),
        }
    }
}

/// Abstraction over the host chain's bank module, implemented by `xcc-chain`.
pub trait BankKeeper {
    /// Moves `amount` of `denom` from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Fails when `from` has an insufficient balance.
    fn send(&mut self, from: &str, to: &str, denom: &str, amount: u128) -> Result<(), String>;

    /// Creates `amount` of `denom` in `to`'s balance.
    fn mint(&mut self, to: &str, denom: &str, amount: u128);

    /// Destroys `amount` of `denom` from `from`'s balance.
    ///
    /// # Errors
    ///
    /// Fails when `from` has an insufficient balance.
    fn burn(&mut self, from: &str, denom: &str, amount: u128) -> Result<(), String>;
}

/// The escrow account that holds tokens sent over a channel. The IBC module
/// hashes it once per channel end, when the end is opened, and hands it to
/// the functions below.
pub fn escrow_address(port_id: &PortId, channel_id: &ChannelId) -> String {
    let digest = hash_fields(&[
        b"ics20-escrow",
        port_id.as_str().as_bytes(),
        channel_id.as_str().as_bytes(),
    ]);
    ["escrow-", &digest.short()].concat()
}

/// `denom` without the trace prefix `{port}/{channel}/` that a hop over this
/// channel end adds, if it starts with it.
fn strip_trace<'a>(port_id: &PortId, channel_id: &ChannelId, denom: &'a str) -> Option<&'a str> {
    denom
        .strip_prefix(port_id.as_str())?
        .strip_prefix('/')?
        .strip_prefix(channel_id.as_str())?
        .strip_prefix('/')
}

/// `true` when, from the perspective of the chain sending over
/// `(port, channel)`, the denomination originated on this chain — i.e. the
/// denom is *not* prefixed by this channel end's own trace.
pub fn sender_is_source(port_id: &PortId, channel_id: &ChannelId, denom: &str) -> bool {
    strip_trace(port_id, channel_id, denom).is_none()
}

/// The voucher denomination minted on the receiving chain for an incoming
/// transfer that is *not* returning home: the destination trace is prepended.
pub fn prefixed_denom(dest_port: &PortId, dest_channel: &ChannelId, denom: &str) -> String {
    format!("{dest_port}/{dest_channel}/{denom}")
}

/// Escrows or burns tokens on the sending chain, implementing the send half
/// of ICS-20. `escrow` is the source channel end's escrow account.
///
/// # Errors
///
/// Fails when the sender's balance is insufficient.
pub fn send_coins(
    bank: &mut dyn BankKeeper,
    source_port: &PortId,
    source_channel: &ChannelId,
    escrow: &str,
    data: &FungibleTokenPacketData,
) -> Result<(), IbcError> {
    if sender_is_source(source_port, source_channel, data.denom) {
        // Token native to this chain: escrow it.
        bank.send(data.sender, escrow, data.denom, data.amount)
            .map_err(|reason| IbcError::Transfer { reason })
    } else {
        // Voucher returning home: burn it.
        bank.burn(data.sender, data.denom, data.amount)
            .map_err(|reason| IbcError::Transfer { reason })
    }
}

/// Processes an incoming ICS-20 packet on the receiving chain, returning the
/// acknowledgement to write. Never fails at the IBC layer: application errors
/// are reported through an error acknowledgement, as the spec requires.
/// `escrow` is the destination channel end's escrow account.
pub fn on_recv_packet(bank: &mut dyn BankKeeper, packet: &Packet, escrow: &str) -> Acknowledgement {
    let data = match FungibleTokenPacketData::from_bytes(&packet.data) {
        Ok(data) => data,
        Err(e) => return Acknowledgement::error(e.to_string()),
    };
    if let Some(base) = strip_trace(&packet.source_port, &packet.source_channel, data.denom) {
        // The token is returning to its origin chain: release it from escrow.
        match bank.send(escrow, data.receiver, base, data.amount) {
            Ok(()) => Acknowledgement::success(),
            Err(reason) => Acknowledgement::error(reason),
        }
    } else {
        // Foreign token: mint a voucher carrying the destination trace.
        let voucher = prefixed_denom(
            &packet.destination_port,
            &packet.destination_channel,
            data.denom,
        );
        bank.mint(data.receiver, &voucher, data.amount);
        Acknowledgement::success()
    }
}

/// Handles the acknowledgement of a previously sent packet on the sending
/// chain: a success acknowledgement completes the transfer, an error
/// acknowledgement refunds the sender. `escrow` is the source channel end's
/// escrow account.
///
/// # Errors
///
/// Fails only if a refund is required and the escrow/burn bookkeeping is
/// inconsistent (which would indicate a host-chain bug).
pub fn on_acknowledgement(
    bank: &mut dyn BankKeeper,
    packet: &Packet,
    ack: &Acknowledgement,
    escrow: &str,
) -> Result<(), IbcError> {
    if ack.is_success() {
        Ok(())
    } else {
        refund(bank, packet, escrow)
    }
}

/// Refunds the sender of a packet that timed out or was rejected. `escrow`
/// is the source channel end's escrow account.
///
/// # Errors
///
/// Fails if the escrowed funds cannot be returned (inconsistent host state).
pub fn refund(bank: &mut dyn BankKeeper, packet: &Packet, escrow: &str) -> Result<(), IbcError> {
    let data = FungibleTokenPacketData::from_bytes(&packet.data)?;
    if sender_is_source(&packet.source_port, &packet.source_channel, data.denom) {
        bank.send(escrow, data.sender, data.denom, data.amount)
            .map_err(|reason| IbcError::Transfer { reason })
    } else {
        bank.mint(data.sender, data.denom, data.amount);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::height::Height;
    use crate::ids::Sequence;
    use std::collections::BTreeMap;
    use xcc_sim::SimTime;

    /// An in-memory bank for exercising the ICS-20 rules.
    #[derive(Debug, Default)]
    struct TestBank {
        balances: BTreeMap<(String, String), u128>,
    }

    impl TestBank {
        fn set(&mut self, who: &str, denom: &str, amount: u128) {
            self.balances.insert((who.into(), denom.into()), amount);
        }
        fn get(&self, who: &str, denom: &str) -> u128 {
            *self.balances.get(&(who.into(), denom.into())).unwrap_or(&0)
        }
    }

    impl BankKeeper for TestBank {
        fn send(&mut self, from: &str, to: &str, denom: &str, amount: u128) -> Result<(), String> {
            let have = self.get(from, denom);
            if have < amount {
                return Err(format!(
                    "insufficient funds: {from} has {have} {denom}, needs {amount}"
                ));
            }
            self.set(from, denom, have - amount);
            let to_have = self.get(to, denom);
            self.set(to, denom, to_have + amount);
            Ok(())
        }
        fn mint(&mut self, to: &str, denom: &str, amount: u128) {
            let have = self.get(to, denom);
            self.set(to, denom, have + amount);
        }
        fn burn(&mut self, from: &str, denom: &str, amount: u128) -> Result<(), String> {
            let have = self.get(from, denom);
            if have < amount {
                return Err(format!("insufficient funds to burn: {have} < {amount}"));
            }
            self.set(from, denom, have - amount);
            Ok(())
        }
    }

    /// The escrow account of this chain's `channel-{index}` transfer end.
    fn escrow(index: u64) -> String {
        escrow_address(&PortId::transfer(), &ChannelId::with_index(index))
    }

    fn packet(data: &FungibleTokenPacketData, src_chan: u64, dst_chan: u64) -> Packet {
        Packet {
            sequence: Sequence::FIRST,
            source_port: PortId::transfer(),
            source_channel: ChannelId::with_index(src_chan),
            destination_port: PortId::transfer(),
            destination_channel: ChannelId::with_index(dst_chan),
            data: data.to_bytes(),
            timeout_height: Height::at(1_000),
            timeout_timestamp: SimTime::ZERO,
        }
    }

    #[test]
    fn packet_data_roundtrip_and_errors() {
        let data = FungibleTokenPacketData {
            denom: "transfer/channel-0/uatom",
            amount: u128::MAX,
            sender: "alice",
            receiver: "bob",
        };
        assert_eq!(
            FungibleTokenPacketData::from_bytes(&data.to_bytes()).unwrap(),
            data
        );
        assert!(FungibleTokenPacketData::from_bytes(b"garbage").is_err());
        assert!(FungibleTokenPacketData::from_bytes(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn source_detection_follows_denom_trace() {
        let port = PortId::transfer();
        let chan = ChannelId::with_index(0);
        assert!(sender_is_source(&port, &chan, "uatom"));
        assert!(!sender_is_source(&port, &chan, "transfer/channel-0/uatom"));
        // A different channel's trace still counts as "source" for this one.
        assert!(sender_is_source(&port, &chan, "transfer/channel-9/uatom"));
    }

    #[test]
    fn native_token_is_escrowed_then_minted_as_voucher() {
        let mut bank_a = TestBank::default();
        bank_a.set("alice", "uatom", 1_000);
        let data = FungibleTokenPacketData {
            denom: "uatom",
            amount: 400,
            sender: "alice",
            receiver: "bob",
        };
        // Chain A escrows.
        send_coins(
            &mut bank_a,
            &PortId::transfer(),
            &ChannelId::with_index(0),
            &escrow(0),
            &data,
        )
        .unwrap();
        assert_eq!(bank_a.get("alice", "uatom"), 600);
        assert_eq!(bank_a.get(&escrow(0), "uatom"), 400);

        // Chain B mints a voucher with the destination trace.
        let mut bank_b = TestBank::default();
        let p = packet(&data, 0, 1);
        let ack = on_recv_packet(&mut bank_b, &p, &escrow(1));
        assert!(ack.is_success());
        assert_eq!(bank_b.get("bob", "transfer/channel-1/uatom"), 400);
    }

    #[test]
    fn voucher_returning_home_is_burned_then_unescrowed() {
        // Setup: chain A has 400 uatom escrowed for channel-0 (from a previous
        // transfer), and chain B holds the corresponding voucher.
        let mut bank_a = TestBank::default();
        let escrow_a = escrow(0);
        bank_a.set(&escrow_a, "uatom", 400);

        let mut bank_b = TestBank::default();
        bank_b.set("bob", "transfer/channel-1/uatom", 400);

        // Bob sends the voucher back: chain B burns it.
        let data = FungibleTokenPacketData {
            denom: "transfer/channel-1/uatom",
            amount: 150,
            sender: "bob",
            receiver: "alice",
        };
        send_coins(
            &mut bank_b,
            &PortId::transfer(),
            &ChannelId::with_index(1),
            &escrow(1),
            &data,
        )
        .unwrap();
        assert_eq!(bank_b.get("bob", "transfer/channel-1/uatom"), 250);

        // Chain A receives: denom is prefixed with the packet's source trace
        // (transfer/channel-1), so it strips it and releases escrow.
        let p = packet(&data, 1, 0);
        let ack = on_recv_packet(&mut bank_a, &p, &escrow(0));
        assert!(ack.is_success(), "ack: {ack:?}");
        assert_eq!(bank_a.get("alice", "uatom"), 150);
        assert_eq!(bank_a.get(&escrow_a, "uatom"), 250);
    }

    #[test]
    fn insufficient_funds_produce_error_ack_not_panic() {
        let mut bank = TestBank::default();
        // Returning voucher but nothing escrowed on this side.
        let data = FungibleTokenPacketData {
            denom: "transfer/channel-1/uatom",
            amount: 10,
            sender: "bob",
            receiver: "alice",
        };
        let p = packet(&data, 1, 0);
        let ack = on_recv_packet(&mut bank, &p, &escrow(0));
        assert!(!ack.is_success());
    }

    #[test]
    fn error_ack_refunds_escrowed_sender() {
        let mut bank_a = TestBank::default();
        bank_a.set("alice", "uatom", 100);
        let data = FungibleTokenPacketData {
            denom: "uatom",
            amount: 100,
            sender: "alice",
            receiver: "bob",
        };
        send_coins(
            &mut bank_a,
            &PortId::transfer(),
            &ChannelId::with_index(0),
            &escrow(0),
            &data,
        )
        .unwrap();
        assert_eq!(bank_a.get("alice", "uatom"), 0);

        let p = packet(&data, 0, 1);
        on_acknowledgement(
            &mut bank_a,
            &p,
            &Acknowledgement::error("rejected"),
            &escrow(0),
        )
        .unwrap();
        assert_eq!(bank_a.get("alice", "uatom"), 100);

        // A success ack does not move funds again.
        on_acknowledgement(&mut bank_a, &p, &Acknowledgement::success(), &escrow(0)).unwrap();
        assert_eq!(bank_a.get("alice", "uatom"), 100);
    }

    #[test]
    fn timeout_refund_for_burned_voucher_re_mints() {
        let mut bank_b = TestBank::default();
        bank_b.set("bob", "transfer/channel-1/uatom", 50);
        let data = FungibleTokenPacketData {
            denom: "transfer/channel-1/uatom",
            amount: 50,
            sender: "bob",
            receiver: "alice",
        };
        send_coins(
            &mut bank_b,
            &PortId::transfer(),
            &ChannelId::with_index(1),
            &escrow(1),
            &data,
        )
        .unwrap();
        assert_eq!(bank_b.get("bob", "transfer/channel-1/uatom"), 0);
        let p = packet(&data, 1, 0);
        refund(&mut bank_b, &p, &escrow(1)).unwrap();
        assert_eq!(bank_b.get("bob", "transfer/channel-1/uatom"), 50);
    }

    #[test]
    fn escrow_addresses_are_channel_specific() {
        let a = escrow_address(&PortId::transfer(), &ChannelId::with_index(0));
        let b = escrow_address(&PortId::transfer(), &ChannelId::with_index(1));
        assert_ne!(a, b);
        assert!(a.starts_with("escrow-"));
    }
}
