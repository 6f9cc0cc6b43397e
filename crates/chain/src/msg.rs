//! Application messages routed by the chain.

use serde::{Deserialize, Serialize};

use crate::account::AccountId;
use crate::coin::Coin;
use crate::gas;
use xcc_ibc::client::ClientUpdate;
use xcc_ibc::commitment::{CommitmentProof, NonMembershipProof};
use xcc_ibc::height::Height;
use xcc_ibc::ids::ClientId;
use xcc_ibc::module::TransferParams;
use xcc_ibc::packet::{Acknowledgement, Packet};

/// A message inside a transaction, dispatched to the owning module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Msg {
    /// Bank module: move coins between two local accounts.
    BankSend {
        /// Sender account.
        from: AccountId,
        /// Receiver account.
        to: AccountId,
        /// Amount to move.
        amount: Coin,
    },
    /// IBC transfer module: initiate a cross-chain fungible token transfer
    /// (`MsgTransfer`).
    IbcTransfer(TransferParams),
    /// IBC core: receive a packet relayed from the counterparty
    /// (`MsgRecvPacket`).
    IbcRecvPacket {
        /// The relayed packet.
        packet: Packet,
        /// Proof that the counterparty committed to the packet.
        proof_commitment: CommitmentProof,
        /// Height the proof was generated at.
        proof_height: Height,
        /// The relayer account that signed the message.
        signer: AccountId,
    },
    /// IBC core: process an acknowledgement relayed back from the receiver
    /// (`MsgAcknowledgement`).
    IbcAcknowledgement {
        /// The packet being acknowledged.
        packet: Packet,
        /// The acknowledgement written by the receiving chain.
        acknowledgement: Acknowledgement,
        /// Proof that the receiving chain wrote the acknowledgement.
        proof_acked: CommitmentProof,
        /// Height the proof was generated at.
        proof_height: Height,
        /// The relayer account that signed the message.
        signer: AccountId,
    },
    /// IBC core: expire a packet that was never delivered (`MsgTimeout`).
    IbcTimeout {
        /// The expired packet.
        packet: Packet,
        /// Proof that the destination never received the packet.
        proof_unreceived: NonMembershipProof,
        /// Height the proof was generated at.
        proof_height: Height,
        /// The relayer account that signed the message.
        signer: AccountId,
    },
    /// IBC core: update a hosted light client with a newer counterparty
    /// header (`MsgUpdateClient`).
    IbcUpdateClient {
        /// The client to update.
        client_id: ClientId,
        /// The verified header bundle.
        update: Box<ClientUpdate>,
        /// The relayer account that signed the message.
        signer: AccountId,
    },
}

impl Msg {
    /// The gas this message consumes when executed.
    pub fn gas_cost(&self) -> u64 {
        match self {
            Msg::BankSend { .. } => gas::MSG_BANK_SEND_GAS,
            Msg::IbcTransfer(_) => gas::MSG_TRANSFER_GAS,
            Msg::IbcRecvPacket { .. } => gas::MSG_RECV_PACKET_GAS,
            Msg::IbcAcknowledgement { .. } => gas::MSG_ACK_GAS,
            Msg::IbcTimeout { .. } => gas::MSG_TIMEOUT_GAS,
            Msg::IbcUpdateClient { .. } => gas::MSG_UPDATE_CLIENT_GAS,
        }
    }

    /// A short type URL used in events and logs, mirroring Cosmos message
    /// type URLs.
    pub fn type_url(&self) -> &'static str {
        match self {
            Msg::BankSend { .. } => "/cosmos.bank.v1beta1.MsgSend",
            Msg::IbcTransfer(_) => "/ibc.applications.transfer.v1.MsgTransfer",
            Msg::IbcRecvPacket { .. } => "/ibc.core.channel.v1.MsgRecvPacket",
            Msg::IbcAcknowledgement { .. } => "/ibc.core.channel.v1.MsgAcknowledgement",
            Msg::IbcTimeout { .. } => "/ibc.core.channel.v1.MsgTimeout",
            Msg::IbcUpdateClient { .. } => "/ibc.core.client.v1.MsgUpdateClient",
        }
    }

    /// Approximate encoded size of the message in bytes, used for block-size
    /// accounting and the RPC response-size cost model.
    pub fn encoded_size(&self) -> usize {
        match self {
            Msg::BankSend { .. } => 160,
            // A MsgTransfer carries the ICS-20 packet data and addresses.
            Msg::IbcTransfer(params) => {
                220 + params.denom.len() + params.sender.len() + params.receiver.len()
            }
            // Recv/Ack/Timeout carry the packet plus a Merkle proof, which is
            // why the paper observes recv-heavy blocks producing much larger
            // query responses than transfer-heavy ones.
            Msg::IbcRecvPacket {
                packet,
                proof_commitment,
                ..
            } => 300 + packet.encoded_size() + proof_commitment.encoded_size(),
            Msg::IbcAcknowledgement {
                packet,
                acknowledgement,
                proof_acked,
                ..
            } => {
                300 + packet.encoded_size()
                    + acknowledgement.encoded_size()
                    + proof_acked.encoded_size()
            }
            Msg::IbcTimeout { packet, .. } => 300 + packet.encoded_size() + 96,
            Msg::IbcUpdateClient { .. } => 1_100,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcc_ibc::ids::{ChannelId, PortId};
    use xcc_sim::SimTime;

    fn transfer_msg() -> Msg {
        Msg::IbcTransfer(TransferParams {
            source_port: PortId::transfer(),
            source_channel: ChannelId::with_index(0),
            denom: "uatom".into(),
            amount: 100,
            sender: "alice".into(),
            receiver: "bob".into(),
            timeout_height: Height::at(1_000),
            timeout_timestamp: SimTime::ZERO,
        })
    }

    #[test]
    fn gas_costs_by_message_type() {
        assert_eq!(transfer_msg().gas_cost(), gas::MSG_TRANSFER_GAS);
        let send = Msg::BankSend {
            from: "a".into(),
            to: "b".into(),
            amount: Coin::new("uatom", 1),
        };
        assert_eq!(send.gas_cost(), gas::MSG_BANK_SEND_GAS);
    }

    #[test]
    fn type_urls_are_cosmos_style() {
        assert!(transfer_msg().type_url().contains("MsgTransfer"));
        let send = Msg::BankSend {
            from: "a".into(),
            to: "b".into(),
            amount: Coin::new("uatom", 1),
        };
        assert!(send.type_url().contains("MsgSend"));
    }

    #[test]
    fn encoded_sizes_are_positive_and_scale_with_content() {
        let small = transfer_msg();
        let large = Msg::IbcTransfer(TransferParams {
            denom: ("transfer/channel-0/".repeat(10) + "uatom").into(),
            ..match transfer_msg() {
                Msg::IbcTransfer(p) => p,
                _ => unreachable!(),
            }
        });
        assert!(small.encoded_size() > 0);
        assert!(large.encoded_size() > small.encoded_size());
    }
}
