//! The IBC core module hosted by a chain: clients, connections, channels and
//! the packet life cycle (ICS-02/03/04 plus the ICS-20 application wiring).
//!
//! The module is a pure state machine operated by the host chain's message
//! handlers. Handlers return the ABCI events the host must emit, which is how
//! relayers observe protocol progress.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::channel::{ChannelCounterparty, ChannelEnd, ChannelState, Order};
use crate::client::{ClientRecord, ClientUpdate};
use crate::commitment::{CommitmentProof, CommitmentRoot, CommitmentStore, NonMembershipProof};
use crate::connection::{ConnectionCounterparty, ConnectionEnd, ConnectionState};
use crate::error::IbcError;
use crate::events;
use crate::height::Height;
use crate::host;
use crate::ids::{ChannelId, ClientId, ConnectionId, PortId, Sequence};
use crate::packet::{Acknowledgement, Packet};
use crate::transfer::{self, BankKeeper, FungibleTokenPacketData};
use xcc_sim::SimTime;
use xcc_tendermint::abci::Event;
use xcc_tendermint::block::Header;
use xcc_tendermint::hash::{hash_fields, Hash};
use xcc_tendermint::journal::{restore, Journal};

/// The host chain's view of "now", passed into every packet handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostContext {
    /// Current block height of the host chain.
    pub height: Height,
    /// Current block time of the host chain.
    pub time: SimTime,
}

/// Parameters of an ICS-20 transfer request (the content of `MsgTransfer`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferParams {
    /// Port to send from (normally `transfer`).
    pub source_port: PortId,
    /// Channel to send over.
    pub source_channel: ChannelId,
    /// Denomination to send.
    pub denom: String,
    /// Amount to send.
    pub amount: u128,
    /// Sender account on the host chain.
    pub sender: String,
    /// Receiver account on the counterparty chain.
    pub receiver: String,
    /// Destination-chain height after which the transfer times out.
    pub timeout_height: Height,
    /// Destination-chain timestamp after which the transfer times out.
    pub timeout_timestamp: SimTime,
}

/// The IBC module state hosted by one chain.
///
/// # Transactions
///
/// Between [`begin_tx`](IbcModule::begin_tx) and
/// [`commit_tx`](IbcModule::commit_tx) / [`rollback_tx`](IbcModule::rollback_tx)
/// every write a message handler can make — a commitment-store `set` or
/// `delete`, a channel end, a sent packet, an acknowledgement, a client
/// update — records the value it replaced (see [`xcc_tendermint::journal`]),
/// so the host can revert a transaction whose `k`-th message failed without
/// having copied the thousands of commitments and packets it never touched.
/// Client creation, connection handshakes and client expiry are set-up and
/// fault-injection calls that no message reaches; they write through the same
/// store path but their own maps and counters are not journaled.
#[derive(Debug, Clone, PartialEq)]
pub struct IbcModule {
    chain_id: String,
    clients: BTreeMap<ClientId, ClientRecord>,
    client_counter: u64,
    connections: BTreeMap<ConnectionId, ConnectionEnd>,
    connection_counter: u64,
    channels: BTreeMap<(PortId, ChannelId), ChannelEnd>,
    channel_counter: u64,
    store: CommitmentStore,
    sent_packets: BTreeMap<(PortId, ChannelId, Sequence), Packet>,
    acks: BTreeMap<(PortId, ChannelId, Sequence), Acknowledgement>,
    journal: Journal<IbcUndo>,
}

/// One reverted write: the key and what it held before.
#[derive(Debug, Clone, PartialEq)]
enum IbcUndo {
    Store(String, Option<Hash>),
    Channel((PortId, ChannelId), Option<ChannelEnd>),
    SentPacket((PortId, ChannelId, Sequence), Option<Packet>),
    Ack((PortId, ChannelId, Sequence), Option<Acknowledgement>),
    Client(ClientId, Option<ClientRecord>),
}

impl IbcModule {
    /// Creates an empty IBC module for the given host chain.
    pub fn new(chain_id: impl Into<String>) -> Self {
        IbcModule {
            chain_id: chain_id.into(),
            clients: BTreeMap::new(),
            client_counter: 0,
            connections: BTreeMap::new(),
            connection_counter: 0,
            channels: BTreeMap::new(),
            channel_counter: 0,
            store: CommitmentStore::new(),
            sent_packets: BTreeMap::new(),
            acks: BTreeMap::new(),
            journal: Journal::default(),
        }
    }

    /// Opens a transaction.
    pub fn begin_tx(&mut self) {
        self.journal.begin();
    }

    /// Closes the open transaction, keeping its writes.
    pub fn commit_tx(&mut self) {
        self.journal.commit();
    }

    /// Closes the open transaction and reverts its writes, newest first.
    /// Every key ends up holding exactly what it held at `begin_tx`, so the
    /// commitment root and every proof are those of the state before the
    /// transaction (each reverted store entry is an ordinary `set`/`delete`,
    /// so the store drops its tree and the next read rebuilds it).
    pub fn rollback_tx(&mut self) {
        for undo in self.journal.rollback() {
            match undo {
                IbcUndo::Store(path, Some(value)) => {
                    self.store.set(path, value);
                }
                IbcUndo::Store(path, None) => {
                    self.store.delete(&path);
                }
                IbcUndo::Channel(key, prior) => restore(&mut self.channels, key, prior),
                IbcUndo::SentPacket(key, prior) => restore(&mut self.sent_packets, key, prior),
                IbcUndo::Ack(key, prior) => restore(&mut self.acks, key, prior),
                IbcUndo::Client(client_id, prior) => restore(&mut self.clients, client_id, prior),
            }
        }
    }

    /// The host chain's identifier.
    pub fn chain_id(&self) -> &str {
        &self.chain_id
    }

    /// The current IBC commitment root (folded into the host's app hash).
    pub fn commitment_root(&self) -> CommitmentRoot {
        self.store.root()
    }

    // ------------------------------------------------------------------
    // ICS-02: clients
    // ------------------------------------------------------------------

    /// Creates a light client from an initial trusted header of the
    /// counterparty chain (`MsgCreateClient`).
    pub fn create_client(
        &mut self,
        initial_header: &Header,
        ibc_root: CommitmentRoot,
    ) -> (ClientId, Vec<Event>) {
        let client_id = ClientId::with_index(self.client_counter);
        self.client_counter += 1;
        let record = ClientRecord::create(client_id.clone(), initial_header, ibc_root);
        let height = record.latest_height();
        self.store_set(
            host::client_state_path(&client_id),
            hash_fields(&[b"client-state", initial_header.chain_id.as_bytes()]),
        );
        self.store_set(host::consensus_state_path(&client_id, height), ibc_root);
        self.clients.insert(client_id.clone(), record);
        let event = Event::new("create_client")
            .with_attr("client_id", client_id.as_str())
            .with_attr("consensus_height", height.to_string());
        (client_id, vec![event])
    }

    /// Updates a client with a newer verified header (`MsgUpdateClient`).
    ///
    /// # Errors
    ///
    /// Fails when the client does not exist or header verification fails.
    pub fn update_client(
        &mut self,
        client_id: &ClientId,
        update: &ClientUpdate,
    ) -> Result<Vec<Event>, IbcError> {
        let record = self
            .clients
            .get_mut(client_id)
            .ok_or_else(|| IbcError::ClientNotFound {
                client_id: client_id.clone(),
            })?;
        self.journal
            .record(|| IbcUndo::Client(client_id.clone(), Some(record.clone())));
        let height = record.update(update)?;
        self.store_set(
            host::consensus_state_path(client_id, height),
            update.ibc_root,
        );
        Ok(vec![Event::new("update_client")
            .with_attr("client_id", client_id.as_str())
            .with_attr("consensus_height", height.to_string())])
    }

    /// Marks a hosted client's trust period as lapsed (the `ClientExpiry`
    /// fault event). From then on, updates and proof verification against
    /// this client fail with [`IbcError::ClientExpired`]; timeouts keep
    /// working against consensus states verified before expiry.
    ///
    /// # Errors
    ///
    /// Fails when the client does not exist.
    pub fn expire_client(&mut self, client_id: &ClientId) -> Result<(), IbcError> {
        let record = self
            .clients
            .get_mut(client_id)
            .ok_or_else(|| IbcError::ClientNotFound {
                client_id: client_id.clone(),
            })?;
        record.expire();
        Ok(())
    }

    /// Read access to a hosted client.
    pub fn client(&self, client_id: &ClientId) -> Option<&ClientRecord> {
        self.clients.get(client_id)
    }

    /// Number of hosted clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    // ------------------------------------------------------------------
    // ICS-03: connections
    // ------------------------------------------------------------------

    /// Starts a connection handshake (`ConnOpenInit`).
    ///
    /// # Errors
    ///
    /// Fails when the referenced client does not exist.
    pub fn conn_open_init(
        &mut self,
        client_id: &ClientId,
        counterparty_client_id: &ClientId,
    ) -> Result<(ConnectionId, Vec<Event>), IbcError> {
        self.require_client(client_id)?;
        let connection_id = ConnectionId::with_index(self.connection_counter);
        self.connection_counter += 1;
        let end = ConnectionEnd::new(
            ConnectionState::Init,
            client_id.clone(),
            ConnectionCounterparty {
                client_id: counterparty_client_id.clone(),
                connection_id: None,
            },
        );
        self.write_connection(&connection_id, end);
        let event = Event::new("connection_open_init")
            .with_attr("connection_id", connection_id.as_str())
            .with_attr("client_id", client_id.as_str());
        Ok((connection_id, vec![event]))
    }

    /// Responds to a counterparty's `ConnOpenInit` (`ConnOpenTry`).
    ///
    /// # Errors
    ///
    /// Fails when the referenced client does not exist.
    pub fn conn_open_try(
        &mut self,
        client_id: &ClientId,
        counterparty_client_id: &ClientId,
        counterparty_connection_id: &ConnectionId,
    ) -> Result<(ConnectionId, Vec<Event>), IbcError> {
        self.require_client(client_id)?;
        let connection_id = ConnectionId::with_index(self.connection_counter);
        self.connection_counter += 1;
        let end = ConnectionEnd::new(
            ConnectionState::TryOpen,
            client_id.clone(),
            ConnectionCounterparty {
                client_id: counterparty_client_id.clone(),
                connection_id: Some(counterparty_connection_id.clone()),
            },
        );
        self.write_connection(&connection_id, end);
        let event = Event::new("connection_open_try")
            .with_attr("connection_id", connection_id.as_str())
            .with_attr(
                "counterparty_connection_id",
                counterparty_connection_id.as_str(),
            );
        Ok((connection_id, vec![event]))
    }

    /// Completes the handshake on the initiating chain (`ConnOpenAck`).
    ///
    /// # Errors
    ///
    /// Fails when the connection does not exist or is not in `Init` state.
    pub fn conn_open_ack(
        &mut self,
        connection_id: &ConnectionId,
        counterparty_connection_id: &ConnectionId,
    ) -> Result<Vec<Event>, IbcError> {
        let end = self.connections.get_mut(connection_id).ok_or_else(|| {
            IbcError::ConnectionNotFound {
                connection_id: connection_id.clone(),
            }
        })?;
        if end.state != ConnectionState::Init {
            return Err(IbcError::InvalidState {
                reason: format!(
                    "connection {connection_id} must be in Init to ack, is {:?}",
                    end.state
                ),
            });
        }
        end.state = ConnectionState::Open;
        end.counterparty.connection_id = Some(counterparty_connection_id.clone());
        let end = end.clone();
        self.write_connection(connection_id, end);
        Ok(vec![
            Event::new("connection_open_ack").with_attr("connection_id", connection_id.as_str())
        ])
    }

    /// Completes the handshake on the responding chain (`ConnOpenConfirm`).
    ///
    /// # Errors
    ///
    /// Fails when the connection does not exist or is not in `TryOpen` state.
    pub fn conn_open_confirm(
        &mut self,
        connection_id: &ConnectionId,
    ) -> Result<Vec<Event>, IbcError> {
        let end = self.connections.get_mut(connection_id).ok_or_else(|| {
            IbcError::ConnectionNotFound {
                connection_id: connection_id.clone(),
            }
        })?;
        if end.state != ConnectionState::TryOpen {
            return Err(IbcError::InvalidState {
                reason: format!(
                    "connection {connection_id} must be in TryOpen to confirm, is {:?}",
                    end.state
                ),
            });
        }
        end.state = ConnectionState::Open;
        let end = end.clone();
        self.write_connection(connection_id, end);
        Ok(vec![Event::new("connection_open_confirm")
            .with_attr("connection_id", connection_id.as_str())])
    }

    /// Read access to a connection end.
    pub fn connection(&self, connection_id: &ConnectionId) -> Option<&ConnectionEnd> {
        self.connections.get(connection_id)
    }

    // ------------------------------------------------------------------
    // ICS-04: channel handshake
    // ------------------------------------------------------------------

    /// Starts a channel handshake (`ChanOpenInit`).
    ///
    /// # Errors
    ///
    /// Fails when the underlying connection does not exist.
    pub fn chan_open_init(
        &mut self,
        port_id: &PortId,
        connection_id: &ConnectionId,
        counterparty_port_id: &PortId,
        ordering: Order,
    ) -> Result<(ChannelId, Vec<Event>), IbcError> {
        self.require_connection(connection_id)?;
        let channel_id = ChannelId::with_index(self.channel_counter);
        self.channel_counter += 1;
        let end = ChannelEnd::new(
            ChannelState::Init,
            ordering,
            ChannelCounterparty {
                port_id: counterparty_port_id.clone(),
                channel_id: None,
            },
            connection_id.clone(),
        );
        self.write_channel(port_id, &channel_id, end);
        let event = Event::new("channel_open_init")
            .with_attr("port_id", port_id.as_str())
            .with_attr("channel_id", channel_id.as_str())
            .with_attr("connection_id", connection_id.as_str());
        Ok((channel_id, vec![event]))
    }

    /// Responds to a counterparty's `ChanOpenInit` (`ChanOpenTry`).
    ///
    /// # Errors
    ///
    /// Fails when the underlying connection does not exist.
    pub fn chan_open_try(
        &mut self,
        port_id: &PortId,
        connection_id: &ConnectionId,
        counterparty_port_id: &PortId,
        counterparty_channel_id: &ChannelId,
        ordering: Order,
    ) -> Result<(ChannelId, Vec<Event>), IbcError> {
        self.require_connection(connection_id)?;
        let channel_id = ChannelId::with_index(self.channel_counter);
        self.channel_counter += 1;
        let end = ChannelEnd::new(
            ChannelState::TryOpen,
            ordering,
            ChannelCounterparty {
                port_id: counterparty_port_id.clone(),
                channel_id: Some(counterparty_channel_id.clone()),
            },
            connection_id.clone(),
        );
        self.write_channel(port_id, &channel_id, end);
        let event = Event::new("channel_open_try")
            .with_attr("port_id", port_id.as_str())
            .with_attr("channel_id", channel_id.as_str());
        Ok((channel_id, vec![event]))
    }

    /// Completes the handshake on the initiating chain (`ChanOpenAck`).
    ///
    /// # Errors
    ///
    /// Fails when the channel does not exist or is not in `Init` state.
    pub fn chan_open_ack(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        counterparty_channel_id: &ChannelId,
    ) -> Result<Vec<Event>, IbcError> {
        let mut end = self.require_channel(port_id, channel_id)?.clone();
        if end.state != ChannelState::Init {
            return Err(IbcError::InvalidState {
                reason: format!(
                    "channel {channel_id} must be in Init to ack, is {:?}",
                    end.state
                ),
            });
        }
        end.state = ChannelState::Open;
        end.counterparty.channel_id = Some(counterparty_channel_id.clone());
        self.write_channel(port_id, channel_id, end);
        Ok(vec![Event::new("channel_open_ack")
            .with_attr("port_id", port_id.as_str())
            .with_attr("channel_id", channel_id.as_str())])
    }

    /// Completes the handshake on the responding chain (`ChanOpenConfirm`).
    ///
    /// # Errors
    ///
    /// Fails when the channel does not exist or is not in `TryOpen` state.
    pub fn chan_open_confirm(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
    ) -> Result<Vec<Event>, IbcError> {
        let mut end = self.require_channel(port_id, channel_id)?.clone();
        if end.state != ChannelState::TryOpen {
            return Err(IbcError::InvalidState {
                reason: format!(
                    "channel {channel_id} must be in TryOpen to confirm, is {:?}",
                    end.state
                ),
            });
        }
        end.state = ChannelState::Open;
        self.write_channel(port_id, channel_id, end);
        Ok(vec![Event::new("channel_open_confirm")
            .with_attr("port_id", port_id.as_str())
            .with_attr("channel_id", channel_id.as_str())])
    }

    /// Read access to a channel end.
    pub fn channel(&self, port_id: &PortId, channel_id: &ChannelId) -> Option<&ChannelEnd> {
        self.channels.get(&(port_id.clone(), channel_id.clone()))
    }

    // ------------------------------------------------------------------
    // ICS-04 + ICS-20: packet life cycle
    // ------------------------------------------------------------------

    /// Handles `MsgTransfer`: escrows/burns the funds and sends the packet.
    ///
    /// # Errors
    ///
    /// Fails when the channel is not open or the sender's funds are
    /// insufficient.
    pub fn send_transfer(
        &mut self,
        _ctx: &HostContext,
        bank: &mut dyn BankKeeper,
        params: &TransferParams,
    ) -> Result<(Packet, Vec<Event>), IbcError> {
        let mut channel = self
            .require_channel(&params.source_port, &params.source_channel)?
            .clone();
        if !channel.is_open() {
            return Err(IbcError::InvalidState {
                reason: format!("channel {} is not open", params.source_channel),
            });
        }
        let Some(destination_channel) = channel.counterparty.channel_id.clone() else {
            return Err(IbcError::InvalidState {
                reason: format!(
                    "open channel {} has no counterparty channel id",
                    params.source_channel
                ),
            });
        };
        let data = FungibleTokenPacketData {
            denom: &params.denom,
            amount: params.amount,
            sender: &params.sender,
            receiver: &params.receiver,
        };
        transfer::send_coins(bank, &params.source_port, &params.source_channel, &data)?;

        let sequence = channel.next_sequence_send;
        let packet = Packet {
            sequence,
            source_port: params.source_port.clone(),
            source_channel: params.source_channel.clone(),
            destination_port: channel.counterparty.port_id.clone(),
            destination_channel,
            data: data.to_bytes(),
            timeout_height: params.timeout_height,
            timeout_timestamp: params.timeout_timestamp,
        };

        // Store the commitment and bump the send sequence.
        self.store_set(
            host::packet_commitment_path(&params.source_port, &params.source_channel, sequence),
            packet.commitment(),
        );
        channel.next_sequence_send = sequence.next();
        self.write_channel(&params.source_port, &params.source_channel, channel);
        let key = (
            params.source_port.clone(),
            params.source_channel.clone(),
            sequence,
        );
        let prior = self.sent_packets.insert(key.clone(), packet.clone());
        self.journal.record(|| IbcUndo::SentPacket(key, prior));

        let event = events::send_packet_event(&packet);
        Ok((packet, vec![event]))
    }

    /// Handles `MsgRecvPacket` on the destination chain.
    ///
    /// # Errors
    ///
    /// Fails (and the enclosing transaction fails) when the channel is
    /// unknown, the packet has timed out, the packet was already received
    /// ("packet messages are redundant"), or the commitment proof is invalid.
    pub fn recv_packet(
        &mut self,
        ctx: &HostContext,
        bank: &mut dyn BankKeeper,
        packet: &Packet,
        proof: &CommitmentProof,
        proof_height: Height,
    ) -> Result<(Acknowledgement, Vec<Event>), IbcError> {
        let mut channel = self
            .require_channel(&packet.destination_port, &packet.destination_channel)?
            .clone();
        if !channel.is_open() {
            return Err(IbcError::InvalidState {
                reason: format!("channel {} is not open", packet.destination_channel),
            });
        }

        // Timeout check against the host chain's own height/time.
        if packet.has_timed_out(ctx.height, ctx.time) {
            return Err(IbcError::PacketTimedOut {
                sequence: packet.sequence,
                timeout_height: packet.timeout_height,
            });
        }

        // Redundancy check (unordered channel: packet receipt).
        let receipt_path = host::packet_receipt_path(
            &packet.destination_port,
            &packet.destination_channel,
            packet.sequence,
        );
        if self.store.contains(&receipt_path) {
            return Err(IbcError::PacketAlreadyReceived {
                sequence: packet.sequence,
            });
        }

        // Verify the commitment proof against the counterparty's root.
        let expected_path = host::packet_commitment_path(
            &packet.source_port,
            &packet.source_channel,
            packet.sequence,
        );
        if proof.path != expected_path || proof.value != packet.commitment() {
            return Err(IbcError::InvalidProof {
                context: format!("packet commitment for sequence {}", packet.sequence),
            });
        }
        // Strict verification against the consensus root recorded for
        // `proof_height`; if the root has since advanced on the counterparty
        // (the relayer pulled the proof a block later than its client
        // update), fall back to checking the proof's internal consistency
        // against its own root. This keeps proof *structure* and client
        // updates mandatory without modelling per-height historical stores.
        let root = self.counterparty_root(&channel.connection_id, proof_height)?;
        if !proof.verify(&root) && !proof.verify(&proof.root) {
            return Err(IbcError::InvalidProof {
                context: format!("packet commitment root mismatch at height {proof_height}"),
            });
        }

        // Ordered channels additionally enforce in-order delivery.
        if channel.ordering == Order::Ordered && packet.sequence != channel.next_sequence_recv {
            return Err(IbcError::InvalidState {
                reason: format!(
                    "ordered channel expects sequence {}, got {}",
                    channel.next_sequence_recv, packet.sequence
                ),
            });
        }

        // Hand the packet to the ICS-20 application.
        let ack = transfer::on_recv_packet(bank, packet);

        // Record receipt and acknowledgement.
        self.store_set(receipt_path, hash_fields(&[b"receipt"]));
        let ack_path = host::packet_acknowledgement_path(
            &packet.destination_port,
            &packet.destination_channel,
            packet.sequence,
        );
        self.store_set(ack_path, ack.commitment());
        let key = (
            packet.destination_port.clone(),
            packet.destination_channel.clone(),
            packet.sequence,
        );
        let prior = self.acks.insert(key.clone(), ack.clone());
        self.journal.record(|| IbcUndo::Ack(key, prior));
        if channel.ordering == Order::Ordered {
            channel.next_sequence_recv = channel.next_sequence_recv.next();
            self.write_channel(
                &packet.destination_port,
                &packet.destination_channel,
                channel,
            );
        }

        let events = vec![
            events::recv_packet_event(packet),
            events::write_ack_event(packet, &ack),
        ];
        Ok((ack, events))
    }

    /// Handles `MsgAcknowledgement` on the sending chain.
    ///
    /// # Errors
    ///
    /// Fails when no commitment exists (already acknowledged — redundant
    /// relay), the commitment does not match, or the proof is invalid.
    pub fn acknowledge_packet(
        &mut self,
        _ctx: &HostContext,
        bank: &mut dyn BankKeeper,
        packet: &Packet,
        ack: &Acknowledgement,
        proof: &CommitmentProof,
        proof_height: Height,
    ) -> Result<Vec<Event>, IbcError> {
        let connection_id = self
            .require_channel(&packet.source_port, &packet.source_channel)?
            .connection_id
            .clone();

        let commitment_path = host::packet_commitment_path(
            &packet.source_port,
            &packet.source_channel,
            packet.sequence,
        );
        let stored = self.store.get(&commitment_path).copied().ok_or(
            IbcError::PacketAlreadyAcknowledged {
                sequence: packet.sequence,
            },
        )?;
        if stored != packet.commitment() {
            return Err(IbcError::PacketCommitmentMismatch {
                sequence: packet.sequence,
            });
        }

        // Verify the acknowledgement proof against the counterparty root.
        let expected_path = host::packet_acknowledgement_path(
            &packet.destination_port,
            &packet.destination_channel,
            packet.sequence,
        );
        if proof.path != expected_path || proof.value != ack.commitment() {
            return Err(IbcError::InvalidProof {
                context: format!("acknowledgement for sequence {}", packet.sequence),
            });
        }
        // Same strict-then-structural verification as `recv_packet`.
        let root = self.counterparty_root(&connection_id, proof_height)?;
        if !proof.verify(&root) && !proof.verify(&proof.root) {
            return Err(IbcError::InvalidProof {
                context: format!("acknowledgement root mismatch at height {proof_height}"),
            });
        }

        // Application callback (refund on error ack), then clean up.
        transfer::on_acknowledgement(bank, packet, ack)?;
        self.store_delete(&commitment_path);

        Ok(vec![events::ack_packet_event(packet)])
    }

    /// Handles `MsgTimeout` on the sending chain.
    ///
    /// # Errors
    ///
    /// Fails when no commitment exists, the packet has not actually timed out
    /// at `proof_height`, or the non-receipt proof is invalid.
    pub fn timeout_packet(
        &mut self,
        _ctx: &HostContext,
        bank: &mut dyn BankKeeper,
        packet: &Packet,
        proof_unreceived: &NonMembershipProof,
        proof_height: Height,
    ) -> Result<Vec<Event>, IbcError> {
        let connection_id = self
            .require_channel(&packet.source_port, &packet.source_channel)?
            .connection_id
            .clone();

        let commitment_path = host::packet_commitment_path(
            &packet.source_port,
            &packet.source_channel,
            packet.sequence,
        );
        let stored = self.store.get(&commitment_path).copied().ok_or(
            IbcError::PacketCommitmentNotFound {
                sequence: packet.sequence,
            },
        )?;
        if stored != packet.commitment() {
            return Err(IbcError::PacketCommitmentMismatch {
                sequence: packet.sequence,
            });
        }

        // The packet must have expired relative to the counterparty state the
        // proof refers to.
        let connection = self
            .connections
            .get(&connection_id)
            .ok_or(IbcError::ConnectionNotFound { connection_id })?;
        let client =
            self.clients
                .get(&connection.client_id)
                .ok_or_else(|| IbcError::ClientNotFound {
                    client_id: connection.client_id.clone(),
                })?;
        let consensus = client
            .consensus_state_at_or_below(proof_height)
            .ok_or(IbcError::ConsensusStateNotFound {
                client_id: connection.client_id.clone(),
                height: proof_height,
            })?
            .1;
        if !packet.has_timed_out(proof_height, consensus.timestamp) {
            return Err(IbcError::TimeoutNotReached {
                sequence: packet.sequence,
            });
        }
        let root = consensus.root;
        if !proof_unreceived.verify(&root) {
            return Err(IbcError::InvalidProof {
                context: format!("non-receipt proof for sequence {}", packet.sequence),
            });
        }
        let expected_receipt_path = host::packet_receipt_path(
            &packet.destination_port,
            &packet.destination_channel,
            packet.sequence,
        );
        if proof_unreceived.path != expected_receipt_path {
            return Err(IbcError::InvalidProof {
                context: "non-receipt proof path mismatch".to_string(),
            });
        }

        // Refund and clean up (OnPacketTimeout in Fig. 3 of the paper).
        transfer::refund(bank, packet)?;
        self.store_delete(&commitment_path);

        Ok(vec![events::timeout_packet_event(packet)])
    }

    // ------------------------------------------------------------------
    // Queries used by the RPC layer and the relayer
    // ------------------------------------------------------------------

    /// The stored commitment for a sent packet, if still present.
    pub fn packet_commitment(
        &self,
        port: &PortId,
        channel: &ChannelId,
        seq: Sequence,
    ) -> Option<Hash> {
        self.store
            .get(&host::packet_commitment_path(port, channel, seq))
            .copied()
    }

    /// A membership proof of a packet commitment.
    pub fn prove_packet_commitment(
        &self,
        port: &PortId,
        channel: &ChannelId,
        seq: Sequence,
    ) -> Option<CommitmentProof> {
        self.store
            .prove_membership(&host::packet_commitment_path(port, channel, seq))
    }

    /// The acknowledgement written for a received packet, if any.
    pub fn packet_acknowledgement(
        &self,
        port: &PortId,
        channel: &ChannelId,
        seq: Sequence,
    ) -> Option<&Acknowledgement> {
        self.acks.get(&(port.clone(), channel.clone(), seq))
    }

    /// A membership proof of an acknowledgement commitment.
    pub fn prove_packet_acknowledgement(
        &self,
        port: &PortId,
        channel: &ChannelId,
        seq: Sequence,
    ) -> Option<CommitmentProof> {
        self.store
            .prove_membership(&host::packet_acknowledgement_path(port, channel, seq))
    }

    /// A non-membership proof that a packet has not been received.
    pub fn prove_packet_non_receipt(
        &self,
        port: &PortId,
        channel: &ChannelId,
        seq: Sequence,
    ) -> Option<NonMembershipProof> {
        self.store
            .prove_non_membership(&host::packet_receipt_path(port, channel, seq))
    }

    /// Whether a receipt exists for the given packet (i.e. it was received).
    pub fn has_receipt(&self, port: &PortId, channel: &ChannelId, seq: Sequence) -> bool {
        self.store
            .contains(&host::packet_receipt_path(port, channel, seq))
    }

    /// Filters `sequences` down to those not yet received on this chain
    /// (the destination side), mirroring the `unreceived_packets` query.
    pub fn unreceived_packets(
        &self,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
    ) -> Vec<Sequence> {
        sequences
            .iter()
            .copied()
            .filter(|seq| !self.has_receipt(port, channel, *seq))
            .collect()
    }

    /// Filters `sequences` down to those whose commitments still exist on
    /// this chain (the source side), i.e. not yet acknowledged.
    pub fn unacknowledged_packets(
        &self,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
    ) -> Vec<Sequence> {
        sequences
            .iter()
            .copied()
            .filter(|seq| self.packet_commitment(port, channel, *seq).is_some())
            .collect()
    }

    /// The packet originally sent with the given sequence, if this chain sent
    /// it.
    pub fn sent_packet(
        &self,
        port: &PortId,
        channel: &ChannelId,
        seq: Sequence,
    ) -> Option<&Packet> {
        self.sent_packets.get(&(port.clone(), channel.clone(), seq))
    }

    /// All sequences ever sent on a channel end.
    pub fn sent_sequences(&self, port: &PortId, channel: &ChannelId) -> Vec<Sequence> {
        let key = |seq| (port.clone(), channel.clone(), Sequence(seq));
        self.sent_packets
            .range(key(0)..=key(u64::MAX))
            .map(|((_, _, s), _)| *s)
            .collect()
    }

    /// The sequences sent on a channel end whose commitment is still in the
    /// store — neither acknowledged nor timed out — in ascending order. A
    /// walk of the store's own commitment prefix, so it costs what is
    /// outstanding, not what was ever sent.
    pub fn outstanding_commitments(&self, port: &PortId, channel: &ChannelId) -> Vec<Sequence> {
        let prefix = host::packet_commitment_prefix(port, channel);
        let mut sequences: Vec<Sequence> = (self.store.paths_under(&prefix))
            .filter_map(|path| host::sequence_under(&prefix, path))
            .collect();
        // Store order is lexicographic: `…/10` comes before `…/2`.
        sequences.sort_unstable();
        sequences
    }

    /// The length of [`outstanding_commitments`](Self::outstanding_commitments)
    /// without building it.
    pub fn outstanding_commitment_count(&self, port: &PortId, channel: &ChannelId) -> usize {
        let prefix = host::packet_commitment_prefix(port, channel);
        self.store.paths_under(&prefix).count()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn require_client(&self, client_id: &ClientId) -> Result<(), IbcError> {
        if self.clients.contains_key(client_id) {
            Ok(())
        } else {
            Err(IbcError::ClientNotFound {
                client_id: client_id.clone(),
            })
        }
    }

    fn require_connection(&self, connection_id: &ConnectionId) -> Result<(), IbcError> {
        if self.connections.contains_key(connection_id) {
            Ok(())
        } else {
            Err(IbcError::ConnectionNotFound {
                connection_id: connection_id.clone(),
            })
        }
    }

    fn require_channel(
        &self,
        port_id: &PortId,
        channel_id: &ChannelId,
    ) -> Result<&ChannelEnd, IbcError> {
        self.channel(port_id, channel_id)
            .ok_or_else(|| IbcError::ChannelNotFound {
                port_id: port_id.clone(),
                channel_id: channel_id.clone(),
            })
    }

    /// The one path by which handlers write the commitment store.
    fn store_set(&mut self, path: String, value: Hash) {
        let prior = self.store.set(path.clone(), value);
        self.journal.record(|| IbcUndo::Store(path, prior));
    }

    /// The one path by which handlers delete from the commitment store.
    fn store_delete(&mut self, path: &str) {
        let prior = self.store.delete(path);
        self.journal
            .record(|| IbcUndo::Store(path.to_string(), prior));
    }

    fn write_connection(&mut self, connection_id: &ConnectionId, end: ConnectionEnd) {
        self.store_set(
            host::connection_path(connection_id),
            hash_fields(&[
                b"connection-end",
                connection_id.as_str().as_bytes(),
                &[end.state as u8],
            ]),
        );
        self.connections.insert(connection_id.clone(), end);
    }

    /// Replaces a channel end (the map entry and its store commitment). The
    /// end is always written whole — handlers edit a copy — so the recorded
    /// prior value is the one before the handler ran.
    fn write_channel(&mut self, port_id: &PortId, channel_id: &ChannelId, end: ChannelEnd) {
        self.store_set(
            host::channel_path(port_id, channel_id),
            hash_fields(&[
                b"channel-end",
                port_id.as_str().as_bytes(),
                channel_id.as_str().as_bytes(),
                &[end.state as u8],
                &end.next_sequence_send.value().to_be_bytes(),
            ]),
        );
        let key = (port_id.clone(), channel_id.clone());
        let prior = self.channels.insert(key.clone(), end);
        self.journal.record(|| IbcUndo::Channel(key, prior));
    }

    /// Looks up the counterparty commitment root recorded by the client
    /// backing `connection_id`, at or below `proof_height`.
    fn counterparty_root(
        &self,
        connection_id: &ConnectionId,
        proof_height: Height,
    ) -> Result<CommitmentRoot, IbcError> {
        let connection =
            self.connections
                .get(connection_id)
                .ok_or_else(|| IbcError::ConnectionNotFound {
                    connection_id: connection_id.clone(),
                })?;
        let client =
            self.clients
                .get(&connection.client_id)
                .ok_or_else(|| IbcError::ClientNotFound {
                    client_id: connection.client_id.clone(),
                })?;
        // An expired client can no longer vouch for any counterparty root:
        // every recv/ack verification on this connection is stranded until
        // out-of-band recovery (which the simulation does not model). The
        // timeout path reads consensus states directly and stays usable.
        if client.is_expired() {
            return Err(IbcError::ClientExpired {
                client_id: connection.client_id.clone(),
            });
        }
        // Exact height first, then the closest below (proofs may be generated
        // a block behind the latest client update).
        if let Some(cs) = client.consensus_state(proof_height) {
            return Ok(cs.root);
        }
        client
            .consensus_state_at_or_below(proof_height)
            .map(|(_, cs)| cs.root)
            .ok_or(IbcError::ConsensusStateNotFound {
                client_id: connection.client_id.clone(),
                height: proof_height,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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
                return Err("insufficient funds".into());
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
                return Err("insufficient funds".into());
            }
            self.set(from, denom, have - amount);
            Ok(())
        }
    }

    fn dummy_header(chain_id: &str, height: u64) -> Header {
        use xcc_tendermint::block::{BlockId, Data, Version};
        use xcc_tendermint::validator::{ValidatorAddress, ValidatorSet};
        let vals = ValidatorSet::with_equal_power(5, 10);
        Header {
            version: Version::default(),
            chain_id: chain_id.to_string(),
            height,
            time: SimTime::from_secs(height * 5),
            last_block_id: BlockId { hash: Hash::ZERO },
            last_commit_hash: Hash::ZERO,
            data_hash: Data::default().hash(),
            validators_hash: vals.hash(),
            next_validators_hash: vals.hash(),
            consensus_hash: Hash::ZERO,
            app_hash: Hash::ZERO,
            last_results_hash: Hash::ZERO,
            evidence_hash: xcc_tendermint::block::evidence_hash(),
            proposer_address: ValidatorAddress::from_name("val-0"),
        }
    }

    /// Builds two connected IBC modules (a <-> b) with an open transfer
    /// channel, without going through the relayer.
    fn connected_pair() -> (IbcModule, IbcModule, ChannelId, ChannelId) {
        let mut a = IbcModule::new("chain-a");
        let mut b = IbcModule::new("chain-b");

        let (client_on_a, _) = a.create_client(&dummy_header("chain-b", 1), b.commitment_root());
        let (client_on_b, _) = b.create_client(&dummy_header("chain-a", 1), a.commitment_root());

        let (conn_a, _) = a.conn_open_init(&client_on_a, &client_on_b).unwrap();
        let (conn_b, _) = b
            .conn_open_try(&client_on_b, &client_on_a, &conn_a)
            .unwrap();
        a.conn_open_ack(&conn_a, &conn_b).unwrap();
        b.conn_open_confirm(&conn_b).unwrap();

        let port = PortId::transfer();
        let (chan_a, _) = a
            .chan_open_init(&port, &conn_a, &port, Order::Unordered)
            .unwrap();
        let (chan_b, _) = b
            .chan_open_try(&port, &conn_b, &port, &chan_a, Order::Unordered)
            .unwrap();
        a.chan_open_ack(&port, &chan_a, &chan_b).unwrap();
        b.chan_open_confirm(&port, &chan_b).unwrap();

        (a, b, chan_a, chan_b)
    }

    /// Refreshes chain B's view of chain A's commitment root (and vice versa)
    /// the way a relayer's `MsgUpdateClient` would, but bypassing header
    /// verification: these unit tests exercise the packet handlers, not the
    /// light client (covered in `client.rs`).
    fn sync_root(target: &mut IbcModule, source: &IbcModule, height: u64) {
        let client_id = ClientId::with_index(0);
        let record = target.clients.get_mut(&client_id).unwrap();
        record.consensus_states.insert(
            Height::at(height),
            crate::client::ConsensusState {
                root: source.commitment_root(),
                timestamp: SimTime::from_secs(height * 5),
                next_validators_hash: Hash::ZERO,
            },
        );
        if Height::at(height) > record.client_state.latest_height {
            record.client_state.latest_height = Height::at(height);
        }
    }

    fn ctx(height: u64) -> HostContext {
        HostContext {
            height: Height::at(height),
            time: SimTime::from_secs(height * 5),
        }
    }

    fn transfer_params(chan: &ChannelId, amount: u128, timeout_height: u64) -> TransferParams {
        TransferParams {
            source_port: PortId::transfer(),
            source_channel: chan.clone(),
            denom: "uatom".into(),
            amount,
            sender: "alice".into(),
            receiver: "bob".into(),
            timeout_height: Height::at(timeout_height),
            timeout_timestamp: SimTime::ZERO,
        }
    }

    #[test]
    fn handshake_opens_both_ends() {
        let (a, b, chan_a, chan_b) = connected_pair();
        let port = PortId::transfer();
        assert!(a.channel(&port, &chan_a).unwrap().is_open());
        assert!(b.channel(&port, &chan_b).unwrap().is_open());
        assert!(a
            .connection(&ConnectionId::with_index(0))
            .unwrap()
            .is_open());
        assert!(b
            .connection(&ConnectionId::with_index(0))
            .unwrap()
            .is_open());
        assert_eq!(a.client_count(), 1);
    }

    #[test]
    fn full_packet_lifecycle_transfers_funds_and_cleans_up() {
        let (mut a, mut b, chan_a, chan_b) = connected_pair();
        let port = PortId::transfer();
        let mut bank_a = TestBank::default();
        let mut bank_b = TestBank::default();
        bank_a.set("alice", "uatom", 1_000);

        // 1. MsgTransfer on A.
        let (packet, events) = a
            .send_transfer(&ctx(2), &mut bank_a, &transfer_params(&chan_a, 250, 1_000))
            .unwrap();
        assert_eq!(events[0].kind, events::SEND_PACKET);
        assert_eq!(packet.destination_channel, chan_b);
        assert!(a
            .packet_commitment(&port, &chan_a, packet.sequence)
            .is_some());

        // 2. Relayer: update B's client with A's new root, then MsgRecvPacket.
        sync_root(&mut b, &a, 3);
        let proof = a
            .prove_packet_commitment(&port, &chan_a, packet.sequence)
            .unwrap();
        let (ack, recv_events) = b
            .recv_packet(&ctx(3), &mut bank_b, &packet, &proof, Height::at(3))
            .unwrap();
        assert!(ack.is_success());
        assert_eq!(recv_events.len(), 2);
        let voucher = format!("transfer/{chan_b}/uatom");
        assert_eq!(bank_b.get("bob", &voucher), 250);
        assert!(b.has_receipt(&port, &chan_b, packet.sequence));

        // 3. Relayer: update A's client with B's new root, then MsgAcknowledgement.
        sync_root(&mut a, &b, 4);
        let ack_proof = b
            .prove_packet_acknowledgement(&port, &chan_b, packet.sequence)
            .unwrap();
        let ack_events = a
            .acknowledge_packet(
                &ctx(4),
                &mut bank_a,
                &packet,
                &ack,
                &ack_proof,
                Height::at(4),
            )
            .unwrap();
        assert_eq!(ack_events[0].kind, events::ACK_PACKET);
        // Commitment deleted after acknowledgement.
        assert!(a
            .packet_commitment(&port, &chan_a, packet.sequence)
            .is_none());
        // Funds: escrowed on A, minted on B.
        assert_eq!(bank_a.get("alice", "uatom"), 750);
    }

    #[test]
    fn redundant_recv_fails_with_already_received() {
        let (mut a, mut b, chan_a, _chan_b) = connected_pair();
        let port = PortId::transfer();
        let mut bank_a = TestBank::default();
        let mut bank_b = TestBank::default();
        bank_a.set("alice", "uatom", 100);

        let (packet, _) = a
            .send_transfer(&ctx(2), &mut bank_a, &transfer_params(&chan_a, 10, 1_000))
            .unwrap();
        sync_root(&mut b, &a, 3);
        let proof = a
            .prove_packet_commitment(&port, &chan_a, packet.sequence)
            .unwrap();
        b.recv_packet(&ctx(3), &mut bank_b, &packet, &proof, Height::at(3))
            .unwrap();

        // A second relayer delivers the same packet: redundant.
        let err = b
            .recv_packet(&ctx(3), &mut bank_b, &packet, &proof, Height::at(3))
            .unwrap_err();
        assert!(matches!(err, IbcError::PacketAlreadyReceived { .. }));
        assert!(err.to_string().contains("redundant"));
    }

    #[test]
    fn redundant_ack_fails_after_commitment_deleted() {
        let (mut a, mut b, chan_a, chan_b) = connected_pair();
        let port = PortId::transfer();
        let mut bank_a = TestBank::default();
        let mut bank_b = TestBank::default();
        bank_a.set("alice", "uatom", 100);

        let (packet, _) = a
            .send_transfer(&ctx(2), &mut bank_a, &transfer_params(&chan_a, 10, 1_000))
            .unwrap();
        sync_root(&mut b, &a, 3);
        let proof = a
            .prove_packet_commitment(&port, &chan_a, packet.sequence)
            .unwrap();
        let (ack, _) = b
            .recv_packet(&ctx(3), &mut bank_b, &packet, &proof, Height::at(3))
            .unwrap();
        sync_root(&mut a, &b, 4);
        let ack_proof = b
            .prove_packet_acknowledgement(&port, &chan_b, packet.sequence)
            .unwrap();
        a.acknowledge_packet(
            &ctx(4),
            &mut bank_a,
            &packet,
            &ack,
            &ack_proof,
            Height::at(4),
        )
        .unwrap();
        let err = a
            .acknowledge_packet(
                &ctx(4),
                &mut bank_a,
                &packet,
                &ack,
                &ack_proof,
                Height::at(4),
            )
            .unwrap_err();
        assert!(matches!(err, IbcError::PacketAlreadyAcknowledged { .. }));
    }

    #[test]
    fn recv_of_expired_packet_is_rejected() {
        let (mut a, mut b, chan_a, _) = connected_pair();
        let port = PortId::transfer();
        let mut bank_a = TestBank::default();
        let mut bank_b = TestBank::default();
        bank_a.set("alice", "uatom", 100);

        // Times out at destination height 3.
        let (packet, _) = a
            .send_transfer(&ctx(2), &mut bank_a, &transfer_params(&chan_a, 10, 3))
            .unwrap();
        sync_root(&mut b, &a, 3);
        let proof = a
            .prove_packet_commitment(&port, &chan_a, packet.sequence)
            .unwrap();
        let err = b
            .recv_packet(&ctx(5), &mut bank_b, &packet, &proof, Height::at(3))
            .unwrap_err();
        assert!(matches!(err, IbcError::PacketTimedOut { .. }));
    }

    #[test]
    fn timeout_refunds_sender_and_requires_expiry() {
        let (mut a, b, chan_a, chan_b) = connected_pair();
        let port = PortId::transfer();
        let mut bank_a = TestBank::default();
        bank_a.set("alice", "uatom", 100);

        let (packet, _) = a
            .send_transfer(&ctx(2), &mut bank_a, &transfer_params(&chan_a, 40, 4))
            .unwrap();
        assert_eq!(bank_a.get("alice", "uatom"), 60);

        // Not yet expired at the counterparty: timeout rejected.
        sync_root(&mut a, &b, 3);
        let proof = b
            .prove_packet_non_receipt(&port, &chan_b, packet.sequence)
            .unwrap();
        let err = a
            .timeout_packet(&ctx(3), &mut bank_a, &packet, &proof, Height::at(3))
            .unwrap_err();
        assert!(matches!(err, IbcError::TimeoutNotReached { .. }));

        // Expired at height 5: timeout succeeds and refunds.
        sync_root(&mut a, &b, 5);
        let proof = b
            .prove_packet_non_receipt(&port, &chan_b, packet.sequence)
            .unwrap();
        let events = a
            .timeout_packet(&ctx(5), &mut bank_a, &packet, &proof, Height::at(5))
            .unwrap();
        assert_eq!(events[0].kind, events::TIMEOUT_PACKET);
        assert_eq!(bank_a.get("alice", "uatom"), 100);
        assert!(a
            .packet_commitment(&port, &chan_a, packet.sequence)
            .is_none());
    }

    #[test]
    fn invalid_proof_is_rejected() {
        let (mut a, mut b, chan_a, _) = connected_pair();
        let port = PortId::transfer();
        let mut bank_a = TestBank::default();
        let mut bank_b = TestBank::default();
        bank_a.set("alice", "uatom", 100);

        let (packet, _) = a
            .send_transfer(&ctx(2), &mut bank_a, &transfer_params(&chan_a, 10, 1_000))
            .unwrap();
        // Proof generated for the wrong sequence/path.
        let (packet2, _) = a
            .send_transfer(&ctx(2), &mut bank_a, &transfer_params(&chan_a, 10, 1_000))
            .unwrap();
        sync_root(&mut b, &a, 3);
        let wrong_proof = a
            .prove_packet_commitment(&port, &chan_a, packet2.sequence)
            .unwrap();
        let err = b
            .recv_packet(&ctx(3), &mut bank_b, &packet, &wrong_proof, Height::at(3))
            .unwrap_err();
        assert!(matches!(err, IbcError::InvalidProof { .. }));
    }

    #[test]
    fn sequences_are_assigned_consecutively() {
        let (mut a, _b, chan_a, _) = connected_pair();
        let mut bank_a = TestBank::default();
        bank_a.set("alice", "uatom", 1_000);
        let mut seqs = Vec::new();
        for _ in 0..5 {
            let (packet, _) = a
                .send_transfer(&ctx(2), &mut bank_a, &transfer_params(&chan_a, 10, 1_000))
                .unwrap();
            seqs.push(packet.sequence.value());
        }
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        let port = PortId::transfer();
        assert_eq!(a.sent_sequences(&port, &chan_a).len(), 5);
        assert_eq!(
            a.unacknowledged_packets(&port, &chan_a, &[1.into(), 2.into(), 9.into()]),
            vec![Sequence::from(1), Sequence::from(2)]
        );
    }

    #[test]
    fn unreceived_packet_queries() {
        let (mut a, mut b, chan_a, chan_b) = connected_pair();
        let port = PortId::transfer();
        let mut bank_a = TestBank::default();
        let mut bank_b = TestBank::default();
        bank_a.set("alice", "uatom", 100);
        let (packet, _) = a
            .send_transfer(&ctx(2), &mut bank_a, &transfer_params(&chan_a, 10, 1_000))
            .unwrap();
        assert_eq!(
            b.unreceived_packets(&port, &chan_b, &[packet.sequence]),
            vec![packet.sequence]
        );
        sync_root(&mut b, &a, 3);
        let proof = a
            .prove_packet_commitment(&port, &chan_a, packet.sequence)
            .unwrap();
        b.recv_packet(&ctx(3), &mut bank_b, &packet, &proof, Height::at(3))
            .unwrap();
        assert!(b
            .unreceived_packets(&port, &chan_b, &[packet.sequence])
            .is_empty());
    }

    #[test]
    fn expired_client_strands_recv_but_not_timeout() {
        let (mut a, mut b, chan_a, chan_b) = connected_pair();
        let port = PortId::transfer();
        let mut bank_a = TestBank::default();
        let mut bank_b = TestBank::default();
        bank_a.set("alice", "uatom", 100);

        // Packet sent before the fault; B learned A's root at height 3.
        let (packet, _) = a
            .send_transfer(&ctx(2), &mut bank_a, &transfer_params(&chan_a, 10, 6))
            .unwrap();
        sync_root(&mut b, &a, 3);

        // Trust period lapses on B's client tracking A.
        b.expire_client(&ClientId::with_index(0)).unwrap();
        let proof = a
            .prove_packet_commitment(&port, &chan_a, packet.sequence)
            .unwrap();
        let err = b
            .recv_packet(&ctx(3), &mut bank_b, &packet, &proof, Height::at(3))
            .unwrap_err();
        assert!(matches!(err, IbcError::ClientExpired { .. }));
        assert!(!b.has_receipt(&port, &chan_b, packet.sequence));

        // The sender-side timeout path reads pre-expiry consensus states
        // directly and still refunds once the packet expires.
        sync_root(&mut a, &b, 7);
        let non_receipt = b
            .prove_packet_non_receipt(&port, &chan_b, packet.sequence)
            .unwrap();
        a.timeout_packet(&ctx(7), &mut bank_a, &packet, &non_receipt, Height::at(7))
            .unwrap();
        assert_eq!(bank_a.get("alice", "uatom"), 100);

        // Expiring an unknown client reports ClientNotFound.
        assert!(matches!(
            b.expire_client(&ClientId::with_index(9)),
            Err(IbcError::ClientNotFound { .. })
        ));
    }

    #[test]
    fn send_on_unknown_or_closed_channel_fails() {
        let mut a = IbcModule::new("chain-a");
        let mut bank = TestBank::default();
        let err = a
            .send_transfer(
                &ctx(1),
                &mut bank,
                &transfer_params(&ChannelId::with_index(0), 1, 10),
            )
            .unwrap_err();
        assert!(matches!(err, IbcError::ChannelNotFound { .. }));

        // An open end that never learned its counterparty's channel id is a
        // typed error, raised before any coin moves.
        let (mut a, _b, chan_a, _) = connected_pair();
        let end = a.channels.get_mut(&(PortId::transfer(), chan_a.clone()));
        end.unwrap().counterparty.channel_id = None;
        bank.set("alice", "uatom", 5);
        let err = a
            .send_transfer(&ctx(1), &mut bank, &transfer_params(&chan_a, 1, 10))
            .unwrap_err();
        assert!(matches!(err, IbcError::InvalidState { .. }));
        assert_eq!(bank.get("alice", "uatom"), 5);
    }

    #[test]
    fn handshake_rejects_wrong_states() {
        let (mut a, _b, chan_a, _) = connected_pair();
        let port = PortId::transfer();
        // Channel already open: a second ack must fail.
        let err = a
            .chan_open_ack(&port, &chan_a, &ChannelId::with_index(9))
            .unwrap_err();
        assert!(matches!(err, IbcError::InvalidState { .. }));
        // Unknown connection for a new channel.
        let err = a
            .chan_open_init(&port, &ConnectionId::with_index(7), &port, Order::Unordered)
            .unwrap_err();
        assert!(matches!(err, IbcError::ConnectionNotFound { .. }));
    }
}
