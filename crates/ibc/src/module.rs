//! The IBC core module hosted by a chain: clients, connections, channels and
//! the packet life cycle (ICS-02/03/04 plus the ICS-20 application wiring).
//!
//! The module is a pure state machine operated by the host chain's message
//! handlers. Handlers return the ABCI events the host must emit, which is how
//! relayers observe protocol progress.

use std::collections::{btree_map, BTreeMap};
use std::rc::Rc;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::channel::{ChannelCounterparty, ChannelEnd, ChannelState};
use crate::client::{ClientRecord, ClientUpdate};
use crate::commitment::{CommitmentProof, CommitmentRoot, CommitmentStore, NonMembershipProof};
use crate::connection::{ConnectionCounterparty, ConnectionEnd, ConnectionState};
use crate::error::IbcError;
use crate::events;
use crate::height::Height;
use crate::host::{self, ChannelPaths, Family, StorePath};
use crate::ids::{ChannelId, ClientId, ConnectionId, PortId, Sequence};
use crate::packet::{Acknowledgement, Packet};
use crate::transfer::{self, BankKeeper, FungibleTokenPacketData};
use xcc_sim::SimTime;
use xcc_tendermint::abci::Event;
use xcc_tendermint::block::Header;
use xcc_tendermint::hash::{hash_fields, Hash};
use xcc_tendermint::journal::{restore, Journal};
use xcc_tendermint::merkle::VerifiedPath;

/// The host chain's view of "now", passed into every packet handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostContext {
    /// Current block height of the host chain.
    pub height: Height,
    /// Current block time of the host chain.
    pub time: SimTime,
}

/// Parameters of an ICS-20 transfer request (the content of `MsgTransfer`).
///
/// The three texts are shared: a 100-message transaction, as the CLI builds
/// it and as it decodes, holds one copy of each distinct denomination and
/// address, not one per message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferParams {
    /// Port to send from (normally `transfer`).
    pub source_port: PortId,
    /// Channel to send over.
    pub source_channel: ChannelId,
    /// Denomination to send.
    pub denom: Arc<str>,
    /// Amount to send.
    pub amount: u128,
    /// Sender account on the host chain.
    pub sender: Arc<str>,
    /// Receiver account on the counterparty chain.
    pub receiver: Arc<str>,
    /// Destination-chain height after which the transfer times out.
    pub timeout_height: Height,
    /// Destination-chain timestamp after which the transfer times out.
    pub timeout_timestamp: SimTime,
}

/// Everything this chain keeps about one of its channel ends.
#[derive(Debug, Clone, PartialEq)]
struct ChannelRecord {
    end: ChannelEnd,
    /// The end's ICS-20 escrow account, hashed once when the end is opened.
    escrow: String,
    /// The end's store path and the sections its packets' paths share,
    /// spelt once when the end is opened.
    paths: ChannelPaths,
    /// Every packet sent on this end: `sent[i]` has sequence `i + 1`, so the
    /// log is as long as `end.next_sequence_send - 1`. Each entry is the
    /// handle its `send_packet` event holds too.
    sent: Vec<Rc<Packet>>,
    /// The acknowledgement written for each packet received on this end.
    acks: BTreeMap<Sequence, Acknowledgement>,
}

/// The IBC module state hosted by one chain.
///
/// # Channel ends
///
/// Each channel end is one record: the [`ChannelEnd`], its escrow account,
/// the log of packets it sent and the acknowledgements it wrote. A
/// `MsgTransfer` bumps the end's `next_sequence_send` in place and appends
/// its packet to the log. The end's commitment-store leaf, which hashes the
/// send sequence, is written once per transaction, at
/// [`commit_tx`](IbcModule::commit_tx), however many transfers the
/// transaction made (with no transaction open it is written at once). The
/// store therefore holds the same leaves at every transaction boundary as
/// when each transfer rewrote it.
///
/// # Transactions
///
/// Between [`begin_tx`](IbcModule::begin_tx) and
/// [`commit_tx`](IbcModule::commit_tx) / [`rollback_tx`](IbcModule::rollback_tx)
/// every write a message handler can make — a commitment-store `set` or
/// `delete`, a channel end, a sent packet, an acknowledgement, a client
/// update — records how to undo itself (see [`xcc_tendermint::journal`]),
/// so the host can revert a transaction whose `k`-th message failed without
/// having copied the thousands of commitments and packets it never touched.
/// A send records only its sequence: undoing it pops the log.
/// Client creation, connection handshakes and client expiry are set-up and
/// fault-injection calls that no message reaches; they write through the same
/// store path but their own maps and counters are not journaled.
///
/// # Proofs
///
/// The counterparty proofs that `recv_packet` and `acknowledge_packet` check
/// go through one [`VerifiedPath`], the branch of the last proof accepted:
/// a relayer batch proves up to 100 nearby leaves under one root, so each
/// proof after the first is hashed only below the node where it joins the
/// branch before it. The memo caches a pure function of the proofs, so it is
/// not journaled, and it is not state: equality leaves it out.
#[derive(Debug, Clone)]
pub struct IbcModule {
    chain_id: String,
    clients: BTreeMap<ClientId, ClientRecord>,
    client_counter: u64,
    connections: BTreeMap<ConnectionId, ConnectionEnd>,
    connection_counter: u64,
    channels: BTreeMap<(PortId, ChannelId), ChannelRecord>,
    channel_counter: u64,
    store: CommitmentStore,
    /// The channel ends whose store leaf the open transaction has yet to
    /// write.
    unwritten_ends: Vec<(PortId, ChannelId)>,
    journal: Journal<IbcUndo>,
    verified: VerifiedPath,
}

impl PartialEq for IbcModule {
    /// Compares state only: the proof memo is an evaluation detail.
    fn eq(&self, other: &Self) -> bool {
        let IbcModule {
            chain_id,
            clients,
            client_counter,
            connections,
            connection_counter,
            channels,
            channel_counter,
            store,
            unwritten_ends,
            journal,
            verified: _,
        } = self;
        chain_id == &other.chain_id
            && clients == &other.clients
            && client_counter == &other.client_counter
            && connections == &other.connections
            && connection_counter == &other.connection_counter
            && channels == &other.channels
            && channel_counter == &other.channel_counter
            && store == &other.store
            && unwritten_ends == &other.unwritten_ends
            && journal == &other.journal
    }
}

/// One channel end of an [`IbcModule`], resolved once by
/// [`IbcModule::end`], answering per-sequence questions about its packets.
#[derive(Debug, Clone, Copy)]
pub struct EndView<'a> {
    record: &'a ChannelRecord,
    store: &'a CommitmentStore,
}

impl<'a> EndView<'a> {
    /// The send log's handle of the packet sent with `seq`, if this end
    /// sent it: the allocation its `send_packet` event holds too.
    pub fn sent_packet(&self, seq: Sequence) -> Option<&'a Rc<Packet>> {
        let index = usize::try_from(seq.value().checked_sub(1)?).ok()?;
        self.record.sent.get(index)
    }

    /// The stored commitment of the packet sent with `seq`, while it is
    /// neither acknowledged nor timed out.
    pub fn commitment(&self, seq: Sequence) -> Option<Hash> {
        self.store.get(&self.record.paths.commitment(seq)).copied()
    }

    /// A membership proof of the commitment of the packet sent with `seq`.
    pub fn prove_commitment(&self, seq: Sequence) -> Option<CommitmentProof> {
        (self.store).prove_membership(&self.record.paths.commitment(seq))
    }

    /// Whether this end received the packet with `seq`.
    pub fn has_receipt(&self, seq: Sequence) -> bool {
        self.store.contains(&self.record.paths.receipt(seq))
    }

    /// The acknowledgement this end wrote for the packet it received with
    /// `seq`, if any.
    pub fn acknowledgement(&self, seq: Sequence) -> Option<&'a Acknowledgement> {
        self.record.acks.get(&seq)
    }

    /// A membership proof of the acknowledgement commitment for `seq`.
    pub fn prove_acknowledgement(&self, seq: Sequence) -> Option<CommitmentProof> {
        (self.store).prove_membership(&self.record.paths.ack(seq))
    }
}

/// How to revert one write.
#[derive(Debug, Clone, PartialEq)]
enum IbcUndo {
    /// A store path and what it held before.
    Store(StorePath, Option<Hash>),
    /// A handshake step: the channel end before it, `None` when the step
    /// created the channel.
    Channel((PortId, ChannelId), Option<ChannelEnd>),
    /// A send of this sequence: pop it off the log and make it the next
    /// sequence to send again.
    Sent((PortId, ChannelId), Sequence),
    /// An acknowledgement slot and what it held before.
    Ack((PortId, ChannelId), Sequence, Option<Acknowledgement>),
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
            unwritten_ends: Vec::new(),
            journal: Journal::default(),
            verified: VerifiedPath::default(),
        }
    }

    /// Opens a transaction.
    pub fn begin_tx(&mut self) {
        self.journal.begin();
    }

    /// Closes the open transaction, keeping its writes, and writes the store
    /// leaf of every channel end it sent on.
    pub fn commit_tx(&mut self) {
        self.journal.commit();
        for key in std::mem::take(&mut self.unwritten_ends) {
            self.write_end_leaf(&key);
        }
    }

    /// Closes the open transaction and reverts its writes, newest first.
    /// Every key ends up holding exactly what it held at `begin_tx`, so the
    /// commitment root and every proof are those of the state before the
    /// transaction (each reverted store entry is an ordinary `set`/`delete`,
    /// so the store drops its tree and the next read rebuilds it). The
    /// channel-end leaves the transaction would have written at commit are
    /// never written.
    pub fn rollback_tx(&mut self) {
        self.unwritten_ends.clear();
        let channels = &mut self.channels;
        for undo in self.journal.rollback() {
            // An entry naming a channel end was made while the end existed,
            // and entries are undone newest first, so it still exists.
            match undo {
                IbcUndo::Store(path, Some(value)) => {
                    self.store.set(path, value);
                }
                IbcUndo::Store(path, None) => {
                    self.store.delete(&path);
                }
                IbcUndo::Channel(key, None) => {
                    channels.remove(&key);
                }
                IbcUndo::Channel(key, Some(end)) => {
                    if let Some(record) = channels.get_mut(&key) {
                        record.end = end;
                    }
                }
                IbcUndo::Sent(key, sequence) => {
                    if let Some(record) = channels.get_mut(&key) {
                        record.sent.pop();
                        record.end.next_sequence_send = sequence;
                    }
                }
                IbcUndo::Ack(key, sequence, prior) => {
                    if let Some(record) = channels.get_mut(&key) {
                        restore(&mut record.acks, sequence, prior);
                    }
                }
                IbcUndo::Client(client_id, prior) => restore(&mut self.clients, client_id, prior),
            }
        }
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
            host::client_state_path(&client_id).into(),
            hash_fields(&[b"client-state", initial_header.chain_id.as_bytes()]),
        );
        self.store_set(
            host::consensus_state_path(&client_id, height).into(),
            ibc_root,
        );
        self.clients.insert(client_id.clone(), record);
        let event = Event::new(
            "create_client",
            [
                ("client_id", client_id.shared().into()),
                ("consensus_height", height.into()),
            ],
        );
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
            host::consensus_state_path(client_id, height).into(),
            update.ibc_root,
        );
        Ok(vec![Event::new(
            "update_client",
            [
                ("client_id", client_id.shared().into()),
                ("consensus_height", height.into()),
            ],
        )])
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
        let event = Event::new(
            "connection_open_init",
            [
                ("connection_id", connection_id.shared().into()),
                ("client_id", client_id.shared().into()),
            ],
        );
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
        let event = Event::new(
            "connection_open_try",
            [
                ("connection_id", connection_id.shared().into()),
                (
                    "counterparty_connection_id",
                    counterparty_connection_id.shared().into(),
                ),
            ],
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
        Ok(vec![Event::new(
            "connection_open_ack",
            [("connection_id", connection_id.shared().into())],
        )])
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
        Ok(vec![Event::new(
            "connection_open_confirm",
            [("connection_id", connection_id.shared().into())],
        )])
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
    ) -> Result<(ChannelId, Vec<Event>), IbcError> {
        self.require_connection(connection_id)?;
        let channel_id = ChannelId::with_index(self.channel_counter);
        self.channel_counter += 1;
        let end = ChannelEnd::new(
            ChannelState::Init,
            ChannelCounterparty {
                port_id: counterparty_port_id.clone(),
                channel_id: None,
            },
            connection_id.clone(),
        );
        self.write_channel(port_id, &channel_id, end);
        let event = Event::new(
            "channel_open_init",
            [
                ("port_id", port_id.shared().into()),
                ("channel_id", channel_id.shared().into()),
                ("connection_id", connection_id.shared().into()),
            ],
        );
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
    ) -> Result<(ChannelId, Vec<Event>), IbcError> {
        self.require_connection(connection_id)?;
        let channel_id = ChannelId::with_index(self.channel_counter);
        self.channel_counter += 1;
        let end = ChannelEnd::new(
            ChannelState::TryOpen,
            ChannelCounterparty {
                port_id: counterparty_port_id.clone(),
                channel_id: Some(counterparty_channel_id.clone()),
            },
            connection_id.clone(),
        );
        self.write_channel(port_id, &channel_id, end);
        let event = Event::new(
            "channel_open_try",
            [
                ("port_id", port_id.shared().into()),
                ("channel_id", channel_id.shared().into()),
            ],
        );
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
        let mut end = self.require_channel(port_id, channel_id)?.end.clone();
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
        Ok(vec![Event::new(
            "channel_open_ack",
            [
                ("port_id", port_id.shared().into()),
                ("channel_id", channel_id.shared().into()),
            ],
        )])
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
        let mut end = self.require_channel(port_id, channel_id)?.end.clone();
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
        Ok(vec![Event::new(
            "channel_open_confirm",
            [
                ("port_id", port_id.shared().into()),
                ("channel_id", channel_id.shared().into()),
            ],
        )])
    }

    /// Read access to a channel end.
    pub fn channel(&self, port_id: &PortId, channel_id: &ChannelId) -> Option<&ChannelEnd> {
        Some(&self.record(port_id, channel_id)?.end)
    }

    // ------------------------------------------------------------------
    // ICS-04 + ICS-20: packet life cycle
    // ------------------------------------------------------------------

    /// Handles `MsgTransfer`: escrows/burns the funds and sends the packet,
    /// which goes on the channel end's send log. Returns the `send_packet`
    /// event, which holds the same [`Rc`] as the log.
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
    ) -> Result<Vec<Event>, IbcError> {
        let key = (params.source_port.clone(), params.source_channel.clone());
        let record = self
            .channels
            .get_mut(&key)
            .ok_or_else(|| channel_not_found(&key.0, &key.1))?;
        if !record.end.is_open() {
            return Err(IbcError::InvalidState {
                reason: format!("channel {} is not open", params.source_channel),
            });
        }
        let Some(destination_channel) = record.end.counterparty.channel_id.clone() else {
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
        transfer::send_coins(bank, &key.0, &key.1, &record.escrow, &data)?;

        let sequence = record.end.next_sequence_send;
        let packet = Rc::new(Packet {
            sequence,
            source_port: key.0.clone(),
            source_channel: key.1.clone(),
            destination_port: record.end.counterparty.port_id.clone(),
            destination_channel,
            data: data.to_bytes(),
            timeout_height: params.timeout_height,
            timeout_timestamp: params.timeout_timestamp,
        });
        let commitment = packet.commitment();
        let event = events::send_packet_event(&packet);
        record.end.next_sequence_send = sequence.next();
        record.sent.push(packet);

        let path = record.paths.commitment(sequence);
        self.store_set(path, commitment);
        // The end's leaf covers `next_sequence_send`: the transaction writes
        // it once, at `commit_tx`.
        if !self.journal.is_open() {
            self.write_end_leaf(&key);
        } else if !self.unwritten_ends.contains(&key) {
            self.unwritten_ends.push(key.clone());
        }
        self.journal.record(|| IbcUndo::Sent(key, sequence));
        Ok(vec![event])
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
        let key = (
            packet.destination_port.clone(),
            packet.destination_channel.clone(),
        );
        let record = self
            .channels
            .get(&key)
            .ok_or_else(|| channel_not_found(&key.0, &key.1))?;
        let channel = &record.end;
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
        let receipt_path = record.paths.receipt(packet.sequence);
        if self.store.contains(&receipt_path) {
            return Err(IbcError::PacketAlreadyReceived {
                sequence: packet.sequence,
            });
        }

        // Verify the commitment proof against the counterparty's root.
        let expected_path = host::is_sequence_path(
            &proof.path,
            Family::Commitments,
            &packet.source_port,
            &packet.source_channel,
            packet.sequence,
        );
        if !expected_path || proof.value != packet.commitment() {
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
        let verified = &mut self.verified;
        if !proof.verify(&root, verified) && !proof.verify(&proof.root, verified) {
            return Err(IbcError::InvalidProof {
                context: format!("packet commitment root mismatch at height {proof_height}"),
            });
        }

        // Hand the packet to the ICS-20 application.
        let ack = transfer::on_recv_packet(bank, packet, &record.escrow);

        // Record receipt and acknowledgement.
        let ack_path = record.paths.ack(packet.sequence);
        self.store_set(receipt_path, RECEIPT);
        self.store_set(ack_path, ack.commitment());
        let record = self
            .channels
            .get_mut(&key)
            .ok_or_else(|| channel_not_found(&key.0, &key.1))?;
        let prior = record.acks.insert(packet.sequence, ack.clone());
        self.journal
            .record(|| IbcUndo::Ack(key, packet.sequence, prior));

        let received = Rc::new(packet.clone());
        let events = vec![
            events::recv_packet_event(&received),
            events::write_ack_event(&received, &ack),
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
        let key = (packet.source_port.clone(), packet.source_channel.clone());
        let record = self
            .channels
            .get(&key)
            .ok_or_else(|| channel_not_found(&key.0, &key.1))?;

        let commitment_path = record.paths.commitment(packet.sequence);
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
        let expected_path = host::is_sequence_path(
            &proof.path,
            Family::Acks,
            &packet.destination_port,
            &packet.destination_channel,
            packet.sequence,
        );
        if !expected_path || proof.value != ack.commitment() {
            return Err(IbcError::InvalidProof {
                context: format!("acknowledgement for sequence {}", packet.sequence),
            });
        }
        // Same strict-then-structural verification as `recv_packet`.
        let root = self.counterparty_root(&record.end.connection_id, proof_height)?;
        let verified = &mut self.verified;
        if !proof.verify(&root, verified) && !proof.verify(&proof.root, verified) {
            return Err(IbcError::InvalidProof {
                context: format!("acknowledgement root mismatch at height {proof_height}"),
            });
        }

        // Application callback (refund on error ack), then clean up.
        transfer::on_acknowledgement(bank, packet, ack, &record.escrow)?;
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
        let record = self.require_channel(&packet.source_port, &packet.source_channel)?;

        let commitment_path = record.paths.commitment(packet.sequence);
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
        let connection_id = &record.end.connection_id;
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
        let expected_receipt_path = host::is_sequence_path(
            &proof_unreceived.path,
            Family::Receipts,
            &packet.destination_port,
            &packet.destination_channel,
            packet.sequence,
        );
        if !expected_receipt_path {
            return Err(IbcError::InvalidProof {
                context: "non-receipt proof path mismatch".to_string(),
            });
        }

        // Refund and clean up (OnPacketTimeout in Fig. 3 of the paper).
        transfer::refund(bank, packet, &record.escrow)?;
        self.store_delete(&commitment_path);

        Ok(vec![events::timeout_packet_event(packet)])
    }

    // ------------------------------------------------------------------
    // Queries used by the RPC layer and the relayer
    // ------------------------------------------------------------------

    /// A view of channel end `(port, channel)` for per-sequence questions,
    /// or `None` when this chain has no such end. The end is found once;
    /// each answer is then an index into its send log or one store lookup,
    /// so a batch query resolves its end once, not once per sequence.
    pub fn end(&self, port: &PortId, channel: &ChannelId) -> Option<EndView<'_>> {
        Some(EndView {
            record: self.record(port, channel)?,
            store: &self.store,
        })
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

    /// Filters `sequences` down to those not yet received on this chain
    /// (the destination side), mirroring the `unreceived_packets` query. An
    /// end this chain does not have received nothing.
    pub fn unreceived_packets(
        &self,
        port: &PortId,
        channel: &ChannelId,
        sequences: &[Sequence],
    ) -> Vec<Sequence> {
        let end = self.end(port, channel);
        (sequences.iter().copied())
            .filter(|seq| end.is_none_or(|end| !end.has_receipt(*seq)))
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
        let Some(end) = self.end(port, channel) else {
            return Vec::new();
        };
        (sequences.iter().copied())
            .filter(|seq| end.commitment(*seq).is_some())
            .collect()
    }

    /// All sequences ever sent on a channel end.
    pub fn sent_sequences(&self, port: &PortId, channel: &ChannelId) -> Vec<Sequence> {
        let Some(record) = self.record(port, channel) else {
            return Vec::new();
        };
        record.sent.iter().map(|packet| packet.sequence).collect()
    }

    /// The sequences sent on a channel end whose commitment is still in the
    /// store — neither acknowledged nor timed out — in ascending order: a
    /// walk of the end's commitments row, so it costs what is outstanding,
    /// not what was ever sent.
    pub fn outstanding_commitments(&self, port: &PortId, channel: &ChannelId) -> Vec<Sequence> {
        self.record(port, channel).map_or_else(Vec::new, |record| {
            (self.store.sequences_in(record.paths.commitments())).collect()
        })
    }

    /// The length of [`outstanding_commitments`](Self::outstanding_commitments)
    /// without building it: the row's count.
    pub fn outstanding_commitment_count(&self, port: &PortId, channel: &ChannelId) -> usize {
        self.record(port, channel)
            .map_or(0, |record| self.store.count_in(record.paths.commitments()))
    }

    /// Whether [`outstanding_commitments`](Self::outstanding_commitments)
    /// is non-empty.
    pub fn has_outstanding_commitments(&self, port: &PortId, channel: &ChannelId) -> bool {
        self.outstanding_commitment_count(port, channel) > 0
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

    fn record(&self, port_id: &PortId, channel_id: &ChannelId) -> Option<&ChannelRecord> {
        self.channels.get(&(port_id.clone(), channel_id.clone()))
    }

    fn require_channel(
        &self,
        port_id: &PortId,
        channel_id: &ChannelId,
    ) -> Result<&ChannelRecord, IbcError> {
        self.record(port_id, channel_id)
            .ok_or_else(|| channel_not_found(port_id, channel_id))
    }

    /// The one path by which handlers write the commitment store. The
    /// journal keeps a clone of the key, which shares its section.
    fn store_set(&mut self, path: StorePath, value: Hash) {
        let prior = self.store.set(path.clone(), value);
        self.journal.record(|| IbcUndo::Store(path, prior));
    }

    /// The one path by which handlers delete from the commitment store.
    fn store_delete(&mut self, path: &StorePath) {
        let prior = self.store.delete(path);
        self.journal.record(|| IbcUndo::Store(path.clone(), prior));
    }

    fn write_connection(&mut self, connection_id: &ConnectionId, end: ConnectionEnd) {
        self.store_set(
            host::connection_path(connection_id).into(),
            hash_fields(&[
                b"connection-end",
                connection_id.as_str().as_bytes(),
                &[end.state as u8],
            ]),
        );
        self.connections.insert(connection_id.clone(), end);
    }

    /// Writes a handshake step's channel end: the record's end and its store
    /// leaf. The step that opens the end creates the record, which is when its
    /// escrow account is hashed and its paths spelt. Handshake handlers edit a
    /// copy of the end, so the recorded prior value is the one before the
    /// step.
    fn write_channel(&mut self, port_id: &PortId, channel_id: &ChannelId, end: ChannelEnd) {
        let leaf = end_leaf(port_id, channel_id, &end);
        let key = (port_id.clone(), channel_id.clone());
        let (prior, path) = match self.channels.entry(key.clone()) {
            btree_map::Entry::Occupied(mut slot) => {
                let record = slot.get_mut();
                let prior = std::mem::replace(&mut record.end, end);
                (Some(prior), record.paths.end().clone())
            }
            btree_map::Entry::Vacant(slot) => {
                let record = slot.insert(ChannelRecord {
                    end,
                    escrow: transfer::escrow_address(port_id, channel_id),
                    paths: ChannelPaths::new(port_id, channel_id),
                    sent: Vec::new(),
                    acks: BTreeMap::new(),
                });
                (None, record.paths.end().clone())
            }
        };
        self.store_set(path, leaf);
        self.journal.record(|| IbcUndo::Channel(key, prior));
    }

    /// Writes channel end `key`'s store leaf as the record now holds it,
    /// unjournaled: it is called only with no transaction open, when the
    /// sends it covers have no transaction to revert them.
    fn write_end_leaf(&mut self, key: &(PortId, ChannelId)) {
        if let Some(record) = self.channels.get(key) {
            let (port_id, channel_id) = key;
            self.store.set(
                record.paths.end().clone(),
                end_leaf(port_id, channel_id, &record.end),
            );
        }
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

/// The value every packet receipt holds, `hash_fields(&[b"receipt"])`,
/// written out so that a receive does not hash it again (pinned by
/// `receipt_value_is_hash_fields_of_receipt`).
const RECEIPT: Hash = Hash([
    0xeb, 0x9d, 0x74, 0x39, 0xfa, 0x4b, 0xb8, 0x40, 0x04, 0x19, 0x41, 0x51, 0x66, 0xc1, 0x26, 0x82,
    0x9c, 0x36, 0xad, 0x65, 0x7d, 0xc4, 0xa5, 0xdf, 0xee, 0x7b, 0x4e, 0x43, 0xe0, 0x2c, 0xa9, 0xf8,
]);

/// A channel end's store leaf: its identifiers, state and next send
/// sequence.
fn end_leaf(port_id: &PortId, channel_id: &ChannelId, end: &ChannelEnd) -> Hash {
    hash_fields(&[
        b"channel-end",
        port_id.as_str().as_bytes(),
        channel_id.as_str().as_bytes(),
        &[end.state as u8],
        &end.next_sequence_send.value().to_be_bytes(),
    ])
}

/// What a handler reports for a channel end this chain does not have.
fn channel_not_found(port_id: &PortId, channel_id: &ChannelId) -> IbcError {
    IbcError::ChannelNotFound {
        port_id: port_id.clone(),
        channel_id: channel_id.clone(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn receipt_value_is_hash_fields_of_receipt() {
        assert_eq!(RECEIPT, hash_fields(&[b"receipt"]));
    }

    #[derive(Debug, Default)]
    pub(crate) struct TestBank {
        balances: BTreeMap<(String, String), u128>,
    }

    impl TestBank {
        pub(crate) fn set(&mut self, who: &str, denom: &str, amount: u128) {
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
    pub(crate) fn connected_pair() -> (IbcModule, IbcModule, ChannelId, ChannelId) {
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
        let (chan_a, _) = a.chan_open_init(&port, &conn_a, &port).unwrap();
        let (chan_b, _) = b.chan_open_try(&port, &conn_b, &port, &chan_a).unwrap();
        a.chan_open_ack(&port, &chan_a, &chan_b).unwrap();
        b.chan_open_confirm(&port, &chan_b).unwrap();

        (a, b, chan_a, chan_b)
    }

    /// Refreshes chain B's view of chain A's commitment root (and vice versa)
    /// the way a relayer's `MsgUpdateClient` would, but bypassing header
    /// verification: these unit tests exercise the packet handlers, not the
    /// light client (covered in `client.rs`).
    pub(crate) fn sync_root(target: &mut IbcModule, source: &IbcModule, height: u64) {
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

    pub(crate) fn ctx(height: u64) -> HostContext {
        HostContext {
            height: Height::at(height),
            time: SimTime::from_secs(height * 5),
        }
    }

    /// `MsgTransfer` on `a`: the packet sent, as its `send_packet` event
    /// carries it.
    fn send(a: &mut IbcModule, bank: &mut TestBank, params: &TransferParams) -> Rc<Packet> {
        let events = a.send_transfer(&ctx(2), bank, params).unwrap();
        events::packet_from_event(&events[0]).expect("a send_packet event")
    }

    pub(crate) fn transfer_params(
        chan: &ChannelId,
        amount: u128,
        timeout_height: u64,
    ) -> TransferParams {
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
        assert!(a.client(&ClientId::with_index(0)).is_some());
        assert!(a.client(&ClientId::with_index(1)).is_none());
    }

    #[test]
    fn full_packet_lifecycle_transfers_funds_and_cleans_up() {
        let (mut a, mut b, chan_a, chan_b) = connected_pair();
        let port = PortId::transfer();
        let mut bank_a = TestBank::default();
        let mut bank_b = TestBank::default();
        bank_a.set("alice", "uatom", 1_000);

        // 1. MsgTransfer on A.
        let events = a
            .send_transfer(&ctx(2), &mut bank_a, &transfer_params(&chan_a, 250, 1_000))
            .unwrap();
        assert_eq!(events[0].kind, events::SEND_PACKET);
        let packet = events::packet_from_event(&events[0]).unwrap();
        assert_eq!(
            a.end(&port, &chan_a)
                .and_then(|end| end.sent_packet(packet.sequence)),
            Some(&packet)
        );
        assert_eq!(packet.destination_channel, chan_b);
        assert!(a
            .end(&port, &chan_a)
            .and_then(|end| end.commitment(packet.sequence))
            .is_some());

        // 2. Relayer: update B's client with A's new root, then MsgRecvPacket.
        sync_root(&mut b, &a, 3);
        let proof = a
            .end(&port, &chan_a)
            .and_then(|end| end.prove_commitment(packet.sequence))
            .unwrap();
        let (ack, recv_events) = b
            .recv_packet(&ctx(3), &mut bank_b, &packet, &proof, Height::at(3))
            .unwrap();
        assert!(ack.is_success());
        assert_eq!(recv_events.len(), 2);
        let voucher = format!("transfer/{chan_b}/uatom");
        assert_eq!(bank_b.get("bob", &voucher), 250);
        assert!(b
            .end(&port, &chan_b)
            .is_some_and(|end| end.has_receipt(packet.sequence)));

        // 3. Relayer: update A's client with B's new root, then MsgAcknowledgement.
        sync_root(&mut a, &b, 4);
        let ack_proof = b
            .end(&port, &chan_b)
            .and_then(|end| end.prove_acknowledgement(packet.sequence))
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
            .end(&port, &chan_a)
            .and_then(|end| end.commitment(packet.sequence))
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

        let packet = send(&mut a, &mut bank_a, &transfer_params(&chan_a, 10, 1_000));
        sync_root(&mut b, &a, 3);
        let proof = a
            .end(&port, &chan_a)
            .and_then(|end| end.prove_commitment(packet.sequence))
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

        let packet = send(&mut a, &mut bank_a, &transfer_params(&chan_a, 10, 1_000));
        sync_root(&mut b, &a, 3);
        let proof = a
            .end(&port, &chan_a)
            .and_then(|end| end.prove_commitment(packet.sequence))
            .unwrap();
        let (ack, _) = b
            .recv_packet(&ctx(3), &mut bank_b, &packet, &proof, Height::at(3))
            .unwrap();
        sync_root(&mut a, &b, 4);
        let ack_proof = b
            .end(&port, &chan_b)
            .and_then(|end| end.prove_acknowledgement(packet.sequence))
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
        let packet = send(&mut a, &mut bank_a, &transfer_params(&chan_a, 10, 3));
        sync_root(&mut b, &a, 3);
        let proof = a
            .end(&port, &chan_a)
            .and_then(|end| end.prove_commitment(packet.sequence))
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

        let packet = send(&mut a, &mut bank_a, &transfer_params(&chan_a, 40, 4));
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
            .end(&port, &chan_a)
            .and_then(|end| end.commitment(packet.sequence))
            .is_none());
    }

    #[test]
    fn invalid_proof_is_rejected() {
        let (mut a, mut b, chan_a, _) = connected_pair();
        let port = PortId::transfer();
        let mut bank_a = TestBank::default();
        let mut bank_b = TestBank::default();
        bank_a.set("alice", "uatom", 100);

        let packet = send(&mut a, &mut bank_a, &transfer_params(&chan_a, 10, 1_000));
        // Proof generated for the wrong sequence/path.
        let packet2 = send(&mut a, &mut bank_a, &transfer_params(&chan_a, 10, 1_000));
        sync_root(&mut b, &a, 3);
        let wrong_proof = a
            .end(&port, &chan_a)
            .and_then(|end| end.prove_commitment(packet2.sequence))
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
            let packet = send(&mut a, &mut bank_a, &transfer_params(&chan_a, 10, 1_000));
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

    /// Text written under a channel end's commitment section is not one of
    /// its commitments unless it spells one: a sequence with a sign or
    /// leading zeros, the section's own text, or more path after a sequence
    /// is not (a parse of the suffix once reported `007` as 7 and `+5` as 5),
    /// and `…/0` is the path of sequence 0, since a key is its spelling.
    #[test]
    fn text_under_a_commitment_section_is_not_outstanding() {
        let (mut a, _b, chan_a, _) = connected_pair();
        let port = PortId::transfer();
        let mut bank_a = TestBank::default();
        bank_a.set("alice", "uatom", 100);
        for _ in 0..3 {
            send(&mut a, &mut bank_a, &transfer_params(&chan_a, 10, 1_000));
        }
        let under = format!("commitments/ports/{port}/channels/{chan_a}/sequences/");
        for text in ["007", "+5", "05", "", "2/x"] {
            a.store
                .set(format!("{under}{text}"), hash_fields(&[b"forged"]));
        }
        let sent = [1, 2, 3].map(Sequence);
        assert_eq!(a.outstanding_commitments(&port, &chan_a), sent);
        assert_eq!(a.outstanding_commitment_count(&port, &chan_a), 3);
        a.store.set(format!("{under}0"), hash_fields(&[b"forged"]));
        let spelt = [0, 1, 2, 3].map(Sequence);
        assert_eq!(a.outstanding_commitments(&port, &chan_a), spelt);
        assert_eq!(a.outstanding_commitment_count(&port, &chan_a), 4);
    }

    /// Receives `packet` on `b` and acknowledges it on `a`, returning the
    /// acknowledgement `b` wrote.
    fn relay(
        (a, bank_a): (&mut IbcModule, &mut TestBank),
        (b, bank_b): (&mut IbcModule, &mut TestBank),
        packet: &Packet,
        height: u64,
    ) -> Acknowledgement {
        let port = PortId::transfer();
        let (chan_a, chan_b) = (&packet.source_channel, &packet.destination_channel);
        let seq = packet.sequence;
        sync_root(b, a, height);
        let proof = (a.end(&port, chan_a))
            .and_then(|end| end.prove_commitment(seq))
            .unwrap();
        let at = Height::at(height);
        let (ack, _) = b
            .recv_packet(&ctx(height), bank_b, packet, &proof, at)
            .unwrap();
        sync_root(a, b, height + 1);
        let ack_proof = (b.end(&port, chan_b))
            .and_then(|end| end.prove_acknowledgement(seq))
            .unwrap();
        let at = Height::at(height + 1);
        (a.acknowledge_packet(&ctx(height + 1), bank_a, packet, &ack, &ack_proof, at)).unwrap();
        ack
    }

    /// The drain check's question agrees with the count it replaced: on an
    /// end that sent nothing, one with a packet out, one whose packets all
    /// came back, and one with text written under its commitment section.
    #[test]
    fn has_outstanding_commitments_agrees_with_the_count() {
        let (mut a, mut b, chan_a, _) = connected_pair();
        let port = PortId::transfer();
        let (mut bank_a, mut bank_b) = (TestBank::default(), TestBank::default());
        bank_a.set("alice", "uatom", 100);
        let check = |m: &IbcModule, chan: &ChannelId, expected: bool| {
            let count = m.outstanding_commitment_count(&port, chan);
            assert_eq!(m.has_outstanding_commitments(&port, chan), count > 0);
            assert_eq!(count > 0, expected);
        };
        check(&a, &chan_a, false);
        check(&a, &ChannelId::with_index(7), false);

        let packet = send(&mut a, &mut bank_a, &transfer_params(&chan_a, 10, 1_000));
        check(&a, &chan_a, true);
        relay((&mut a, &mut bank_a), (&mut b, &mut bank_b), &packet, 3);
        check(&a, &chan_a, false);

        let under = format!("commitments/ports/{port}/channels/{chan_a}/sequences/");
        for text in ["007", "+5", "05", "", "2/x"] {
            (a.store).set(format!("{under}{text}"), hash_fields(&[b"forged"]));
        }
        check(&a, &chan_a, false);
        send(&mut a, &mut bank_a, &transfer_params(&chan_a, 10, 1_000));
        check(&a, &chan_a, true);
    }

    /// A batch query on an end this chain does not have: nothing was
    /// received there, and nothing is outstanding.
    #[test]
    fn batch_queries_answer_an_unknown_end() {
        let (a, _b, _, _) = connected_pair();
        let port = PortId::transfer();
        let unknown = ChannelId::with_index(7);
        let seqs = [0, 1, 2, u64::MAX].map(Sequence);
        assert!(a.end(&port, &unknown).is_none());
        assert_eq!(a.unreceived_packets(&port, &unknown, &seqs), seqs);
        assert!(a.unacknowledged_packets(&port, &unknown, &seqs).is_empty());
    }

    /// The view answers from the entries the per-sequence queries it
    /// replaced read, here spelt as text paths, on the sending and on the
    /// receiving end: for sequence 0, 1, the last sent and `u64::MAX`.
    #[test]
    fn the_end_view_reads_what_the_store_and_logs_hold() {
        let (mut a, mut b, chan_a, chan_b) = connected_pair();
        let port = PortId::transfer();
        let (mut bank_a, mut bank_b) = (TestBank::default(), TestBank::default());
        bank_a.set("alice", "uatom", 100);
        let sent: Vec<_> = (0..3)
            .map(|_| send(&mut a, &mut bank_a, &transfer_params(&chan_a, 10, 1_000)))
            .collect();
        // Packet 1 completes; packets 2 and 3 stay outstanding.
        let ack = relay((&mut a, &mut bank_a), (&mut b, &mut bank_b), &sent[0], 3);
        let (end_a, end_b) = (
            a.end(&port, &chan_a).unwrap(),
            b.end(&port, &chan_b).unwrap(),
        );
        let acks = &b.channels[&(port.clone(), chan_b.clone())].acks;
        for seq in [0, 1, 3, u64::MAX].map(Sequence) {
            let commitment = host::packet_commitment_path(&port, &chan_a, seq);
            assert_eq!(end_a.commitment(seq), a.store.get(&commitment).copied());
            assert_eq!(
                end_a.prove_commitment(seq),
                a.store.prove_membership(&commitment)
            );
            let logged = (1..=3)
                .contains(&seq.value())
                .then(|| &sent[seq.value() as usize - 1]);
            assert_eq!(end_a.sent_packet(seq), logged);
            let receipt = host::packet_receipt_path(&port, &chan_b, seq);
            assert_eq!(end_b.has_receipt(seq), b.store.contains(&receipt));
            assert_eq!(end_b.acknowledgement(seq), acks.get(&seq));
            let ack_path = format!("acks/ports/{port}/channels/{chan_b}/sequences/{seq}");
            assert_eq!(
                end_b.prove_acknowledgement(seq),
                b.store.prove_membership(&ack_path)
            );
        }
        // Not vacuous: each answer is there for some sequence.
        assert_eq!(end_a.commitment(Sequence(1)), None, "acknowledged");
        assert!(end_a.prove_commitment(Sequence(3)).is_some());
        assert!(end_b.has_receipt(Sequence(1)) && !end_b.has_receipt(Sequence(3)));
        assert_eq!(end_b.acknowledgement(Sequence(1)), Some(&ack));
        assert!(end_b.prove_acknowledgement(Sequence(1)).is_some());
        assert!(end_a.prove_acknowledgement(Sequence(1)).is_none());
    }

    #[test]
    fn sent_packet_is_none_outside_the_log() {
        let (mut a, _b, chan_a, _) = connected_pair();
        let port = PortId::transfer();
        let mut bank_a = TestBank::default();
        bank_a.set("alice", "uatom", 100);
        let packet = send(&mut a, &mut bank_a, &transfer_params(&chan_a, 10, 1_000));
        let end = a.end(&port, &chan_a).unwrap();
        assert_eq!(end.sent_packet(Sequence(1)), Some(&packet));
        assert_eq!(end.sent_packet(Sequence(0)), None);
        assert_eq!(end.sent_packet(Sequence(2)), None);
        assert_eq!(end.sent_packet(Sequence(u64::MAX)), None);
        let unknown = ChannelId::with_index(7);
        assert!(a.sent_sequences(&port, &unknown).is_empty());
        assert_eq!(
            a.end(&port, &unknown)
                .and_then(|end| end.acknowledgement(Sequence(1))),
            None
        );
    }

    /// Inside a transaction the channel-end leaf keeps its value from before
    /// it until `commit_tx` writes it once; a rollback never writes it, and
    /// pops the log. Either way the store ends up as the same sends made with
    /// no transaction open leave it.
    #[test]
    fn the_channel_end_leaf_is_written_at_commit() {
        let (mut a, _b, chan_a, _) = connected_pair();
        let port = PortId::transfer();
        let path = host::channel_path(&port, &chan_a);
        let mut bank_a = TestBank::default();
        bank_a.set("alice", "uatom", 100);
        let leaf = |a: &IbcModule| a.store.get(&path).copied();
        let opened = leaf(&a);
        let mut direct = a.clone();
        let mut direct_bank = TestBank::default();
        direct_bank.set("alice", "uatom", 100);

        a.begin_tx();
        for _ in 0..3 {
            send(&mut a, &mut bank_a, &transfer_params(&chan_a, 10, 1_000));
        }
        assert_eq!(leaf(&a), opened, "not written before the commit");
        a.rollback_tx();
        assert_eq!(leaf(&a), opened);
        assert!(a.sent_sequences(&port, &chan_a).is_empty());
        assert_eq!(
            a.channel(&port, &chan_a).unwrap().next_sequence_send,
            Sequence(1)
        );

        a.begin_tx();
        for _ in 0..3 {
            send(&mut a, &mut bank_a, &transfer_params(&chan_a, 10, 1_000));
            send(
                &mut direct,
                &mut direct_bank,
                &transfer_params(&chan_a, 10, 1_000),
            );
        }
        a.commit_tx();
        let end = a.channel(&port, &chan_a).unwrap();
        assert_eq!(end.next_sequence_send, Sequence(4));
        assert_eq!(leaf(&a), Some(end_leaf(&port, &chan_a, end)));
        assert_ne!(leaf(&a), opened);
        assert_eq!(a, direct);
        assert_eq!(a.commitment_root(), direct.commitment_root());
    }

    #[test]
    fn unreceived_packet_queries() {
        let (mut a, mut b, chan_a, chan_b) = connected_pair();
        let port = PortId::transfer();
        let mut bank_a = TestBank::default();
        let mut bank_b = TestBank::default();
        bank_a.set("alice", "uatom", 100);
        let packet = send(&mut a, &mut bank_a, &transfer_params(&chan_a, 10, 1_000));
        assert_eq!(
            b.unreceived_packets(&port, &chan_b, &[packet.sequence]),
            vec![packet.sequence]
        );
        sync_root(&mut b, &a, 3);
        let proof = a
            .end(&port, &chan_a)
            .and_then(|end| end.prove_commitment(packet.sequence))
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
        let packet = send(&mut a, &mut bank_a, &transfer_params(&chan_a, 10, 6));
        sync_root(&mut b, &a, 3);

        // Trust period lapses on B's client tracking A.
        b.expire_client(&ClientId::with_index(0)).unwrap();
        let proof = a
            .end(&port, &chan_a)
            .and_then(|end| end.prove_commitment(packet.sequence))
            .unwrap();
        let err = b
            .recv_packet(&ctx(3), &mut bank_b, &packet, &proof, Height::at(3))
            .unwrap_err();
        assert!(matches!(err, IbcError::ClientExpired { .. }));
        assert!(!b
            .end(&port, &chan_b)
            .is_some_and(|end| end.has_receipt(packet.sequence)));

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
        let record = a.channels.get_mut(&(PortId::transfer(), chan_a.clone()));
        record.unwrap().end.counterparty.channel_id = None;
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
            .chan_open_init(&port, &ConnectionId::with_index(7), &port)
            .unwrap_err();
        assert!(matches!(err, IbcError::ConnectionNotFound { .. }));
    }
}
