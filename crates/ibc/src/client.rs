//! ICS-02 client semantics: client states, consensus states and updates via
//! the embedded Tendermint light client.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::commitment::CommitmentRoot;
use crate::error::IbcError;
use crate::height::Height;
use crate::ids::ClientId;
use xcc_sim::SimTime;
use xcc_tendermint::block::Header;
use xcc_tendermint::hash::Hash;
use xcc_tendermint::light::LightClient;
use xcc_tendermint::validator::ValidatorSet;
use xcc_tendermint::vote::Commit;

/// The client state of a Tendermint light client (ICS-07 flavour).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientState {
    /// Chain id of the counterparty chain this client tracks.
    pub chain_id: String,
    /// The latest height the client has verified.
    pub latest_height: Height,
    /// Whether the client has been frozen due to misbehaviour.
    pub frozen: bool,
    /// Whether the client's trust period has lapsed (`ClientExpiry` fault).
    ///
    /// Unlike freezing, expiry cannot be repaired by in-band messages: real
    /// IBC requires a governance-style client substitution, which the
    /// simulation does not model, so an expired client strands its channel
    /// for the remainder of the run.
    pub expired: bool,
}

impl ClientState {
    /// Creates a client state at its initial trusted height.
    pub fn new(chain_id: impl Into<String>, latest_height: Height) -> Self {
        ClientState {
            chain_id: chain_id.into(),
            latest_height,
            frozen: false,
            expired: false,
        }
    }
}

/// A consensus state: the commitment root and timestamp the counterparty
/// chain had at a given height, as verified by the light client.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConsensusState {
    /// The counterparty's IBC commitment root at this height.
    pub root: CommitmentRoot,
    /// Header timestamp at this height.
    pub timestamp: SimTime,
    /// Hash of the validator set expected at the next height.
    pub next_validators_hash: Hash,
}

/// A header bundle submitted to update a client (the equivalent of
/// `MsgUpdateClient`'s header field).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientUpdate {
    /// The new header of the tracked chain.
    pub header: Header,
    /// The commit certifying the header.
    pub commit: Commit,
    /// The validator set that signed the commit.
    pub validators: ValidatorSet,
    /// The counterparty's IBC commitment root committed by this header.
    ///
    /// On a real chain this is carried inside `header.app_hash`; the
    /// simulated host keeps the IBC store root separate from the full
    /// application hash, so updates carry it explicitly.
    pub ibc_root: CommitmentRoot,
}

/// A hosted light client: client state plus verified consensus states.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientRecord {
    /// The client's identifier on the host chain.
    pub client_id: ClientId,
    /// Current client state.
    pub client_state: ClientState,
    /// Verified consensus states by height.
    pub consensus_states: BTreeMap<Height, ConsensusState>,
    /// The embedded header-verification state machine.
    pub light_client: LightClient,
}

impl ClientRecord {
    /// Creates a client from an initial trusted header (`MsgCreateClient`).
    pub fn create(client_id: ClientId, initial_header: &Header, ibc_root: CommitmentRoot) -> Self {
        let mut light_client = LightClient::new(initial_header.chain_id.clone());
        light_client.trust_initial(initial_header);
        let height = Height::at(initial_header.height);
        let mut consensus_states = BTreeMap::new();
        consensus_states.insert(
            height,
            ConsensusState {
                root: ibc_root,
                timestamp: initial_header.time,
                next_validators_hash: initial_header.next_validators_hash,
            },
        );
        ClientRecord {
            client_id,
            client_state: ClientState::new(initial_header.chain_id.clone(), height),
            consensus_states,
            light_client,
        }
    }

    /// The latest verified height.
    pub fn latest_height(&self) -> Height {
        self.client_state.latest_height
    }

    /// The consensus state at exactly `height`, if the client has verified it.
    pub fn consensus_state(&self, height: Height) -> Option<&ConsensusState> {
        self.consensus_states.get(&height)
    }

    /// The newest consensus state at or below `height`, used when a proof was
    /// generated slightly behind the client's latest update.
    pub fn consensus_state_at_or_below(
        &self,
        height: Height,
    ) -> Option<(&Height, &ConsensusState)> {
        self.consensus_states.range(..=height).next_back()
    }

    /// Applies a verified header update (`MsgUpdateClient`).
    ///
    /// # Errors
    ///
    /// Fails if the client is frozen or expired, or light-client verification
    /// rejects the header.
    pub fn update(&mut self, update: &ClientUpdate) -> Result<Height, IbcError> {
        if self.client_state.frozen {
            return Err(IbcError::ClientUpdateFailed {
                reason: format!("client {} is frozen", self.client_id),
            });
        }
        if self.client_state.expired {
            return Err(IbcError::ClientExpired {
                client_id: self.client_id.clone(),
            });
        }
        self.light_client
            .update(&update.header, &update.commit, &update.validators)
            .map_err(|e| IbcError::ClientUpdateFailed {
                reason: e.to_string(),
            })?;
        let height = Height::at(update.header.height);
        self.consensus_states.insert(
            height,
            ConsensusState {
                root: update.ibc_root,
                timestamp: update.header.time,
                next_validators_hash: update.header.next_validators_hash,
            },
        );
        if height > self.client_state.latest_height {
            self.client_state.latest_height = height;
        }
        Ok(height)
    }

    /// Marks the client's trust period as lapsed (`ClientExpiry` fault).
    /// Irreversible within a run; see [`ClientState::expired`].
    pub fn expire(&mut self) {
        self.client_state.expired = true;
    }

    /// Whether the client's trust period has lapsed.
    pub fn is_expired(&self) -> bool {
        self.client_state.expired
    }
}

/// Real headers and commits from a node with no application, for the tests
/// here and the `update_client` event pins in `events.rs`.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use xcc_sim::SimDuration;
    use xcc_tendermint::abci::{Application, CheckTxResult, DeliverTxResult};
    use xcc_tendermint::block::RawTx;
    use xcc_tendermint::hash::sha256;
    use xcc_tendermint::node::Node;

    #[derive(Default)]
    pub(crate) struct NullApp;
    impl Application for NullApp {
        type Decoded = ();
        fn check_tx(&mut self, _tx: &RawTx) -> (CheckTxResult, Option<()>) {
            let accepted = CheckTxResult {
                code: 0,
                log: String::new(),
                gas_wanted: 1,
                sender: "x".into(),
                sequence: 0,
            };
            (accepted, None)
        }
        fn begin_block(&mut self, _header: &Header) {}
        fn deliver_tx(&mut self, _tx: &RawTx, _decoded: Option<()>) -> DeliverTxResult {
            DeliverTxResult {
                code: 0,
                log: String::new(),
                gas_used: 1,
                gas_wanted: 1,
                events: vec![],
            }
        }
        fn end_block(&mut self, _height: u64) {}
        fn commit(&mut self) -> Hash {
            Hash::ZERO
        }
    }

    pub(crate) fn source_chain(blocks: u64) -> Node<NullApp> {
        let mut node = Node::new(
            "chain-a",
            ValidatorSet::with_equal_power(5, 10),
            SimDuration::from_secs(5),
            NullApp,
        );
        for i in 0..blocks {
            node.produce_block(SimTime::from_secs(5 * (i + 1)));
        }
        node
    }

    pub(crate) fn update_for(
        node: &Node<NullApp>,
        height: u64,
        root: CommitmentRoot,
    ) -> ClientUpdate {
        ClientUpdate {
            header: node.block_at(height).unwrap().block.header.clone(),
            commit: node.commit_for(height).unwrap().clone(),
            validators: node.validators().clone(),
            ibc_root: root,
        }
    }

    #[test]
    fn create_and_update_client() {
        let node = source_chain(3);
        let genesis_header = &node.block_at(1).unwrap().block.header;
        let mut client =
            ClientRecord::create(ClientId::with_index(0), genesis_header, sha256(b"root-1"));
        assert_eq!(client.latest_height(), Height::at(1));

        let h = client
            .update(&update_for(&node, 2, sha256(b"root-2")))
            .unwrap();
        assert_eq!(h, Height::at(2));
        client
            .update(&update_for(&node, 3, sha256(b"root-3")))
            .unwrap();
        assert_eq!(client.latest_height(), Height::at(3));
        assert_eq!(
            client.consensus_state(Height::at(2)).unwrap().root,
            sha256(b"root-2")
        );
    }

    #[test]
    fn update_rejects_replay_and_frozen_clients() {
        let node = source_chain(2);
        let mut client = ClientRecord::create(
            ClientId::with_index(0),
            &node.block_at(1).unwrap().block.header,
            sha256(b"root-1"),
        );
        client
            .update(&update_for(&node, 2, sha256(b"root-2")))
            .unwrap();
        // Replaying height 2 fails (non-monotonic).
        assert!(client
            .update(&update_for(&node, 2, sha256(b"root-2")))
            .is_err());

        client.client_state.frozen = true;
        assert!(matches!(
            client.update(&update_for(&node, 2, sha256(b"root-2"))),
            Err(IbcError::ClientUpdateFailed { .. })
        ));
    }

    #[test]
    fn update_rejects_expired_clients_permanently() {
        let node = source_chain(2);
        let mut client = ClientRecord::create(
            ClientId::with_index(0),
            &node.block_at(1).unwrap().block.header,
            sha256(b"root-1"),
        );
        assert!(!client.is_expired());
        client.expire();
        assert!(client.is_expired());
        // A perfectly valid header is rejected once the trust period lapsed:
        // unlike a stale cache, there is no in-band recovery.
        assert!(matches!(
            client.update(&update_for(&node, 2, sha256(b"root-2"))),
            Err(IbcError::ClientExpired { .. })
        ));
        // Consensus states verified before expiry remain readable (timeout
        // proofs still work against pre-expiry roots).
        assert!(client.consensus_state(Height::at(1)).is_some());
    }

    #[test]
    fn consensus_state_lookup_at_or_below() {
        let node = source_chain(3);
        let mut client = ClientRecord::create(
            ClientId::with_index(0),
            &node.block_at(1).unwrap().block.header,
            sha256(b"root-1"),
        );
        client
            .update(&update_for(&node, 3, sha256(b"root-3")))
            .unwrap();
        // Height 2 was skipped: lookups at height 2 fall back to height 1.
        let (h, cs) = client.consensus_state_at_or_below(Height::at(2)).unwrap();
        assert_eq!(*h, Height::at(1));
        assert_eq!(cs.root, sha256(b"root-1"));
        assert!(client.consensus_state(Height::at(2)).is_none());
    }
}
