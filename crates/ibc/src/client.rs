//! ICS-02 client semantics: client states, consensus states and updates
//! verified by the Tendermint light-client check
//! ([`xcc_tendermint::light::verify_commit`]).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::commitment::CommitmentRoot;
use crate::error::IbcError;
use crate::height::Height;
use crate::ids::ClientId;
use xcc_sim::SimTime;
use xcc_tendermint::block::Header;
use xcc_tendermint::hash::Hash;
use xcc_tendermint::light::{verify_commit, VerificationError};
use xcc_tendermint::validator::ValidatorSet;
use xcc_tendermint::vote::Commit;

/// The client state of a Tendermint light client (ICS-07 flavour).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientState {
    /// Chain id of the counterparty chain this client tracks.
    pub chain_id: String,
    /// The latest height the client has verified.
    pub latest_height: Height,
    /// Whether the client's trust period has lapsed (`ClientExpiry` fault).
    ///
    /// Expiry cannot be repaired by in-band messages: real
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

/// A hosted light client: client state plus verified consensus states, one
/// per trusted header.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientRecord {
    /// The client's identifier on the host chain.
    pub client_id: ClientId,
    /// Current client state.
    pub client_state: ClientState,
    /// Verified consensus states by height.
    pub consensus_states: BTreeMap<Height, ConsensusState>,
}

impl ClientRecord {
    /// Creates a client from an initial trusted header (`MsgCreateClient`).
    pub fn create(client_id: ClientId, initial_header: &Header, ibc_root: CommitmentRoot) -> Self {
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
    /// Fails if the client is expired, the header does not extend the
    /// latest verified height, or light-client verification rejects it.
    pub fn update(&mut self, update: &ClientUpdate) -> Result<Height, IbcError> {
        if self.client_state.expired {
            return Err(IbcError::ClientExpired {
                client_id: self.client_id.clone(),
            });
        }
        let state = &self.client_state;
        let trusted = state.latest_height.height;
        let header = &update.header;
        let verified = if header.height <= trusted {
            Err(VerificationError::NonMonotonicHeight {
                trusted,
                submitted: header.height,
            })
        } else {
            verify_commit(&state.chain_id, header, &update.commit, &update.validators)
        };
        verified.map_err(|e| IbcError::ClientUpdateFailed {
            reason: e.to_string(),
        })?;
        let height = Height::at(header.height);
        self.consensus_states.insert(
            height,
            ConsensusState {
                root: update.ibc_root,
                timestamp: update.header.time,
                next_validators_hash: update.header.next_validators_hash,
            },
        );
        self.client_state.latest_height = height;
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
    use xcc_tendermint::hash::sha256;
    use xcc_tendermint::node::Node;

    #[derive(Default)]
    pub(crate) struct NullApp;
    impl Application for NullApp {
        type Decoded = ();
        fn check_tx(&mut self, _tx: &()) -> CheckTxResult {
            CheckTxResult {
                code: 0,
                log: String::new(),
                gas_wanted: 1,
                sender: "x".into(),
                sequence: 0,
            }
        }
        fn begin_block(&mut self, _header: &Header) {}
        fn deliver_tx(&mut self, _tx: ()) -> DeliverTxResult {
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
    fn update_rejects_a_replayed_header() {
        let node = source_chain(3);
        let mut client = ClientRecord::create(
            ClientId::with_index(0),
            &node.block_at(1).unwrap().block.header,
            sha256(b"root-1"),
        );
        // A header at or below the latest verified height fails and changes
        // nothing. The text rides in DeliverTx logs, so block-event frame
        // sizes pin it.
        for (latest, replayed, text) in [
            (
                2,
                2,
                "client update failed: header height 2 does not extend trusted height 2",
            ),
            (
                3,
                2,
                "client update failed: header height 2 does not extend trusted height 3",
            ),
        ] {
            client
                .update(&update_for(&node, latest, sha256(b"root")))
                .unwrap();
            let err = client
                .update(&update_for(&node, replayed, sha256(b"root")))
                .unwrap_err();
            assert_eq!(err.to_string(), text);
            assert_eq!(client.latest_height(), Height::at(latest));
            assert_eq!(client.consensus_states.len() as u64, latest);
        }
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
