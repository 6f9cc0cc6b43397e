//! The WebSocket event subscription and its frame-size limit.
//!
//! Hermes learns about new blocks by subscribing to the node's WebSocket
//! endpoint. Tendermint caps WebSocket messages at 16 MiB; when a block
//! carries more IBC event data than that, the subscription fails with
//! "Failed to collect events" and — as §V of the paper documents — the
//! affected packets are neither relayed nor timed out.

use std::rc::Rc;

use xcc_sim::SimDuration;
use xcc_tendermint::node::CommittedBlock;

use crate::endpoint::RpcEndpoint;

/// Tendermint's default maximum WebSocket message size (16 MiB).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Fixed processing overhead the subscription adds to each delivered block.
pub const DELIVERY_OVERHEAD: SimDuration = SimDuration::from_millis(2);

/// Errors raised while collecting a block's events over the subscription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WsError {
    /// The serialized event payload exceeds the maximum frame size.
    ///
    /// Hermes logs this as "Failed to collect events".
    FrameTooLarge {
        /// Size of the payload that was attempted.
        payload_bytes: usize,
        /// The configured limit.
        max_bytes: usize,
    },
    /// The requested block does not exist (subscription raced ahead).
    UnknownBlock {
        /// The missing height.
        height: u64,
    },
}

impl std::fmt::Display for WsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WsError::FrameTooLarge { payload_bytes, max_bytes } => write!(
                f,
                "Failed to collect events: WebSocket frame of {payload_bytes} bytes exceeds maximum of {max_bytes} bytes"
            ),
            WsError::UnknownBlock { height } => write!(f, "no block at height {height}"),
        }
    }
}

impl std::error::Error for WsError {}

/// A per-relayer WebSocket subscription to one chain's `NewBlock` events.
#[derive(Debug, Clone)]
pub struct WebSocketSubscription {
    max_frame_bytes: usize,
}

impl Default for WebSocketSubscription {
    fn default() -> Self {
        Self::new(DEFAULT_MAX_FRAME_BYTES)
    }
}

impl WebSocketSubscription {
    /// Creates a subscription with an explicit frame-size limit.
    pub fn new(max_frame_bytes: usize) -> Self {
        WebSocketSubscription { max_frame_bytes }
    }

    /// Collects the block at `height` from the node behind `rpc`, as the
    /// push sent when it committed: the block store's own handle, nothing
    /// copied. The frame it travels in is the block's
    /// `events_payload_bytes`.
    ///
    /// # Errors
    ///
    /// Fails with [`WsError::FrameTooLarge`] when that frame exceeds the
    /// limit, and [`WsError::UnknownBlock`] when the block does not exist.
    pub fn collect_block_events(
        &self,
        rpc: &RpcEndpoint,
        height: u64,
    ) -> Result<Rc<CommittedBlock>, WsError> {
        let chain = rpc.chain().borrow();
        let block = chain
            .block_at(height)
            .ok_or(WsError::UnknownBlock { height })?;
        if block.events_payload_bytes > self.max_frame_bytes {
            return Err(WsError::FrameTooLarge {
                payload_bytes: block.events_payload_bytes,
                max_bytes: self.max_frame_bytes,
            });
        }
        Ok(Rc::clone(block))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use xcc_chain::coin::Coin;
    use xcc_chain::genesis::GenesisConfig;
    use xcc_chain::msg::Msg;
    use xcc_chain::tx::Tx;
    use xcc_sim::SimTime;
    use xcc_tendermint::hash::Hash;

    /// An endpoint on a chain whose block 1 holds one bank send per entry
    /// of `amounts`, `user-<i>` paying `amounts[i]` to `user-0` out of a
    /// 100,000,000 balance, and the hash each broadcast returned.
    fn rpc_with_sends(amounts: &[u128]) -> (RpcEndpoint, Vec<Hash>) {
        let genesis = GenesisConfig::new("chain-a").with_funded_accounts(
            "user",
            amounts.len().max(1),
            100_000_000,
        );
        let chain = Rc::new(RefCell::new(genesis.into_chain()));
        let mut rpc = RpcEndpoint::new(chain, SimDuration::ZERO);
        let hashes = (amounts.iter().enumerate())
            .map(|(i, &amount)| {
                let user = format!("user-{i}");
                let send = Msg::BankSend {
                    from: user.as_str().into(),
                    to: "user-0".into(),
                    amount: Coin::new("uatom", amount),
                };
                let tx = Tx::new(user.into(), 0, vec![send], "uatom");
                rpc.broadcast_tx_sync(SimTime::ZERO, tx).value.unwrap()
            })
            .collect();
        rpc.chain()
            .borrow_mut()
            .produce_block(SimTime::from_secs(5));
        (rpc, hashes)
    }

    #[test]
    fn the_subscription_hands_out_the_block_stores_own_block() {
        let (rpc, hashes) = rpc_with_sends(&[1, 1, 1]);
        let pushed = WebSocketSubscription::default()
            .collect_block_events(&rpc, 1)
            .unwrap();
        assert!(Rc::ptr_eq(
            &pushed,
            rpc.chain().borrow().block_at(1).unwrap()
        ));
        let txs: Vec<_> = pushed.txs().collect();
        let seen: Vec<_> = txs.iter().map(|(hash, code, _)| (*hash, *code)).collect();
        assert_eq!(seen, hashes.into_iter().map(|h| (h, 0)).collect::<Vec<_>>());
        assert!(txs.iter().all(|(_, _, events)| !events.is_empty()));
    }

    /// One send that succeeds and one that passes `CheckTx` but overdraws
    /// at `DeliverTx`: the failed one is pushed with its code and no events.
    #[test]
    fn a_failed_tx_rides_in_the_frame_with_its_code() {
        let (rpc, _) = rpc_with_sends(&[1, 1_000_000_000]);
        let pushed = WebSocketSubscription::default()
            .collect_block_events(&rpc, 1)
            .unwrap();
        let txs: Vec<_> = pushed.txs().collect();
        let hashes: Vec<_> = pushed.block.data.txs.iter().map(|tx| tx.hash()).collect();
        assert_eq!(hashes, [txs[0].0, txs[1].0]);
        assert_eq!((txs[0].1, txs[0].2.len()), (0, 2));
        assert_eq!((txs[1].1, txs[1].2.len()), (111, 0), "insufficient funds");
        // Pinned from the commit before the block store was shared: the §V
        // frame size of this block.
        assert_eq!(pushed.events_payload_bytes, 1111);
    }

    #[test]
    fn the_limit_admits_a_frame_of_its_size_and_refuses_one_byte_more() {
        let (rpc, _) = rpc_with_sends(&[1, 1]);
        let frame = rpc
            .chain()
            .borrow()
            .block_at(1)
            .unwrap()
            .events_payload_bytes;
        assert!(WebSocketSubscription::new(frame)
            .collect_block_events(&rpc, 1)
            .is_ok());
        let err = WebSocketSubscription::new(frame - 1)
            .collect_block_events(&rpc, 1)
            .unwrap_err();
        assert!(
            matches!(err, WsError::FrameTooLarge { payload_bytes, .. } if payload_bytes == frame)
        );
    }

    #[test]
    fn oversized_payload_fails_to_collect_events() {
        let (rpc, _) = rpc_with_sends(&[1; 5]);
        // Artificially tiny limit triggers the same code path as the paper's
        // 1,000 × 100-transfer block.
        let ws = WebSocketSubscription::new(64);
        let err = ws.collect_block_events(&rpc, 1).unwrap_err();
        match err {
            WsError::FrameTooLarge {
                payload_bytes,
                max_bytes,
            } => {
                assert!(payload_bytes > max_bytes);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("Failed to collect events"));
    }

    #[test]
    fn unknown_blocks_are_reported() {
        let (rpc, _) = rpc_with_sends(&[1]);
        let ws = WebSocketSubscription::default();
        assert_eq!(
            ws.collect_block_events(&rpc, 7).unwrap_err(),
            WsError::UnknownBlock { height: 7 }
        );
        assert_eq!(
            ws.collect_block_events(&rpc, 0).unwrap_err(),
            WsError::UnknownBlock { height: 0 }
        );
    }

    #[test]
    fn default_limit_is_sixteen_mebibytes() {
        assert_eq!(DEFAULT_MAX_FRAME_BYTES, 16_777_216);
        let ws = WebSocketSubscription::default();
        assert_eq!(ws.max_frame_bytes, DEFAULT_MAX_FRAME_BYTES);
        assert!(DELIVERY_OVERHEAD > SimDuration::ZERO);
    }
}
