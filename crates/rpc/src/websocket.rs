//! The WebSocket event subscription and its frame-size limit.
//!
//! Hermes learns about new blocks by subscribing to the node's WebSocket
//! endpoint. Tendermint caps WebSocket messages at 16 MiB; when a block
//! carries more IBC event data than that, the subscription fails with
//! "Failed to collect events" and — as §V of the paper documents — the
//! affected packets are neither relayed nor timed out.

use xcc_sim::SimDuration;

use crate::endpoint::{BlockEventBatch, RpcEndpoint};

/// Tendermint's default maximum WebSocket message size (16 MiB).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

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
    delivery_overhead: SimDuration,
    delivered_blocks: u64,
    failed_blocks: u64,
}

impl Default for WebSocketSubscription {
    fn default() -> Self {
        Self::new(DEFAULT_MAX_FRAME_BYTES)
    }
}

impl WebSocketSubscription {
    /// Creates a subscription with an explicit frame-size limit.
    pub fn new(max_frame_bytes: usize) -> Self {
        WebSocketSubscription {
            max_frame_bytes,
            delivery_overhead: SimDuration::from_millis(2),
            delivered_blocks: 0,
            failed_blocks: 0,
        }
    }

    /// The configured frame-size limit.
    pub fn max_frame_bytes(&self) -> usize {
        self.max_frame_bytes
    }

    /// Fixed processing overhead added to each delivered batch.
    pub fn delivery_overhead(&self) -> SimDuration {
        self.delivery_overhead
    }

    /// Number of block event batches successfully delivered.
    pub fn delivered_blocks(&self) -> u64 {
        self.delivered_blocks
    }

    /// Number of blocks whose events could not be collected.
    pub fn failed_blocks(&self) -> u64 {
        self.failed_blocks
    }

    /// Collects the events of the block at `height` from `rpc`, enforcing
    /// the frame-size limit.
    ///
    /// # Errors
    ///
    /// Fails with [`WsError::FrameTooLarge`] when the block's event payload
    /// exceeds the limit, and [`WsError::UnknownBlock`] when the block does
    /// not exist.
    pub fn collect_block_events(
        &mut self,
        rpc: &RpcEndpoint,
        height: u64,
    ) -> Result<BlockEventBatch, WsError> {
        let batch = rpc
            .block_events(height)
            .ok_or(WsError::UnknownBlock { height })?;
        if batch.payload_bytes > self.max_frame_bytes {
            self.failed_blocks += 1;
            return Err(WsError::FrameTooLarge {
                payload_bytes: batch.payload_bytes,
                max_bytes: self.max_frame_bytes,
            });
        }
        self.delivered_blocks += 1;
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcc_chain::chain::Chain;
    use xcc_chain::coin::Coin;
    use xcc_chain::genesis::GenesisConfig;
    use xcc_chain::msg::Msg;
    use xcc_chain::tx::Tx;
    use xcc_sim::{SimDuration, SimTime};

    fn rpc_with_block(txs: usize) -> RpcEndpoint {
        let chain = Chain::new(GenesisConfig::new("chain-a").with_funded_accounts(
            "user",
            txs.max(1),
            100_000_000,
        ))
        .into_shared();
        let rpc = RpcEndpoint::new(chain.clone(), SimDuration::ZERO);
        {
            let mut c = chain.borrow_mut();
            for i in 0..txs {
                let tx = Tx::new(
                    format!("user-{i}").into(),
                    0,
                    vec![Msg::BankSend {
                        from: format!("user-{i}").into(),
                        to: "user-0".into(),
                        amount: Coin::new("uatom", 1),
                    }],
                    "uatom",
                );
                c.submit_tx(tx, SimTime::ZERO).unwrap();
            }
            c.produce_block(SimTime::from_secs(5));
        }
        rpc
    }

    #[test]
    fn events_are_delivered_within_the_limit() {
        let rpc = rpc_with_block(3);
        let mut ws = WebSocketSubscription::default();
        let batch = ws.collect_block_events(&rpc, 1).unwrap();
        assert_eq!(batch.committed.block.header.height, 1);
        assert_eq!(batch.txs().count(), 3);
        assert!(batch
            .txs()
            .all(|(_, code, events)| code == 0 && !events.is_empty()));
        assert_eq!(ws.delivered_blocks(), 1);
        assert_eq!(ws.failed_blocks(), 0);
    }

    #[test]
    fn oversized_payload_fails_to_collect_events() {
        let rpc = rpc_with_block(5);
        // Artificially tiny limit triggers the same code path as the paper's
        // 1,000 × 100-transfer block.
        let mut ws = WebSocketSubscription::new(64);
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
        assert_eq!(ws.failed_blocks(), 1);
    }

    #[test]
    fn unknown_blocks_are_reported() {
        let rpc = rpc_with_block(1);
        let mut ws = WebSocketSubscription::default();
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
        assert_eq!(ws.max_frame_bytes(), DEFAULT_MAX_FRAME_BYTES);
        assert!(ws.delivery_overhead() > SimDuration::ZERO);
    }
}
