//! Consensus parameters and the consensus timing model: constants, not
//! configuration. The one consensus value a deployment sets is the minimum
//! block interval, which the genesis carries (as Tendermint's does) and which
//! reaches a block only through [`consensus_hash`].

use crate::hash::{hash_fields, Hash};
use xcc_sim::SimDuration;

/// Maximum total size of transactions in a block, in bytes: ~22 MB, the
/// Tendermint default order of magnitude.
pub const MAX_BLOCK_BYTES: usize = 22 * 1024 * 1024;

/// Maximum total gas wanted by the transactions in a block. Fits ~50 transfer
/// transactions of 100 messages (3.67M gas each), matching the ~5,000
/// transfers/block ceiling observed in Fig. 6.
pub const MAX_BLOCK_GAS: u64 = 190_000_000;

/// Hash of the consensus parameters, recorded in every block header: the
/// minimum block interval, the block byte and gas limits, and a per-block
/// transaction cap of 0 (none), in the byte layout headers have always
/// hashed.
pub fn consensus_hash(min_block_interval: SimDuration) -> Hash {
    hash_fields(&[
        b"consensus-params",
        &min_block_interval.as_nanos().to_be_bytes(),
        &(MAX_BLOCK_BYTES as u64).to_be_bytes(),
        &MAX_BLOCK_GAS.to_be_bytes(),
        &0u64.to_be_bytes(),
    ])
}

// How long consensus and block processing take. The paper argues (§III-C)
// that consensus latency is a second-order effect: roughly 25 ms per block
// for 5 validators and 110 ms for 128 validators, i.e. about 1% of a complete
// cross-chain transfer. Block *processing* time, however, grows with the
// number of included transactions and with the backlog of pending mempool
// transactions that must be rechecked after every commit, and is what
// stretches the block interval at high input rates (Fig. 7).

/// Fixed per-round consensus cost independent of the validator count
/// (calibrated with `PER_VALIDATOR` so 5 validators => ~25 ms, 128 validators
/// => ~110 ms).
const ROUND_BASE: SimDuration = SimDuration::from_micros(21_500);

/// Additional consensus cost per validator (vote gossip and verification).
const PER_VALIDATOR: SimDuration = SimDuration::from_micros(690);

/// Execution cost per included transaction message.
const PER_TX_MESSAGE: SimDuration = SimDuration::from_micros(150);

/// Cost to recheck one pending mempool transaction after a commit.
const PER_PENDING_RECHECK: SimDuration = SimDuration::from_micros(800);

/// Proposal dissemination cost per kilobyte of block data.
const PER_BLOCK_KILOBYTE: SimDuration = SimDuration::from_micros(6);

/// Latency of one consensus round for the given validator count.
pub fn consensus_latency(validators: usize) -> SimDuration {
    ROUND_BASE + PER_VALIDATOR * validators as u64
}

/// Time spent executing and committing a block with the given contents, plus
/// rechecking the remaining mempool backlog.
pub fn block_processing_time(
    included_messages: u64,
    block_bytes: usize,
    pending_after: usize,
) -> SimDuration {
    PER_TX_MESSAGE * included_messages
        + PER_BLOCK_KILOBYTE * (block_bytes as u64 / 1024)
        + PER_PENDING_RECHECK * pending_after as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_gas_fits_fifty_full_transfer_transactions() {
        // At least 50 transactions of 3.67M gas fit in a block.
        const { assert!(MAX_BLOCK_GAS >= 50 * 3_669_161) };
    }

    /// Read at the commit before the parameters became constants, as
    /// `ConsensusParams::default().hash()`: every header's `ConsensusHash`.
    #[test]
    fn consensus_hash_is_pinned() {
        assert_eq!(
            consensus_hash(SimDuration::from_secs(5)).to_hex(),
            "414bbd4be332b3074c8546581c9a634ef01cd013bbaf1e4dd39fefc80b904199"
        );
        assert_ne!(
            consensus_hash(SimDuration::from_secs(5)),
            consensus_hash(SimDuration::from_secs(6))
        );
    }

    #[test]
    fn consensus_latency_matches_reference_points() {
        let five = consensus_latency(5).as_millis();
        let many = consensus_latency(128).as_millis();
        assert!((20..=30).contains(&five), "5 validators: {five}ms");
        assert!((100..=120).contains(&many), "128 validators: {many}ms");
    }

    #[test]
    fn large_backlog_stretches_past_the_block_interval() {
        // 5,000 included messages in a ~5 MB block with 20,000 pending txs to
        // recheck take longer than the 5 s floor (Fig. 7 behaviour).
        let work = |pending| consensus_latency(5) + block_processing_time(5_000, 5 << 20, pending);
        assert!(work(20_000) > SimDuration::from_secs(5));
        // And the stretch is monotone in the backlog.
        assert!(work(60_000) > work(20_000));
    }

    #[test]
    fn processing_time_is_monotone_in_all_inputs() {
        let base = block_processing_time(100, 10_000, 10);
        assert!(block_processing_time(200, 10_000, 10) > base);
        assert!(block_processing_time(100, 2_000_000, 10) > base);
        assert!(block_processing_time(100, 10_000, 1_000) > base);
    }
}
