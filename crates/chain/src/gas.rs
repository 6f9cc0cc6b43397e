//! The per-message gas costs observed in the paper.
//!
//! The paper reports that a 100-message transaction consumes on average
//! 3,669,161 gas for transfers, 7,238,699 gas for receives and 3,107,462 gas
//! for acknowledgements (§IV-A). The constants here decompose those totals
//! into a fixed per-transaction overhead plus a per-message cost so that
//! differently sized batches are charged consistently.

/// Fixed gas overhead per transaction (signature verification, ante handler).
pub const TX_BASE_GAS: u64 = 80_000;

/// Gas consumed by one `MsgTransfer`.
pub const MSG_TRANSFER_GAS: u64 = 35_892;

/// Gas consumed by one `MsgRecvPacket` (includes proof verification and
/// voucher minting, hence roughly double a transfer).
pub const MSG_RECV_PACKET_GAS: u64 = 71_587;

/// Gas consumed by one `MsgAcknowledgement`.
pub const MSG_ACK_GAS: u64 = 30_275;

/// Gas consumed by one `MsgTimeout`.
pub const MSG_TIMEOUT_GAS: u64 = 32_000;

/// Gas consumed by one `MsgUpdateClient` (header verification).
pub const MSG_UPDATE_CLIENT_GAS: u64 = 110_000;

/// Gas consumed by one bank send message.
pub const MSG_BANK_SEND_GAS: u64 = 25_000;

/// The gas price the paper configures in Hermes: 0.01 tokens per unit of gas.
#[expect(
    clippy::disallowed_types,
    reason = "paper-fixed constant; every fee passes through fee_for_gas, which ceils to an integer"
)]
pub const GAS_PRICE: f64 = 0.01;

/// The fee (in the fee denomination) for a transaction consuming `gas` units
/// at the paper's configured gas price.
#[expect(
    clippy::disallowed_types,
    reason = "gas fits in 53 bits and 0.01 * gas ceiled to an integer is exact on any IEEE-754 double"
)]
pub fn fee_for_gas(gas: u64) -> u128 {
    (gas as f64 * GAS_PRICE).ceil() as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "a relative error against the paper's printed gas, in the test only"
    )]
    fn hundred_message_batches_match_paper_gas_within_one_percent() {
        let transfer_tx = TX_BASE_GAS + 100 * MSG_TRANSFER_GAS;
        let recv_tx = TX_BASE_GAS + 100 * MSG_RECV_PACKET_GAS;
        let ack_tx = TX_BASE_GAS + 100 * MSG_ACK_GAS;
        let close =
            |ours: u64, paper: u64| ((ours as f64 - paper as f64).abs() / paper as f64) < 0.01;
        assert!(
            close(transfer_tx, 3_669_161),
            "transfer tx gas {transfer_tx}"
        );
        assert!(close(recv_tx, 7_238_699), "recv tx gas {recv_tx}");
        assert!(close(ack_tx, 3_107_462), "ack tx gas {ack_tx}");
    }

    #[test]
    fn fee_follows_configured_gas_price() {
        assert_eq!(fee_for_gas(3_669_161), 36_692);
        assert_eq!(fee_for_gas(0), 0);
    }
}
