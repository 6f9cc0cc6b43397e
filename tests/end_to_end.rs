//! Cross-crate integration tests: full cross-chain transfer life cycles
//! driven through the public API of the umbrella crate.

use ibc_perf_repro::framework::analysis;
use ibc_perf_repro::framework::scenarios;
use ibc_perf_repro::framework::spec::ExperimentSpec;
use ibc_perf_repro::relayer::telemetry::TransferStep;

fn small_latency_spec(transfers: u64, submission_blocks: u64, rtt_ms: u64) -> ExperimentSpec {
    ExperimentSpec::latency()
        .transfers(transfers)
        .submission_blocks(submission_blocks)
        // Classify completion over a 4-block window (the run itself still
        // continues to full completion).
        .measurement_blocks(4)
        .rtt_ms(rtt_ms)
        .user_accounts(4)
        .seed(42)
}

#[test]
fn transfers_complete_end_to_end_and_preserve_token_supply() {
    let spec = small_latency_spec(250, 1, 200);
    let run = scenarios::run_raw(&spec);

    assert_eq!(run.submission.submitted, 250);
    assert_eq!(
        run.telemetry.count_for_step(TransferStep::AckConfirmation),
        250
    );
    let breakdown = analysis::completion_breakdown(&run);
    assert_eq!(breakdown.completed, 250);
    assert_eq!(
        breakdown.partial + breakdown.initiated + breakdown.not_committed,
        0
    );

    // The unified outcome agrees with the raw analysis.
    let outcome = scenarios::outcome_from(&spec, &run);
    assert_eq!(outcome.completed(), 250);
    assert_eq!(outcome.submitted(), 250);

    // Escrowed tokens on the source chain equal the vouchers minted on the
    // destination chain (ICS-20 conservation).
    let escrow =
        ibc_perf_repro::ibc::transfer::escrow_address(&run.path.port, &run.path.src_channel);
    let escrowed = run
        .chain_a
        .borrow()
        .app()
        .bank()
        .balance(&escrow.as_str().into(), "uatom");
    let voucher = format!("transfer/{}/uatom", run.path.dst_channel);
    let minted = run.chain_b.borrow().app().bank().total_supply(&voucher);
    assert_eq!(escrowed, 250);
    assert_eq!(minted, 250);
}

#[test]
fn every_lifecycle_step_is_ordered_for_every_packet() {
    let run = scenarios::run_raw(&small_latency_spec(120, 2, 0));
    let mut fully_completed = 0usize;
    for seq in run.telemetry.sequences() {
        let mut previous = None;
        let mut present = 0;
        for step in TransferStep::ALL {
            let Some(time) = run.telemetry.step_time(seq, step) else {
                continue;
            };
            present += 1;
            if let Some(prev) = previous {
                assert!(time >= prev, "step {step:?} of packet {seq} went backwards");
            }
            previous = Some(time);
        }
        // Every observed packet progressed at least through the transfer
        // phase and the receive broadcast (steps 1-6).
        assert!(present >= 6, "packet {seq} only recorded {present} steps");
        if present == TransferStep::ALL.len() {
            fully_completed += 1;
        }
    }
    // And the majority of the batch runs through all 13 steps.
    assert!(
        fully_completed * 2 >= run.telemetry.len(),
        "only {fully_completed} of {} packets completed all steps",
        run.telemetry.len()
    );
}

#[test]
fn two_relayers_cause_redundancy_and_lower_throughput_than_one() {
    let base = ExperimentSpec::relayer_throughput()
        .input_rate(60)
        .rtt_ms(200)
        .measurement_blocks(10)
        .seed(3);
    let one = scenarios::run(&base.clone().relayers(1));
    let two = scenarios::run(&base.relayers(2));
    assert!(
        two.redundant_packet_errors() > 0,
        "two relayers must produce redundant work"
    );
    assert!(
        two.throughput_tfps() <= one.throughput_tfps() * 1.05,
        "a second relayer must not improve throughput (one: {:.1}, two: {:.1})",
        one.throughput_tfps(),
        two.throughput_tfps()
    );
}

#[test]
fn deterministic_runs_for_equal_seeds() {
    let spec = ExperimentSpec::relayer_throughput()
        .input_rate(40)
        .relayers(1)
        .rtt_ms(200)
        .measurement_blocks(6)
        .seed(9);
    let a = scenarios::run(&spec);
    let b = scenarios::run(&spec);
    assert_eq!(a, b);
    let c = scenarios::run(&spec.seed(10));
    // A different seed may legitimately produce the same aggregate numbers,
    // but the run must at least be well-formed.
    assert_eq!(
        c.completed() + c.partial() + c.initiated() + c.not_committed(),
        40 * 5 * 6
    );
}

#[test]
fn splitting_a_large_batch_reduces_completion_latency() {
    let base = ExperimentSpec::latency()
        .transfers(1_000)
        .rtt_ms(200)
        .seed(5);
    let single = scenarios::run(&base.clone().submission_blocks(1));
    let split = scenarios::run(&base.submission_blocks(4));
    assert!(single.completion_latency_secs() > 0.0);
    assert!(
        split.completion_latency_secs() < single.completion_latency_secs(),
        "splitting submission must reduce latency (1 block: {:.0}s, 4 blocks: {:.0}s)",
        single.completion_latency_secs(),
        split.completion_latency_secs()
    );
    // The receive phase dominates the transfer and ack phases, as in Fig. 12.
    assert!(single.recv_phase_secs() > single.ack_phase_secs());
}

#[test]
fn tendermint_throughput_saturates_with_input_rate() {
    let base = ExperimentSpec::tendermint_throughput().rtt_ms(200).seed(2);
    let low = scenarios::run(&base.clone().input_rate(40));
    let high = scenarios::run(&base.input_rate(400));
    assert!(high.tendermint_throughput_tfps() > low.tendermint_throughput_tfps());
    // At low rates everything requested is committed.
    assert_eq!(low.committed(), low.requests_made());
}

/// Every transaction either chain committed in the `smoke` run, decoded and
/// encoded again, gives back the committed payload, wire length and hash:
/// the typed codec is a bijection on what a real run produces, and agrees
/// with the `Value`-tree rendering the payload format is defined by.
#[test]
fn every_committed_tx_of_the_smoke_run_re_encodes_identically() {
    use ibc_perf_repro::chain::tx::Tx;
    use ibc_perf_repro::framework::{registry, sweep::SweepMode};
    use serde::Serialize;

    let entry = registry::get("smoke").expect("registered");
    let run = scenarios::run_raw(&entry.grid(SweepMode::Quick).points()[0]);
    let mut committed = 0;
    for chain in &run.chains {
        let chain = chain.borrow();
        for height in 1..=chain.height() {
            let Some(block) = chain.block_at(height) else {
                continue;
            };
            for raw in &block.block.data.txs {
                let tx = Tx::decode(raw).expect("a committed tx decodes");
                let again = tx.encode();
                assert_eq!(again.as_bytes(), raw.as_bytes());
                assert_eq!(again.len(), raw.len());
                assert_eq!(again.hash(), raw.hash());
                let tree = tx.to_value();
                assert_eq!(raw.as_bytes(), serde::binary::to_bytes(&tree).as_slice());
                assert_eq!(raw.len(), serde::json::encoded_len(&tree));
                committed += 1;
            }
        }
    }
    assert!(committed >= 10, "only {committed} transactions committed");
}
