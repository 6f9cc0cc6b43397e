//! Cross-crate integration tests: full cross-chain transfer life cycles
//! driven through the public API of the umbrella crate.

use ibc_perf_repro::framework::analysis;
use ibc_perf_repro::framework::fault::{FaultEvent, FaultPlan};
use ibc_perf_repro::framework::scenarios;
use ibc_perf_repro::framework::spec::ExperimentSpec;
use ibc_perf_repro::framework::topology::Topology;
use ibc_perf_repro::relayer::strategy::SequenceTracking;
use ibc_perf_repro::relayer::telemetry::TransferStep;
use ibc_perf_repro::sim::SimDuration;

#[path = "support/record_tree.rs"]
mod record_tree;

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
    for (channel, seq) in run.telemetry.packets() {
        let mut previous = None;
        let mut present = 0;
        for step in TransferStep::ALL {
            let Some(time) = run.telemetry.step_time_on(channel, seq, step) else {
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
        fully_completed * 2 >= run.telemetry.packets().len(),
        "only {fully_completed} of {} packets completed all steps",
        run.telemetry.packets().len()
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
    assert_eq!(
        a.completed() + a.partial() + a.initiated() + a.not_committed(),
        40 * 5 * 6
    );
}

/// No model draws a random number, so the seed changes nothing but the
/// spec's own `seed` field: every metric and every work counter is the same
/// at two seeds. A model that starts drawing must change this on purpose.
#[test]
fn a_different_seed_changes_no_outcome() {
    let crash = FaultPlan::new([
        FaultEvent::RelayerCrash {
            relayer: 0,
            at: SimDuration::from_secs(16),
        },
        FaultEvent::RelayerRestart {
            relayer: 0,
            at: SimDuration::from_secs(26),
        },
    ]);
    let specs = [
        ExperimentSpec::relayer_throughput()
            .input_rate(20)
            .relayers(2)
            .rtt_ms(200)
            .measurement_blocks(4),
        ExperimentSpec::latency()
            .transfers(1_000)
            .rtt_ms(200)
            .sequence_tracking(SequenceTracking::MempoolAware)
            .frame_limit(64 << 10)
            .packet_clearing(3),
        ExperimentSpec::tendermint_throughput()
            .input_rate(100)
            .measurement_blocks(4),
        ExperimentSpec::latency()
            .transfers(40)
            .submission_blocks(2)
            .measurement_blocks(10)
            .packet_clearing(2)
            .fault_plan(crash),
        ExperimentSpec::latency()
            .transfers(60)
            .measurement_blocks(4)
            .channel_weights([1, 1, 0, 0])
            .hop_plan(Topology::hub_and_spoke_routes(2))
            .topology(Topology::hub_and_spoke(2)),
    ];
    for spec in specs {
        let runs = [1, 987_654_321].map(|seed| {
            let spec = spec.clone().seed(seed);
            let run = scenarios::run_raw(&spec);
            (scenarios::outcome_from(&spec, &run), run.work)
        });
        let [(first, first_work), (second, second_work)] = runs;
        assert!(first.requests_made() > 0, "{}", spec.name);
        assert!(first_work.events_popped > 0, "{}", spec.name);
        assert_eq!(first.metrics, second.metrics, "{}", spec.name);
        assert_eq!(first_work, second_work, "{}", spec.name);
        if spec.deployment.relayer_strategy.ws_frame_limit_bytes > 0 {
            assert!(first.packets_cleared() > 0, "the lossy drain must clear");
        }
    }
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
/// the typed codec is a bijection on what a real run produces, and every
/// payload reads back as the transaction's record tree (each struct the
/// array of its fields), whose JSON length is the modelled one.
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
                let records = record_tree::record_tree(&tx);
                assert_eq!(serde::binary::from_bytes(raw.as_bytes()).unwrap(), records);
                assert_eq!(raw.len(), serde::json::encoded_len(&tx.to_value()));
                committed += 1;
            }
        }
    }
    assert!(committed >= 10, "only {committed} transactions committed");
}
