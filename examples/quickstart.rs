//! Quickstart: deploy two simulated Cosmos chains connected by an IBC
//! channel, submit a small batch of cross-chain transfers, relay them with a
//! Hermes-like relayer, and print the execution report.
//!
//! Run with: `cargo run --release --example quickstart`

use xcc_framework::analysis;
use xcc_framework::scenarios;
use xcc_framework::spec::ExperimentSpec;
use xcc_relayer::telemetry::TransferStep;

fn main() {
    let spec = ExperimentSpec::latency()
        .named("quickstart")
        .transfers(300)
        .submission_blocks(1)
        .rtt_ms(200)
        .user_accounts(4)
        .seed(42);
    println!("spec:\n{}", spec.to_json());

    // `run_raw` keeps the chains and telemetry around for inspection;
    // `outcome_from` then computes the same unified outcome `run` would.
    let run = scenarios::run_raw(&spec);

    println!("source blocks produced: {}", run.blocks_a.len());
    println!("destination blocks produced: {}", run.blocks_b.len());
    println!(
        "transfers committed on source: {}",
        analysis::committed_transfers(&run)
    );
    for step in TransferStep::ALL {
        println!(
            "  step {:>2} {:<26} completed for {:>4} packets",
            step.index(),
            step.label(),
            run.telemetry.count_for_step(step)
        );
    }
    for (i, stats) in run.relayer_stats.iter().enumerate() {
        println!("relayer {i}: {stats:?}");
    }
    for err in run.telemetry.errors().iter().take(10) {
        println!("relayer error @{}: {:?}", err.at, err.kind);
    }
    if std::env::var("XCC_DEBUG_BLOCKS").is_ok() {
        let chain = run.chain_a.borrow();
        for height in 1..=chain.height() {
            let block = chain.block_at(height).unwrap();
            print!("A h{height} ({} txs):", block.results.len());
            for result in &block.results {
                let kinds: Vec<&str> = result.events.iter().map(|e| e.kind).collect();
                print!(
                    " [code {} log '{}' events {:?}]",
                    result.code,
                    result.log,
                    &kinds[..kinds.len().min(3)]
                );
            }
            println!();
        }
    }

    let outcome = scenarios::outcome_from(&spec, &run);
    println!("{}", outcome.to_report());
}
