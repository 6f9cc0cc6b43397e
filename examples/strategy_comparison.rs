//! Runs the same workload under several relayer strategies, showing how each
//! pipeline stage the paper measures responds to its counterfactual:
//! batched/parallel data pulls attack the Fig. 12 RPC bottleneck, and
//! coordination eliminates the redundant work of Figs. 9/11.
//!
//! Run with: `cargo run --release --example strategy_comparison`

use xcc_framework::scenarios;
use xcc_framework::spec::ExperimentSpec;
use xcc_relayer::strategy::RelayerStrategy;

fn main() {
    let base = ExperimentSpec::relayer_throughput()
        .input_rate(60)
        .relayers(2)
        .rtt_ms(200)
        .measurement_blocks(8)
        .seed(42);
    println!(
        "{:<22} | {:>10} | {:>10} | {:>9} | {:>14}",
        "strategy", "TFPS", "completed", "partial", "redundant msgs"
    );
    for strategy in [
        RelayerStrategy::paper_default(),
        RelayerStrategy::batched_pulls(),
        RelayerStrategy::parallel_fetch(),
        RelayerStrategy::coordinated(),
        RelayerStrategy::adaptive_submission(2),
    ] {
        let outcome = scenarios::run(&base.clone().strategy(strategy));
        println!(
            "{:<22} | {:>10.1} | {:>10} | {:>9} | {:>14}",
            strategy.label(),
            outcome.throughput_tfps(),
            outcome.completed(),
            outcome.partial(),
            outcome.redundant_packet_errors()
        );
    }
}
