//! Demonstrates the RPC bottleneck directly: the same packet-data pull issued
//! against blocks of growing size on the sequential Tendermint RPC endpoint.
//!
//! Run with: `cargo run --release --example rpc_bottleneck`

use xcc_rpc::cost::{service_time, RequestKind, RequestProfile};

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "the example prints the cost table itself, outside any lane"
    )]
    let priced = |profile| service_time(&profile);
    println!("service time of one packet-data pull vs. IBC messages in the queried block:");
    for msgs in [100usize, 500, 1_000, 2_000, 5_000] {
        let transfer = priced(RequestProfile {
            kind: RequestKind::PacketDataPull,
            response_bytes: msgs * 600,
            messages: msgs,
            recv_heavy: false,
            items: 0,
        });
        let recv = priced(RequestProfile {
            kind: RequestKind::PacketDataPull,
            response_bytes: msgs * 1_200,
            messages: msgs,
            recv_heavy: true,
            items: 0,
        });
        let batched = priced(RequestProfile {
            kind: RequestKind::BatchedDataPull,
            response_bytes: msgs * 600,
            messages: msgs,
            recv_heavy: false,
            items: msgs,
        });
        println!(
            "  block with {:>5} msgs: transfer pull {:>6.2} s, recv pull {:>6.2} s, \
             one batched pull for everything {:>6.2} s",
            msgs,
            transfer.as_secs_f64(),
            recv.as_secs_f64(),
            batched.as_secs_f64()
        );
    }
    println!();
    println!(
        "A 5,000-transfer batch needs 50 pulls of each kind; with sequential RPC \
         processing this alone accounts for roughly 69% of the 455 s completion \
         latency the paper reports (Fig. 12). The batched column is the \
         `RelayerStrategy::batched_pulls()` counterfactual: one query paying \
         the block scan once."
    );
}
