//! Output correctness checks applied to every run the harness makes, and the
//! failed-transfer count behind `failed_share`.

use xcc_framework::analysis;
use xcc_framework::outcome::ScenarioOutcome;
use xcc_framework::runner::RunOutput;
use xcc_framework::work::WorkProfile;
use xcc_ibc::transfer::{escrow_address, prefixed_denom};
use xcc_relayer::relayer::RelayerStats;
use xcc_rpc::endpoint::LaneStats;

use crate::workloads::Workload;

/// Everything a repeat of a run — timed, or driven by the traced driver —
/// must reproduce of the warm-up run exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub work: WorkProfile,
    pub final_heights: Vec<u64>,
    pub relayer_stats: Vec<RelayerStats>,
    pub rpc_lanes: Vec<(LaneStats, LaneStats)>,
    pub outcome_json: String,
}

impl Digest {
    pub fn of(run: &RunOutput, outcome: &ScenarioOutcome) -> Self {
        Digest {
            work: run.work.clone(),
            final_heights: run.chains.iter().map(|c| c.borrow().height()).collect(),
            relayer_stats: run.relayer_stats.clone(),
            rpc_lanes: run.rpc_lanes.clone(),
            outcome_json: outcome.to_json(),
        }
    }

    /// One line per field on which `self` differs from `reference`; empty
    /// when the two runs are the same run.
    pub fn diff(&self, reference: &Digest) -> Vec<String> {
        let mut lines = Vec::new();
        let mut differ = |field: &str, this: String, reference: String| {
            if this != reference {
                lines.push(format!("{field}: {this} vs reference {reference}"));
            }
        };
        differ(
            "work",
            format!("{:?}", self.work),
            format!("{:?}", reference.work),
        );
        differ(
            "final_heights",
            format!("{:?}", self.final_heights),
            format!("{:?}", reference.final_heights),
        );
        differ(
            "relayer_stats",
            format!("{:?}", self.relayer_stats),
            format!("{:?}", reference.relayer_stats),
        );
        differ(
            "rpc_lanes",
            format!("{:?}", self.rpc_lanes),
            format!("{:?}", reference.rpc_lanes),
        );
        differ(
            "outcome",
            self.outcome_json.clone(),
            reference.outcome_json.clone(),
        );
        lines
    }
}

/// The result of checking one run.
pub struct Checked {
    /// Simulated transfers requested.
    pub attempted: u64,
    /// Transfers that failed: rejected at submission, accepted but never
    /// committed on the source chain, or (drain workloads) committed but
    /// unacknowledged at run end. Every transfer of a run that fails a check
    /// counts as failed.
    pub failed: u64,
    /// Human-readable description of every violated check.
    pub violations: Vec<String>,
}

/// Tokens escrowed on the source chain and vouchers minted on the
/// destination chain of the primary path.
fn escrowed_and_minted(run: &RunOutput) -> (u128, u128) {
    let path = &run.paths[0];
    let (src, dst) = run.path_ends[0];
    let src_chain = run.chains[src].borrow();
    let denom = src_chain.app().fee_denom();
    let escrow = escrow_address(&path.port, &path.src_channel);
    let escrowed = src_chain.app().bank().balance(&escrow.into(), denom);
    let voucher = prefixed_denom(&path.port, &path.dst_channel, denom);
    let minted = run.chains[dst].borrow().app().bank().total_supply(&voucher);
    (escrowed, minted)
}

/// Checks one finished run against the invariants of its workload and, when
/// given, its `digest` against the warm-up run's, which it must equal.
pub fn check(
    workload: &Workload,
    run: &RunOutput,
    digest: &Digest,
    reference: Option<&Digest>,
) -> Checked {
    let mut violations = Vec::new();
    let stats = run.submission;
    let committed = analysis::committed_transfers(run);
    let unacked = analysis::stranded_packets(run);

    if stats.requests_made != stats.submitted + stats.rejected {
        violations.push(format!(
            "requests_made {} != submitted {} + rejected {}",
            stats.requests_made, stats.submitted, stats.rejected
        ));
    }
    if committed > stats.submitted {
        violations.push(format!(
            "committed {committed} > submitted {}",
            stats.submitted
        ));
    }
    let (escrowed, minted) = escrowed_and_minted(run);
    if escrowed < minted || (workload.drains() && escrowed != minted) {
        violations.push(format!(
            "ICS-20 conservation: escrowed {escrowed} vs minted {minted}"
        ));
    }
    if workload.drains() && unacked != 0 {
        violations.push(format!("{unacked} packets unacknowledged at run end"));
    }
    let doubles = analysis::double_submitted_packets(run);
    if doubles != 0 {
        violations.push(format!("{doubles} packets double-submitted"));
    }
    if let Some(reference) = reference {
        violations.extend(digest.diff(reference));
    }

    let failed = if violations.is_empty() {
        stats.rejected + (stats.submitted - committed) + if workload.drains() { unacked } else { 0 }
    } else {
        stats.requests_made
    };
    Checked {
        attempted: stats.requests_made,
        failed,
        violations,
    }
}
