//! The reader side of the dead-surface fixture: exercises exactly one knob and one
//! axis, leaving their orphan twins dead.

pub fn drive(cfg: DeploymentConfig, grid: SweepGrid) -> u64 {
    grid.used_axis(cfg.used_knob).base.used_knob
}
