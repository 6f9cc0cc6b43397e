//! Dead-surface fixture: knob types whose pub fields must be read somewhere else in
//! the workspace, plus a sweep grid with a dead axis.

/// The deployment knobs.
pub struct DeploymentConfig {
    /// Read by `driver.rs`: alive.
    pub used_knob: u64,
    /// Read by nothing outside this file: a dead knob.
    pub orphan_knob: u64,
    /// Private fields are not knobs.
    internal_counter: u64,
}

/// Not a knob type: dead fields here are fine.
pub struct ScratchPad {
    pub unread_scratch: u64,
}

pub struct SweepGrid {
    pub base: DeploymentConfig,
}

impl SweepGrid {
    /// Driven by `driver.rs`: alive.
    pub fn used_axis(self, v: u64) -> Self {
        self
    }

    /// Nothing calls this: a dead axis.
    pub fn orphan_axis(self, v: u64) -> Self {
        self
    }

    /// Private helpers are not axes.
    fn expand(&self) -> u64 {
        self.base.internal_counter
    }
}
