//! R1 fixture registry: one covered scenario, one missing from the docs.

pub struct ScenarioEntry {
    pub name: &'static str,
}

pub static ENTRIES: [ScenarioEntry; 2] = [
    ScenarioEntry { name: "covered" },
    ScenarioEntry { name: "undocumented" },
];
