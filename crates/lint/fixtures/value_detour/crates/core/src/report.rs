//! V1 fixture: the framework crate is the reporting boundary, where value
//! trees are the point — out of the rule's scope, so this stays silent.

pub fn render(outcome: &Outcome) -> String {
    serde::json::to_json(&outcome.to_value(), true)
}
