//! V1 fixture: a transaction codec that detours through `serde::Value`
//! trees, which simulation code must not do; `to_value` in this comment and
//! in the string below must stay silent.

use serde::binary::{from_bytes, Writer};

/// Builds the tree, renders it, and measures it a third time.
pub fn encode(tx: &Tx) -> (Vec<u8>, usize) {
    let tree = tx.to_value();
    let label = "to_value is slow";
    (serde::binary::to_bytes(&tree), serde::json::encoded_len(&tree) + label.len())
}

/// Parses the whole tree, then walks it again.
pub fn decode(bytes: &[u8]) -> Option<Tx> {
    let tree = from_bytes(bytes).ok()?;
    Tx::from_value(&tree).ok()
}

/// Reads a key back through the JSON text parser.
pub fn key(text: &str) -> Option<serde::Value> {
    serde::json::parse(text).ok()
}

/// None of these is a detour: the cached wire length, `str::parse`, and the
/// streaming entry points.
pub fn fine(tx: &Tx, text: &str) -> Option<(usize, u64, Vec<u8>)> {
    let height: u64 = text.parse().ok()?;
    let mut writer = Writer::default();
    tx.serialize(&mut writer);
    Some((tx.encoded_len(), height, serde::binary::write(tx)))
}

// xcc-lint: allow(value-detour, reason = "fixture shim: a debug dump, never on the transaction path")
pub fn dump(tx: &Tx) -> serde::Value { tx.to_value() }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_compare_against_the_tree_path() {
        let tx = Tx::default();
        assert_eq!(serde::binary::write(&tx), serde::binary::to_bytes(&tx.to_value()));
    }
}
