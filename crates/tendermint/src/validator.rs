//! Validators and validator sets.

use serde::{Deserialize, Serialize};

use crate::hash::{hash_fields, Hash};

/// The address identifying a validator (derived from its public key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ValidatorAddress(pub Hash);

impl ValidatorAddress {
    /// Derives an address from a human-readable validator name.
    pub fn from_name(name: &str) -> Self {
        ValidatorAddress(hash_fields(&[b"validator-address", name.as_bytes()]))
    }

    /// Short printable form of the address.
    pub fn short(&self) -> String {
        self.0.short()
    }
}

impl std::fmt::Display for ValidatorAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.short())
    }
}

/// A consensus validator with its voting power.
///
/// # Example
///
/// ```rust
/// use xcc_tendermint::validator::Validator;
///
/// let v = Validator::new("val-0", 10);
/// assert_eq!(v.voting_power, 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Validator {
    /// The validator's address.
    pub address: ValidatorAddress,
    /// Human-readable name (moniker).
    pub name: String,
    /// Voting power; proportional to its weight in consensus.
    pub voting_power: u64,
}

impl Validator {
    /// Creates a validator from a moniker and voting power.
    pub fn new(name: impl Into<String>, voting_power: u64) -> Self {
        let name = name.into();
        Validator {
            address: ValidatorAddress::from_name(&name),
            name,
            voting_power,
        }
    }
}

/// An ordered set of validators with deterministic proposer rotation.
///
/// # Example
///
/// ```rust
/// use xcc_tendermint::validator::ValidatorSet;
///
/// let set = ValidatorSet::with_equal_power(5, 10);
/// assert_eq!(set.len(), 5);
/// assert_eq!(set.total_power(), 50);
/// // Two thirds of 50 is 33.33…, so quorum needs strictly more than that.
/// assert_eq!(set.quorum_threshold(), 34);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidatorSet {
    validators: Vec<Validator>,
}

impl ValidatorSet {
    /// Creates a set from explicit validators.
    ///
    /// # Panics
    ///
    /// Panics if `validators` is empty or total power is zero.
    pub fn new(validators: Vec<Validator>) -> Self {
        assert!(!validators.is_empty(), "validator set cannot be empty");
        let set = ValidatorSet { validators };
        assert!(
            set.total_power() > 0,
            "validator set must have positive power"
        );
        set
    }

    /// Creates `count` validators named `val-0 .. val-{count-1}` with equal
    /// voting power — the shape used throughout the paper's testnets.
    pub fn with_equal_power(count: usize, power_each: u64) -> Self {
        assert!(count > 0, "validator set cannot be empty");
        ValidatorSet::new(
            (0..count)
                .map(|i| Validator::new(format!("val-{i}"), power_each))
                .collect(),
        )
    }

    /// Number of validators.
    pub fn len(&self) -> usize {
        self.validators.len()
    }

    /// `true` when the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.validators.is_empty()
    }

    /// The validators in order.
    pub fn validators(&self) -> &[Validator] {
        &self.validators
    }

    /// Looks up a validator by address.
    pub fn get(&self, address: &ValidatorAddress) -> Option<&Validator> {
        self.validators.iter().find(|v| &v.address == address)
    }

    /// Sum of all voting power.
    pub fn total_power(&self) -> u64 {
        self.validators.iter().map(|v| v.voting_power).sum()
    }

    /// The minimum accumulated power a commit needs: strictly more than 2/3
    /// of the total voting power.
    pub fn quorum_threshold(&self) -> u64 {
        self.total_power() * 2 / 3 + 1
    }

    /// The proposer for a given height and round (weighted round-robin,
    /// simplified to deterministic rotation).
    pub fn proposer(&self, height: u64, round: u32) -> &Validator {
        let idx = ((height.wrapping_add(u64::from(round))) % self.validators.len() as u64) as usize;
        &self.validators[idx]
    }

    /// Hash of the validator set, recorded in block headers.
    pub fn hash(&self) -> Hash {
        let mut fields: Vec<Vec<u8>> = Vec::with_capacity(self.validators.len());
        for v in &self.validators {
            let mut bytes = v.address.0.as_bytes().to_vec();
            bytes.extend_from_slice(&v.voting_power.to_be_bytes());
            fields.push(bytes);
        }
        let refs: Vec<&[u8]> = fields.iter().map(|f| f.as_slice()).collect();
        hash_fields(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_power_set_has_expected_totals() {
        let set = ValidatorSet::with_equal_power(4, 25);
        assert_eq!(set.total_power(), 100);
        assert_eq!(set.quorum_threshold(), 67);
    }

    #[test]
    fn quorum_threshold_for_five_validators() {
        // The paper's testnet: 5 validators. 4 of 5 is a quorum, 3 is not.
        let set = ValidatorSet::with_equal_power(5, 1);
        assert_eq!(set.quorum_threshold(), 4);
    }

    #[test]
    fn proposer_rotates_with_height_and_round() {
        let set = ValidatorSet::with_equal_power(5, 1);
        let p1 = set.proposer(1, 0).address;
        let p2 = set.proposer(2, 0).address;
        let p1r1 = set.proposer(1, 1).address;
        assert_ne!(p1, p2);
        assert_eq!(p2, p1r1);
        // Rotation wraps around.
        assert_eq!(set.proposer(1, 0).address, set.proposer(6, 0).address);
    }

    #[test]
    fn validator_lookup_by_address() {
        let set = ValidatorSet::with_equal_power(3, 1);
        let addr = set.validators()[1].address;
        assert_eq!(set.get(&addr).unwrap().name, "val-1");
        assert!(set.get(&ValidatorAddress::from_name("unknown")).is_none());
    }

    #[test]
    fn hash_depends_on_membership_and_power() {
        let a = ValidatorSet::with_equal_power(3, 1);
        let b = ValidatorSet::with_equal_power(3, 2);
        let c = ValidatorSet::with_equal_power(4, 1);
        assert_ne!(a.hash(), b.hash());
        assert_ne!(a.hash(), c.hash());
        assert_eq!(a.hash(), ValidatorSet::with_equal_power(3, 1).hash());
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_set_is_rejected() {
        ValidatorSet::new(vec![]);
    }

    #[test]
    fn address_display_is_short_hex() {
        let v = Validator::new("val-7", 1);
        assert_eq!(v.address.to_string().len(), 8);
    }
}
