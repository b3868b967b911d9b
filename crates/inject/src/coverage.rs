//! Basic-block coverage accounting.
//!
//! The paper measures code coverage with the targets' own tooling (gcov);
//! our simulated targets mark explicit basic blocks instead. A block is a
//! `(module, id)` pair; targets call [`Coverage::mark`] at each block entry,
//! and the impact metric consumes block counts (§7: "we use a combination
//! of code coverage and exit code of the test suite").

use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;

/// A set of covered basic blocks.
///
/// The set is a sorted vector without duplicates. One test covers a few
/// dozen blocks, so a binary search is cheaper than hashing, and marking
/// a block of a module named by a `&'static str` stores the name without
/// copying it. Names only become owned when a set is deserialized.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    hit: Vec<(Cow<'static, str>, u32)>,
}

impl Coverage {
    /// Creates empty coverage.
    pub fn new() -> Self {
        Coverage::default()
    }

    /// Marks block `id` of `module` as covered.
    pub fn mark(&mut self, module: &'static str, id: u32) {
        self.insert(Cow::Borrowed(module), id);
    }

    fn insert(&mut self, module: Cow<'static, str>, id: u32) {
        if let Err(at) = self.find(&module, id) {
            self.hit.insert(at, (module, id));
        }
    }

    fn find(&self, module: &str, id: u32) -> Result<usize, usize> {
        self.hit
            .binary_search_by(|(m, i)| (m.as_ref(), *i).cmp(&(module, id)))
    }

    /// Whether a specific block was covered.
    pub fn covers(&self, module: &str, id: u32) -> bool {
        self.find(module, id).is_ok()
    }

    /// Number of distinct blocks covered.
    pub fn blocks(&self) -> usize {
        self.hit.len()
    }

    /// Number of distinct blocks covered in one module.
    pub fn blocks_in(&self, module: &str) -> usize {
        self.hit.iter().filter(|(m, _)| m == module).count()
    }

    /// Coverage as a fraction of `total` declared blocks, in percent.
    /// Returns 0 when `total` is 0.
    pub fn percent_of(&self, total: usize) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.hit.len() as f64 * 100.0 / total as f64
        }
    }

    /// Merges another coverage set into this one (suite-level accumulation).
    pub fn merge(&mut self, other: &Coverage) {
        for (m, i) in &other.hit {
            self.insert(m.clone(), *i);
        }
    }

    /// Blocks covered by `self` but not `other` — used to quantify the
    /// *recovery code* surplus that fault injection buys (§7.2).
    pub fn difference(&self, other: &Coverage) -> usize {
        self.iter().filter(|&(m, i)| !other.covers(m, i)).count()
    }

    /// Iterates over covered blocks in `(module, id)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u32)> {
        self.hit.iter().map(|(m, i)| (m.as_ref(), *i))
    }
}

/// The serialized form is `{"hit": [[module, id], ...]}`.
impl Serialize for Coverage {
    fn to_value(&self) -> Value {
        let hit = self.iter().map(|block| block.to_value()).collect();
        Value::Object(vec![("hit".to_owned(), Value::Array(hit))])
    }
}

/// Accepts the blocks in any order, with or without duplicates.
impl Deserialize for Coverage {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected object for Coverage"))?;
        let hit: Vec<(String, u32)> = serde::field(obj, "hit")?;
        let mut coverage = Coverage::new();
        for (m, i) in hit {
            coverage.insert(Cow::Owned(m), i);
        }
        Ok(coverage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_is_idempotent() {
        let mut c = Coverage::new();
        c.mark("m", 1);
        c.mark("m", 1);
        c.mark("m", 2);
        assert_eq!(c.blocks(), 2);
        assert!(c.covers("m", 1));
        assert!(!c.covers("m", 3));
    }

    #[test]
    fn modules_are_distinct() {
        let mut c = Coverage::new();
        c.mark("a", 1);
        c.mark("b", 1);
        assert_eq!(c.blocks(), 2);
        assert_eq!(c.blocks_in("a"), 1);
        assert_eq!(c.blocks_in("c"), 0);
    }

    #[test]
    fn percent_of_total() {
        let mut c = Coverage::new();
        c.mark("m", 1);
        c.mark("m", 2);
        assert!((c.percent_of(8) - 25.0).abs() < 1e-9);
        assert_eq!(c.percent_of(0), 0.0);
    }

    #[test]
    fn merge_unions() {
        let mut a = Coverage::new();
        a.mark("m", 1);
        let mut b = Coverage::new();
        b.mark("m", 2);
        b.mark("m", 1);
        a.merge(&b);
        assert_eq!(a.blocks(), 2);
    }

    #[test]
    fn difference_counts_surplus() {
        let mut with_fi = Coverage::new();
        with_fi.mark("m", 1);
        with_fi.mark("m", 99); // Recovery block.
        let mut without = Coverage::new();
        without.mark("m", 1);
        assert_eq!(with_fi.difference(&without), 1);
        assert_eq!(without.difference(&with_fi), 0);
    }

    #[test]
    fn iter_lists_blocks() {
        let mut c = Coverage::new();
        c.mark("m", 7);
        let v: Vec<_> = c.iter().collect();
        assert_eq!(v, vec![("m", 7)]);
    }

    #[test]
    fn serde_roundtrips_in_any_order() {
        let mut c = Coverage::new();
        c.mark("wal", 3);
        c.mark("engine", 9);
        c.mark("engine", 1);
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(json, r#"{"hit":[["engine",1],["engine",9],["wal",3]]}"#);
        assert_eq!(serde_json::from_str::<Coverage>(&json).unwrap(), c);
        let shuffled = r#"{"hit":[["wal",3],["engine",1],["engine",9],["wal",3]]}"#;
        assert_eq!(serde_json::from_str::<Coverage>(shuffled).unwrap(), c);
    }
}
