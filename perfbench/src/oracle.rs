//! Correctness oracles kept apart from the program: each client's own
//! model of the counters it owns.
//!
//! Clients own disjoint slices of counters, so a client's model is the
//! whole truth about its slice: nobody else writes those counters.

use std::collections::BTreeMap;

/// One client's model of its counters.
#[derive(Debug, Clone, Default)]
pub struct Model {
    /// Acknowledged value of each counter.
    acked: BTreeMap<u64, u64>,
    /// Increments submitted to each counter whose outcome is unknown
    /// (the submission timed out); each may or may not have applied.
    unknown: BTreeMap<u64, u64>,
}

impl Model {
    /// A model of `counters`, each preloaded to `initial`.
    pub fn new(counters: impl IntoIterator<Item = u64>, initial: u64) -> Self {
        Model {
            acked: counters.into_iter().map(|c| (c, initial)).collect(),
            unknown: BTreeMap::new(),
        }
    }

    /// The counters this model covers.
    pub fn counters(&self) -> impl Iterator<Item = u64> + '_ {
        self.acked.keys().copied()
    }

    /// The acknowledged value of `counter`.
    pub fn acked(&self, counter: u64) -> u64 {
        self.acked.get(&counter).copied().unwrap_or(0)
    }

    /// A committed increment of `counter` returned `returned`: it must be
    /// the acknowledged value plus one. On success the model advances.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn commit_incr(&mut self, counter: u64, returned: u64) -> Result<(), String> {
        let want = self.acked(counter) + 1;
        // After an unknown outcome the returned value fixes how many of the
        // unknown increments applied; it must lie in the possible range.
        let unknown = self.unknown.get(&counter).copied().unwrap_or(0);
        if returned < want || returned > want + unknown {
            return Err(format!(
                "incr of counter {counter} returned {returned}, expected {want}..={}",
                want + unknown
            ));
        }
        self.acked.insert(counter, returned);
        self.unknown.remove(&counter);
        Ok(())
    }

    /// An increment of `counter` ended without a known outcome.
    pub fn unknown_incr(&mut self, counter: u64) {
        *self.unknown.entry(counter).or_default() += 1;
    }

    /// A read of `counter` returned `value`; with no unknown outcomes it
    /// must be exactly the acknowledged count (a stale read shows here).
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check_read(&self, counter: u64, value: u64) -> Result<(), String> {
        let acked = self.acked(counter);
        let unknown = self.unknown.get(&counter).copied().unwrap_or(0);
        if value < acked || value > acked + unknown {
            return Err(if unknown == 0 {
                format!("read of counter {counter} returned {value}, acknowledged {acked}")
            } else {
                format!(
                    "read of counter {counter} returned {value}, outside {acked}..={}",
                    acked + unknown
                )
            });
        }
        Ok(())
    }
}

/// The simulator's oracle: final counter values must equal the committed
/// increments recorded in the world's transaction results.
///
/// # Errors
///
/// Names the first counter whose value differs.
pub fn check_final(
    committed_incrs: &BTreeMap<u64, u64>,
    final_values: &BTreeMap<u64, u64>,
) -> Result<(), String> {
    for (&counter, &value) in final_values {
        let want = committed_incrs.get(&counter).copied().unwrap_or(0);
        if value != want {
            return Err(format!("counter {counter} ends at {value}, committed increments {want}"));
        }
    }
    for (&counter, &want) in committed_incrs {
        if !final_values.contains_key(&counter) {
            return Err(format!("counter {counter} missing, committed increments {want}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_must_return_previous_plus_one() {
        let mut m = Model::new([1, 2], 1);
        assert!(m.commit_incr(1, 2).is_ok());
        assert!(m.commit_incr(1, 3).is_ok());
        assert!(m.commit_incr(1, 3).is_err(), "a repeated value is a lost increment");
        assert!(m.commit_incr(2, 4).is_err(), "a skipped value is a doubled increment");
        assert_eq!(m.acked(1), 3);
    }

    #[test]
    fn read_must_equal_acknowledged_count() {
        let mut m = Model::new([5], 1);
        m.commit_incr(5, 2).unwrap();
        assert!(m.check_read(5, 2).is_ok());
        assert!(m.check_read(5, 1).is_err(), "stale read");
        assert!(m.check_read(5, 3).is_err(), "read from the future");
    }

    #[test]
    fn unknown_outcomes_widen_the_range() {
        let mut m = Model::new([9], 10);
        m.unknown_incr(9);
        m.unknown_incr(9);
        assert!(m.check_read(9, 10).is_ok());
        assert!(m.check_read(9, 12).is_ok());
        assert!(m.check_read(9, 13).is_err());
        assert!(m.check_read(9, 9).is_err());
        // The next commit settles how many applied.
        assert!(m.commit_incr(9, 14).is_err());
        assert!(m.commit_incr(9, 12).is_ok());
        assert!(m.check_read(9, 12).is_ok());
        assert!(m.check_read(9, 13).is_err());
    }

    #[test]
    fn final_values_must_match_committed_increments() {
        let committed: BTreeMap<u64, u64> = [(1, 3), (2, 1)].into_iter().collect();
        let good: BTreeMap<u64, u64> = [(1, 3), (2, 1)].into_iter().collect();
        assert!(check_final(&committed, &good).is_ok());
        let wrong: BTreeMap<u64, u64> = [(1, 3), (2, 2)].into_iter().collect();
        assert!(check_final(&committed, &wrong).is_err());
        let missing: BTreeMap<u64, u64> = [(1, 3)].into_iter().collect();
        assert!(check_final(&committed, &missing).is_err());
    }
}
