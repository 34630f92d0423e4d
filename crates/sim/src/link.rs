//! The bandwidth-limited contact link.
//!
//! Section VII-A: "The bandwidth of the wireless channel is 1 Mbps
//! [...] We assume that the average transmission rate is 250 Kbps."
//! A contact of duration `d` can therefore move at most `d × rate`
//! bytes; every transfer debits the budget, and a protocol that runs
//! out mid-contact simply stops sending (wireless errors are not
//! modeled, as in the paper).

use bsub_obs::{self as obs, Counter};
use bsub_traces::SimDuration;

/// The byte budget of one contact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    budget: u64,
    used: u64,
}

impl Link {
    /// A link with an explicit byte budget.
    #[must_use]
    pub const fn with_budget(budget: u64) -> Self {
        Self { budget, used: 0 }
    }

    /// A link for a contact of the given duration at
    /// `bytes_per_sec` effective rate.
    ///
    /// The budget is computed at the clock's millisecond resolution
    /// (`⌊ms × rate / 1000⌋`), which for whole-second durations equals
    /// the plain `secs × rate` product exactly.
    #[must_use]
    pub fn for_contact(duration: SimDuration, bytes_per_sec: u64) -> Self {
        let budget = u128::from(duration.as_millis()) * u128::from(bytes_per_sec) / 1000;
        Self::with_budget(u64::try_from(budget).unwrap_or(u64::MAX))
    }

    /// Attempts to transfer `bytes`; on success the budget is debited.
    /// Returns whether the transfer fit.
    pub fn try_transfer(&mut self, bytes: u64) -> bool {
        if self.remaining() >= bytes {
            self.used += bytes;
            true
        } else {
            obs::count(Counter::LinkExhausted, 1);
            false
        }
    }

    /// Bytes still available in this contact.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.budget - self.used
    }

    /// Bytes moved so far.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Total budget of the contact.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_from_contact_duration() {
        // 4 seconds at 250 Kbps = 125,000 bytes.
        let l = Link::for_contact(SimDuration::from_secs(4), 31_250);
        assert_eq!(l.budget(), 125_000);
        assert_eq!(l.remaining(), 125_000);
    }

    #[test]
    fn transfer_debits() {
        let mut l = Link::with_budget(100);
        assert!(l.try_transfer(60));
        assert_eq!(l.remaining(), 40);
        assert_eq!(l.used(), 60);
        assert!(!l.try_transfer(41), "over budget refused");
        assert_eq!(l.used(), 60, "failed transfer does not debit");
        assert!(l.try_transfer(40));
        assert_eq!(l.remaining(), 0);
    }

    #[test]
    fn zero_byte_transfer_always_fits() {
        let mut l = Link::with_budget(0);
        assert!(l.try_transfer(0));
        assert_eq!(l.remaining(), 0);
        assert!(!l.try_transfer(1));
    }

    #[test]
    fn zero_duration_contact_has_no_budget() {
        let l = Link::for_contact(SimDuration::ZERO, 31_250);
        assert_eq!(l.budget(), 0);
    }

    #[test]
    fn zero_rate_link_has_no_budget() {
        let mut l = Link::for_contact(SimDuration::from_hours(5), 0);
        assert_eq!(l.budget(), 0);
        assert_eq!(l.remaining(), 0);
        assert!(!l.try_transfer(1));
        assert!(l.try_transfer(0));
    }

    #[test]
    fn transfer_exactly_equal_to_remaining_fits() {
        let mut l = Link::with_budget(100);
        assert!(l.try_transfer(30));
        assert!(l.try_transfer(70), "exact remainder must fit");
        assert_eq!(l.remaining(), 0);
        assert!(!l.try_transfer(1));
        assert_eq!(l.used(), 100);
    }

    #[test]
    fn huge_contact_budget_saturates_instead_of_overflowing() {
        let l = Link::for_contact(SimDuration::from_millis(u64::MAX), u64::MAX);
        assert_eq!(l.budget(), u64::MAX);
        let mut l = Link::with_budget(u64::MAX);
        assert!(l.try_transfer(u64::MAX));
        assert_eq!(l.remaining(), 0);
    }

    #[test]
    fn sub_second_contact_gets_proportional_budget() {
        // 400 ms at 31,250 B/s = 12,500 bytes (was 0 at whole-second
        // resolution).
        let l = Link::for_contact(SimDuration::from_millis(400), 31_250);
        assert_eq!(l.budget(), 12_500);
    }
}
