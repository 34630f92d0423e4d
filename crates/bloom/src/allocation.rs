//! Dynamic TCBF allocation for optimal false-positive rate
//! (Section VI-D of the paper).
//!
//! Instead of letting one filter saturate, a node can spread its keys
//! across a small collection of TCBFs, allocating a new one whenever
//! the current filter's fill ratio exceeds a threshold θ. Querying the
//! collection has the *joint* FPR of Eq. 7, and the memory cost follows
//! the wire model of Eq. 8. Given a storage bound `S_max`, Eq. 9–10 ask
//! for the filter count `h` minimizing the joint FPR; since both the
//! memory and the FPR-relevant quantities are monotone in `h`, the
//! optimum is the **largest feasible `h`**, found by binary search
//! ([`AllocationPlan::solve`]). The fill ratio corresponding to
//! `n_keys / h` keys per filter becomes the allocation threshold θ.
//!
//! This module solves the plan; the analysis sweeps report it. No
//! component of the system runs a multi-filter collection: nodes keep
//! one TCBF each, and the broker matching index uses exact position
//! postings.

use crate::error::Error;
use crate::math;
use crate::wire::{self, CounterMode};

/// The solved parameters of a multi-TCBF allocation (Eq. 9–10).
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationPlan {
    /// Number of filters `h`.
    pub filters: usize,
    /// Expected keys per filter (`n / h`).
    pub keys_per_filter: f64,
    /// Fill-ratio threshold θ at which a new filter is allocated.
    pub fr_threshold: f64,
    /// Joint false-positive rate of the plan (Eq. 7).
    pub joint_fpr: f64,
    /// Expected wire memory of the plan in bytes (Eq. 8 model).
    pub memory_bytes: usize,
}

impl AllocationPlan {
    /// Solves Eq. 9–10: finds the largest `h` whose expected memory fits
    /// in `max_bytes` when `n_keys` keys are split evenly across `h`
    /// filters of `m` bits and `k` hashes, and derives the fill-ratio
    /// threshold θ.
    ///
    /// The paper notes the FPR-minimizing `h` is the maximum feasible
    /// one, found here by binary search over `[1, n_keys]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Infeasible`] if even a single filter exceeds
    /// `max_bytes`, and [`Error::InvalidParams`] for zero `m`, `k`, or
    /// `n_keys`.
    pub fn solve(m: usize, k: usize, n_keys: usize, max_bytes: usize) -> Result<Self, Error> {
        if m == 0 || k == 0 {
            return Err(Error::InvalidParams {
                reason: "m and k must be positive",
            });
        }
        if n_keys == 0 {
            return Err(Error::InvalidParams {
                reason: "allocation needs at least one key",
            });
        }
        if Self::memory_for(m, k, n_keys, 1) > max_bytes {
            return Err(Error::Infeasible {
                reason: "even one filter exceeds the storage bound",
            });
        }
        // Memory is monotone non-decreasing in h (splitting keys lowers
        // per-filter collisions, so the total number of distinct set
        // bits grows), so binary search for the largest feasible h.
        let (mut lo, mut hi) = (1usize, n_keys);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if Self::memory_for(m, k, n_keys, mid) <= max_bytes {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let h = lo;
        let per = n_keys as f64 / h as f64;
        Ok(Self {
            filters: h,
            keys_per_filter: per,
            fr_threshold: math::fill_ratio(m, k, per),
            joint_fpr: math::joint_false_positive_rate(m, k, &vec![per; h]),
            memory_bytes: Self::memory_for(m, k, n_keys, h),
        })
    }

    /// Expected wire memory (bytes) of `h` filters evenly holding
    /// `n_keys` keys, using the full-counter wire mode.
    fn memory_for(m: usize, k: usize, n_keys: usize, h: usize) -> usize {
        let per = n_keys as f64 / h as f64;
        let set_bits = math::expected_set_bits(m, k, per).ceil() as usize;
        h * wire::encoded_len(set_bits.min(m), m, CounterMode::Full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_maximizes_filter_count_under_budget() {
        let tight = AllocationPlan::solve(256, 4, 100, 600).unwrap();
        let loose = AllocationPlan::solve(256, 4, 100, 4000).unwrap();
        assert!(loose.filters >= tight.filters);
        assert!(loose.joint_fpr <= tight.joint_fpr + 1e-12);
        assert!(tight.memory_bytes <= 600);
        assert!(loose.memory_bytes <= 4000);
    }

    #[test]
    fn plan_infeasible_budget() {
        assert!(matches!(
            AllocationPlan::solve(256, 4, 100, 10),
            Err(Error::Infeasible { .. })
        ));
    }

    #[test]
    fn plan_rejects_zero_keys() {
        assert!(matches!(
            AllocationPlan::solve(256, 4, 0, 1000),
            Err(Error::InvalidParams { .. })
        ));
    }

    #[test]
    fn plan_threshold_matches_keys_per_filter() {
        let plan = AllocationPlan::solve(256, 4, 80, 2000).unwrap();
        let fr = math::fill_ratio(256, 4, plan.keys_per_filter);
        assert!((plan.fr_threshold - fr).abs() < 1e-12);
        assert!(plan.fr_threshold > 0.0 && plan.fr_threshold < 1.0);
    }

    #[test]
    fn plan_h_bounded_by_keys() {
        let plan = AllocationPlan::solve(256, 4, 5, usize::MAX / 2).unwrap();
        assert!(plan.filters <= 5);
    }
}
