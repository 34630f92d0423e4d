//! Deterministic fault injection: the adversarial weather of a run.
//!
//! The paper evaluates B-SUB under ideal radios — every contact
//! completes its filter exchange and message transfers perfectly. Real
//! human-network contacts are short, lossy and asymmetric, so this
//! module models the classic DTN stressors as a seeded, reproducible
//! [`FaultSpec`]:
//!
//! - **contact loss** — a contact fires but no exchange happens;
//! - **contact truncation** — the usable byte budget is cut to a
//!   fraction of the radio budget, forcing partial exchanges;
//! - **node churn** — nodes go down for whole intervals, losing their
//!   buffered copies and volatile routing state on rejoin;
//! - **control corruption** — a filter encoding arrives truncated or
//!   bit-flipped and must be rejected by `wire::decode` on the
//!   receiving side.
//!
//! # Determinism and monotonicity
//!
//! Fault decisions never consume the workload RNG: each is a *stateless
//! draw* keyed on the spec's seed, a per-fault salt, and the contact
//! index (or node × churn cell). A run with faults is therefore
//! byte-identical at any worker count, and two specs differing only in
//! intensity draw the *same* uniform value per site and compare it
//! against different thresholds — the set of faulted sites at intensity
//! `p` is a subset of the set at `p' > p`, which makes degradation
//! curves monotone by construction rather than by luck.

use bsub_bloom::SplitMix64;
use bsub_traces::{ContactEvent, NodeId, SimDuration, SimTime};

/// The fixed-point scale of fault probabilities: parts per million.
/// A probability `p` is expressed as `(p * f64::from(PPM)) as u32`.
pub const PPM: u32 = 1_000_000;

// Per-fault salts keeping the stateless draw streams independent of
// each other (and of everything else keyed on the same seed).
const SALT_LOSS: u64 = 0x1055_1055_1055_1055;
const SALT_TRUNC: u64 = 0x7235_7235_7235_7235;
const SALT_TRUNC_FRAC: u64 = 0xf12a_f12a_f12a_f12a;
const SALT_CHURN: u64 = 0xc503_c503_c503_c503;
const SALT_CORRUPT: u64 = 0xe221_e221_e221_e221;

/// A uniform draw in `[0, PPM)`, fully determined by `(seed, stream)`.
///
/// Because the value does not depend on any threshold, raising a fault
/// probability only *adds* sites to the faulted set — see the module
/// docs on monotonicity.
fn unit_draw(seed: u64, stream: u64) -> u32 {
    let mut rng = SplitMix64::new(SplitMix64::mix(seed, stream));
    rng.below(u64::from(PPM)) as u32
}

/// A deterministic fault model for one run.
///
/// The default [`FaultSpec::none`] injects nothing and is guaranteed
/// (and regression-tested) to leave every run bit-identical to a
/// simulation without the fault layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    seed: u64,
    contact_loss_ppm: u32,
    truncation_ppm: u32,
    churn_ppm: u32,
    churn_period: SimDuration,
    corruption_ppm: u32,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultSpec {
    /// The ideal-radio spec: no faults of any kind.
    #[must_use]
    pub const fn none() -> Self {
        Self {
            seed: 0,
            contact_loss_ppm: 0,
            truncation_ppm: 0,
            churn_ppm: 0,
            churn_period: SimDuration::ZERO,
            corruption_ppm: 0,
        }
    }

    /// Whether this spec injects nothing (the seed is irrelevant then).
    #[must_use]
    pub const fn is_none(&self) -> bool {
        self.contact_loss_ppm == 0
            && self.truncation_ppm == 0
            && self.churn_ppm == 0
            && self.corruption_ppm == 0
    }

    /// Sets the fault seed (independent of the workload seed).
    #[must_use]
    pub const fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Probability (in parts per million, ≤ [`PPM`]) that a contact is
    /// lost entirely: it still counts as a contact, but no exchange
    /// happens.
    ///
    /// # Panics
    ///
    /// Panics if `ppm > PPM`.
    #[must_use]
    pub const fn with_contact_loss(mut self, ppm: u32) -> Self {
        assert!(ppm <= PPM, "probability above 1.0");
        self.contact_loss_ppm = ppm;
        self
    }

    /// Probability (ppm) that a contact's byte budget is truncated to a
    /// uniformly drawn fraction of the radio budget.
    ///
    /// # Panics
    ///
    /// Panics if `ppm > PPM`.
    #[must_use]
    pub const fn with_truncation(mut self, ppm: u32) -> Self {
        assert!(ppm <= PPM, "probability above 1.0");
        self.truncation_ppm = ppm;
        self
    }

    /// Per-period probability (ppm) that a node is down for a whole
    /// churn cell of width `period`. A node that was down since its
    /// last contact loses its buffered copies and volatile routing
    /// state when it rejoins.
    ///
    /// # Panics
    ///
    /// Panics if `ppm > PPM`, or if `ppm > 0` with a zero `period`.
    #[must_use]
    pub const fn with_churn(mut self, ppm: u32, period: SimDuration) -> Self {
        assert!(ppm <= PPM, "probability above 1.0");
        assert!(ppm == 0 || !period.is_zero(), "churn needs a period");
        self.churn_ppm = ppm;
        self.churn_period = period;
        self
    }

    /// Probability (ppm) that a filter transmission arrives corrupted
    /// (truncated or bit-flipped) and is rejected by the receiver.
    ///
    /// # Panics
    ///
    /// Panics if `ppm > PPM`.
    #[must_use]
    pub const fn with_corruption(mut self, ppm: u32) -> Self {
        assert!(ppm <= PPM, "probability above 1.0");
        self.corruption_ppm = ppm;
        self
    }

    /// The corruption probability in ppm (0 disables the draw stream).
    #[must_use]
    pub const fn corruption_ppm(&self) -> u32 {
        self.corruption_ppm
    }

    /// Whether the contact at `index` in the trace is lost to radio
    /// failure.
    #[must_use]
    pub fn loses_contact(&self, index: u64) -> bool {
        self.contact_loss_ppm > 0 && unit_draw(self.seed ^ SALT_LOSS, index) < self.contact_loss_ppm
    }

    /// Whether (and how hard) the contact at `index` is truncated:
    /// `Some(keep_ppm)` means the byte budget shrinks to
    /// `keep_ppm / PPM` of the radio budget.
    ///
    /// The kept fraction is drawn from a stream independent of the
    /// fault *decision*, so raising the truncation probability truncates
    /// more contacts without changing how hard already-truncated ones
    /// are cut.
    #[must_use]
    pub fn truncates_contact(&self, index: u64) -> Option<u32> {
        if self.truncation_ppm == 0
            || unit_draw(self.seed ^ SALT_TRUNC, index) >= self.truncation_ppm
        {
            return None;
        }
        Some(unit_draw(self.seed ^ SALT_TRUNC_FRAC, index))
    }

    /// Whether `node` is down during churn cell `cell`.
    #[must_use]
    pub fn node_down(&self, node: NodeId, cell: u64) -> bool {
        self.churn_ppm > 0
            && unit_draw(
                self.seed ^ SALT_CHURN,
                SplitMix64::mix(node.index() as u64, cell),
            ) < self.churn_ppm
    }

    /// The churn cell containing `at` (cells are `churn_period` wide).
    /// Returns 0 when churn is disabled.
    #[must_use]
    pub fn churn_cell(&self, at: SimTime) -> u64 {
        if self.churn_ppm == 0 {
            return 0;
        }
        at.as_millis() / self.churn_period.as_millis()
    }

    /// The per-contact corruption draw stream for the contact at
    /// `index`. Each filter transmission of the contact consumes a
    /// fixed number of draws, so the stream stays aligned across
    /// intensity levels.
    #[must_use]
    pub fn corruption_stream(&self, index: u64) -> SplitMix64 {
        SplitMix64::new(SplitMix64::mix(self.seed ^ SALT_CORRUPT, index))
    }
}

/// How a control-plane encoding is damaged in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireCorruption {
    /// The transfer broke off: only a prefix of the encoding arrives.
    /// `keep_ppm / PPM` of the bytes survive (always at least one byte
    /// short of the full message).
    Truncate {
        /// Kept fraction of the encoding, in parts per million.
        keep_ppm: u32,
    },
    /// A single bit was flipped somewhere in the encoding.
    BitFlip {
        /// Raw draw selecting the flipped bit (taken modulo the
        /// encoding's bit length).
        bit: u64,
    },
}

impl WireCorruption {
    /// Applies the damage to an encoded buffer in place.
    pub fn apply(&self, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        match *self {
            WireCorruption::Truncate { keep_ppm } => {
                let keep = (bytes.len() as u64) * u64::from(keep_ppm) / u64::from(PPM);
                let keep = (keep as usize).min(bytes.len() - 1);
                bytes.truncate(keep);
            }
            WireCorruption::BitFlip { bit } => {
                let bit = bit % (bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
        }
    }
}

/// One node's churn bookkeeping: the churn cell it has been checked
/// through, and whether it still owes a state reset from a downtime it
/// has not rejoined from yet.
#[derive(Debug, Clone, Default)]
struct FaultCell {
    checked: u64,
    pending_reset: bool,
}

impl FaultCell {
    /// Advances this cell to the churn cell containing `at`. Any down
    /// cell seen on the way (including the current one) marks a pending
    /// reset; returns whether the node is down *now*.
    fn advance(&mut self, spec: &FaultSpec, node: NodeId, at: SimTime) -> bool {
        let cell = spec.churn_cell(at);
        for c in self.checked..=cell {
            if spec.node_down(node, c) {
                self.pending_reset = true;
            }
        }
        // The current cell is re-examined on the node's next contact,
        // which is harmless: a down cell marks the same pending reset
        // again, and the reset only fires once the node is back up.
        self.checked = cell;
        spec.node_down(node, cell)
    }
}

/// Per-run churn bookkeeping for every node, dense by node index: the
/// one fault input that depends on the run's history. Walk it once per
/// contact, in trace order, with [`FaultState::resets`].
#[derive(Debug)]
pub struct FaultState {
    cells: Vec<FaultCell>,
}

impl FaultState {
    /// Bookkeeping for `nodes` nodes, none of them owing a reset.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        Self {
            cells: vec![FaultCell::default(); nodes],
        }
    }

    /// Advances `contact`'s endpoints to its start and takes the resets
    /// they owe, `[a, b]`: an endpoint resets when it is up now and was
    /// down since its last contact (a down one keeps its reset pending).
    pub fn resets(&mut self, spec: &FaultSpec, contact: &ContactEvent) -> [bool; 2] {
        [contact.a, contact.b].map(|node| {
            let cell = &mut self.cells[node.index()];
            let down = cell.advance(spec, node, contact.start);
            !down && std::mem::take(&mut cell.pending_reset)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_injects_nothing() {
        let spec = FaultSpec::none();
        assert!(spec.is_none());
        assert_eq!(spec, FaultSpec::default());
        for i in 0..1000 {
            assert!(!spec.loses_contact(i));
            assert!(spec.truncates_contact(i).is_none());
            assert!(!spec.node_down(NodeId::new(0), i));
        }
    }

    #[test]
    fn draws_are_deterministic() {
        let a = FaultSpec::none().with_seed(9).with_contact_loss(PPM / 4);
        let b = a.clone();
        for i in 0..500 {
            assert_eq!(a.loses_contact(i), b.loses_contact(i));
        }
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let spec = FaultSpec::none().with_seed(1).with_contact_loss(PPM / 5);
        let lost = (0..10_000).filter(|&i| spec.loses_contact(i)).count();
        assert!((1700..2300).contains(&lost), "20% ± 3%, got {lost}");
    }

    #[test]
    fn fault_sets_nest_as_intensity_rises() {
        let low = FaultSpec::none()
            .with_seed(3)
            .with_contact_loss(PPM / 10)
            .with_truncation(PPM / 10);
        let high = FaultSpec::none()
            .with_seed(3)
            .with_contact_loss(PPM / 2)
            .with_truncation(PPM / 2);
        for i in 0..2000 {
            if low.loses_contact(i) {
                assert!(high.loses_contact(i), "loss set must nest");
            }
            if let Some(keep) = low.truncates_contact(i) {
                assert_eq!(
                    high.truncates_contact(i),
                    Some(keep),
                    "truncation set must nest with identical severity"
                );
            }
        }
    }

    #[test]
    fn fault_streams_are_independent() {
        let spec = FaultSpec::none()
            .with_seed(5)
            .with_contact_loss(PPM / 2)
            .with_truncation(PPM / 2);
        let both = (0..4000)
            .filter(|&i| spec.loses_contact(i) && spec.truncates_contact(i).is_some())
            .count();
        // Independent 50/50 streams intersect on ~25% of contacts; a
        // shared stream would give 0% or 50%.
        assert!((800..1200).contains(&both), "got {both}");
    }

    #[test]
    fn truncation_keep_fraction_is_in_range() {
        let spec = FaultSpec::none().with_seed(2).with_truncation(PPM);
        for i in 0..1000 {
            let keep = spec.truncates_contact(i).expect("p = 1");
            assert!(keep < PPM);
        }
    }

    #[test]
    fn corruption_applies_detectable_damage() {
        let original: Vec<u8> = (0u8..64).collect();

        let mut t = original.clone();
        WireCorruption::Truncate { keep_ppm: PPM }.apply(&mut t);
        assert_eq!(t.len(), 63, "truncation always loses at least a byte");
        let mut t = original.clone();
        WireCorruption::Truncate { keep_ppm: 0 }.apply(&mut t);
        assert!(t.is_empty());

        let mut f = original.clone();
        WireCorruption::BitFlip { bit: 8 * 64 + 3 }.apply(&mut f);
        assert_eq!(f.len(), original.len());
        assert_eq!(f[0], original[0] ^ 0b1000, "bit index wraps modulo len");

        let mut empty: Vec<u8> = Vec::new();
        WireCorruption::BitFlip { bit: 7 }.apply(&mut empty);
        WireCorruption::Truncate { keep_ppm: 0 }.apply(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn churn_cells_partition_time() {
        let spec = FaultSpec::none()
            .with_seed(4)
            .with_churn(PPM / 4, SimDuration::from_hours(1));
        assert_eq!(spec.churn_cell(SimTime::ZERO), 0);
        assert_eq!(spec.churn_cell(SimTime::from_secs(3599)), 0);
        assert_eq!(spec.churn_cell(SimTime::from_secs(3600)), 1);
    }

    #[test]
    fn churn_state_detects_downtime_between_contacts() {
        // Find a node/seed whose cell 1 is down but cells 0 and 2 are up.
        let period = SimDuration::from_hours(1);
        let spec = (0..64)
            .map(|s| FaultSpec::none().with_seed(s).with_churn(PPM / 3, period))
            .find(|spec| {
                let n = NodeId::new(0);
                !spec.node_down(n, 0) && spec.node_down(n, 1) && !spec.node_down(n, 2)
            })
            .expect("some seed produces the pattern");
        let node = NodeId::new(0);
        let take = |cell: &mut FaultCell| std::mem::take(&mut cell.pending_reset);
        let mut state = FaultCell::default();

        assert!(!state.advance(&spec, node, SimTime::from_secs(10)));
        assert!(!take(&mut state), "no downtime yet");

        // Contact while down: lost, no reset yet.
        assert!(state.advance(&spec, node, SimTime::from_secs(3600 + 10)));
        // First contact back up: the downtime is noticed exactly once.
        assert!(!state.advance(&spec, node, SimTime::from_secs(2 * 3600 + 10)));
        assert!(take(&mut state));
        assert!(!take(&mut state), "reset fires once");

        // Downtime is also detected when no contact happened during it.
        let mut skip = FaultCell::default();
        assert!(!skip.advance(&spec, node, SimTime::from_secs(10)));
        assert!(!skip.advance(&spec, node, SimTime::from_secs(2 * 3600 + 10)));
        assert!(take(&mut skip), "cell 1 downtime seen in the scan");
    }

    #[test]
    #[should_panic(expected = "probability above 1.0")]
    fn overscale_probability_rejected() {
        let _ = FaultSpec::none().with_contact_loss(PPM + 1);
    }

    #[test]
    #[should_panic(expected = "churn needs a period")]
    fn churn_without_period_rejected() {
        let _ = FaultSpec::none().with_churn(1, SimDuration::ZERO);
    }
}
