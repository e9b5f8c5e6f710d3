//! Hardware performance counters (paper Section 4.1).
//!
//! SmartBalance samples three groups of counters per thread at each
//! context switch: cycle counters (`cyBusy`, `cyIdle`, `cySleep`),
//! instruction counters (`I_total`, `I_mem`, `I_branch`) and
//! performance-degradation event counters (branch mispredictions,
//! L1I/L1D misses+accesses, I/D-TLB misses+accesses). From these the
//! derived rates used by the predictor (`I_msh`, `I_bsh`, `mr_*`) are
//! computed.

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A raw counter sample: absolute event counts accumulated over some
/// execution interval (a CFS slice, a scheduling period or an epoch).
///
/// Samples form a commutative monoid under `+` so per-slice samples can
/// be accumulated into per-period and per-epoch aggregates; `-` computes
/// the delta between two snapshots of a free-running counter bank.
///
/// # Examples
///
/// ```
/// use archsim::CounterSample;
///
/// let mut epoch = CounterSample::default();
/// let slice = CounterSample { instructions: 1_000, cy_busy: 500, ..Default::default() };
/// epoch += slice;
/// assert_eq!(epoch.instructions, 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CounterSample {
    /// Cycles spent doing computation.
    pub cy_busy: u64,
    /// Cycles lost to pipeline stalls / cache misses while a thread was
    /// scheduled.
    pub cy_idle: u64,
    /// Cycles stalled waiting on data-memory misses (subset of
    /// `cy_idle`) — the ARM `STALL_BACKEND_MEM` / Intel
    /// `CYCLE_ACTIVITY.STALLS_MEM_ANY` class of events.
    pub cy_mem_stall: u64,
    /// Cycles the core spent in a quiescent (no-runnable-thread) state.
    pub cy_sleep: u64,
    /// Total committed instructions (`I_total`).
    pub instructions: u64,
    /// Committed loads + stores (`I_mem`).
    pub mem_instructions: u64,
    /// Committed branches (`I_branch`).
    pub branch_instructions: u64,
    /// Mispredicted branches.
    pub branch_mispredicts: u64,
    /// L1 instruction-cache accesses.
    pub l1i_accesses: u64,
    /// L1 instruction-cache misses.
    pub l1i_misses: u64,
    /// L1 data-cache accesses.
    pub l1d_accesses: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// Instruction-TLB accesses.
    pub itlb_accesses: u64,
    /// Instruction-TLB misses.
    pub itlb_misses: u64,
    /// Data-TLB accesses.
    pub dtlb_accesses: u64,
    /// Data-TLB misses.
    pub dtlb_misses: u64,
}

impl CounterSample {
    /// An all-zero sample (same as `Default::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total non-sleep cycles (`cyBusy + cyIdle`).
    pub fn cy_active(&self) -> u64 {
        self.cy_busy + self.cy_idle
    }

    /// Average IPC over the active cycles of the sample; 0 when the
    /// sample contains no active cycles.
    pub fn ipc(&self) -> f64 {
        let active = self.cy_active();
        if active == 0 {
            0.0
        } else {
            count_to_f64(self.instructions) / count_to_f64(active)
        }
    }

    /// Share of memory instructions `I_msh = I_mem / I_total`; 0 for an
    /// empty sample.
    pub fn mem_share(&self) -> f64 {
        ratio(self.mem_instructions, self.instructions)
    }

    /// Share of branch instructions `I_bsh = I_branch / I_total`; 0 for
    /// an empty sample.
    pub fn branch_share(&self) -> f64 {
        ratio(self.branch_instructions, self.instructions)
    }

    /// Branch misprediction rate `mr_b`; 0 when no branches committed.
    pub fn branch_miss_rate(&self) -> f64 {
        ratio(self.branch_mispredicts, self.branch_instructions)
    }

    /// L1 instruction-cache miss rate `mr_$i`.
    pub fn l1i_miss_rate(&self) -> f64 {
        ratio(self.l1i_misses, self.l1i_accesses)
    }

    /// L1 data-cache miss rate `mr_$d`.
    pub fn l1d_miss_rate(&self) -> f64 {
        ratio(self.l1d_misses, self.l1d_accesses)
    }

    /// Instruction-TLB miss rate `mr_itlb`.
    pub fn itlb_miss_rate(&self) -> f64 {
        ratio(self.itlb_misses, self.itlb_accesses)
    }

    /// Data-TLB miss rate `mr_dtlb`.
    pub fn dtlb_miss_rate(&self) -> f64 {
        ratio(self.dtlb_misses, self.dtlb_accesses)
    }

    /// Memory-stall cycles per committed instruction; 0 for an empty
    /// sample.
    pub fn mem_stall_cpi(&self) -> f64 {
        ratio(self.cy_mem_stall, self.instructions)
    }

    /// `true` when every counter in the sample is zero.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Element-wise scaling by an integer repeat count: the aggregate of
    /// `n` identical slices. `u64` addition is associative and
    /// commutative, so `s.scaled(n)` equals folding `n` copies of `s`
    /// with `+` exactly — this is what lets the batched slice engine
    /// defer counter accumulation to one multiply per template instead
    /// of 16 adds per slice without changing a single bit.
    ///
    /// Uses wrapping multiplication deliberately: overflow here implies
    /// the equivalent repeated addition would have overflowed too.
    pub fn scaled(&self, n: u64) -> CounterSample {
        macro_rules! mul {
            ($f:ident) => {
                self.$f.wrapping_mul(n)
            };
        }
        CounterSample {
            cy_busy: mul!(cy_busy),
            cy_idle: mul!(cy_idle),
            cy_mem_stall: mul!(cy_mem_stall),
            cy_sleep: mul!(cy_sleep),
            instructions: mul!(instructions),
            mem_instructions: mul!(mem_instructions),
            branch_instructions: mul!(branch_instructions),
            branch_mispredicts: mul!(branch_mispredicts),
            l1i_accesses: mul!(l1i_accesses),
            l1i_misses: mul!(l1i_misses),
            l1d_accesses: mul!(l1d_accesses),
            l1d_misses: mul!(l1d_misses),
            itlb_accesses: mul!(itlb_accesses),
            itlb_misses: mul!(itlb_misses),
            dtlb_accesses: mul!(dtlb_accesses),
            dtlb_misses: mul!(dtlb_misses),
        }
    }

    /// Checked element-wise subtraction; `None` when `earlier` is not
    /// component-wise `<= self` (i.e. the counters were reset between the
    /// two snapshots).
    pub fn checked_delta(&self, earlier: &CounterSample) -> Option<CounterSample> {
        macro_rules! sub {
            ($f:ident) => {
                self.$f.checked_sub(earlier.$f)?
            };
        }
        Some(CounterSample {
            cy_busy: sub!(cy_busy),
            cy_idle: sub!(cy_idle),
            cy_mem_stall: sub!(cy_mem_stall),
            cy_sleep: sub!(cy_sleep),
            instructions: sub!(instructions),
            mem_instructions: sub!(mem_instructions),
            branch_instructions: sub!(branch_instructions),
            branch_mispredicts: sub!(branch_mispredicts),
            l1i_accesses: sub!(l1i_accesses),
            l1i_misses: sub!(l1i_misses),
            l1d_accesses: sub!(l1d_accesses),
            l1d_misses: sub!(l1d_misses),
            itlb_accesses: sub!(itlb_accesses),
            itlb_misses: sub!(itlb_misses),
            dtlb_accesses: sub!(dtlb_accesses),
            dtlb_misses: sub!(dtlb_misses),
        })
    }
}

/// Converts an event count to `f64`, the one sanctioned `u64 -> f64`
/// crossing in the accounting paths, where `clippy::as_conversions` is
/// denied.
///
/// Counter deltas over a scheduling epoch stay far below 2^53, so the
/// conversion is exact; the debug assertion documents (and, in tests,
/// enforces) that envelope rather than letting a silent rounding creep
/// into energy totals.
#[expect(
    clippy::as_conversions,
    reason = "the sanctioned u64->f64 crossing; exactness debug-asserted above"
)]
pub fn count_to_f64(n: u64) -> f64 {
    debug_assert!(
        n <= (1 << f64::MANTISSA_DIGITS),
        "count {n} exceeds the exact f64 integer range"
    );
    n as f64
}

/// Converts a collection length to `f64` exactly (see [`count_to_f64`]).
#[expect(
    clippy::as_conversions,
    reason = "usize -> u64 is lossless on every supported target"
)]
pub fn len_to_f64(n: usize) -> f64 {
    count_to_f64(n as u64)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        count_to_f64(num) / count_to_f64(den)
    }
}

macro_rules! elementwise {
    ($lhs:expr, $rhs:expr, $op:tt) => {
        CounterSample {
            cy_busy: $lhs.cy_busy $op $rhs.cy_busy,
            cy_idle: $lhs.cy_idle $op $rhs.cy_idle,
            cy_mem_stall: $lhs.cy_mem_stall $op $rhs.cy_mem_stall,
            cy_sleep: $lhs.cy_sleep $op $rhs.cy_sleep,
            instructions: $lhs.instructions $op $rhs.instructions,
            mem_instructions: $lhs.mem_instructions $op $rhs.mem_instructions,
            branch_instructions: $lhs.branch_instructions $op $rhs.branch_instructions,
            branch_mispredicts: $lhs.branch_mispredicts $op $rhs.branch_mispredicts,
            l1i_accesses: $lhs.l1i_accesses $op $rhs.l1i_accesses,
            l1i_misses: $lhs.l1i_misses $op $rhs.l1i_misses,
            l1d_accesses: $lhs.l1d_accesses $op $rhs.l1d_accesses,
            l1d_misses: $lhs.l1d_misses $op $rhs.l1d_misses,
            itlb_accesses: $lhs.itlb_accesses $op $rhs.itlb_accesses,
            itlb_misses: $lhs.itlb_misses $op $rhs.itlb_misses,
            dtlb_accesses: $lhs.dtlb_accesses $op $rhs.dtlb_accesses,
            dtlb_misses: $lhs.dtlb_misses $op $rhs.dtlb_misses,
        }
    };
}

impl Add for CounterSample {
    type Output = CounterSample;

    fn add(self, rhs: CounterSample) -> CounterSample {
        elementwise!(self, rhs, +)
    }
}

impl AddAssign for CounterSample {
    fn add_assign(&mut self, rhs: CounterSample) {
        *self = *self + rhs;
    }
}

impl Sub for CounterSample {
    type Output = CounterSample;

    /// Element-wise saturating delta between two snapshots.
    fn sub(self, rhs: CounterSample) -> CounterSample {
        CounterSample {
            cy_busy: self.cy_busy.saturating_sub(rhs.cy_busy),
            cy_idle: self.cy_idle.saturating_sub(rhs.cy_idle),
            cy_mem_stall: self.cy_mem_stall.saturating_sub(rhs.cy_mem_stall),
            cy_sleep: self.cy_sleep.saturating_sub(rhs.cy_sleep),
            instructions: self.instructions.saturating_sub(rhs.instructions),
            mem_instructions: self.mem_instructions.saturating_sub(rhs.mem_instructions),
            branch_instructions: self
                .branch_instructions
                .saturating_sub(rhs.branch_instructions),
            branch_mispredicts: self
                .branch_mispredicts
                .saturating_sub(rhs.branch_mispredicts),
            l1i_accesses: self.l1i_accesses.saturating_sub(rhs.l1i_accesses),
            l1i_misses: self.l1i_misses.saturating_sub(rhs.l1i_misses),
            l1d_accesses: self.l1d_accesses.saturating_sub(rhs.l1d_accesses),
            l1d_misses: self.l1d_misses.saturating_sub(rhs.l1d_misses),
            itlb_accesses: self.itlb_accesses.saturating_sub(rhs.itlb_accesses),
            itlb_misses: self.itlb_misses.saturating_sub(rhs.itlb_misses),
            dtlb_accesses: self.dtlb_accesses.saturating_sub(rhs.dtlb_accesses),
            dtlb_misses: self.dtlb_misses.saturating_sub(rhs.dtlb_misses),
        }
    }
}

impl std::iter::Sum for CounterSample {
    fn sum<I: Iterator<Item = CounterSample>>(iter: I) -> CounterSample {
        iter.fold(CounterSample::default(), |acc, s| acc + s)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;

    fn sample() -> CounterSample {
        CounterSample {
            cy_busy: 600,
            cy_idle: 400,
            cy_mem_stall: 200,
            cy_sleep: 0,
            instructions: 2_000,
            mem_instructions: 500,
            branch_instructions: 200,
            branch_mispredicts: 10,
            l1i_accesses: 2_000,
            l1i_misses: 20,
            l1d_accesses: 500,
            l1d_misses: 25,
            itlb_accesses: 2_000,
            itlb_misses: 2,
            dtlb_accesses: 500,
            dtlb_misses: 5,
        }
    }

    #[test]
    fn derived_rates() {
        let s = sample();
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.mem_share() - 0.25).abs() < 1e-12);
        assert!((s.branch_share() - 0.10).abs() < 1e-12);
        assert!((s.branch_miss_rate() - 0.05).abs() < 1e-12);
        assert!((s.l1i_miss_rate() - 0.01).abs() < 1e-12);
        assert!((s.l1d_miss_rate() - 0.05).abs() < 1e-12);
        assert!((s.itlb_miss_rate() - 0.001).abs() < 1e-12);
        assert!((s.dtlb_miss_rate() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_rates_are_zero() {
        let s = CounterSample::default();
        assert!(s.is_empty());
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mem_share(), 0.0);
        assert_eq!(s.branch_miss_rate(), 0.0);
    }

    #[test]
    fn add_accumulates_all_fields() {
        let s = sample();
        let total = s + s;
        assert_eq!(total.instructions, 4_000);
        assert_eq!(total.dtlb_misses, 10);
        assert_eq!(total.cy_busy, 1_200);
    }

    #[test]
    fn sub_is_saturating() {
        let s = sample();
        let zero = CounterSample::default() - s;
        assert!(zero.is_empty());
        let d = s - CounterSample::default();
        assert_eq!(d, s);
    }

    #[test]
    fn checked_delta_detects_reset() {
        let s = sample();
        assert_eq!(s.checked_delta(&CounterSample::default()), Some(s));
        assert_eq!(CounterSample::default().checked_delta(&s), None);
    }

    #[test]
    fn scaled_equals_repeated_addition() {
        let s = sample();
        let mut folded = CounterSample::default();
        for _ in 0..7 {
            folded += s;
        }
        assert_eq!(s.scaled(7), folded);
        assert_eq!(s.scaled(0), CounterSample::default());
        assert_eq!(s.scaled(1), s);
    }

    #[test]
    fn sum_of_slices() {
        let slices = vec![sample(), sample(), sample()];
        let total: CounterSample = slices.into_iter().sum();
        assert_eq!(total.instructions, 6_000);
    }
}
