//! Benchmark mixes (paper Table 3).
//!
//! | Mix | Members |
//! |-----|---------|
//! | Mix1 | x264_H crew, x264_H bow |
//! | Mix2 | x264_L crew, x264_L bow |
//! | Mix3 | x264_L crew, x264_H bow |
//! | Mix4 | x264_H crew, x264_L bow |
//! | Mix5 | bodytrack, x264_H crew |
//! | Mix6 | bodytrack, x264_H crew, x264_L bow |

use crate::parsec::{bodytrack, x264, X264Input};
use crate::profile::WorkloadProfile;

/// Identifier of a Table 3 mix (1–6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MixId(pub u8);

impl MixId {
    /// All six mixes of Table 3.
    pub const ALL: [MixId; 6] = [MixId(1), MixId(2), MixId(3), MixId(4), MixId(5), MixId(6)];

    /// Mix name as printed in the paper ("Mix1" .. "Mix6").
    pub fn name(&self) -> String {
        format!("Mix{}", self.0)
    }

    /// The member benchmark profiles of this mix, or `None` if the id
    /// is not in `1..=6` — the checked entry point for ids that come
    /// from user input (CLI flags, config files).
    pub fn try_members(&self) -> Option<Vec<WorkloadProfile>> {
        match self.0 {
            1 => Some(vec![
                x264(true, X264Input::Crew),
                x264(true, X264Input::Bowing),
            ]),
            2 => Some(vec![
                x264(false, X264Input::Crew),
                x264(false, X264Input::Bowing),
            ]),
            3 => Some(vec![
                x264(false, X264Input::Crew),
                x264(true, X264Input::Bowing),
            ]),
            4 => Some(vec![
                x264(true, X264Input::Crew),
                x264(false, X264Input::Bowing),
            ]),
            5 => Some(vec![bodytrack(), x264(true, X264Input::Crew)]),
            6 => Some(vec![
                bodytrack(),
                x264(true, X264Input::Crew),
                x264(false, X264Input::Bowing),
            ]),
            _ => None,
        }
    }

    /// The member benchmark profiles of this mix.
    ///
    /// # Panics
    ///
    /// Panics if the id is not in `1..=6`; use [`MixId::try_members`]
    /// for ids that are not known-valid.
    #[expect(
        clippy::panic,
        reason = "documented contract for known-valid ids; checked callers use try_members"
    )]
    pub fn members(&self) -> Vec<WorkloadProfile> {
        self.try_members()
            .unwrap_or_else(|| panic!("no such mix: Mix{} (valid: Mix1..Mix6)", self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_membership() {
        assert_eq!(MixId(1).members().len(), 2);
        assert_eq!(MixId(6).members().len(), 3);
        let m3: Vec<String> = MixId(3)
            .members()
            .iter()
            .map(|p| p.name().to_owned())
            .collect();
        assert_eq!(m3, vec!["x264_L_crew", "x264_H_bow"]);
        let m5: Vec<String> = MixId(5)
            .members()
            .iter()
            .map(|p| p.name().to_owned())
            .collect();
        assert_eq!(m5, vec!["bodytrack", "x264_H_crew"]);
    }

    #[test]
    fn names() {
        assert_eq!(MixId(1).name(), "Mix1");
        assert_eq!(MixId::ALL.len(), 6);
    }

    #[test]
    #[should_panic(expected = "no such mix")]
    fn bad_mix_panics() {
        MixId(7).members();
    }
}
