//! Fixture: H1 violations, compiled by rustc as a crate root with the
//! workspace lint levels (`-D missing_docs -F unsafe_code`).

pub mod something {}

/// Documented, but reads through a raw pointer.
pub fn read(p: &u8) -> u8 {
    unsafe { *(p as *const u8) }
}
