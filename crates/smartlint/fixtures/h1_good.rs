//! Fixture: H1-clean, compiled by rustc as a crate root with the
//! workspace lint levels (`-D missing_docs -F unsafe_code`). Every
//! public item is documented except one, whose `#[expect]` must be
//! fulfilled.

/// A documented module.
pub mod something {}

#[expect(missing_docs, reason = "stands in for a macro-generated entry point")]
pub fn generated() {}
