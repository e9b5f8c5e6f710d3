// Fixture: P1-clean, compiled by clippy-driver with the library roots'
// panic-hygiene lints denied. Result/Option flow plus one justified
// panic, whose `#[expect]` must be fulfilled.
pub fn first(xs: &[u64]) -> Option<u64> {
    xs.first().copied()
}

#[expect(
    clippy::expect_used,
    reason = "invariant: the constructor rejected None before this point"
)]
pub fn checked(x: Option<u64>) -> u64 {
    x.expect("validated at construction")
}

pub fn saturating(kind: u32) -> u32 {
    kind.saturating_add(1)
}
