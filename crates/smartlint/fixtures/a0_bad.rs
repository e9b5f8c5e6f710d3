// Fixture: A0 violations. Analyzed as crates/mcpat/src/model.rs.
// smartlint annotations that do not parse must be findings themselves,
// or a typo silently disables enforcement.

// smartlint: allow(float-width)
pub fn missing_reason(x: f64) -> f64 {
    x
}

// smartlint: allow(not-a-rule, "the key does not exist")
pub fn unknown_key() -> u64 {
    1
}
