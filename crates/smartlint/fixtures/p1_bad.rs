// Fixture: P1 violations, compiled by clippy-driver with the library
// roots' panic-hygiene lints denied. Unjustified panics in library code.
pub fn first(xs: &[u64]) -> u64 {
    *xs.first().unwrap()
}

pub fn named(x: Option<u64>) -> u64 {
    x.expect("caller passed Some")
}

pub fn reject(kind: u32) -> u32 {
    match kind {
        0 => 1,
        _ => panic!("unknown kind {kind}"),
    }
}
