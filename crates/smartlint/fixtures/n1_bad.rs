// Fixture: N1 violations, compiled by clippy-driver with
// `clippy::as_conversions` denied as in the accounting modules. Bare
// float->int and int->float casts.
pub fn lossy_total(x: f64) -> u64 {
    x as u64
}

pub fn unchecked_ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}
