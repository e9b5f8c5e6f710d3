// Fixture: N1-clean, compiled by clippy-driver with
// `clippy::as_conversions` denied as in the accounting modules. The
// sanctioned helper carries the single justified cast; everything else
// goes through it.
#[expect(
    clippy::as_conversions,
    reason = "the sanctioned u64->f64 crossing; exactness debug-asserted above"
)]
pub fn count_to_f64(n: u64) -> f64 {
    debug_assert!(n <= (1u64 << 53));
    n as f64
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        count_to_f64(num) / count_to_f64(den)
    }
}
