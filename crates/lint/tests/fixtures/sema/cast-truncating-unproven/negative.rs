//! Negative: every narrowing cast is proven lossless — the integer is
//! clamped under the target's max first, and the float is guarded
//! finite and non-negative and floored before the conversion. Casts
//! outside the cones: widenings, int→int narrowing (cone-gated), float
//! targets, and an audited conversion helper that proves its own cast.

pub fn run_study(xs: &[f64]) -> u64 {
    collect(xs)
}

fn collect(xs: &[f64]) -> u64 {
    let small = digest(xs.len() as u64);
    u64::from(small) + floor_ratio(xs.iter().sum())
}

fn digest(total: u64) -> u32 {
    let bounded = total.min(u32::MAX as u64);
    bounded as u32
}

fn floor_ratio(ratio: f64) -> u64 {
    let safe = if ratio.is_finite() && ratio >= 0.0 { ratio } else { 0.0 };
    safe.floor() as u64
}

pub fn int_to_float(n: usize) -> f64 {
    n as f64
}

pub fn ident_cast(n: u64) -> u32 {
    n as u32
}

pub fn float_to_float(x: f64) -> f64 {
    x.round() as f64
}

pub fn plain_call(v: &[f64]) -> usize {
    v.len() as usize
}

/// The audited single conversion point.
pub fn floor_index(x: f64) -> usize {
    debug_assert!(x.is_finite() && x >= 0.0);
    x.floor() as usize
}
