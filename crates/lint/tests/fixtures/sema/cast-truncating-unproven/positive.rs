//! Positive: a narrowing `as` cast whose operand interval spans the
//! whole source type (`run_study` → `collect` → `digest`), and float→int
//! casts outside any cone, which truncate or saturate wherever they are.

pub fn run_study(xs: &[u64]) -> u32 {
    collect(xs)
}

fn collect(xs: &[u64]) -> u32 {
    digest(xs.iter().sum())
}

fn digest(total: u64) -> u32 {
    total as u32 //~ cast-truncating-unproven
}

pub fn literal_cast() -> usize {
    0.75 as usize //~ cast-truncating-unproven
}

pub fn quota_floor(quotas: &[f64]) -> Vec<usize> {
    quotas.iter().map(|q| q.floor() as usize).collect() //~ cast-truncating-unproven
}

pub fn scaled_mass(x: f64, total: f64, scale: u64) -> u64 {
    ((x / total) * scale as f64).round() as u64 //~ cast-truncating-unproven
}

pub fn bucket(time_min: f64) -> u64 {
    time_min.ceil() as u64 //~ cast-truncating-unproven
}
