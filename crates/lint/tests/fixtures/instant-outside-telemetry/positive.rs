// Fixture: ad-hoc clock reads (this fixture stands in for any file
// outside crates/telemetry; the telemetry allowance is path scoping in
// Lint.toml, which the engine applies, not the rule).

use std::time::Instant;

pub fn timed_build() -> u128 {
    let start = Instant::now(); //~ instant-outside-telemetry
    start.elapsed().as_nanos()
}

pub fn fully_qualified() -> std::time::Instant {
    std::time::Instant::now() //~ instant-outside-telemetry
}

pub fn epoch_nanos() -> u128 {
    let t = std::time::SystemTime::now(); //~ instant-outside-telemetry
    t.duration_since(std::time::UNIX_EPOCH).map(|d| d.as_nanos()).unwrap_or(0)
}

// A clock read two calls below a study root (`run_study` → `measure` →
// `stamp`) is flagged where it is written, whoever calls it.
pub fn run_study() -> u64 {
    measure()
}

fn measure() -> u64 {
    stamp()
}

fn stamp() -> u64 {
    let start = std::time::Instant::now(); //~ instant-outside-telemetry
    start.elapsed().as_nanos() as u64
}
