// Fixture: `.unwrap()` and bare `.expect(…)` in library code. Lines
// tagged `//~ <rule>` must be flagged, nothing else.

pub fn cell_value(cells: &[f64], idx: usize) -> f64 {
    let first = cells.first().unwrap(); //~ unwrap-in-lib
    let last = cells.get(idx).copied().unwrap(); //~ unwrap-in-lib
    first + last
}

pub fn parse_rank(text: &str) -> usize {
    text.trim().parse().unwrap() //~ unwrap-in-lib
}

// A panic two calls below a parallel closure (`par_map` closure →
// `normalize` → `checked_double`) is flagged where it is written.
pub fn shard(pool: &Pool, xs: &[u64]) -> Vec<u64> {
    pool.par_map(xs, |x| normalize(*x))
}

fn normalize(x: u64) -> u64 {
    checked_double(x)
}

fn checked_double(x: u64) -> u64 {
    x.checked_mul(2).unwrap() //~ unwrap-in-lib
}

// An `expect` whose message is not one non-empty string literal names
// no invariant.
pub fn computed_message(x: Option<u64>, why: &str) -> u64 {
    x.expect(why) //~ unwrap-in-lib
}

pub fn empty_message(x: Option<u64>) -> u64 {
    x.expect("") //~ unwrap-in-lib
}
