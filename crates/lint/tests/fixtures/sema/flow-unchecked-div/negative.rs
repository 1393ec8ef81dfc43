//! Negative: every division's divisor is proven nonzero — by a
//! dominating zero test, an emptiness guard, a clamp, float guards, a
//! predicate's summary, a guard in the enclosing fn of a closure, a zero
//! test on a tuple-pattern closure parameter, or an enumerate index — or
//! sits outside the cones.

pub fn run_study(xs: &[f64], span: f64) -> f64 {
    let mean = |(sum, n): (u64, u64)| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
    let _ = mean((3, 2));
    if xs.is_empty() {
        return 0.0;
    }
    let n = xs.len();
    let total: f64 = xs.iter().sum();
    let avg = total / n as f64;
    let rest = guarded(xs) + clamped(xs) + floats(1.0, 2.0, 3.0, 4.0) + folds(xs) + items(xs);
    avg / span.max(1e-9) + rest + captured(xs)[0]
}

fn guarded(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    xs.iter().sum::<f64>() / n as f64
}

fn clamped(xs: &[f64]) -> f64 {
    let n = xs.len().max(1);
    xs[0] / n as f64
}

pub const EPS: f64 = 1e-9;

fn approx_zero(x: f64) -> bool {
    x.abs() <= EPS
}

fn floats(a: f64, b: f64, c: f64, d: f64) -> f64 {
    if b == 0.0 || c <= 0.0 {
        return 0.0;
    }
    if approx_zero(d) {
        return 0.0;
    }
    let e = if a != 0.0 { 1.0 / a } else { 0.0 };
    e + 1.0 / b + 1.0 / c + 1.0 / d
}

fn captured(xs: &[f64]) -> Vec<f64> {
    let total: f64 = xs.iter().sum();
    if total <= 0.0 {
        return Vec::new();
    }
    xs.iter().map(|&x| x / total).collect()
}

/// Tuple lets, fn-local consts, and the right side of `&&`.
fn folds(xs: &[f64]) -> f64 {
    const SCALE: u64 = 4;
    let (mut n, mut s) = (0usize, 0.0);
    for x in xs {
        n += 1;
        s += x;
    }
    let _above = n > 0 && s / n as f64 > 0.5;
    if n == 0 {
        return 0.0;
    }
    s / n as f64 / SCALE as f64
}

fn items(xs: &[f64]) -> f64 {
    xs.iter().enumerate().map(|(i, x)| x / (i + 1) as f64).sum()
}

/// Outside the cones: nothing reaches it from the root.
pub fn helper(xs: &[f64]) -> f64 {
    let n = xs.len();
    xs[0] / n as f64
}
