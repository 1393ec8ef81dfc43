//! Positive: the mean helper divides by a count no zero test dominates,
//! reachable transitively (`run_study` → `normalize` → `mean`); the
//! helpers below it are shapes no interval proof covers.

pub fn run_study(xs: &[f64], qs: &[u32], sel: bool) -> f64 {
    normalize(xs) + branch_only(xs, sel) + shrunk(xs.to_vec()) + other(qs, xs) + captured(xs)[0]
}

fn normalize(xs: &[f64]) -> f64 {
    mean(xs) + tuple_param(&[(3, 2)])
}

fn mean(xs: &[f64]) -> f64 {
    let n = xs.len();
    let total: f64 = xs.iter().sum();
    total / n as f64 //~ flow-unchecked-div
}

/// A zero test on one branch only does not dominate the division.
fn branch_only(xs: &[f64], sel: bool) -> f64 {
    let n = xs.len();
    if sel {
        assert!(n > 0);
    } else {
        skip();
    }
    xs[0] / n as f64 //~ flow-unchecked-div
}

/// A shrinking call drops the length fact the emptiness test gave.
fn shrunk(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.pop();
    1.0 / xs.len() as f64 //~ flow-unchecked-div
}

/// `top_k(…, qs.len(), …)` may return fewer entries than asked for:
/// asserting `qs` non-empty says nothing about `entries`.
fn other(qs: &[u32], entries: &[f64]) -> f64 {
    assert!(!qs.is_empty());
    entries.iter().sum::<f64>() / entries.len() as f64 //~ flow-unchecked-div
}

/// A captured divisor is judged in the enclosing environment.
fn captured(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    xs.iter().map(|x| x / n as f64).collect() //~ flow-unchecked-div
}

/// A tuple-pattern parameter's zero test guards only the element it
/// names: `sum` is tested, `n` divides.
fn tuple_param(pairs: &[(u64, u64)]) -> f64 {
    let mean = |(sum, n): (u64, u64)| if sum == 0 { 0.0 } else { sum as f64 / n as f64 }; //~ flow-unchecked-div
    pairs.iter().map(|&p| mean(p)).sum()
}
