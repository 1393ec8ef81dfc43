// Fixture: unwraps that must NOT be flagged — test-gated code, fn
// definitions, path references, comment/string mentions, and an
// `expect` that names its invariant.

pub fn shipped(x: Option<f64>) -> f64 {
    // a comment saying .unwrap() is fine
    let msg = "calling .unwrap() here would panic";
    x.unwrap_or(0.0) + msg.len() as f64
}

pub struct Wrapper(f64);

impl Wrapper {
    /// A method *named* unwrap is a definition, not a call.
    pub fn unwrap(self) -> f64 {
        self.0
    }
}

pub fn by_path(values: Vec<Option<f64>>) -> Vec<f64> {
    values.into_iter().map(Option::unwrap_or_default).collect()
}

pub fn named(x: Option<u64>) -> u64 {
    x.expect("named invariant")
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let x: Option<u32> = Some(1);
        assert_eq!(x.unwrap(), 1);
    }
}
