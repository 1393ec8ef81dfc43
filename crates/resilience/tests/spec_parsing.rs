//! Arbitrary-input loop over the `FBOX_FAULTS` spec parsers
//! ([`Resilience::parse_spec`], [`StoragePlan::parse_spec`]).
//!
//! Contract: every input parses to `None` or to a plan that round-trips
//! through its canonical `<seed>:<profile>` spelling, and no input
//! panics. The loop only parses and compares; it never acts on a plan.

use fbox_resilience::{FaultPlan, FaultProfile, Resilience, StoragePlan, StorageProfile};
use std::panic::catch_unwind;

const PROFILES: [&str; 4] = ["none", "mild", "heavy", "bursty"];

/// Characters the generated specs are drawn from: the spec grammar's own
/// (digits, `:`, profile letters, whitespace) plus signs, separators, a
/// NUL and multi-byte characters.
const ALPHABET: &[char] = &[
    '0', '1', '2', '9', ':', ':', ' ', '\t', '\n', 'n', 'o', 'e', 'm', 'i', 'l', 'd', 'h', 'a',
    'v', 'y', 'b', 'u', 'r', 's', 't', '+', '-', '.', 'x', '\0', 'é', '🦀',
];

/// SplitMix64: a seeded stream with no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pad(&mut self) -> &'static str {
        ["", " ", "\t", "  \n"][self.below(4)]
    }
}

/// A well-formed spec, with the seed and profile name it spells.
fn valid_spec(rng: &mut Rng) -> (String, u64, Option<&'static str>) {
    let seed = match rng.below(3) {
        0 => rng.below(100) as u64,
        1 => u64::MAX - rng.below(3) as u64,
        _ => rng.next(),
    };
    let (p0, p1, p2, p3) = (rng.pad(), rng.pad(), rng.pad(), rng.pad());
    if rng.below(4) == 0 {
        return (format!("{p0}{seed}{p1}"), seed, None);
    }
    let name = PROFILES[rng.below(PROFILES.len())];
    (format!("{p0}{seed}{p1}:{p2}{name}{p3}"), seed, Some(name))
}

/// A spec from random characters, or a valid one with a few random
/// insertions, deletions and replacements.
fn arbitrary_spec(rng: &mut Rng) -> String {
    let mut chars: Vec<char> = if rng.below(2) == 0 {
        (0..rng.below(24)).map(|_| ALPHABET[rng.below(ALPHABET.len())]).collect()
    } else {
        valid_spec(rng).0.chars().collect()
    };
    for _ in 0..rng.below(4) {
        let c = ALPHABET[rng.below(ALPHABET.len())];
        match rng.below(3) {
            0 => chars.insert(rng.below(chars.len() + 1), c),
            1 if !chars.is_empty() => {
                chars.remove(rng.below(chars.len()));
            }
            _ if !chars.is_empty() => {
                let i = rng.below(chars.len());
                chars[i] = c;
            }
            _ => {}
        }
    }
    chars.into_iter().collect()
}

/// The canonical spelling of a parsed transport configuration.
fn canonical_transport(r: &Resilience) -> String {
    let name = PROFILES
        .iter()
        .find(|&&n| FaultProfile::by_name(n) == Some(*r.plan.profile()))
        .expect("a parsed plan carries a named profile");
    format!("{}:{name}", r.plan.seed())
}

/// The canonical spelling of a parsed storage plan.
fn canonical_storage(p: &StoragePlan) -> String {
    let name = PROFILES
        .iter()
        .find(|&&n| StorageProfile::by_name(n) == Some(*p.profile()))
        .expect("a parsed plan carries a named profile");
    format!("{}:{name}", p.seed())
}

/// Parses `spec` with both parsers, never panicking, and checks that
/// whatever parses round-trips; returns both results.
fn check(spec: &str) -> (Option<Resilience>, Option<StoragePlan>) {
    let transport = catch_unwind(|| Resilience::parse_spec(spec))
        .unwrap_or_else(|_| panic!("Resilience::parse_spec panicked on {spec:?}"));
    let storage = catch_unwind(|| StoragePlan::parse_spec(spec))
        .unwrap_or_else(|_| panic!("StoragePlan::parse_spec panicked on {spec:?}"));
    if let Some(r) = &transport {
        let again = Resilience::parse_spec(&canonical_transport(r));
        assert_eq!(again.as_ref(), Some(r), "transport plan of {spec:?} does not round-trip");
    }
    if let Some(p) = &storage {
        let again = StoragePlan::parse_spec(&canonical_storage(p));
        assert_eq!(again.as_ref(), Some(p), "storage plan of {spec:?} does not round-trip");
    }
    // One grammar feeds both layers.
    assert_eq!(transport.is_some(), storage.is_some(), "parsers disagree on {spec:?}");
    (transport, storage)
}

#[test]
fn arbitrary_specs_parse_to_none_or_a_round_tripping_plan() {
    let mut rng = Rng(0xF0_0D5);
    let mut parsed = 0;
    for _ in 0..20_000 {
        let spec = arbitrary_spec(&mut rng);
        parsed += usize::from(check(&spec).0.is_some());
    }
    // The loop must reach both outcomes to mean anything.
    assert!(parsed > 100, "only {parsed} arbitrary specs parsed");
}

#[test]
fn valid_specs_parse_to_the_plan_they_spell() {
    let mut rng = Rng(0x5EED);
    for _ in 0..5_000 {
        let (spec, seed, name) = valid_spec(&mut rng);
        let (transport, storage) = check(&spec);
        let name = name.unwrap_or("mild");
        let want = Resilience::with_plan(FaultPlan::new(
            seed,
            FaultProfile::by_name(name).expect("known profile"),
        ));
        assert_eq!(transport, Some(want), "{spec:?}");
        let want = StoragePlan::new(seed, StorageProfile::by_name(name).expect("known profile"));
        assert_eq!(storage, Some(want), "{spec:?}");
    }
}
