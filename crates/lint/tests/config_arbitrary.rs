//! Arbitrary input for `Lint.toml`: `Config::parse` must answer `Ok` or
//! `Err` — never panic — on random bytes, on line-level mutations of the
//! workspace's real `Lint.toml`, and on every truncation of it. Inputs
//! come from a seeded generator, so a failure names a reproducible case.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use fbox_lint::config::Config;

/// Splitmix-style deterministic PRNG (no external crates, no clocks).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Bytes the configuration grammar gives meaning to, weighted in so
/// random input reaches past the first syntax check.
const GRAMMAR: &[u8] = b"[]=\"#,.\n\r\t -_rulesathcxpdny";

fn real_lint_toml() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root");
    std::fs::read_to_string(root.join("Lint.toml")).expect("Lint.toml is readable")
}

/// Parses `text`, failing the test with the input if the parser panics.
fn parse_total(case: &str, text: &str) -> bool {
    match catch_unwind(AssertUnwindSafe(|| Config::parse(text))) {
        Ok(result) => result.is_ok(),
        Err(_) => panic!("Config::parse panicked on {case}: {text:?}"),
    }
}

fn random_text(rng: &mut Rng) -> String {
    let len = rng.below(160);
    let bytes: Vec<u8> = (0..len)
        .map(|_| {
            if rng.below(2) == 0 {
                GRAMMAR[rng.below(GRAMMAR.len())]
            } else {
                (rng.next() & 0xff) as u8
            }
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

fn mutate_lines(rng: &mut Rng, base: &[&str]) -> String {
    let mut lines: Vec<String> = base.iter().map(|l| (*l).to_owned()).collect();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(lines.len());
        match rng.below(6) {
            0 => {
                lines.remove(at);
            }
            1 => {
                let copy = lines[at].clone();
                lines.insert(at, copy);
            }
            2 => {
                let other = rng.below(lines.len());
                lines.swap(at, other);
            }
            3 => lines.insert(at, random_text(rng)),
            4 => {
                // Cut the line at a char boundary.
                let cuts: Vec<usize> = lines[at].char_indices().map(|(i, _)| i).collect();
                if let Some(&cut) = cuts.get(rng.below(cuts.len())) {
                    lines[at].truncate(cut);
                }
            }
            _ => {
                let ch = GRAMMAR[rng.below(GRAMMAR.len())] as char;
                let at_char = rng.below(lines[at].chars().count() + 1);
                let mut line: Vec<char> = lines[at].chars().collect();
                line.insert(at_char, ch);
                lines[at] = line.into_iter().collect();
            }
        }
        if lines.is_empty() {
            lines.push(String::new());
        }
    }
    lines.join("\n")
}

#[test]
fn config_parse_is_total_on_arbitrary_input() {
    let started = Instant::now();
    let real = real_lint_toml();
    assert!(parse_total("the real Lint.toml", &real), "the committed Lint.toml must parse");

    let mut rng = Rng(0x1147_70a1);
    for case in 0..20_000 {
        parse_total(&format!("random case {case}"), &random_text(&mut rng));
    }

    let base: Vec<&str> = real.lines().collect();
    let mut accepted = 0;
    for case in 0..5_000 {
        accepted += usize::from(parse_total(
            &format!("mutation case {case}"),
            &mutate_lines(&mut rng, &base),
        ));
    }
    assert!(accepted > 0, "some mutations (a duplicated comment, say) must still parse");

    for (cut, _) in real.char_indices() {
        parse_total(&format!("truncation at byte {cut}"), &real[..cut]);
    }

    // The parser is a single pass per line; thousands of inputs stay far
    // inside this bound on any machine.
    assert!(started.elapsed() < Duration::from_secs(60), "parsing took {:?}", started.elapsed());
}
