//! Arbitrary input for the JSON parser: `json::parse` must answer `Ok` or
//! `Err` — never panic, never overflow the stack — on random bytes, on
//! every truncation and every single-bit flip of a committed bench
//! trajectory file, and on deep nests. Whatever it accepts must write back
//! (compact and pretty) to text that parses to the same value. Inputs come
//! from a seeded generator, so a failure names a reproducible case.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use serde::json::{self, MAX_DEPTH};
use serde::{Number, Value};

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

/// Bytes the JSON grammar gives meaning to, weighted in so random input
/// reaches past the first syntax check.
const GRAMMAR: &[u8] = b"[]{}:,\"\\/-+.eE0123456789 \n\tnulltruefalseu";

fn bench_file() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root");
    std::fs::read_to_string(root.join("BENCH_mitigate.json")).expect("BENCH_mitigate.json")
}

/// Parses `text`, failing the test with the input if the parser panics or
/// an accepted value does not round-trip. Returns whether it parsed.
fn parse_total(case: &str, text: &str) -> bool {
    let parsed = match catch_unwind(AssertUnwindSafe(|| json::parse(text))) {
        Ok(result) => result,
        Err(_) => panic!("json::parse panicked on {case}: {text:?}"),
    };
    let Ok(value) = parsed else { return false };
    for written in [json::to_string(&value), json::to_string_pretty(&value)] {
        assert_eq!(json::parse(&written).as_ref(), Ok(&value), "{case}: {text:?} → {written:?}");
    }
    true
}

fn random_text(rng: &mut Rng) -> String {
    let len = rng.below(160);
    let bytes: Vec<u8> = (0..len)
        .map(|_| {
            if rng.below(4) == 0 {
                (rng.next() & 0xff) as u8
            } else {
                GRAMMAR[rng.below(GRAMMAR.len())]
            }
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn parse_is_total_on_arbitrary_input() {
    let started = Instant::now();
    let mut rng = Rng(0x150a_4b17);
    let mut accepted = 0;
    for case in 0..20_000 {
        accepted +=
            usize::from(parse_total(&format!("random case {case}"), &random_text(&mut rng)));
    }
    assert!(accepted > 0, "some random texts (a bare number, say) must parse");

    let bench = bench_file();
    assert!(parse_total("BENCH_mitigate.json", &bench), "the committed file must parse");
    for (cut, _) in bench.char_indices() {
        parse_total(&format!("truncation at byte {cut}"), &bench[..cut]);
    }
    let bytes = bench.as_bytes();
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        parse_total(&format!("bit flip {bit}"), &String::from_utf8_lossy(&flipped));
    }

    // One pass per input; tens of thousands of inputs stay far inside
    // this bound on any machine.
    assert!(started.elapsed() < Duration::from_secs(60), "parsing took {:?}", started.elapsed());
}

#[test]
fn deep_nests_are_errors_not_stack_overflows() {
    for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
        let within = format!("{}0{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
        assert!(parse_total(&format!("{MAX_DEPTH} × {open}"), &within), "the cap itself parses");
        let beyond = format!("{}0{}", open.repeat(MAX_DEPTH + 1), close.repeat(MAX_DEPTH + 1));
        assert!(!parse_total(&format!("{} × {open}", MAX_DEPTH + 1), &beyond));
        let unclosed = open.repeat(100_000);
        assert!(json::parse(&unclosed).is_err(), "100,000 × {open} must be an error");
    }
    let mixed = "[{\"a\":".repeat(MAX_DEPTH);
    assert!(json::parse(&mixed).unwrap_err().to_string().contains("nesting deeper"));
}

#[test]
fn edge_numbers_round_trip_or_fail() {
    let number = |text: &str| {
        json::parse(text).map(|v| match v {
            Value::Number(n) => n,
            other => panic!("{text} parsed to {other:?}"),
        })
    };
    // `-0` is the unsigned zero: `I64` holds negatives only.
    assert_eq!(number("-0"), Ok(Number::U64(0)));
    // JSON has no infinities.
    assert!(number("1e999").is_err());
    assert!(number("-1e999").is_err());
    // Integral floats from 1e15 up keep their float type through a write.
    for f in [1e15, -1e15, 1e20, 1.5e300] {
        let text = json::to_string(&Value::Number(Number::F64(f)));
        assert_eq!(number(&text), Ok(Number::F64(f)), "{f} wrote {text}");
    }
    for text in ["-0", "0", "-7", "18446744073709551615", "1e-400", "2.5E+3", "1."] {
        parse_total(text, text);
    }
}
