//! Differential oracle for the abstract-interpretation transfer
//! functions: generate random straight-line integer programs, render
//! them to source, run the absint engine over the rendered text, and
//! execute the same program concretely (wrapping i64 semantics, the
//! semantics the transfer models) on a grid of inputs. Every concrete
//! value must land inside the interval the engine computed for its
//! variable — soundness of the transfers, checked point by point.

use fbox_lint::absint::domain::AbsVal;
use fbox_lint::config::Config;
use fbox_lint::sema::Model;
use fbox_lint::source::SourceFile;

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

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One generated statement: `let v{i} = <lhs> <op> <rhs>;` where the
/// operands are earlier variables or small literals.
#[derive(Clone, Copy)]
enum Operand {
    Var(usize),
    Lit(i64),
}

#[derive(Clone, Copy)]
enum Op {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
}

struct Stmt {
    op: Op,
    lhs: usize, // always a variable: keeps type inference trivial
    rhs: Operand,
}

/// Variable names: slot 0/1 are the clamped inputs `x`/`y`, the rest
/// are `v2`, `v3`, ….
fn var_name(slot: usize) -> String {
    match slot {
        0 => "x".to_owned(),
        1 => "y".to_owned(),
        n => format!("v{n}"),
    }
}

fn gen_program(rng: &mut Rng, len: usize) -> Vec<Stmt> {
    let mut stmts = Vec::with_capacity(len);
    for i in 0..len {
        let n_vars = 2 + i;
        let lhs = rng.below(n_vars as u64) as usize;
        // Multiplication only by small literals bounds chain growth to
        // 1000 * 9^len, far inside i64 — the concrete run never wraps,
        // so the raw (pre-fence) interval is the one being tested.
        let (op, rhs) = match rng.below(7) {
            0 => (Op::Add, Operand::Var(rng.below(n_vars as u64) as usize)),
            1 => (Op::Sub, Operand::Var(rng.below(n_vars as u64) as usize)),
            2 => (Op::Mul, Operand::Lit(rng.below(9) as i64 + 1)),
            3 => (Op::Div, Operand::Lit(rng.below(9) as i64 + 1)),
            4 => (Op::Rem, Operand::Lit(rng.below(9) as i64 + 1)),
            5 => (Op::Min, Operand::Var(rng.below(n_vars as u64) as usize)),
            _ => (Op::Max, Operand::Lit(rng.below(10) as i64)),
        };
        stmts.push(Stmt { op, lhs, rhs });
    }
    stmts
}

fn render(stmts: &[Stmt]) -> String {
    let mut src = String::from(
        "pub fn run_study(a: i64, b: i64) -> i64 {\n    let x0 = a.min(1000);\n    let x = x0.max(0);\n    let y0 = b.min(500);\n    let y = y0.max(0);\n",
    );
    for (i, s) in stmts.iter().enumerate() {
        let lhs = var_name(s.lhs);
        let rhs = match s.rhs {
            Operand::Var(v) => var_name(v),
            Operand::Lit(l) => l.to_string(),
        };
        let expr = match s.op {
            Op::Add => format!("{lhs} + {rhs}"),
            Op::Sub => format!("{lhs} - {rhs}"),
            Op::Mul => format!("{lhs} * {rhs}"),
            Op::Div => format!("{lhs} / {rhs}"),
            Op::Rem => format!("{lhs} % {rhs}"),
            Op::Min => format!("{lhs}.min({rhs})"),
            Op::Max => format!("{lhs}.max({rhs})"),
        };
        src.push_str(&format!("    let {} = {expr};\n", var_name(2 + i)));
    }
    src.push_str(&format!("    {}\n}}\n", var_name(1 + stmts.len())));
    src
}

/// Concrete execution under the semantics the transfers model:
/// wrapping two's-complement i64.
fn interpret(stmts: &[Stmt], a: i64, b: i64) -> Vec<i64> {
    let mut vals = vec![a.clamp(0, 1000), b.clamp(0, 500)];
    for s in stmts {
        let l = vals[s.lhs];
        let r = match s.rhs {
            Operand::Var(v) => vals[v],
            Operand::Lit(lit) => lit,
        };
        let v = match s.op {
            Op::Add => l.wrapping_add(r),
            Op::Sub => l.wrapping_sub(r),
            Op::Mul => l.wrapping_mul(r),
            Op::Div => l.wrapping_div(r),
            Op::Rem => l.wrapping_rem(r),
            Op::Min => l.min(r),
            Op::Max => l.max(r),
        };
        vals.push(v);
    }
    vals
}

const INPUT_GRID: &[i64] =
    &[i64::MIN, -1_000_000, -1000, -7, -1, 0, 1, 3, 499, 500, 999, 1000, 123_456, i64::MAX];

#[test]
fn random_straight_line_programs_stay_inside_their_intervals() {
    let mut imprecise = 0usize;
    let mut checked = 0usize;
    for seed in 1..=64u64 {
        let mut rng = Rng(seed);
        let len = 3 + rng.below(10) as usize;
        let stmts = gen_program(&mut rng, len);
        let src = render(&stmts);
        let files = vec![SourceFile::parse("crates/core/src/x.rs", &src)];
        let cfg = Config { sema_roots: vec!["run_study".into()], ..Config::default() };
        let model = Model::build(&files, &cfg);
        let id = model.nodes.iter().position(|n| n.simple == "run_study").expect("node");
        let fa = model.absint.fns[id].as_ref().expect("analyzed");
        assert!(!fa.diverged, "straight-line code reaches fixpoint:\n{src}");
        // The tail expression's IN-env sees every binding of the body.
        let tail_env = fa
            .envs
            .last()
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("tail statement unreached:\n{src}"));
        let ret = model.absint.summaries[id].as_ref().expect("summary").ret.interval();
        for &a in INPUT_GRID {
            for &b in INPUT_GRID {
                let vals = interpret(&stmts, a, b);
                for (slot, &val) in vals.iter().enumerate() {
                    match tail_env.get(var_name(slot).as_str()).and_then(AbsVal::interval) {
                        Some(iv) => {
                            checked += 1;
                            assert!(
                                iv.lo <= i128::from(val) && i128::from(val) <= iv.hi,
                                "{} = {val} escapes its interval [{}, {}] \
                                 for inputs ({a}, {b}) in:\n{src}",
                                var_name(slot),
                                iv.lo,
                                iv.hi,
                            );
                        }
                        None => imprecise += 1,
                    }
                }
                let result = *vals.last().expect("non-empty");
                if let Some(iv) = ret {
                    assert!(
                        iv.lo <= i128::from(result) && i128::from(result) <= iv.hi,
                        "return value {result} escapes [{}, {}] for ({a}, {b}) in:\n{src}",
                        iv.lo,
                        iv.hi,
                    );
                }
            }
        }
        // The oracle is vacuous if the engine degrades to ⊤ everywhere;
        // straight-line integer code must stay overwhelmingly precise.
        assert!(
            imprecise * 10 <= checked.max(1),
            "too many ⊤ variables ({imprecise} of {}):\n{src}",
            checked + imprecise
        );
    }
}
