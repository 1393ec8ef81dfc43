//! The abstract domains: signed-128-bit integer intervals with widening,
//! machine-integer kinds, and a finite lattice of float range facts.
//!
//! Intervals use `i128::MIN` / `i128::MAX` as the ±∞ sentinels and
//! saturate toward them, so "unbounded" and "at the i128 extreme" are
//! deliberately conflated — the workspace's arithmetic lives at u64 scale
//! and below, and saturation only ever *widens* an interval, never
//! narrows it, so every approximation stays sound (the differential
//! oracle in `crates/lint/tests/absint_oracle.rs` fuzzes exactly this
//! contract). Floats get a fact set rather than an interval: the measure
//! kernels' invariants are "is a probability", "is finite", "can't be
//! zero" — range *shapes*, not ranges.

use std::fmt;

/// Negative-infinity sentinel for interval bounds.
pub const NEG_INF: i128 = i128::MIN;
/// Positive-infinity sentinel for interval bounds.
pub const POS_INF: i128 = i128::MAX;

/// A closed integer interval `[lo, hi]` over i128 with ±∞ sentinels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound ([`NEG_INF`] = unbounded below).
    pub lo: i128,
    /// Upper bound ([`POS_INF`] = unbounded above).
    pub hi: i128,
}

/// Saturating addition that keeps the infinity sentinels absorbing.
fn sat_add(a: i128, b: i128) -> i128 {
    if a == NEG_INF || b == NEG_INF {
        NEG_INF
    } else if a == POS_INF || b == POS_INF {
        POS_INF
    } else {
        a.saturating_add(b)
    }
}

/// Saturating multiplication with absorbing infinities (sign-aware).
fn sat_mul(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        return 0;
    }
    let inf = a == NEG_INF || a == POS_INF || b == NEG_INF || b == POS_INF;
    if inf {
        if (a < 0) == (b < 0) {
            POS_INF
        } else {
            NEG_INF
        }
    } else {
        a.saturating_mul(b)
    }
}

impl Interval {
    /// The full interval `[-∞, +∞]`.
    pub const TOP: Interval = Interval { lo: NEG_INF, hi: POS_INF };

    /// The singleton interval `[v, v]`.
    pub fn exact(v: i128) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]`; callers must keep `lo <= hi`.
    pub fn new(lo: i128, hi: i128) -> Interval {
        debug_assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: i128) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether every value of `self` lies inside `other`.
    pub fn within(&self, other: &Interval) -> bool {
        other.lo <= self.lo && self.hi <= other.hi
    }

    /// Whether both bounds are finite (no ±∞ sentinel).
    pub fn is_bounded(&self) -> bool {
        self.lo != NEG_INF && self.hi != POS_INF
    }

    /// Least upper bound: the convex hull of both intervals.
    pub fn join(&self, other: &Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Greatest lower bound, `None` when the intervals are disjoint.
    pub fn meet(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Classic interval widening: a bound that moved since `prev` jumps
    /// to the matching bound of `fence` (the variable's type range when
    /// known, ±∞ otherwise), so loop fixpoints terminate in two hops per
    /// bound instead of walking the lattice one unit at a time.
    pub fn widen(&self, prev: &Interval, fence: &Interval) -> Interval {
        let lo = if self.lo < prev.lo {
            if self.lo >= fence.lo {
                fence.lo
            } else {
                NEG_INF
            }
        } else {
            self.lo
        };
        let hi = if self.hi > prev.hi {
            if self.hi <= fence.hi {
                fence.hi
            } else {
                POS_INF
            }
        } else {
            self.hi
        };
        Interval { lo, hi }
    }

    /// `self + other`.
    pub fn add(&self, other: &Interval) -> Interval {
        Interval { lo: sat_add(self.lo, other.lo), hi: sat_add(self.hi, other.hi) }
    }

    /// `self - other` (plain mathematical subtraction — machine wrapping
    /// is applied by the caller when a kind is known).
    pub fn sub(&self, other: &Interval) -> Interval {
        let neg = other.neg();
        self.add(&neg)
    }

    /// `-self`.
    pub fn neg(&self) -> Interval {
        let lo = if self.hi == POS_INF { NEG_INF } else { self.hi.saturating_neg() };
        let hi = if self.lo == NEG_INF { POS_INF } else { self.lo.saturating_neg() };
        Interval { lo, hi }
    }

    /// `self * other` via the four corner products.
    pub fn mul(&self, other: &Interval) -> Interval {
        let c = [
            sat_mul(self.lo, other.lo),
            sat_mul(self.lo, other.hi),
            sat_mul(self.hi, other.lo),
            sat_mul(self.hi, other.hi),
        ];
        Interval {
            lo: c.iter().copied().min().expect("corner set is non-empty"),
            hi: c.iter().copied().max().expect("corner set is non-empty"),
        }
    }

    /// `self / other` (truncating). [`Interval::TOP`] when the divisor
    /// may be zero — the division itself is `flow-unchecked-div`'s
    /// business.
    pub fn div(&self, other: &Interval) -> Interval {
        if other.contains(0) {
            return Interval::TOP;
        }
        let safe_div = |a: i128, b: i128| -> i128 {
            if a == NEG_INF || a == POS_INF {
                if (a > 0) == (b > 0) {
                    POS_INF
                } else {
                    NEG_INF
                }
            } else if b == NEG_INF || b == POS_INF {
                0
            } else {
                // `b` is a bound of a divisor interval without 0, so it is
                // nonzero; `checked_div` states that locally.
                a.checked_div(b).unwrap_or(0)
            }
        };
        let c = [
            safe_div(self.lo, other.lo),
            safe_div(self.lo, other.hi),
            safe_div(self.hi, other.lo),
            safe_div(self.hi, other.hi),
        ];
        Interval {
            lo: c.iter().copied().min().expect("corner set is non-empty"),
            hi: c.iter().copied().max().expect("corner set is non-empty"),
        }
    }

    /// `self % other`. For a positive bounded divisor the remainder lies
    /// in `[-(m-1), m-1]`, tightened to `[0, m-1]` for a non-negative
    /// dividend; anything else is [`Interval::TOP`].
    pub fn rem(&self, other: &Interval) -> Interval {
        if other.lo > 0 && other.hi != POS_INF {
            let m = other.hi - 1;
            if self.lo >= 0 {
                Interval { lo: 0, hi: if self.hi < m { self.hi } else { m } }
            } else {
                Interval { lo: -m, hi: m }
            }
        } else {
            Interval::TOP
        }
    }

    /// `self << other` for an exact in-range shift amount; TOP otherwise.
    pub fn shl(&self, other: &Interval) -> Interval {
        if other.lo == other.hi && (0..=126).contains(&other.lo) && self.is_bounded() {
            let k = other.lo as u32;
            let lo = self.lo.checked_shl(k).filter(|v| v >> k == self.lo);
            let hi = self.hi.checked_shl(k).filter(|v| v >> k == self.hi);
            if let (Some(lo), Some(hi)) = (lo, hi) {
                return Interval { lo, hi };
            }
        }
        Interval::TOP
    }

    /// `self >> other` for an exact in-range shift amount; TOP otherwise.
    pub fn shr(&self, other: &Interval) -> Interval {
        if other.lo == other.hi && (0..=126).contains(&other.lo) && self.is_bounded() {
            Interval { lo: self.lo >> other.lo, hi: self.hi >> other.lo }
        } else {
            Interval::TOP
        }
    }

    /// `self & other`: for non-negative operands the result is bounded by
    /// the smaller upper bound (masking can only clear bits).
    pub fn bitand(&self, other: &Interval) -> Interval {
        if self.lo >= 0 && other.lo >= 0 {
            Interval { lo: 0, hi: self.hi.min(other.hi) }
        } else {
            Interval::TOP
        }
    }

    /// `self | other` / `self ^ other`: for non-negative operands both
    /// are bounded by `hi₁ + hi₂` (`x|y = x + y − (x&y)` and
    /// `x^y = x + y − 2(x&y)`).
    pub fn bitor_xor(&self, other: &Interval) -> Interval {
        if self.lo >= 0 && other.lo >= 0 {
            Interval { lo: 0, hi: sat_add(self.hi, other.hi) }
        } else {
            Interval::TOP
        }
    }

    /// `self.min(other)` / `self.max(other)` (pointwise order ops).
    pub fn int_min(&self, other: &Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.min(other.hi) }
    }

    /// See [`Interval::int_min`].
    pub fn int_max(&self, other: &Interval) -> Interval {
        Interval { lo: self.lo.max(other.lo), hi: self.hi.max(other.hi) }
    }

    /// `self.abs()`.
    pub fn abs(&self) -> Interval {
        if self.lo >= 0 {
            *self
        } else if self.hi <= 0 {
            self.neg()
        } else {
            let neg = self.neg();
            Interval { lo: 0, hi: self.hi.max(neg.hi) }
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.lo {
            NEG_INF => write!(f, "[-inf, ")?,
            lo => write!(f, "[{lo}, ")?,
        }
        match self.hi {
            POS_INF => write!(f, "+inf]"),
            hi => write!(f, "{hi}]"),
        }
    }
}

/// A machine integer type. `usize`/`isize` are modeled as 64-bit (the
/// container targets x86-64; a 32-bit port would only make the modeled
/// ranges *wider* than reality on no axis that matters to soundness,
/// since every rule uses ranges to *suppress* findings, never to prove
/// a wrap can happen).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IntKind {
    /// `u8`
    U8,
    /// `u16`
    U16,
    /// `u32`
    U32,
    /// `u64`
    U64,
    /// `usize` (modeled as 64-bit)
    Usize,
    /// `u128` (upper bound saturates at the i128 sentinel)
    U128,
    /// `i8`
    I8,
    /// `i16`
    I16,
    /// `i32`
    I32,
    /// `i64`
    I64,
    /// `isize` (modeled as 64-bit)
    Isize,
    /// `i128`
    I128,
}

impl IntKind {
    /// Parses a type name (`"u64"`) into a kind.
    pub fn from_name(name: &str) -> Option<IntKind> {
        Some(match name {
            "u8" => IntKind::U8,
            "u16" => IntKind::U16,
            "u32" => IntKind::U32,
            "u64" => IntKind::U64,
            "usize" => IntKind::Usize,
            "u128" => IntKind::U128,
            "i8" => IntKind::I8,
            "i16" => IntKind::I16,
            "i32" => IntKind::I32,
            "i64" => IntKind::I64,
            "isize" => IntKind::Isize,
            "i128" => IntKind::I128,
            _ => return None,
        })
    }

    /// The type's spelling.
    pub fn name(self) -> &'static str {
        match self {
            IntKind::U8 => "u8",
            IntKind::U16 => "u16",
            IntKind::U32 => "u32",
            IntKind::U64 => "u64",
            IntKind::Usize => "usize",
            IntKind::U128 => "u128",
            IntKind::I8 => "i8",
            IntKind::I16 => "i16",
            IntKind::I32 => "i32",
            IntKind::I64 => "i64",
            IntKind::Isize => "isize",
            IntKind::I128 => "i128",
        }
    }

    /// Whether the kind is unsigned.
    pub fn is_unsigned(self) -> bool {
        matches!(
            self,
            IntKind::U8
                | IntKind::U16
                | IntKind::U32
                | IntKind::U64
                | IntKind::Usize
                | IntKind::U128
        )
    }

    /// The kind's full value range as an interval (u128's upper bound
    /// saturates at the +∞ sentinel).
    pub fn range(self) -> Interval {
        match self {
            IntKind::U8 => Interval::new(0, u8::MAX as i128),
            IntKind::U16 => Interval::new(0, u16::MAX as i128),
            IntKind::U32 => Interval::new(0, u32::MAX as i128),
            IntKind::U64 | IntKind::Usize => Interval::new(0, u64::MAX as i128),
            IntKind::U128 => Interval::new(0, POS_INF),
            IntKind::I8 => Interval::new(i8::MIN as i128, i8::MAX as i128),
            IntKind::I16 => Interval::new(i16::MIN as i128, i16::MAX as i128),
            IntKind::I32 => Interval::new(i32::MIN as i128, i32::MAX as i128),
            IntKind::I64 | IntKind::Isize => Interval::new(i64::MIN as i128, i64::MAX as i128),
            IntKind::I128 => Interval::TOP,
        }
    }

    /// Bit width, for rule scoping.
    pub fn bits(self) -> u32 {
        match self {
            IntKind::U8 | IntKind::I8 => 8,
            IntKind::U16 | IntKind::I16 => 16,
            IntKind::U32 | IntKind::I32 => 32,
            IntKind::U64 | IntKind::Usize | IntKind::I64 | IntKind::Isize => 64,
            IntKind::U128 | IntKind::I128 => 128,
        }
    }
}

/// Range facts about an f64 value. Each `true` is a *proof*; `false`
/// means unknown, so the join is the conjunction and the empty fact set
/// is ⊤. NaN is handled by negation — `non_negative` literally means
/// "`v < 0.0` is false", which holds for NaN — so facts stay sound
/// without a separate NaN bit; `finite` is the fact that excludes NaN
/// and the infinities at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FloatFacts {
    /// `v.is_finite()` — excludes NaN and ±∞.
    pub finite: bool,
    /// `!(v < 0.0)` — non-negative, vacuously true for NaN.
    pub non_negative: bool,
    /// `!(v > 1.0)` — at most one, vacuously true for NaN.
    pub le_one: bool,
    /// `v != 0.0`.
    pub non_zero: bool,
    /// `!v.is_finite() || v.fract() == 0.0` — integer-valued.
    pub int_valued: bool,
}

impl FloatFacts {
    /// No facts — the float ⊤.
    pub const TOP: FloatFacts = FloatFacts {
        finite: false,
        non_negative: false,
        le_one: false,
        non_zero: false,
        int_valued: false,
    };

    /// Facts of a known literal value.
    pub fn of_value(v: f64) -> FloatFacts {
        FloatFacts {
            finite: v.is_finite(),
            // NaN carries both order facts: the facts assert "never
            // observed on the wrong side", which NaN vacuously satisfies.
            non_negative: v >= 0.0 || v.is_nan(),
            le_one: v <= 1.0 || v.is_nan(),
            // Exact comparisons are the point: these classify the literal
            // bit-pattern (±0.0, integral), not a computed quantity.
            non_zero: v != 0.0, // fbox-lint: allow(float-eq)
            int_valued: !v.is_finite() || v.fract() == 0.0, // fbox-lint: allow(float-eq)
        }
    }

    /// Whether the value is a proven probability-shaped quantity: finite
    /// and inside `[0, 1]`.
    pub fn in_unit_range(&self) -> bool {
        self.finite && self.non_negative && self.le_one
    }

    /// Join: a fact survives only when both sides prove it.
    pub fn join(&self, other: &FloatFacts) -> FloatFacts {
        FloatFacts {
            finite: self.finite && other.finite,
            non_negative: self.non_negative && other.non_negative,
            le_one: self.le_one && other.le_one,
            non_zero: self.non_zero && other.non_zero,
            int_valued: self.int_valued && other.int_valued,
        }
    }

    /// Meet: union of proofs (used by guard refinement).
    pub fn meet(&self, other: &FloatFacts) -> FloatFacts {
        FloatFacts {
            finite: self.finite || other.finite,
            non_negative: self.non_negative || other.non_negative,
            le_one: self.le_one || other.le_one,
            non_zero: self.non_zero || other.non_zero,
            int_valued: self.int_valued || other.int_valued,
        }
    }

    /// Whether every fact `required` proves is also proven here.
    pub fn implies(&self, required: &FloatFacts) -> bool {
        (!required.finite || self.finite)
            && (!required.non_negative || self.non_negative)
            && (!required.le_one || self.le_one)
            && (!required.non_zero || self.non_zero)
            && (!required.int_valued || self.int_valued)
    }
}

impl fmt::Display for FloatFacts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<&str> = Vec::new();
        if self.finite {
            parts.push("finite");
        }
        if self.non_negative {
            parts.push(">=0");
        }
        if self.le_one {
            parts.push("<=1");
        }
        if self.non_zero {
            parts.push("!=0");
        }
        if self.int_valued {
            parts.push("integer");
        }
        if parts.is_empty() {
            write!(f, "{{no facts}}")
        } else {
            write!(f, "{{{}}}", parts.join(", "))
        }
    }
}

/// One abstract value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// Unknown (any value of any type).
    Top,
    /// An integer with its interval and, when known, its machine type.
    Int {
        /// Value bounds.
        iv: Interval,
        /// Machine type, when the analysis could infer it.
        kind: Option<IntKind>,
    },
    /// A float with its fact set.
    Float(FloatFacts),
    /// A boolean (value untracked).
    Bool,
}

impl AbsVal {
    /// The unconstrained integer.
    pub fn int_top() -> AbsVal {
        AbsVal::Int { iv: Interval::TOP, kind: None }
    }

    /// A typed integer spanning its type's full range.
    pub fn int_of_kind(kind: IntKind) -> AbsVal {
        AbsVal::Int { iv: kind.range(), kind: Some(kind) }
    }

    /// The factless float.
    pub fn float_top() -> AbsVal {
        AbsVal::Float(FloatFacts::TOP)
    }

    /// The interval, viewing a typed integer's missing bounds as its
    /// type bounds (`None` for non-integers).
    pub fn interval(&self) -> Option<Interval> {
        match self {
            AbsVal::Int { iv, .. } => Some(*iv),
            _ => None,
        }
    }

    /// Least upper bound.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Int { iv: a, kind: ka }, AbsVal::Int { iv: b, kind: kb }) => {
                AbsVal::Int { iv: a.join(b), kind: if ka == kb { *ka } else { None } }
            }
            (AbsVal::Float(a), AbsVal::Float(b)) => AbsVal::Float(a.join(b)),
            (AbsVal::Bool, AbsVal::Bool) => AbsVal::Bool,
            _ => AbsVal::Top,
        }
    }

    /// Widening join against the previous state at a loop head.
    pub fn widen(&self, prev: &AbsVal) -> AbsVal {
        match (prev, self) {
            (AbsVal::Int { iv: old, kind: ka }, AbsVal::Int { iv: new, kind: kb }) => {
                let kind = if ka == kb { *ka } else { None };
                let fence = kind.map(IntKind::range).unwrap_or(Interval::TOP);
                AbsVal::Int { iv: new.join(old).widen(old, &fence), kind }
            }
            // Float facts and Bool form finite lattices: the plain join
            // already terminates.
            _ => self.join(prev),
        }
    }

    /// Renders the value for finding messages.
    pub fn render(&self) -> String {
        match self {
            AbsVal::Top => "unknown".to_owned(),
            AbsVal::Int { iv, kind: Some(k) } => format!("{} {iv}", k.name()),
            AbsVal::Int { iv, kind: None } => format!("{iv}"),
            AbsVal::Float(facts) => format!("f64 {facts}"),
            AbsVal::Bool => "bool".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_corner_arithmetic() {
        let a = Interval::new(2, 5);
        let b = Interval::new(-3, 4);
        assert_eq!(a.add(&b), Interval::new(-1, 9));
        assert_eq!(a.sub(&b), Interval::new(-2, 8));
        assert_eq!(a.mul(&b), Interval::new(-15, 20));
        assert_eq!(a.neg(), Interval::new(-5, -2));
        assert_eq!(a.abs(), a);
        assert_eq!(b.abs(), Interval::new(0, 4));
    }

    #[test]
    fn infinities_absorb_and_saturate() {
        let top = Interval::TOP;
        let one = Interval::exact(1);
        assert_eq!(top.add(&one), top);
        assert_eq!(top.mul(&one), top);
        assert_eq!(Interval::exact(0).mul(&top), Interval::exact(0));
        let up = Interval::new(0, POS_INF);
        assert_eq!(up.neg(), Interval::new(NEG_INF, 0));
        assert_eq!(up.add(&one), Interval::new(1, POS_INF));
    }

    #[test]
    fn div_and_rem_are_guarded() {
        let a = Interval::new(10, 20);
        assert_eq!(a.div(&Interval::new(2, 5)), Interval::new(2, 10));
        assert_eq!(a.div(&Interval::new(0, 5)), Interval::TOP, "divisor may be zero");
        assert_eq!(a.rem(&Interval::new(3, 3)), Interval::new(0, 2));
        assert_eq!(Interval::new(-5, 20).rem(&Interval::new(3, 3)), Interval::new(-2, 2));
    }

    #[test]
    fn shifts_and_masks() {
        assert_eq!(Interval::exact(1).shl(&Interval::exact(32)), Interval::exact(1 << 32));
        assert_eq!(
            Interval::new(0, u64::MAX as i128).shr(&Interval::exact(32)),
            Interval::new(0, u32::MAX as i128)
        );
        assert_eq!(
            Interval::new(0, u64::MAX as i128).bitand(&Interval::exact(0xff)),
            Interval::new(0, 0xff)
        );
        assert_eq!(Interval::new(0, 4).bitor_xor(&Interval::new(0, 3)), Interval::new(0, 7));
    }

    #[test]
    fn widening_hits_the_type_fence_then_infinity() {
        let prev = Interval::new(0, 10);
        let grown = Interval::new(0, 11);
        let fence = IntKind::U32.range();
        assert_eq!(grown.widen(&prev, &fence), Interval::new(0, u32::MAX as i128));
        let past = Interval::new(0, u64::MAX as i128);
        assert_eq!(past.widen(&prev, &fence), Interval::new(0, POS_INF));
        // A stable bound is left alone.
        assert_eq!(prev.widen(&prev, &fence), prev);
    }

    #[test]
    fn float_facts_join_meet_and_render() {
        let p = FloatFacts::of_value(0.5);
        assert!(p.in_unit_range() && p.non_zero && !p.int_valued);
        let z = FloatFacts::of_value(0.0);
        assert!(z.int_valued && !z.non_zero);
        let joined = p.join(&z);
        assert!(joined.in_unit_range() && !joined.non_zero && !joined.int_valued);
        assert!(FloatFacts::of_value(f64::NAN).non_negative, "NaN is not negative");
        assert!(!FloatFacts::of_value(f64::NAN).finite);
        assert_eq!(format!("{}", p), "{finite, >=0, <=1, !=0}");
    }

    #[test]
    fn absval_join_and_widen() {
        let a = AbsVal::Int { iv: Interval::new(0, 5), kind: Some(IntKind::U64) };
        let b = AbsVal::Int { iv: Interval::new(3, 9), kind: Some(IntKind::U64) };
        let j = a.join(&b);
        assert_eq!(j, AbsVal::Int { iv: Interval::new(0, 9), kind: Some(IntKind::U64) });
        let w = b.widen(&a);
        assert_eq!(
            w,
            AbsVal::Int { iv: Interval::new(0, u64::MAX as i128), kind: Some(IntKind::U64) }
        );
        assert_eq!(a.join(&AbsVal::float_top()), AbsVal::Top);
        assert_eq!(AbsVal::Int { iv: Interval::exact(1), kind: None }.render(), "[1, 1]");
    }
}
