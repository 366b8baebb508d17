//! Three-valued (0/1/X) logic primitives used throughout `xbound`.
//!
//! The symbolic simulation at the heart of the ASPLOS'17 technique propagates
//! *unknown* logic values (`X`) for every signal that cannot be constrained by
//! the application binary. This crate provides:
//!
//! * [`Lv`] — a single three-valued logic value with pessimistic gate
//!   semantics (`X AND 0 = 0`, `X AND 1 = X`, …),
//! * [`XWord`] — a 16-bit word of [`Lv`]s with word-level helpers used by the
//!   behavioral memory models and the symbolic machine state,
//! * [`Frame`] — a densely packed vector of [`Lv`]s holding the value of every
//!   net in a netlist for one clock cycle.
//!
//! # Example
//!
//! ```
//! use xbound_logic::Lv;
//!
//! assert_eq!(Lv::X.and(Lv::Zero), Lv::Zero); // controlling value wins
//! assert_eq!(Lv::X.and(Lv::One), Lv::X);     // X propagates otherwise
//! assert_eq!(Lv::X.xor(Lv::One), Lv::X);
//! ```
//!
//! There is exactly one implementation of the three-valued gate algebra:
//! the word-wise [`LaneVal`] kernels in [`batch`]. The scalar [`Lv`]
//! operations below are the 1-lane instantiation of those kernels (splat
//! into lane 0, apply the word kernel, read lane 0 back), so the scalar
//! and batched engines cannot diverge. The truth tables live in this
//! crate's tests as the executable specification.

#![warn(missing_docs)]

pub mod batch;
mod frame;
mod word;

pub use batch::{BatchFrame, LaneVal, MAX_LANES};
pub use frame::{lanes_to_bitsets, transpose64, Frame, Transition};
pub use word::XWord;

/// A three-valued logic level: `0`, `1`, or unknown (`X`).
///
/// High-impedance (`Z`) values of real designs are conservatively folded into
/// `X`; this only widens the activity superset computed by the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum Lv {
    /// Logic zero.
    #[default]
    Zero = 0,
    /// Logic one.
    One = 1,
    /// Unknown value (symbolic input or uninitialized state).
    X = 2,
}

impl Lv {
    /// All three values, in encoding order.
    pub const ALL: [Lv; 3] = [Lv::Zero, Lv::One, Lv::X];

    /// Converts a `bool` into a known logic level.
    #[inline]
    pub fn from_bool(b: bool) -> Lv {
        if b {
            Lv::One
        } else {
            Lv::Zero
        }
    }

    /// Decodes the raw encoding produced by [`Lv::code`].
    ///
    /// Any value other than `0` or `1` decodes to [`Lv::X`].
    #[inline]
    pub fn from_code(code: u8) -> Lv {
        match code {
            0 => Lv::Zero,
            1 => Lv::One,
            _ => Lv::X,
        }
    }

    /// Raw 2-bit encoding (`0`, `1`, `2`).
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Returns the concrete boolean if the value is known.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Lv::Zero => Some(false),
            Lv::One => Some(true),
            Lv::X => None,
        }
    }

    /// `true` for `0` and `1`, `false` for `X`.
    #[inline]
    pub fn is_known(self) -> bool {
        !matches!(self, Lv::X)
    }

    /// `true` only for `X`.
    #[inline]
    pub fn is_x(self) -> bool {
        matches!(self, Lv::X)
    }

    /// Applies a unary [`LaneVal`] kernel at width 1 (lane 0).
    #[inline]
    fn via_lane1(self, f: impl FnOnce(LaneVal) -> LaneVal) -> Lv {
        f(LaneVal::splat(self, 1)).get(0)
    }

    /// Applies a binary [`LaneVal`] kernel at width 1 (lane 0).
    #[inline]
    fn via_lane2(self, rhs: Lv, f: impl FnOnce(LaneVal, LaneVal) -> LaneVal) -> Lv {
        f(LaneVal::splat(self, 1), LaneVal::splat(rhs, 1)).get(0)
    }

    /// Logical negation; `X` stays `X`.
    // An inherent `not` (like `and`/`or`) keeps the three-valued gate
    // algebra in one naming scheme; `!lv` via `ops::Not` also works.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn not(self) -> Lv {
        self.via_lane1(|a| a.not(1))
    }

    /// Pessimistic AND: a controlling `0` forces the output to `0`.
    #[inline]
    pub fn and(self, rhs: Lv) -> Lv {
        self.via_lane2(rhs, LaneVal::and)
    }

    /// Pessimistic OR: a controlling `1` forces the output to `1`.
    #[inline]
    pub fn or(self, rhs: Lv) -> Lv {
        self.via_lane2(rhs, LaneVal::or)
    }

    /// XOR: unknown whenever either input is unknown.
    #[inline]
    pub fn xor(self, rhs: Lv) -> Lv {
        self.via_lane2(rhs, LaneVal::xor)
    }

    /// NAND, NOR, XNOR in terms of the primitives above.
    #[inline]
    pub fn nand(self, rhs: Lv) -> Lv {
        self.and(rhs).not()
    }

    /// See [`Lv::nand`].
    #[inline]
    pub fn nor(self, rhs: Lv) -> Lv {
        self.or(rhs).not()
    }

    /// See [`Lv::nand`].
    #[inline]
    pub fn xnor(self, rhs: Lv) -> Lv {
        self.xor(rhs).not()
    }

    /// Two-input multiplexer: `sel == 0 → a`, `sel == 1 → b`.
    ///
    /// When `sel` is `X` the output is known only if both data inputs agree
    /// (standard X-pessimistic mux semantics).
    #[inline]
    pub fn mux(sel: Lv, a: Lv, b: Lv) -> Lv {
        LaneVal::mux(
            LaneVal::splat(sel, 1),
            LaneVal::splat(a, 1),
            LaneVal::splat(b, 1),
        )
        .get(0)
    }

    /// Lattice subsumption: `self` covers `other` if it is `X` or equal.
    ///
    /// Used by the state memoization of Algorithm 1: re-simulating a state
    /// covered by an already-explored state cannot add activity.
    #[inline]
    pub fn covers(self, other: Lv) -> bool {
        self == Lv::X || self == other
    }

    /// Lattice join: returns the least value covering both inputs.
    #[inline]
    pub fn join(self, other: Lv) -> Lv {
        self.via_lane2(other, LaneVal::join)
    }

    /// ASCII character used in traces and VCD files (`'0'`, `'1'`, `'x'`).
    #[inline]
    pub fn to_char(self) -> char {
        match self {
            Lv::Zero => '0',
            Lv::One => '1',
            Lv::X => 'x',
        }
    }

    /// Parses `'0' | '1' | 'x' | 'X' | 'z' | 'Z'` (Z folds into X).
    pub fn from_char(c: char) -> Option<Lv> {
        match c {
            '0' => Some(Lv::Zero),
            '1' => Some(Lv::One),
            'x' | 'X' | 'z' | 'Z' => Some(Lv::X),
            _ => None,
        }
    }
}

impl std::fmt::Display for Lv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

impl From<bool> for Lv {
    fn from(b: bool) -> Lv {
        Lv::from_bool(b)
    }
}

impl std::ops::Not for Lv {
    type Output = Lv;

    fn not(self) -> Lv {
        Lv::not(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_truth_table() {
        use Lv::*;
        let expect = [
            (Zero, Zero, Zero),
            (Zero, One, Zero),
            (Zero, X, Zero),
            (One, Zero, Zero),
            (One, One, One),
            (One, X, X),
            (X, Zero, Zero),
            (X, One, X),
            (X, X, X),
        ];
        for (a, b, r) in expect {
            assert_eq!(a.and(b), r, "{a} AND {b}");
        }
    }

    #[test]
    fn or_truth_table() {
        use Lv::*;
        let expect = [
            (Zero, Zero, Zero),
            (Zero, One, One),
            (Zero, X, X),
            (One, Zero, One),
            (One, One, One),
            (One, X, One),
            (X, Zero, X),
            (X, One, One),
            (X, X, X),
        ];
        for (a, b, r) in expect {
            assert_eq!(a.or(b), r, "{a} OR {b}");
        }
    }

    #[test]
    fn xor_truth_table() {
        use Lv::{One, Zero, X};
        assert_eq!(Zero.xor(Zero), Zero);
        assert_eq!(Zero.xor(One), One);
        assert_eq!(One.xor(One), Zero);
        assert_eq!(One.xor(X), X);
        assert_eq!(X.xor(X), X);
    }

    #[test]
    fn not_involution_on_known() {
        for v in [Lv::Zero, Lv::One] {
            assert_eq!(v.not().not(), v);
        }
        assert_eq!(Lv::X.not(), Lv::X);
    }

    #[test]
    fn mux_select_known() {
        use Lv::*;
        assert_eq!(Lv::mux(Zero, One, Zero), One);
        assert_eq!(Lv::mux(One, One, Zero), Zero);
    }

    #[test]
    fn mux_select_x_agreeing_inputs() {
        use Lv::*;
        assert_eq!(Lv::mux(X, One, One), One);
        assert_eq!(Lv::mux(X, Zero, Zero), Zero);
        assert_eq!(Lv::mux(X, One, Zero), X);
        assert_eq!(Lv::mux(X, X, X), X);
    }

    #[test]
    fn covers_is_a_partial_order() {
        use Lv::*;
        for v in Lv::ALL {
            assert!(v.covers(v));
            assert!(X.covers(v));
        }
        assert!(!Zero.covers(One));
        assert!(!One.covers(X));
    }

    #[test]
    fn join_is_least_upper_bound() {
        for a in Lv::ALL {
            for b in Lv::ALL {
                let j = a.join(b);
                assert!(j.covers(a) && j.covers(b));
                if a == b {
                    assert_eq!(j, a);
                }
            }
        }
    }

    #[test]
    fn char_round_trip() {
        for v in Lv::ALL {
            assert_eq!(Lv::from_char(v.to_char()), Some(v));
        }
        assert_eq!(Lv::from_char('z'), Some(Lv::X));
        assert_eq!(Lv::from_char('q'), None);
    }

    #[test]
    fn demorgan_holds_in_three_valued_logic() {
        for a in Lv::ALL {
            for b in Lv::ALL {
                assert_eq!(a.nand(b), a.not().or(b.not()));
                assert_eq!(a.nor(b), a.not().and(b.not()));
            }
        }
    }

    #[test]
    fn code_round_trip() {
        for v in Lv::ALL {
            assert_eq!(Lv::from_code(v.code()), v);
        }
    }
}
