//! Lane-parallel (batched) three-valued values and frames.
//!
//! The concrete runs behind validation, profiling, and stressmark search
//! all simulate the same netlist under different stimuli. Packing one bit
//! per *lane* into a pair of `u64` planes lets a single word-wise gate
//! evaluation compute up to [`MAX_LANES`] independent concrete runs at
//! once: [`LaneVal`] is the batched counterpart of [`crate::Lv`], and
//! [`BatchFrame`] the batched counterpart of [`crate::Frame`] (which is
//! the 1-lane special case of the same 2-bit-per-value encoding).
//!
//! Every kernel below is the word-wise transliteration of the scalar
//! [`crate::Lv`] truth table: for all lanes `l`,
//! `a.op(b).get(l) == a.get(l).op(b.get(l))` — asserted exhaustively by
//! the tests in this module.

use crate::{Frame, Lv};

/// Maximum number of lanes a [`LaneVal`]/[`BatchFrame`] can hold (one bit
/// per lane in a `u64` plane pair).
pub const MAX_LANES: usize = 64;

/// Up to 64 independent three-valued values, one per lane.
///
/// Two bit-planes are kept: `val` holds the value of known lanes, `unk`
/// marks unknown (`X`) lanes. The invariant `val & unk == 0` is maintained
/// by every constructor and kernel so equal lane sets compare equal
/// structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LaneVal {
    /// Value plane: lane `l` is known-1 iff bit `l` is set (and `unk` clear).
    pub val: u64,
    /// Unknown plane: lane `l` is `X` iff bit `l` is set.
    pub unk: u64,
}

impl LaneVal {
    /// All lanes known-0.
    pub const ZERO: LaneVal = LaneVal { val: 0, unk: 0 };

    /// Builds from raw planes, re-establishing the `val & unk == 0`
    /// invariant (`unk` wins).
    #[inline]
    pub fn from_planes(val: u64, unk: u64) -> LaneVal {
        LaneVal {
            val: val & !unk,
            unk,
        }
    }

    /// The same scalar value in every lane of `mask`.
    #[inline]
    pub fn splat(v: Lv, mask: u64) -> LaneVal {
        match v {
            Lv::Zero => LaneVal::ZERO,
            Lv::One => LaneVal { val: mask, unk: 0 },
            Lv::X => LaneVal { val: 0, unk: mask },
        }
    }

    /// Reads lane `l`.
    #[inline]
    pub fn get(self, l: usize) -> Lv {
        debug_assert!(l < MAX_LANES);
        if (self.unk >> l) & 1 == 1 {
            Lv::X
        } else if (self.val >> l) & 1 == 1 {
            Lv::One
        } else {
            Lv::Zero
        }
    }

    /// Writes lane `l`.
    #[inline]
    pub fn set(&mut self, l: usize, v: Lv) {
        debug_assert!(l < MAX_LANES);
        let m = 1u64 << l;
        match v {
            Lv::Zero => {
                self.val &= !m;
                self.unk &= !m;
            }
            Lv::One => {
                self.val |= m;
                self.unk &= !m;
            }
            Lv::X => {
                self.val &= !m;
                self.unk |= m;
            }
        }
    }

    /// Lanes whose value differs between `self` and `other`.
    #[inline]
    pub fn changed_lanes(self, other: LaneVal) -> u64 {
        (self.val ^ other.val) | (self.unk ^ other.unk)
    }

    /// Lanes that are known-0 (helper for the kernels below).
    #[inline]
    fn known0(self) -> u64 {
        !self.val & !self.unk
    }

    /// Lane-wise negation; `X` stays `X`.
    #[inline]
    pub fn not(self, mask: u64) -> LaneVal {
        LaneVal {
            val: !self.val & !self.unk & mask,
            unk: self.unk,
        }
    }

    /// Lane-wise pessimistic AND: a controlling 0 forces the output to 0.
    #[inline]
    pub fn and(self, b: LaneVal) -> LaneVal {
        let val = self.val & b.val;
        LaneVal {
            val,
            unk: (self.unk | b.unk) & !self.known0() & !b.known0(),
        }
    }

    /// Lane-wise pessimistic OR: a controlling 1 forces the output to 1.
    #[inline]
    pub fn or(self, b: LaneVal) -> LaneVal {
        let val = self.val | b.val;
        LaneVal {
            val,
            unk: (self.unk | b.unk) & !val,
        }
    }

    /// Lane-wise XOR: unknown whenever either input is unknown.
    #[inline]
    pub fn xor(self, b: LaneVal) -> LaneVal {
        let unk = self.unk | b.unk;
        LaneVal {
            val: (self.val ^ b.val) & !unk,
            unk,
        }
    }

    /// Lane-wise NAND.
    #[inline]
    pub fn nand(self, b: LaneVal, mask: u64) -> LaneVal {
        self.and(b).not(mask)
    }

    /// Lane-wise NOR.
    #[inline]
    pub fn nor(self, b: LaneVal, mask: u64) -> LaneVal {
        self.or(b).not(mask)
    }

    /// Lane-wise XNOR.
    #[inline]
    pub fn xnor(self, b: LaneVal, mask: u64) -> LaneVal {
        self.xor(b).not(mask)
    }

    /// Lane-wise two-input multiplexer: `sel == 0 → a`, `sel == 1 → b`;
    /// an `X` select is known only where both data inputs agree and are
    /// known (standard X-pessimistic mux semantics).
    #[inline]
    pub fn mux(sel: LaneVal, a: LaneVal, b: LaneVal) -> LaneVal {
        let sel0 = sel.known0();
        let sel1 = sel.val;
        let selx = sel.unk;
        let agree_known = !a.unk & !b.unk & !(a.val ^ b.val);
        LaneVal {
            val: (sel0 & a.val) | (sel1 & b.val) | (selx & agree_known & a.val),
            unk: (sel0 & a.unk) | (sel1 & b.unk) | (selx & !agree_known),
        }
    }

    /// Lane-wise AOI21: `!((a & b) | c)`.
    #[inline]
    pub fn aoi21(a: LaneVal, b: LaneVal, c: LaneVal, mask: u64) -> LaneVal {
        a.and(b).or(c).not(mask)
    }

    /// Lane-wise OAI21: `!((a | b) & c)`.
    #[inline]
    pub fn oai21(a: LaneVal, b: LaneVal, c: LaneVal, mask: u64) -> LaneVal {
        a.or(b).and(c).not(mask)
    }

    /// Lane-wise lattice join: the least value covering both inputs.
    #[inline]
    pub fn join(self, b: LaneVal) -> LaneVal {
        let unk = self.unk | b.unk | (self.val ^ b.val);
        LaneVal {
            val: self.val & !unk,
            unk,
        }
    }

    /// Lane-wise three-way select on a three-valued control:
    /// `ctrl == 0 → when0`, `ctrl == 1 → when1`, `ctrl == X → whenx`.
    ///
    /// This is the batched form of a per-lane `match` on the control value
    /// — the flip-flop update rules (enable, reset) are built from it.
    #[inline]
    pub fn select(ctrl: LaneVal, when0: LaneVal, when1: LaneVal, whenx: LaneVal) -> LaneVal {
        let c0 = ctrl.known0();
        let c1 = ctrl.val;
        let cx = ctrl.unk;
        LaneVal::from_planes(
            (c0 & when0.val) | (c1 & when1.val) | (cx & whenx.val),
            (c0 & when0.unk) | (c1 & when1.unk) | (cx & whenx.unk),
        )
    }
}

/// The value of every net in a netlist for up to [`MAX_LANES`] independent
/// runs at one instant.
///
/// Where [`Frame`] packs one 2-bit value per net across machine words, a
/// `BatchFrame` stores one [`LaneVal`] (a `u64` plane pair) per net: bit
/// `l` of each plane belongs to lane `l`. A net's two planes sit side by
/// side, so reading or writing a net touches one 16-byte slot. Bits at
/// and above [`BatchFrame::lanes`] are kept zero so frames with equal
/// active lanes compare equal structurally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchFrame {
    lanes: usize,
    mask: u64,
    nets: Vec<LaneVal>,
}

impl BatchFrame {
    /// Creates a frame of `len` nets × `lanes` lanes, all `0`.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is 0 or exceeds [`MAX_LANES`].
    pub fn new(len: usize, lanes: usize) -> BatchFrame {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "lane count {lanes} outside 1..={MAX_LANES}"
        );
        BatchFrame {
            lanes,
            mask: u64::MAX >> (MAX_LANES - lanes),
            nets: vec![LaneVal::ZERO; len],
        }
    }

    /// Number of nets.
    #[inline]
    pub fn len(&self) -> usize {
        self.nets.len()
    }

    /// `true` when the frame holds no nets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nets.is_empty()
    }

    /// Number of active lanes.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Bitmask with one set bit per active lane.
    #[inline]
    pub fn lane_mask(&self) -> u64 {
        self.mask
    }

    /// Reads all lanes of net `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> LaneVal {
        self.nets[i]
    }

    /// Writes all lanes of net `i` (bits above the lane count are masked).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, v: LaneVal) {
        self.nets[i] = LaneVal {
            val: v.val & !v.unk & self.mask,
            unk: v.unk & self.mask,
        };
    }

    /// Writes all lanes of net `i` and returns whether any lane changed.
    ///
    /// The batched event-driven simulator uses this to decide whether a
    /// gate's fanout must re-evaluate: a gate is dirty when *any* lane of
    /// one of its inputs changed.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn replace(&mut self, i: usize, v: LaneVal) -> bool {
        let v = LaneVal {
            val: v.val & !v.unk & self.mask,
            unk: v.unk & self.mask,
        };
        let slot = &mut self.nets[i];
        let changed = *slot != v;
        *slot = v;
        changed
    }

    /// Reads lane `l` of net `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()` or `l >= lanes()`.
    #[inline]
    pub fn get_lane(&self, i: usize, l: usize) -> Lv {
        assert!(l < self.lanes, "lane {l} out of range {}", self.lanes);
        self.get(i).get(l)
    }

    /// Writes lane `l` of net `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()` or `l >= lanes()`.
    #[inline]
    pub fn set_lane(&mut self, i: usize, l: usize, v: Lv) {
        assert!(l < self.lanes, "lane {l} out of range {}", self.lanes);
        let mut lv = self.get(i);
        lv.set(l, v);
        self.set(i, lv);
    }

    /// Writes the same value into every lane of net `i`.
    #[inline]
    pub fn set_all_lanes(&mut self, i: usize, v: Lv) {
        self.set(i, LaneVal::splat(v, self.lane_mask()));
    }

    /// Extracts one lane as a scalar [`Frame`] (the shape every scalar
    /// consumer — power analysis, validation — already understands).
    ///
    /// # Panics
    ///
    /// Panics if `l >= lanes()`.
    pub fn lane_frame(&self, l: usize) -> Frame {
        assert!(l < self.lanes, "lane {l} out of range {}", self.lanes);
        // Word-packed transpose: gather bit `l` of every net's plane pair
        // into the scalar frame's 64-net words (no per-net branches; this
        // runs once per lane per stored cycle on the profiling hot path).
        let len = self.len();
        let words = len.div_ceil(64);
        let mut val = vec![0u64; words];
        let mut unk = vec![0u64; words];
        for (i, v) in self.nets.iter().enumerate() {
            let (w, b) = (i / 64, i % 64);
            val[w] |= ((v.val >> l) & 1) << b;
            unk[w] |= ((v.unk >> l) & 1) << b;
        }
        Frame::from_bitplanes(len, val, unk)
    }

    /// Broadcasts a scalar [`Frame`] into every lane.
    ///
    /// # Panics
    ///
    /// Panics if the frame lengths differ.
    pub fn broadcast_from(&mut self, f: &Frame) {
        assert_eq!(self.len(), f.len(), "frame length mismatch");
        for i in 0..self.len() {
            self.set_all_lanes(i, f.get(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense enumeration of all 9 (or 27) input combinations across lanes.
    fn all_pairs() -> (LaneVal, LaneVal, u64) {
        // 9 lanes: a cycles per-lane through ALL, b through ALL³.
        let mut a = LaneVal::ZERO;
        let mut b = LaneVal::ZERO;
        for l in 0..9 {
            a.set(l, Lv::ALL[l % 3]);
            b.set(l, Lv::ALL[l / 3]);
        }
        (a, b, (1u64 << 9) - 1)
    }

    #[test]
    fn splat_and_get_round_trip() {
        for v in Lv::ALL {
            let lv = LaneVal::splat(v, u64::MAX);
            for l in [0, 31, 63] {
                assert_eq!(lv.get(l), v);
            }
        }
    }

    #[test]
    fn two_input_kernels_match_scalar_truth_tables() {
        let (a, b, mask) = all_pairs();
        for l in 0..9 {
            let (x, y) = (a.get(l), b.get(l));
            assert_eq!(a.and(b).get(l), x.and(y), "{x} AND {y}");
            assert_eq!(a.or(b).get(l), x.or(y), "{x} OR {y}");
            assert_eq!(a.xor(b).get(l), x.xor(y), "{x} XOR {y}");
            assert_eq!(a.nand(b, mask).get(l), x.nand(y), "{x} NAND {y}");
            assert_eq!(a.nor(b, mask).get(l), x.nor(y), "{x} NOR {y}");
            assert_eq!(a.xnor(b, mask).get(l), x.xnor(y), "{x} XNOR {y}");
            assert_eq!(a.join(b).get(l), x.join(y), "{x} JOIN {y}");
        }
    }

    #[test]
    fn not_matches_scalar() {
        let mut a = LaneVal::ZERO;
        for l in 0..3 {
            a.set(l, Lv::ALL[l]);
        }
        let n = a.not((1 << 3) - 1);
        for l in 0..3 {
            assert_eq!(n.get(l), a.get(l).not());
        }
    }

    #[test]
    fn three_input_kernels_match_scalar() {
        // 27 lanes enumerate ALL³ for (a, b, c).
        let mut a = LaneVal::ZERO;
        let mut b = LaneVal::ZERO;
        let mut c = LaneVal::ZERO;
        for l in 0..27 {
            a.set(l, Lv::ALL[l % 3]);
            b.set(l, Lv::ALL[(l / 3) % 3]);
            c.set(l, Lv::ALL[l / 9]);
        }
        let mask = (1u64 << 27) - 1;
        for l in 0..27 {
            let (x, y, s) = (a.get(l), b.get(l), c.get(l));
            assert_eq!(
                LaneVal::mux(c, a, b).get(l),
                Lv::mux(s, x, y),
                "mux({s},{x},{y})"
            );
            assert_eq!(
                LaneVal::aoi21(a, b, c, mask).get(l),
                x.and(y).or(s).not(),
                "aoi21({x},{y},{s})"
            );
            assert_eq!(
                LaneVal::oai21(a, b, c, mask).get(l),
                x.or(y).and(s).not(),
                "oai21({x},{y},{s})"
            );
        }
    }

    #[test]
    fn select_matches_per_lane_match() {
        // 27 lanes enumerate ALL³ for (ctrl, a, b); whenx = join(a, b).
        let mut c = LaneVal::ZERO;
        let mut a = LaneVal::ZERO;
        let mut b = LaneVal::ZERO;
        for l in 0..27 {
            c.set(l, Lv::ALL[l % 3]);
            a.set(l, Lv::ALL[(l / 3) % 3]);
            b.set(l, Lv::ALL[l / 9]);
        }
        let r = LaneVal::select(c, a, b, a.join(b));
        for l in 0..27 {
            let expect = match c.get(l) {
                Lv::Zero => a.get(l),
                Lv::One => b.get(l),
                Lv::X => a.get(l).join(b.get(l)),
            };
            assert_eq!(r.get(l), expect, "lane {l}");
        }
    }

    #[test]
    fn kernels_preserve_plane_invariant() {
        let (a, b, mask) = all_pairs();
        for r in [
            a.and(b),
            a.or(b),
            a.xor(b),
            a.nand(b, mask),
            a.join(b),
            LaneVal::mux(a, b, a),
            a.not(mask),
        ] {
            assert_eq!(r.val & r.unk, 0, "val/unk planes overlap");
        }
    }

    #[test]
    fn batch_frame_lane_round_trip() {
        let mut f = BatchFrame::new(10, 32);
        f.set_lane(3, 0, Lv::One);
        f.set_lane(3, 31, Lv::X);
        assert_eq!(f.get_lane(3, 0), Lv::One);
        assert_eq!(f.get_lane(3, 31), Lv::X);
        assert_eq!(f.get_lane(3, 1), Lv::Zero);
        assert_eq!(f.lanes(), 32);
        assert_eq!(f.lane_mask(), u32::MAX as u64);
    }

    #[test]
    fn set_masks_inactive_lanes() {
        let mut f = BatchFrame::new(4, 8);
        f.set(0, LaneVal::splat(Lv::One, u64::MAX));
        assert_eq!(f.get(0).val, 0xFF, "bits above lane count stay clear");
        f.set(1, LaneVal::splat(Lv::X, u64::MAX));
        assert_eq!(f.get(1).unk, 0xFF);
    }

    #[test]
    fn replace_reports_any_lane_change() {
        let mut f = BatchFrame::new(2, 4);
        let mut v = LaneVal::ZERO;
        v.set(2, Lv::One);
        assert!(f.replace(0, v));
        assert!(!f.replace(0, v), "idempotent write is not a change");
        v.set(2, Lv::X);
        assert!(f.replace(0, v), "value→X is a change");
    }

    #[test]
    fn lane_frame_and_broadcast_round_trip() {
        let mut bf = BatchFrame::new(70, 3);
        bf.set_lane(0, 1, Lv::One);
        bf.set_lane(69, 1, Lv::X);
        let f = bf.lane_frame(1);
        assert_eq!(f.get(0), Lv::One);
        assert_eq!(f.get(69), Lv::X);
        assert_eq!(bf.lane_frame(0).x_count(), 0);

        let mut bf2 = BatchFrame::new(70, 3);
        bf2.broadcast_from(&f);
        for l in 0..3 {
            assert_eq!(bf2.lane_frame(l), f);
        }
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn zero_lanes_rejected() {
        let _ = BatchFrame::new(4, 0);
    }

    #[test]
    fn max_lanes_mask_is_full() {
        let f = BatchFrame::new(1, MAX_LANES);
        assert_eq!(f.lane_mask(), u64::MAX);
    }
}
