//! Packed per-cycle value frames.

use crate::Lv;
use std::hash::{Hash, Hasher};

/// The value of every net in a netlist at one instant, packed 2 bits per net.
///
/// Frames are the unit of storage for simulation traces: the symbolic
/// execution tree of Algorithm 1 stores one frame per simulated cycle, and
/// Algorithm 2's even/odd X-assignment reads pairs of consecutive frames.
///
/// Two bit-planes are kept (`val`, `unk`) so that common operations — toggle
/// counting, subsumption checks, hashing — reduce to word-wide bit math.
///
/// # Example
///
/// ```
/// use xbound_logic::{Frame, Lv};
///
/// let mut f = Frame::new(70);
/// f.set(3, Lv::One);
/// f.set(69, Lv::X);
/// assert_eq!(f.get(3), Lv::One);
/// assert_eq!(f.get(69), Lv::X);
/// assert_eq!(f.get(0), Lv::Zero);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Frame {
    len: usize,
    val: Vec<u64>,
    unk: Vec<u64>,
}

impl Frame {
    /// Builds a frame directly from its packed bit-planes (one bit per
    /// net). Used by the batched-frame lane extraction; callers must
    /// uphold the `val & unk == 0` invariant and zero tail bits.
    pub(crate) fn from_bitplanes(len: usize, val: Vec<u64>, unk: Vec<u64>) -> Frame {
        debug_assert_eq!(val.len(), len.div_ceil(64));
        debug_assert_eq!(unk.len(), len.div_ceil(64));
        Frame { len, val, unk }
    }

    /// Creates a frame of `len` nets, all `0`.
    pub fn new(len: usize) -> Frame {
        let words = len.div_ceil(64);
        Frame {
            len,
            val: vec![0; words],
            unk: vec![0; words],
        }
    }

    /// Creates a frame of `len` nets, all `X`.
    pub fn new_all_x(len: usize) -> Frame {
        let words = len.div_ceil(64);
        let mut unk = vec![u64::MAX; words];
        if let Some(last) = unk.last_mut() {
            let tail = len % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
            if len == 0 {
                *last = 0;
            }
        }
        Frame {
            len,
            val: vec![0; words],
            unk,
        }
    }

    /// Number of nets in the frame.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the frame holds no nets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads net `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Lv {
        assert!(i < self.len, "net index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        if (self.unk[w] >> b) & 1 == 1 {
            Lv::X
        } else if (self.val[w] >> b) & 1 == 1 {
            Lv::One
        } else {
            Lv::Zero
        }
    }

    /// Writes net `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, v: Lv) {
        assert!(i < self.len, "net index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let m = 1u64 << b;
        match v {
            Lv::Zero => {
                self.val[w] &= !m;
                self.unk[w] &= !m;
            }
            Lv::One => {
                self.val[w] |= m;
                self.unk[w] &= !m;
            }
            Lv::X => {
                self.val[w] &= !m;
                self.unk[w] |= m;
            }
        }
    }

    /// Writes net `i` and returns the previous value.
    ///
    /// The event-driven simulator uses this to decide whether a gate output
    /// actually changed (and therefore whether its fanout must re-evaluate)
    /// with a single locate.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn replace(&mut self, i: usize, v: Lv) -> Lv {
        let old = self.get(i);
        if old != v {
            self.set(i, v);
        }
        old
    }

    /// Number of 64-bit storage words per plane.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.val.len()
    }

    /// Fills `out` with one bit per net: set when the net is **known and
    /// equal** in both frames (the word-wise base case of the stability
    /// analysis). `out` is resized to [`Frame::word_count`] words.
    ///
    /// # Panics
    ///
    /// Panics if the frames have different lengths.
    pub fn known_equal_words_into(&self, other: &Frame, out: &mut Vec<u64>) {
        assert_eq!(self.len, other.len, "frame length mismatch");
        out.clear();
        out.extend(
            (0..self.val.len())
                .map(|w| !self.unk[w] & !other.unk[w] & !(self.val[w] ^ other.val[w])),
        );
        // Mask the tail so out-of-range bits never read as "stable".
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = out.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// The known-equal rule of [`Frame::known_equal_words_into`] for up to
    /// 64 frame pairs at once, transposed to one word per net: bit `k` of
    /// `lanes[i]` is set when net `i` is known and equal in both frames of
    /// `pairs[k]`. `lanes` is resized to [`Frame::word_count`] × 64 words;
    /// words past the frame length and bits past `pairs.len()` are zero.
    ///
    /// This is the entry of Algorithm 2's block stability kernel, which
    /// then propagates stability through the netlist one word per net for
    /// 64 cycle pairs; [`lanes_to_bitsets`] is the way back.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty or longer than 64, or if the frames have
    /// different lengths.
    pub fn known_equal_lanes_into(pairs: &[(&Frame, &Frame)], lanes: &mut Vec<u64>) {
        assert!(
            (1..=64).contains(&pairs.len()),
            "a lane block holds 1 to 64 pairs"
        );
        let len = pairs[0].0.len;
        for (p, c) in pairs {
            assert!(p.len == len && c.len == len, "frame length mismatch");
        }
        let words = len.div_ceil(64);
        lanes.clear();
        lanes.resize(words * 64, 0);
        let mut tile = [0u64; 64];
        for (w, out) in lanes.chunks_exact_mut(64).enumerate() {
            for (row, (p, c)) in tile.iter_mut().zip(pairs) {
                *row = !p.unk[w] & !c.unk[w] & !(p.val[w] ^ c.val[w]);
            }
            tile[pairs.len()..].fill(0);
            transpose64(&mut tile);
            out.copy_from_slice(&tile);
        }
        // Nets past len() never read as "stable".
        lanes[len..].fill(0);
    }

    /// Word-parallel X-assignment of one consecutive frame pair — the
    /// resolve kernel of Algorithm 2, applied to every net at once:
    ///
    /// * `(X, X)`: stable nets hold `0` in both frames; unstable nets take
    ///   the per-net maximum-energy transition `(tr_first, tr_second)`;
    /// * `(X, v)`: `prev` becomes `v` when stable, `!v` otherwise;
    /// * `(v, X)`: `cur` becomes `v` when stable, `!v` otherwise;
    /// * fully-known positions are untouched.
    ///
    /// `stable`, `tr_first` and `tr_second` are bitsets of
    /// [`Frame::word_count`] words (one bit per net).
    ///
    /// # Panics
    ///
    /// Panics if the frames have different lengths or a bitset is shorter
    /// than [`Frame::word_count`].
    pub fn assign_x_pair(
        prev: &mut Frame,
        cur: &mut Frame,
        stable: &[u64],
        tr_first: &[u64],
        tr_second: &[u64],
    ) {
        assert_eq!(prev.len, cur.len, "frame length mismatch");
        for w in 0..prev.val.len() {
            let (pu, cu) = (prev.unk[w], cur.unk[w]);
            if pu | cu == 0 {
                continue;
            }
            let s = stable[w];
            let xx = pu & cu;
            let xv = pu & !cu;
            let vx = !pu & cu;
            // The value plane is zero wherever the unknown plane is set, so
            // "assign" is OR-in the chosen bits and clear the unknown bits.
            // `prev.val` is only written at prev-X positions, which are
            // disjoint from the `vx` bits the `cur` update reads back.
            prev.val[w] |= (tr_first[w] & xx & !s) | ((cur.val[w] ^ !s) & xv);
            cur.val[w] |= (tr_second[w] & xx & !s) | ((prev.val[w] ^ !s) & vx);
            prev.unk[w] &= !(xx | xv);
            cur.unk[w] &= !(xx | vx);
        }
    }

    /// Resolves every `X` net to `0`, word-wise.
    ///
    /// Algorithm 2 uses this for the leftover Xs at off-parity positions:
    /// the packed representation keeps the value plane zero wherever the
    /// unknown plane is set, so clearing the unknown plane is the whole
    /// operation.
    pub fn resolve_x_to_zero(&mut self) {
        self.unk.fill(0);
    }

    /// Number of nets whose value differs between the two frames.
    ///
    /// # Panics
    ///
    /// Panics if the frames have different lengths.
    pub fn diff_count(&self, other: &Frame) -> usize {
        assert_eq!(self.len, other.len, "frame length mismatch");
        let mut n = 0usize;
        for w in 0..self.val.len() {
            let differs = (self.val[w] ^ other.val[w]) | (self.unk[w] ^ other.unk[w]);
            n += differs.count_ones() as usize;
        }
        n
    }

    /// Calls `f(i, t)` for every net `i` set in `mask` whose value differs
    /// between `self` (the earlier frame) and `next`, ascending, with `t`
    /// the kind of transition — the per-cycle walk of gate-level power
    /// analysis, classified word by word.
    ///
    /// # Panics
    ///
    /// Panics if the frames have different lengths or `mask` is shorter
    /// than [`Frame::word_count`].
    #[inline]
    pub fn for_each_transition(
        &self,
        next: &Frame,
        mask: &[u64],
        mut f: impl FnMut(usize, Transition),
    ) {
        assert_eq!(self.len, next.len, "frame length mismatch");
        let mask = &mask[..self.val.len()];
        for (w, &m) in mask.iter().enumerate() {
            let (pv, pu, cv, cu) = (self.val[w], self.unk[w], next.val[w], next.unk[w]);
            let mut differs = ((pv ^ cv) | (pu ^ cu)) & m;
            if differs == 0 {
                continue;
            }
            // The value plane is zero wherever the unknown plane is set,
            // so a known endpoint pair that differs is a rise exactly
            // when the later value is 1. The class is computed without a
            // branch: rises and falls do not predict.
            let x = pu | cu;
            let rise = cv & !x;
            while differs != 0 {
                let b = differs.trailing_zeros();
                let t = match ((x >> b) & 1) << 1 | ((rise >> b) & 1) {
                    0 => Transition::Fall,
                    1 => Transition::Rise,
                    _ => Transition::X,
                };
                f(w * 64 + b as usize, t);
                differs &= differs - 1;
            }
        }
    }

    /// Indices of nets whose value differs between the two frames.
    pub fn diff_indices(&self, other: &Frame) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_diff(other, |i| out.push(i));
        out
    }

    /// Calls `f` with the index of every net whose value differs between
    /// the two frames, ascending — [`Frame::diff_indices`] without the
    /// allocation, for per-cycle hot loops (power analysis, activity
    /// annotation).
    ///
    /// # Panics
    ///
    /// Panics if the frames have different lengths.
    pub fn for_each_diff(&self, other: &Frame, mut f: impl FnMut(usize)) {
        assert_eq!(self.len, other.len, "frame length mismatch");
        for w in 0..self.val.len() {
            let mut differs = (self.val[w] ^ other.val[w]) | (self.unk[w] ^ other.unk[w]);
            while differs != 0 {
                let b = differs.trailing_zeros() as usize;
                f(w * 64 + b);
                differs &= differs - 1;
            }
        }
    }

    /// ORs one bit per net whose value differs between the two frames
    /// into `out` — the word-wise [`Frame::diff_indices`], for building a
    /// run's toggled-net set without a per-pair index list.
    ///
    /// # Panics
    ///
    /// Panics if the frames have different lengths or `out` is shorter
    /// than [`Frame::word_count`].
    pub fn or_diff_words_into(&self, other: &Frame, out: &mut [u64]) {
        assert_eq!(self.len, other.len, "frame length mismatch");
        for (w, o) in out[..self.val.len()].iter_mut().enumerate() {
            *o |= (self.val[w] ^ other.val[w]) | (self.unk[w] ^ other.unk[w]);
        }
    }

    /// ORs one bit per net that may toggle between the two frames into
    /// `out`: the net differs, or it is `X` in either frame (an `X`
    /// endpoint can toggle even when both frames hold `X`) — Algorithm 1's
    /// potentially-toggled rule, word-wise.
    ///
    /// # Panics
    ///
    /// Panics if the frames have different lengths or `out` is shorter
    /// than [`Frame::word_count`].
    pub fn or_potential_toggle_words_into(&self, other: &Frame, out: &mut [u64]) {
        assert_eq!(self.len, other.len, "frame length mismatch");
        // The value plane is zero wherever the unknown plane is set, so
        // the value XOR plus both unknown planes covers every case.
        for (w, o) in out[..self.val.len()].iter_mut().enumerate() {
            *o |= (self.val[w] ^ other.val[w]) | self.unk[w] | other.unk[w];
        }
    }

    /// Number of `X` nets in the frame.
    pub fn x_count(&self) -> usize {
        self.unk.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Lattice subsumption: every net of `self` covers the matching net of
    /// `other` (see [`Lv::covers`]).
    pub fn covers(&self, other: &Frame) -> bool {
        assert_eq!(self.len, other.len, "frame length mismatch");
        for w in 0..self.val.len() {
            let both_known_diff = !self.unk[w] & !other.unk[w] & (self.val[w] ^ other.val[w]);
            let other_x_self_known = other.unk[w] & !self.unk[w];
            if both_known_diff != 0 || other_x_self_known != 0 {
                return false;
            }
        }
        true
    }

    /// In-place lattice join with `other` (bitwise least upper bound).
    pub fn join_in_place(&mut self, other: &Frame) {
        assert_eq!(self.len, other.len, "frame length mismatch");
        for w in 0..self.val.len() {
            let unk = self.unk[w] | other.unk[w] | (self.val[w] ^ other.val[w]);
            self.unk[w] = unk;
            self.val[w] &= !unk;
        }
    }

    /// A 64-bit content hash (FNV-1a over both planes).
    pub fn content_hash(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        mix(self.len as u64);
        for &w in &self.val {
            mix(w);
        }
        for &w in &self.unk {
            mix(w);
        }
        h
    }
}

impl Hash for Frame {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.content_hash());
    }
}

impl FromIterator<Lv> for Frame {
    fn from_iter<T: IntoIterator<Item = Lv>>(iter: T) -> Frame {
        let vals: Vec<Lv> = iter.into_iter().collect();
        let mut f = Frame::new(vals.len());
        for (i, v) in vals.into_iter().enumerate() {
            f.set(i, v);
        }
        f
    }
}

/// The kind of one net's change between two frames (see
/// [`Frame::for_each_transition`]). The discriminants index a per-net
/// `[fall, rise, max]` energy table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Transition {
    /// Known `1` → known `0`.
    Fall = 0,
    /// Known `0` → known `1`.
    Rise = 1,
    /// Either endpoint is `X`.
    X = 2,
}

/// Transposes a 64 × 64 bit matrix in place: bit `j` of row `i` moves to
/// bit `i` of row `j`.
///
/// Six rounds of block swaps (32-, 16-, …, 1-bit blocks), each a masked
/// exchange between rows `k` and `k + j`.
pub fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            // Swap the high `j`-bit blocks of row `k` with the low blocks
            // of row `k + j`.
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k + j] ^= t;
            m[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// The inverse of [`Frame::known_equal_lanes_into`]'s layout: writes bit
/// `k` of every per-net lane word `lanes[i]` into `out[k]`, a bitset of
/// one bit per net over `len` nets. Each `out[k]` is resized to
/// `len.div_ceil(64)` words, with the bits past `len` zeroed.
///
/// # Panics
///
/// Panics if `out` is longer than 64 or `lanes` holds fewer than
/// `len.div_ceil(64) × 64` words.
pub fn lanes_to_bitsets(lanes: &[u64], len: usize, out: &mut [Vec<u64>]) {
    assert!(out.len() <= 64, "a lane block holds at most 64 pairs");
    let words = len.div_ceil(64);
    assert!(lanes.len() >= words * 64, "one lane word per net");
    for set in out.iter_mut() {
        set.clear();
        set.resize(words, 0);
    }
    let mut tile = [0u64; 64];
    for (w, chunk) in lanes[..words * 64].chunks_exact(64).enumerate() {
        tile.copy_from_slice(chunk);
        transpose64(&mut tile);
        let keep = if w + 1 == words && len % 64 != 0 {
            (1u64 << (len % 64)) - 1
        } else {
            u64::MAX
        };
        for (set, row) in out.iter_mut().zip(tile) {
            set[w] = row & keep;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose64_matches_naive_and_is_an_involution() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut m = [0u64; 64];
        for row in &mut m {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            *row = rng;
        }
        let orig = m;
        transpose64(&mut m);
        for (i, row) in orig.iter().enumerate() {
            for (j, t) in m.iter().enumerate() {
                assert_eq!((row >> j) & 1, (t >> i) & 1, "bit ({i}, {j})");
            }
        }
        transpose64(&mut m);
        assert_eq!(m, orig);
    }

    #[test]
    fn known_equal_lanes_round_trip_to_per_pair_words() {
        // 130 nets: a partial last word; 3 pairs: a partial lane block.
        let n = 130;
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let lv = |x: u64| match x % 3 {
            0 => Lv::Zero,
            1 => Lv::One,
            _ => Lv::X,
        };
        let frames: Vec<Frame> = (0..6)
            .map(|_| (0..n).map(|_| lv(next())).collect())
            .collect();
        let pairs: Vec<(&Frame, &Frame)> = frames.chunks(2).map(|p| (&p[0], &p[1])).collect();
        let mut lanes = Vec::new();
        Frame::known_equal_lanes_into(&pairs, &mut lanes);
        assert_eq!(lanes.len(), 3 * 64);
        assert!(lanes[n..].iter().all(|&w| w == 0), "no lane past len()");
        assert!(lanes.iter().all(|&w| w >> 3 == 0), "no lane past the pairs");
        let mut back = vec![Vec::new(); pairs.len()];
        lanes_to_bitsets(&lanes, n, &mut back);
        for ((p, c), got) in pairs.iter().zip(&back) {
            let mut want = Vec::new();
            p.known_equal_words_into(c, &mut want);
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn for_each_transition_classifies_masked_changes() {
        let mut a = Frame::new(130);
        let mut b = Frame::new(130);
        a.set(0, Lv::One); // 1 -> 0: fall
        b.set(3, Lv::One); // 0 -> 1: rise
        a.set(64, Lv::X); // X -> 1: X endpoint
        b.set(64, Lv::One);
        b.set(65, Lv::X); // 0 -> X: X endpoint
        a.set(66, Lv::X); // X -> X: unchanged
        b.set(66, Lv::X);
        b.set(129, Lv::One); // masked off
        let mut mask = vec![u64::MAX; a.word_count()];
        mask[2] = 0;
        let mut seen = Vec::new();
        a.for_each_transition(&b, &mask, |i, t| seen.push((i, t)));
        assert_eq!(
            seen,
            [
                (0, Transition::Fall),
                (3, Transition::Rise),
                (64, Transition::X),
                (65, Transition::X),
            ]
        );
    }

    #[test]
    fn new_is_all_zero() {
        let f = Frame::new(100);
        assert_eq!(f.len(), 100);
        assert!((0..100).all(|i| f.get(i) == Lv::Zero));
        assert_eq!(f.x_count(), 0);
    }

    #[test]
    fn new_all_x_tail_is_exact() {
        let f = Frame::new_all_x(65);
        assert_eq!(f.x_count(), 65);
        assert!((0..65).all(|i| f.get(i) == Lv::X));
        let g = Frame::new_all_x(64);
        assert_eq!(g.x_count(), 64);
    }

    #[test]
    fn set_get_round_trip_across_word_boundary() {
        let mut f = Frame::new(130);
        f.set(63, Lv::One);
        f.set(64, Lv::X);
        f.set(129, Lv::One);
        assert_eq!(f.get(63), Lv::One);
        assert_eq!(f.get(64), Lv::X);
        assert_eq!(f.get(129), Lv::One);
        f.set(64, Lv::Zero);
        assert_eq!(f.get(64), Lv::Zero);
        assert_eq!(f.x_count(), 0);
    }

    #[test]
    fn diff_count_and_indices_agree() {
        let mut a = Frame::new(200);
        let mut b = Frame::new(200);
        a.set(0, Lv::One);
        a.set(100, Lv::X);
        b.set(150, Lv::One);
        assert_eq!(a.diff_count(&b), 3);
        assert_eq!(a.diff_indices(&b), vec![0, 100, 150]);
    }

    #[test]
    fn word_or_helpers_match_per_net_rules() {
        let mut a = Frame::new(130);
        let mut b = Frame::new(130);
        a.set(0, Lv::One); // 1 -> 0: differs
        a.set(64, Lv::X); // X -> X: potential only
        b.set(64, Lv::X);
        a.set(65, Lv::X); // X -> 0: differs
        b.set(129, Lv::One); // 0 -> 1: differs
        a.set(100, Lv::One); // 1 -> 1: neither
        b.set(100, Lv::One);
        let mut diff = vec![0u64; a.word_count()];
        diff[0] = 1 << 5;
        a.or_diff_words_into(&b, &mut diff);
        let mut potential = vec![0u64; a.word_count()];
        a.or_potential_toggle_words_into(&b, &mut potential);
        let bits = |words: &[u64]| -> Vec<usize> {
            (0..130)
                .filter(|&i| (words[i / 64] >> (i % 64)) & 1 == 1)
                .collect()
        };
        // OR-in keeps bits already set.
        assert_eq!(bits(&diff), vec![0, 5, 65, 129]);
        assert_eq!(bits(&potential), vec![0, 64, 65, 129]);
    }

    #[test]
    fn x_to_known_counts_as_difference() {
        let mut a = Frame::new(8);
        let mut b = Frame::new(8);
        a.set(2, Lv::X);
        b.set(2, Lv::Zero);
        assert_eq!(a.diff_count(&b), 1);
        b.set(2, Lv::One);
        assert_eq!(a.diff_count(&b), 1);
        assert_eq!(a.diff_indices(&b), vec![2]);
    }

    #[test]
    fn covers_and_join() {
        let mut a = Frame::new(10);
        let mut b = Frame::new(10);
        a.set(1, Lv::One);
        b.set(1, Lv::Zero);
        assert!(!a.covers(&b));
        let mut j = a.clone();
        j.join_in_place(&b);
        assert!(j.covers(&a) && j.covers(&b));
        assert_eq!(j.get(1), Lv::X);
        assert_eq!(j.get(0), Lv::Zero);
    }

    #[test]
    fn content_hash_differs_for_x_vs_one() {
        let mut a = Frame::new(10);
        let mut b = Frame::new(10);
        a.set(5, Lv::X);
        b.set(5, Lv::One);
        assert_ne!(a.content_hash(), b.content_hash());
        let c = a.clone();
        assert_eq!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn replace_returns_old_value() {
        let mut f = Frame::new(70);
        assert_eq!(f.replace(69, Lv::X), Lv::Zero);
        assert_eq!(f.replace(69, Lv::One), Lv::X);
        assert_eq!(f.replace(69, Lv::One), Lv::One);
        assert_eq!(f.get(69), Lv::One);
    }

    #[test]
    fn known_equal_words_mask_tail() {
        let mut a = Frame::new(70);
        let mut b = Frame::new(70);
        a.set(0, Lv::One);
        b.set(0, Lv::One); // known equal
        a.set(1, Lv::One); // known different
        a.set(65, Lv::X); // X in one frame
        let mut words = Vec::new();
        a.known_equal_words_into(&b, &mut words);
        assert_eq!(words.len(), a.word_count());
        assert_eq!(words[0] & 1, 1);
        assert_eq!((words[0] >> 1) & 1, 0);
        assert_eq!((words[1] >> 1) & 1, 0);
        // Bits past len() are never "stable".
        assert_eq!(words[1] >> 6, 0);
    }

    #[test]
    fn assign_x_pair_matches_per_bit_rules() {
        let n = 200;
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..50 {
            let mut prev = Frame::new(n);
            let mut cur = Frame::new(n);
            let mut stable = vec![0u64; prev.word_count()];
            let mut tr_first = vec![0u64; prev.word_count()];
            let mut tr_second = vec![0u64; prev.word_count()];
            let lv = |x: u64| match x % 3 {
                0 => Lv::Zero,
                1 => Lv::One,
                _ => Lv::X,
            };
            for i in 0..n {
                prev.set(i, lv(next()));
                cur.set(i, lv(next()));
                if next() % 2 == 0 {
                    stable[i / 64] |= 1 << (i % 64);
                }
                if next() % 2 == 0 {
                    tr_first[i / 64] |= 1 << (i % 64);
                }
                if next() % 2 == 0 {
                    tr_second[i / 64] |= 1 << (i % 64);
                }
            }
            // Per-bit reference.
            let (mut rp, mut rc) = (prev.clone(), cur.clone());
            for i in 0..n {
                let s = (stable[i / 64] >> (i % 64)) & 1 == 1;
                let a = (tr_first[i / 64] >> (i % 64)) & 1 == 1;
                let b = (tr_second[i / 64] >> (i % 64)) & 1 == 1;
                match (rp.get(i), rc.get(i)) {
                    (Lv::X, Lv::X) => {
                        if s {
                            rp.set(i, Lv::Zero);
                            rc.set(i, Lv::Zero);
                        } else {
                            rp.set(i, Lv::from_bool(a));
                            rc.set(i, Lv::from_bool(b));
                        }
                    }
                    (Lv::X, v) => rp.set(i, if s { v } else { v.not() }),
                    (v, Lv::X) => rc.set(i, if s { v } else { v.not() }),
                    _ => {}
                }
            }
            Frame::assign_x_pair(&mut prev, &mut cur, &stable, &tr_first, &tr_second);
            assert_eq!(prev, rp, "prev plane diverges from per-bit rules");
            assert_eq!(cur, rc, "cur plane diverges from per-bit rules");
        }
    }

    #[test]
    fn resolve_x_to_zero_only_touches_x() {
        let mut f = Frame::new(70);
        f.set(1, Lv::One);
        f.set(69, Lv::X);
        f.resolve_x_to_zero();
        assert_eq!(f.get(1), Lv::One);
        assert_eq!(f.get(69), Lv::Zero);
        assert_eq!(f.x_count(), 0);
    }

    #[test]
    fn from_iterator_builds_frame() {
        let f: Frame = [Lv::One, Lv::X, Lv::Zero].into_iter().collect();
        assert_eq!(f.len(), 3);
        assert_eq!(f.get(0), Lv::One);
        assert_eq!(f.get(1), Lv::X);
        assert_eq!(f.get(2), Lv::Zero);
    }
}
