//! The block stability kernel against the scalar oracle on random
//! designs: for every cycle pair, [`BlockStability::stability_into`]
//! must produce exactly [`stability_words_into`]'s bitset, whatever the
//! pair's position in a block of 1 to 64 pairs, with the bits past the
//! net count zero.
//!
//! The designs are built with the raw netlist API rather than `Rtl`,
//! because `Rtl` lowers every register to `Dffr`/`Dffre` and the
//! held-flip-flop rule also covers `Dffe` (enable, no reset) and must
//! ignore `Dff`.

use proptest::prelude::*;
use xbound_core::peak_power::{stability_words_into, BlockStability};
use xbound_logic::{Frame, Lv};
use xbound_netlist::{CellKind, NetId, Netlist};

/// A small deterministic generator, seeded per case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const COMB: [CellKind; 13] = [
    CellKind::Tie0,
    CellKind::Tie1,
    CellKind::Buf,
    CellKind::Inv,
    CellKind::And2,
    CellKind::Or2,
    CellKind::Nand2,
    CellKind::Nor2,
    CellKind::Xor2,
    CellKind::Xnor2,
    CellKind::Mux2,
    CellKind::Aoi21,
    CellKind::Oai21,
];

const SEQ: [CellKind; 4] = [
    CellKind::Dff,
    CellKind::Dffe,
    CellKind::Dffr,
    CellKind::Dffre,
];

/// A random design of `nets` nets (never a multiple of 64): a few
/// enable and reset inputs shared by the registers, data inputs,
/// registers of all four kinds, and an acyclic combinational cloud over
/// everything before it.
fn design(g: &mut Gen, nets: usize) -> (Netlist, Vec<NetId>) {
    assert!(nets % 64 != 0 && nets > 24);
    let mut nl = Netlist::new("rand");
    let controls: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("ctl{i}"))).collect();
    let data: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("in{i}"))).collect();
    let regs = (nets - 8) / 4;
    let q: Vec<NetId> = (0..regs).map(|i| nl.add_net(format!("q{i}"))).collect();
    let mut sources: Vec<NetId> = controls.iter().chain(&data).chain(&q).copied().collect();
    let mut comb_out = Vec::new();
    while sources.len() < nets {
        let kind = COMB[g.below(COMB.len())];
        let ins: Vec<NetId> = (0..kind.input_count())
            .map(|_| sources[g.below(sources.len())])
            .collect();
        let y = nl.add_net(format!("y{}", comb_out.len()));
        nl.add_gate(kind, format!("g{}", comb_out.len()), &ins, y)
            .expect("gate");
        comb_out.push(y);
        sources.push(y);
    }
    for (i, &qn) in q.iter().enumerate() {
        let kind = SEQ[g.below(SEQ.len())];
        let d = sources[g.below(sources.len())];
        let en = controls[g.below(2)];
        let rstn = controls[2 + g.below(2)];
        let ins: Vec<NetId> = match kind {
            CellKind::Dff => vec![d],
            CellKind::Dffe => vec![d, en],
            CellKind::Dffr => vec![d, rstn],
            _ => vec![d, en, rstn],
        };
        nl.add_gate(kind, format!("ff{i}"), &ins, qn)
            .expect("flip-flop");
    }
    let nl = nl.finalize().expect("acyclic");
    assert_eq!(nl.net_count(), nets);
    (nl, controls)
}

fn lv(g: &mut Gen, x_per_8: u64) -> Lv {
    match g.next() % 8 {
        r if r < x_per_8 => Lv::X,
        r if r % 2 == 0 => Lv::Zero,
        _ => Lv::One,
    }
}

/// `count` random 3-valued `(prev, cur)` pairs: `cur` is `prev` with
/// some nets redrawn, so whole cones stay equal; the enable and reset
/// inputs of `prev` take every value (held, unheld and X enables;
/// active, inactive and X resets).
fn pairs(g: &mut Gen, nl: &Netlist, controls: &[NetId], count: usize) -> Vec<(Frame, Frame)> {
    (0..count)
        .map(|_| {
            let x_per_8 = g.next() % 4;
            let mut prev = Frame::new(nl.net_count());
            for i in 0..nl.net_count() {
                prev.set(i, lv(g, x_per_8));
            }
            for &c in controls {
                prev.set(c.index(), lv(g, 2));
            }
            let mut cur = prev.clone();
            let redraw = 1 + g.next() % 16;
            for i in 0..nl.net_count() {
                if g.next() % redraw == 0 {
                    cur.set(i, lv(g, x_per_8));
                }
            }
            (prev, cur)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn block_stability_matches_the_scalar_oracle(
        extra in 0usize..400,
        seed in any::<u64>(),
        count in 65usize..200,
    ) {
        let nets = 30 + extra + usize::from((30 + extra) % 64 == 0);
        let count = count + usize::from(count % 63 == 0 || count % 64 == 0);
        let mut g = Gen(seed | 1);
        let (nl, controls) = design(&mut g, nets);
        let pairs = pairs(&mut g, &nl, &controls, count);
        let mut want = Vec::with_capacity(pairs.len());
        for (p, c) in &pairs {
            let mut w = Vec::new();
            stability_words_into(&nl, p, c, &mut w);
            want.push(w);
        }
        let kernel = BlockStability::new(&nl);
        let refs: Vec<(&Frame, &Frame)> = pairs.iter().map(|(p, c)| (p, c)).collect();
        let tail = nets % 64;
        let mut got = Vec::new();
        for width in [1usize, 2, 63, 64] {
            // `count` is never a multiple of 63 or 64 here, so each
            // chunking ends in a partial block.
            for (b, block) in refs.chunks(width).enumerate() {
                kernel.stability_into(block, &mut got);
                prop_assert_eq!(got.len(), block.len());
                for (k, set) in got.iter().enumerate() {
                    let pair = b * width + k;
                    prop_assert_eq!(set, &want[pair], "width {} pair {}", width, pair);
                    prop_assert_eq!(set.last().copied().unwrap_or(0) >> tail, 0);
                }
            }
        }
    }
}
