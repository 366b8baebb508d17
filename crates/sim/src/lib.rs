//! Lane-generic three-valued cycle simulation.
//!
//! This crate is the `xbound` substitute for the commercial gate-level
//! simulator of the paper's flow. It simulates a finalized
//! [`xbound_netlist::Netlist`] cycle by cycle over the three-valued domain of
//! [`xbound_logic::Lv`], with:
//!
//! * **one engine core** ([`Engine`]): the event-driven machinery is
//!   written once over word-wise lane kernels; [`Simulator`] is its 1-lane
//!   instantiation and [`BatchSimulator`] the wide (up to 64-lane) one;
//! * **X-capable behavioral memories** ([`MemRegion`]) attached through a
//!   single external bus ([`BusSpec`]) — program ROM, data RAM, and the
//!   input-port region whose reads return `X` during symbolic analysis;
//! * **net forcing** ([`Engine::force`], per lane with
//!   [`Engine::force_lane`]) used by the symbolic explorer to constrain
//!   fork nets (e.g. `branch_taken`) when the next PC carries X;
//! * **state save/restore** ([`Engine::<Scalar>::machine_state`] /
//!   [`Engine::set_lane_machine_state`]) used for depth-first exploration
//!   of the execution tree;
//! * a split eval / [`Engine::commit`] cycle so callers can inspect
//!   flip-flop next-values *before* the clock edge.
//!
//! # Example
//!
//! ```
//! use xbound_netlist::rtl::Rtl;
//! use xbound_sim::Simulator;
//! use xbound_logic::Lv;
//!
//! // A 4-bit counter.
//! let mut r = Rtl::new("cnt");
//! let (h, q) = r.reg("c", 4);
//! let one = r.one();
//! let (nx, _) = r.inc(&q, one);
//! r.reg_next(h, &nx);
//! r.output("q", &q);
//! let nl = r.finish().unwrap();
//!
//! let mut sim = Simulator::new(&nl);
//! sim.reset(2);
//! for _ in 0..2 {
//!     sim.step(); // reset cycles
//! }
//! for _ in 0..5 {
//!     sim.step();
//! }
//! sim.eval().unwrap();
//! let q0 = nl.find_net("top/c_q[0]").unwrap();
//! assert_eq!(sim.value(q0), Lv::One); // 5 = 0b0101
//! ```

#![warn(missing_docs)]

pub mod engine;

pub use engine::{BatchMachineState, Engine, Lanes, Scalar, Wide};

/// The 1-lane instantiation of [`Engine`] — the scalar cycle simulator.
pub type Simulator<'n> = Engine<'n, Scalar>;

/// The wide instantiation of [`Engine`] — up to
/// [`xbound_logic::MAX_LANES`] independent runs per gate pass.
pub type BatchSimulator<'n> = Engine<'n, Wide>;

use std::fmt;
use xbound_logic::{Lv, XWord};
use xbound_netlist::NetId;

/// Which evaluation engine [`Simulator::eval`] uses.
///
/// Both engines settle the combinational logic to the same unique fixpoint
/// (the netlist is validated acyclic, so gate values are a pure function of
/// flip-flop, input, and forced values) and therefore produce bit-identical
/// frames; they differ only in how much work a cycle costs. With an
/// attached bus this guarantee relies on the [`BusSpec`] contract that the
/// address must not combinationally depend on read data: the engines seed
/// the read-data settle loop differently (the levelized oracle restarts
/// `rdata` from the input drives each cycle, the event-driven engine keeps
/// the previous cycle's settled values), which converges to the same
/// unique fixpoint exactly when that contract holds. A contract-violating
/// design may settle differently or be detected as
/// [`SimError::BusNotSettled`] by only one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Event-driven incremental evaluation (the default): only the fanout
    /// cone of nets that actually changed since the last settled frame is
    /// re-evaluated, in level order via the netlist's
    /// [`xbound_netlist::Netlist::fanout_comb_of`] /
    /// [`xbound_netlist::Netlist::comb_level`] index.
    #[default]
    EventDriven,
    /// Full levelized re-evaluation of every combinational gate each cycle.
    /// Retained as the differential-testing oracle; select globally with
    /// `XBOUND_SIM_ENGINE=levelized`.
    Levelized,
}

impl EvalMode {
    /// Every value `XBOUND_SIM_ENGINE` accepts, for error messages.
    pub const ACCEPTED: &'static str = "event, event-driven, levelized, oracle";

    /// Parses an `XBOUND_SIM_ENGINE` value (case-insensitive).
    ///
    /// # Errors
    ///
    /// Unknown values are a hard error listing the accepted spellings —
    /// a typo must never silently fall back to the default engine.
    pub fn parse(s: &str) -> Result<EvalMode, String> {
        if s.eq_ignore_ascii_case("event") || s.eq_ignore_ascii_case("event-driven") {
            Ok(EvalMode::EventDriven)
        } else if s.eq_ignore_ascii_case("levelized") || s.eq_ignore_ascii_case("oracle") {
            Ok(EvalMode::Levelized)
        } else {
            Err(format!(
                "unknown XBOUND_SIM_ENGINE value {s:?}; accepted values: {}",
                EvalMode::ACCEPTED
            ))
        }
    }

    /// The engine's human-readable name (as printed by drivers and the
    /// service's `stats`).
    pub fn name(self) -> &'static str {
        match self {
            EvalMode::EventDriven => "event-driven",
            EvalMode::Levelized => "levelized",
        }
    }

    /// The process-wide default: whatever the `XBOUND_SIM_ENGINE`
    /// environment variable selects ([`EvalMode::EventDriven`] when unset).
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value (see [`EvalMode::parse`]).
    pub fn from_env() -> EvalMode {
        match std::env::var("XBOUND_SIM_ENGINE") {
            Ok(v) => match EvalMode::parse(&v) {
                Ok(mode) => mode,
                Err(e) => panic!("{e}"),
            },
            Err(_) => EvalMode::EventDriven,
        }
    }
}

/// How a memory region behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Read-only (program memory); writes are ignored.
    Rom,
    /// Read-write data memory.
    Ram,
    /// Input port: read-only from the processor's perspective; contents are
    /// set by the harness (concrete for profiling, all-X for symbolic runs).
    Port,
}

/// A word-addressed behavioral memory region on the external bus.
///
/// Addresses are byte addresses (MSP430 convention); each region holds
/// 16-bit words; even alignment is assumed.
#[derive(Debug, Clone, PartialEq)]
pub struct MemRegion {
    name: String,
    kind: RegionKind,
    base: u16,
    data: Vec<XWord>,
}

impl MemRegion {
    /// Creates a region of `words` 16-bit words starting at byte address
    /// `base`, initialized to all-X (uninitialized memory).
    pub fn new(name: impl Into<String>, kind: RegionKind, base: u16, words: usize) -> MemRegion {
        MemRegion {
            name: name.into(),
            kind,
            base,
            data: vec![XWord::ALL_X; words],
        }
    }

    /// Region name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Region kind.
    pub fn kind(&self) -> RegionKind {
        self.kind
    }

    /// First byte address.
    pub fn base(&self) -> u16 {
        self.base
    }

    /// Size in 16-bit words.
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// `true` if byte address `addr` falls inside the region.
    pub fn contains(&self, addr: u16) -> bool {
        addr >= self.base && ((addr - self.base) as usize) / 2 < self.data.len()
    }

    /// Reads the word at byte address `addr` (X when out of range).
    pub fn read(&self, addr: u16) -> XWord {
        if addr < self.base {
            return XWord::ALL_X;
        }
        let off = ((addr - self.base) as usize) / 2;
        self.data.get(off).copied().unwrap_or(XWord::ALL_X)
    }

    /// Writes the word at byte address `addr` (out-of-range writes ignored).
    pub fn write(&mut self, addr: u16, value: XWord) {
        if addr < self.base {
            return;
        }
        let off = ((addr - self.base) as usize) / 2;
        if let Some(slot) = self.data.get_mut(off) {
            *slot = value;
        }
    }

    /// Fills the whole region with one value.
    pub fn fill(&mut self, value: XWord) {
        self.data.fill(value);
    }

    /// Loads consecutive words starting at byte address `addr`.
    pub fn load(&mut self, addr: u16, words: &[u16]) {
        for (i, w) in words.iter().enumerate() {
            self.write(addr.wrapping_add((i * 2) as u16), XWord::from_u16(*w));
        }
    }

    /// Raw word storage.
    pub fn data(&self) -> &[XWord] {
        &self.data
    }

    /// Mutable raw word storage.
    pub fn data_mut(&mut self) -> &mut [XWord] {
        &mut self.data
    }
}

/// Net-level description of the external memory bus of a design.
///
/// `rdata` nets must be primary inputs of the netlist; the simulator forces
/// them each cycle from the memory regions. `addr`, `wdata` and `wen` are
/// driven by the netlist and must not combinationally depend on `rdata`.
#[derive(Debug, Clone, Default)]
pub struct BusSpec {
    /// Byte-address nets (LSB first, 16 nets).
    pub addr: Vec<NetId>,
    /// Write-data nets (LSB first, 16 nets).
    pub wdata: Vec<NetId>,
    /// Read-data nets — primary inputs forced by the simulator.
    pub rdata: Vec<NetId>,
    /// Write-enable net (no writes ever happen when `None`).
    pub wen: Option<NetId>,
}

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// `rdata` feedback failed to settle: the bus address combinationally
    /// depends on read data.
    BusNotSettled,
    /// A bus net list has the wrong width or wiring.
    BadBusSpec {
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BusNotSettled => {
                write!(f, "bus address depends combinationally on read data")
            }
            SimError::BadBusSpec { message } => write!(f, "bad bus spec: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Snapshot of all architectural simulator state (flip-flops + memories).
///
/// Used by the symbolic explorer for DFS over the execution tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineState {
    ffs: Vec<Lv>,
    mems: Vec<Vec<XWord>>,
    cycle: u64,
}

impl MachineState {
    /// Simulation cycle at which the snapshot was taken.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Flip-flop values (ordered by the netlist's sequential gate list).
    pub fn ffs(&self) -> &[Lv] {
        &self.ffs
    }

    /// Memory contents, `[region][word]`, in the engine's region order.
    pub fn mems(&self) -> &[Vec<XWord>] {
        &self.mems
    }

    /// Lattice subsumption: `self` covers `other` when every flip-flop and
    /// memory word covers the counterpart (equal, or X where they differ).
    ///
    /// # Panics
    ///
    /// Panics if the two states come from differently-shaped machines.
    pub fn covers(&self, other: &MachineState) -> bool {
        assert_eq!(self.ffs.len(), other.ffs.len(), "machine shape mismatch");
        if !self.ffs.iter().zip(&other.ffs).all(|(a, b)| a.covers(*b)) {
            return false;
        }
        self.mems
            .iter()
            .zip(&other.mems)
            .all(|(ma, mb)| ma.len() == mb.len() && ma.iter().zip(mb).all(|(a, b)| a.covers(*b)))
    }

    /// Lattice join (in place): after the call, `self` covers both inputs.
    ///
    /// The widening heuristic of the symbolic explorer uses this to merge
    /// states at a hot fork PC — conservative per the paper's Chapter 6
    /// (more Xs only widen the activity superset).
    ///
    /// # Panics
    ///
    /// Panics if the two states come from differently-shaped machines.
    pub fn join_in_place(&mut self, other: &MachineState) {
        assert_eq!(self.ffs.len(), other.ffs.len(), "machine shape mismatch");
        for (a, b) in self.ffs.iter_mut().zip(&other.ffs) {
            *a = a.join(*b);
        }
        for (ma, mb) in self.mems.iter_mut().zip(&other.mems) {
            for (a, b) in ma.iter_mut().zip(mb) {
                *a = a.join(*b);
            }
        }
    }
}

/// Reads `addr` from a region set, joining candidates when the address
/// carries a bounded number of X bits (all-X past the bound, or when no
/// region matches). Shared by the scalar and batched simulators.
pub(crate) fn read_regions(mems: &[MemRegion], addr: XWord) -> XWord {
    match addr.to_u16() {
        Some(a) => mems
            .iter()
            .find(|m| m.contains(a))
            .map_or(XWord::ALL_X, |m| m.read(a)),
        None if addr.x_count() <= 4 => enumerate_addresses(addr)
            .into_iter()
            .map(|cand| read_regions(mems, XWord::from_u16(cand)))
            .reduce(XWord::join)
            .unwrap_or(XWord::ALL_X),
        None => XWord::ALL_X,
    }
}

/// Applies one bus write to a region set: definite for `wen == 1`, joined
/// ("maybe written") for `wen == X`, candidate-enumerated or smeared for
/// X addresses. Shared by the scalar and batched simulators.
pub(crate) fn write_regions(mems: &mut [MemRegion], wen: Lv, addr: XWord, wdata: XWord) {
    if wen == Lv::Zero {
        return;
    }
    let maybe = wen == Lv::X;
    match addr.to_u16() {
        Some(a) => {
            for m in mems.iter_mut() {
                if m.contains(a) && m.kind() == RegionKind::Ram {
                    let new = if maybe { m.read(a).join(wdata) } else { wdata };
                    m.write(a, new);
                }
            }
        }
        None if addr.x_count() <= 4 => {
            // A bounded set of candidate addresses: each may be written.
            for cand in enumerate_addresses(addr) {
                for m in mems.iter_mut() {
                    if m.contains(cand) && m.kind() == RegionKind::Ram {
                        let old = m.read(cand);
                        m.write(cand, old.join(wdata));
                    }
                }
            }
        }
        None => {
            // Unknown address: conservatively smear all RAM regions.
            for m in mems.iter_mut() {
                if m.kind() == RegionKind::Ram {
                    for w in m.data_mut() {
                        *w = w.join(wdata);
                    }
                }
            }
        }
    }
}

/// Enumerates all concrete addresses matching a partially-X address.
///
/// Intended for small X counts; callers bound `addr.x_count()`.
pub fn enumerate_addresses(addr: XWord) -> Vec<u16> {
    let x_bits: Vec<usize> = (0..16).filter(|&i| addr.bit(i) == Lv::X).collect();
    let base = addr.val_plane();
    (0..(1u32 << x_bits.len()))
        .map(|combo| {
            let mut a = base;
            for (j, &bit) in x_bits.iter().enumerate() {
                if (combo >> j) & 1 == 1 {
                    a |= 1 << bit;
                }
            }
            a
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbound_netlist::rtl::Rtl;
    use xbound_netlist::Netlist;

    fn counter() -> Netlist {
        let mut r = Rtl::new("cnt");
        let (h, q) = r.reg("c", 4);
        let one = r.one();
        let (nx, _) = r.inc(&q, one);
        r.reg_next(h, &nx);
        r.output("q", &q);
        r.finish().unwrap()
    }

    fn reg_word(sim: &Simulator<'_>, nl: &Netlist, prefix: &str, width: usize) -> XWord {
        let nets: Vec<NetId> = (0..width)
            .map(|i| nl.find_net(&format!("{prefix}[{i}]")).unwrap())
            .collect();
        sim.value_word(&nets)
    }

    #[test]
    fn eval_mode_parse_accepts_every_documented_spelling() {
        for (s, want) in [
            ("event", EvalMode::EventDriven),
            ("event-driven", EvalMode::EventDriven),
            ("EVENT-DRIVEN", EvalMode::EventDriven),
            ("levelized", EvalMode::Levelized),
            ("oracle", EvalMode::Levelized),
            ("Oracle", EvalMode::Levelized),
        ] {
            assert_eq!(EvalMode::parse(s), Ok(want), "spelling {s:?}");
        }
    }

    #[test]
    fn eval_mode_parse_rejects_unknown_values_listing_accepted() {
        for bad in ["", "compiled", "evnt", "levelised", "fast", "0"] {
            let err = EvalMode::parse(bad).expect_err("must be a hard error");
            assert!(err.contains(&format!("{bad:?}")), "names the value: {err}");
            assert!(
                err.contains(EvalMode::ACCEPTED),
                "lists accepted values: {err}"
            );
        }
    }

    #[test]
    fn counter_counts() {
        let nl = counter();
        let mut sim = Simulator::new(&nl);
        sim.reset(2);
        sim.step();
        sim.step();
        for expect in 0u16..10 {
            sim.eval().unwrap();
            assert_eq!(
                reg_word(&sim, &nl, "top/c_q", 4).to_u16(),
                Some(expect & 0xF)
            );
            sim.commit();
        }
    }

    #[test]
    fn force_and_release() {
        let nl = counter();
        let mut sim = Simulator::new(&nl);
        let q0 = nl.find_net("top/c_q[0]").unwrap();
        // Forcing a flip-flop output takes effect at eval and persists in the
        // stored state after release (hardware force semantics).
        sim.force(q0, Some(Lv::X));
        sim.eval().unwrap();
        assert_eq!(sim.value(q0), Lv::X);
        sim.force(q0, None);
        sim.eval().unwrap();
        assert_eq!(sim.value(q0), Lv::X, "FF holds the forced value");

        // Forcing a combinational net overrides its driver and releases
        // cleanly: the increment carry chain recomputes from the FF values.
        let mut sim = Simulator::new(&nl);
        sim.reset(1);
        sim.step();
        sim.eval().unwrap();
        let inc0 = nl.gate(nl.topo_order()[0]).output();
        let natural = sim.value(inc0);
        sim.force(inc0, Some(natural.not()));
        sim.eval().unwrap();
        assert_eq!(sim.value(inc0), natural.not());
        sim.force(inc0, None);
        sim.eval().unwrap();
        assert_eq!(sim.value(inc0), natural);
    }

    #[test]
    fn x_propagates_through_logic() {
        let mut r = Rtl::new("t");
        let a = r.input_bit("a");
        let b = r.input_bit("b");
        let y = r.and(a, b);
        let z = r.or(a, b);
        r.output_bit("y", y);
        r.output_bit("z", z);
        let nl = r.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        let (an, bn) = (nl.find_net("a").unwrap(), nl.find_net("b").unwrap());
        let (yn, zn) = (nl.outputs()[0].1, nl.outputs()[1].1);
        sim.drive_input(an, Lv::X);
        sim.drive_input(bn, Lv::Zero);
        sim.eval().unwrap();
        assert_eq!(sim.value(yn), Lv::Zero, "X AND 0 = 0");
        assert_eq!(sim.value(zn), Lv::X, "X OR 0 = X");
        sim.drive_input(bn, Lv::One);
        sim.eval().unwrap();
        assert_eq!(sim.value(yn), Lv::X, "X AND 1 = X");
        assert_eq!(sim.value(zn), Lv::One, "X OR 1 = 1");
    }

    /// A little bus device: fetches ROM[pc], accumulates, pc += 2.
    fn bus_device() -> (Netlist, Vec<String>) {
        let mut r = Rtl::new("busdev");
        let rdata = r.input("rdata", 16);
        let (hp, pc) = r.reg("pc", 16);
        let (ha, acc) = r.reg("acc", 16);
        let two = r.lit(2, 16);
        let (pcn, _) = r.add(&pc, &two, None);
        r.reg_next(hp, &pcn);
        let (sum, _) = r.add(&acc, &rdata, None);
        r.reg_next(ha, &sum);
        let hi = r.lit(0xF000, 16);
        let addr = r.or_bus(&hi, &pc);
        let zero = r.zero();
        r.output("addr", &addr);
        r.output("acc", &acc);
        r.output_bit("wen", zero);
        let nl = r.finish().unwrap();
        (nl, vec![])
    }

    fn output_bus(nl: &Netlist, name: &str, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| {
                nl.outputs()
                    .iter()
                    .find(|(n, _)| n == &format!("{name}[{i}]"))
                    .map(|(_, net)| *net)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn bus_read_accumulates_rom() {
        let (nl, _) = bus_device();
        let addr = output_bus(&nl, "addr", 16);
        let rdata: Vec<NetId> = (0..16)
            .map(|i| nl.find_net(&format!("rdata[{i}]")).unwrap())
            .collect();
        let bus = BusSpec {
            addr,
            wdata: rdata.clone(), // unused (wen None)
            rdata,
            wen: None,
        };
        let mut rom = MemRegion::new("pmem", RegionKind::Rom, 0xF000, 8);
        rom.load(0xF000, &[5, 7, 11, 13]);
        let mut sim = Simulator::new(&nl);
        sim.attach_bus(bus, vec![rom]).unwrap();
        sim.reset(1);
        sim.step();
        for _ in 0..4 {
            sim.step();
        }
        sim.eval().unwrap();
        let acc = sim.value_word(&output_bus(&nl, "acc", 16));
        assert_eq!(acc.to_u16(), Some(5 + 7 + 11 + 13));
    }

    #[test]
    fn port_region_returns_x_when_unset() {
        let (nl, _) = bus_device();
        let addr = output_bus(&nl, "addr", 16);
        let rdata: Vec<NetId> = (0..16)
            .map(|i| nl.find_net(&format!("rdata[{i}]")).unwrap())
            .collect();
        let bus = BusSpec {
            addr,
            wdata: rdata.clone(),
            rdata,
            wen: None,
        };
        let port = MemRegion::new("inport", RegionKind::Port, 0xF000, 8);
        let mut sim = Simulator::new(&nl);
        sim.attach_bus(bus, vec![port]).unwrap();
        sim.reset(1);
        sim.step();
        sim.step();
        sim.step();
        sim.eval().unwrap();
        let acc = sim.value_word(&output_bus(&nl, "acc", 16));
        assert!(acc.has_x(), "accumulating X port data yields X");
    }

    #[test]
    fn bad_bus_spec_rejected() {
        let (nl, _) = bus_device();
        let mut sim = Simulator::new(&nl);
        let err = sim.attach_bus(BusSpec::default(), vec![]).unwrap_err();
        assert!(matches!(err, SimError::BadBusSpec { .. }));
        // rdata not primary inputs:
        let addr = output_bus(&nl, "addr", 16);
        let err2 = sim
            .attach_bus(
                BusSpec {
                    addr: addr.clone(),
                    wdata: addr.clone(),
                    rdata: addr.clone(),
                    wen: None,
                },
                vec![],
            )
            .unwrap_err();
        assert!(matches!(err2, SimError::BadBusSpec { .. }));
    }

    #[test]
    fn machine_state_round_trip() {
        let nl = counter();
        let mut sim = Simulator::new(&nl);
        sim.reset(1);
        for _ in 0..5 {
            sim.step();
        }
        let snap = sim.machine_state();
        for _ in 0..7 {
            sim.step();
        }
        let later = sim.machine_state();
        assert_ne!(snap.ffs(), later.ffs());
        sim.set_machine_state(&snap);
        assert_eq!(sim.machine_state(), snap);
        assert_eq!(sim.cycle(), snap.cycle());
    }

    #[test]
    fn state_covers_and_join() {
        let nl = counter();
        let mut sim = Simulator::new(&nl);
        sim.reset(1);
        sim.step();
        sim.step();
        let a = sim.machine_state();
        sim.step();
        let b = sim.machine_state();
        assert!(!a.covers(&b));
        let mut j = a.clone();
        j.join_in_place(&b);
        assert!(j.covers(&a));
        assert!(j.covers(&b));
        assert!(a.covers(&a));
    }

    #[test]
    fn enumerate_addresses_expands_x_bits() {
        let mut a = XWord::from_u16(0x0200);
        a.set_bit(1, Lv::X);
        a.set_bit(2, Lv::X);
        let mut addrs = enumerate_addresses(a);
        addrs.sort_unstable();
        assert_eq!(addrs, vec![0x0200, 0x0202, 0x0204, 0x0206]);
    }

    #[test]
    fn mem_region_rw() {
        let mut m = MemRegion::new("dmem", RegionKind::Ram, 0x0200, 4);
        assert!(m.contains(0x0200));
        assert!(m.contains(0x0206));
        assert!(!m.contains(0x0208));
        assert!(!m.contains(0x01FE));
        m.write(0x0202, XWord::from_u16(42));
        assert_eq!(m.read(0x0202).to_u16(), Some(42));
        assert_eq!(m.read(0x0204).to_u16(), None); // uninitialized = X
        m.fill(XWord::from_u16(0));
        assert_eq!(m.read(0x0204).to_u16(), Some(0));
    }

    #[test]
    fn x_address_write_smears_ram() {
        // Build a device that writes wdata to an X address.
        let mut r = Rtl::new("wsmear");
        let rdata = r.input("rdata", 16);
        let wen_in = r.input_bit("wen_in");
        let addr_in = r.input("addr_in", 16);
        let data_in = r.input("data_in", 16);
        // Pass-throughs so the bus sees netlist-driven values.
        let addr: Vec<_> = addr_in.clone();
        let _ = rdata;
        r.output("addr", &addr);
        r.output("wdata", &data_in);
        r.output_bit("wen", wen_in);
        let nl = r.finish().unwrap();
        let bus = BusSpec {
            addr: (0..16)
                .map(|i| nl.find_net(&format!("addr_in[{i}]")).unwrap())
                .collect(),
            wdata: (0..16)
                .map(|i| nl.find_net(&format!("data_in[{i}]")).unwrap())
                .collect(),
            rdata: (0..16)
                .map(|i| nl.find_net(&format!("rdata[{i}]")).unwrap())
                .collect(),
            wen: nl.find_net("wen_in"),
        };
        let mut ram = MemRegion::new("dmem", RegionKind::Ram, 0x0200, 4);
        ram.fill(XWord::from_u16(0));
        let mut sim = Simulator::new(&nl);
        sim.attach_bus(bus, vec![ram]).unwrap();
        // Drive a write of 0xFFFF to a fully X address.
        for i in 0..16 {
            let n = nl.find_net(&format!("addr_in[{i}]")).unwrap();
            sim.drive_input(n, Lv::X);
            let d = nl.find_net(&format!("data_in[{i}]")).unwrap();
            sim.drive_input(d, Lv::One);
        }
        sim.drive_input(nl.find_net("wen_in").unwrap(), Lv::One);
        sim.step();
        let dmem = sim.mem("dmem").unwrap();
        for w in dmem.data() {
            assert!(w.has_x(), "smeared word must be X where it differed");
        }
    }
}
