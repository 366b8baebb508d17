//! The lane-generic event-driven engine core.
//!
//! There is exactly **one** simulation engine in `xbound`: [`Engine`],
//! generic over a [`Lanes`] marker. All machinery — the event-driven
//! fanout/cone dirty propagation over level buckets, the levelized oracle,
//! the external-bus settle loop, per-lane memories, forces, flip-flop
//! commit rules, and machine-state snapshot/restore — is written once over
//! word-wise [`LaneVal`] kernels and instantiated twice:
//!
//! * [`crate::Simulator`]` = Engine<Scalar>` — the 1-lane instantiation.
//!   Its public API speaks scalar [`Lv`] values and packed [`Frame`]s,
//!   exactly like the historical scalar simulator, but every cycle is
//!   settled by the same generic core (a 1-bit lane mask in a `u64` plane
//!   pair).
//! * [`crate::BatchSimulator`]` = Engine<Wide>` — up to
//!   [`xbound_logic::MAX_LANES`] independent runs per gate pass. Lane `l`
//!   of every frame is bit-identical to a 1-lane run under the same
//!   stimulus (asserted by `crates/sim/tests/batch_differential.rs`).
//!
//! Lanes never interact: every kernel is lane-wise, each lane owns its
//! external-bus memories and drives, and forces carry a lane mask
//! ([`Engine::force_lane`]) so the symbolic explorer can constrain a fork
//! net in one lane while sibling lanes keep simulating their own branches.

use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;
use xbound_logic::{BatchFrame, Frame, LaneVal, Lv, XWord, MAX_LANES};
use xbound_netlist::{CellKind, Gate, GateId, NetId, Netlist};

use crate::{read_regions, write_regions, BusSpec, EvalMode, MachineState, MemRegion, SimError};

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Scalar {}
    impl Sealed for super::Wide {}
}

/// Marker trait selecting an [`Engine`] instantiation (sealed: the only
/// implementors are [`Scalar`] and [`Wide`]).
pub trait Lanes: sealed::Sealed + Copy + Send + Sync + fmt::Debug + 'static {
    /// Upper bound on the lane count of this instantiation.
    const MAX: usize;
}

/// The 1-lane instantiation marker: [`crate::Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scalar;

/// The wide instantiation marker (up to [`MAX_LANES`] lanes):
/// [`crate::BatchSimulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wide;

impl Lanes for Scalar {
    const MAX: usize = 1;
}

impl Lanes for Wide {
    const MAX: usize = MAX_LANES;
}

/// A lane-masked force: lanes in `mask` are overridden with the matching
/// lanes of `val`; lanes outside keep their natural value. `mask == 0`
/// means unforced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LaneForce {
    mask: u64,
    val: LaneVal,
}

impl LaneForce {
    #[inline]
    pub(crate) fn apply(self, natural: LaneVal) -> LaneVal {
        LaneVal::from_planes(
            (natural.val & !self.mask) | (self.val.val & self.mask),
            (natural.unk & !self.mask) | (self.val.unk & self.mask),
        )
    }

    #[inline]
    fn is_set(self) -> bool {
        self.mask != 0
    }
}

/// Snapshot of all architectural state of every lane of an
/// [`Engine<Wide>`] (flip-flops + per-lane memories).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchMachineState {
    lanes: usize,
    ffs: Vec<LaneVal>,
    /// `[lane][region][word]`.
    mems: Vec<Vec<Vec<XWord>>>,
    cycle: u64,
}

impl BatchMachineState {
    /// Simulation cycle at which the snapshot was taken.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of lanes in the snapshot.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Extracts one lane as a scalar [`MachineState`] — shape-compatible
    /// with [`Engine::lane_machine_state`] for differential checks.
    ///
    /// # Panics
    ///
    /// Panics if `l >= lanes()`.
    pub fn lane_state(&self, l: usize) -> MachineState {
        assert!(l < self.lanes, "lane {l} out of range {}", self.lanes);
        MachineState {
            ffs: self.ffs.iter().map(|v| v.get(l)).collect(),
            // Empty when no bus/memories are attached.
            mems: self.mems.get(l).cloned().unwrap_or_default(),
            cycle: self.cycle,
        }
    }
}

/// The lane-generic event-driven cycle simulator over a finalized netlist.
///
/// See the [module documentation](self) for the design; use the
/// [`crate::Simulator`] / [`crate::BatchSimulator`] aliases.
#[derive(Debug, Clone)]
pub struct Engine<'n, L: Lanes> {
    nl: &'n Netlist,
    lanes: usize,
    frame: BatchFrame,
    forces: Vec<LaneForce>,
    /// One bit per net with a set force: an unforced net (nearly every
    /// net, nearly always) skips the 24-byte force load.
    forced: Vec<u64>,
    drives: HashMap<NetId, LaneVal>,
    bus: Option<BusSpec>,
    /// Per-lane region sets: `mems[lane][region]`.
    mems: Vec<Vec<MemRegion>>,
    cycle: u64,
    evaled: bool,
    rstn_net: Option<NetId>,
    reset_remaining: u32,
    mode: EvalMode,
    // Event-driven engine state: per-gate dirty flags and a bucket queue
    // indexed by combinational level. `full_dirty` forces one complete
    // evaluation (power-on, or after an engine switch).
    dirty: Vec<bool>,
    buckets: Vec<Vec<GateId>>,
    is_rdata: Vec<bool>,
    full_dirty: bool,
    /// Lifetime count of gate evaluations: dirty-queue gates processed
    /// (event-driven) or full topological sweeps (levelized) — the
    /// denominator of the ns/gate-pass throughput numbers in
    /// `BENCH_sim.json`.
    gate_evals: u64,
    /// Lane-0 view of the settled frame, refreshed by
    /// [`Engine::<Scalar>::eval`] (unused by the wide instantiation).
    scalar_frame: Frame,
    /// Net-level change log, one bit per net (see
    /// [`Engine::set_change_logging`]).
    changed: Vec<u64>,
    log_changes: bool,
    /// Flip-flop next-state buffer reused by every [`Engine::commit`].
    ff_next: Vec<LaneVal>,
    _mode: PhantomData<L>,
}

impl<'n, L: Lanes> Engine<'n, L> {
    fn new_inner(nl: &'n Netlist, lanes: usize) -> Engine<'n, L> {
        assert!(nl.is_finalized(), "netlist must be finalized");
        assert!(
            (1..=L::MAX).contains(&lanes),
            "lane count {lanes} outside 1..={}",
            L::MAX
        );
        let rstn_net = nl
            .inputs()
            .iter()
            .copied()
            .find(|&n| nl.net_name(n) == "rstn");
        Engine {
            nl,
            lanes,
            frame: BatchFrame::new(nl.net_count(), lanes),
            forces: vec![LaneForce::default(); nl.net_count()],
            forced: vec![0; nl.net_count().div_ceil(64)],
            drives: HashMap::new(),
            bus: None,
            mems: vec![Vec::new(); lanes],
            cycle: 0,
            evaled: false,
            rstn_net,
            reset_remaining: 0,
            mode: EvalMode::from_env(),
            dirty: vec![false; nl.gate_count()],
            buckets: vec![Vec::new(); nl.comb_level_count()],
            is_rdata: vec![false; nl.net_count()],
            full_dirty: true,
            gate_evals: 0,
            scalar_frame: Frame::new(nl.net_count()),
            changed: vec![0; nl.net_count().div_ceil(64)],
            log_changes: false,
            ff_next: Vec::new(),
            _mode: PhantomData,
        }
    }

    /// Enables (or disables) the net-level change log: every frame write
    /// that actually changes a net's value sets the net's bit in a
    /// per-net bitset, which callers drain with
    /// [`Engine::swap_change_log`].
    ///
    /// Consumers that maintain per-lane views of the frame (the batched
    /// symbolic explorer, the batched concrete profiler) use this to pay
    /// O(changed nets) per cycle instead of re-scanning the whole frame.
    /// A net written several times (e.g. over bus settle iterations) is
    /// logged once, and a net that changed and changed back is still
    /// logged: the log is a superset of the nets that differ.
    pub fn set_change_logging(&mut self, enabled: bool) {
        self.log_changes = enabled;
        self.changed.fill(0);
    }

    /// Drains the change log into `buf` (replacing its contents): every
    /// net written with a new value since the previous drain, in
    /// strictly ascending order. Ascending is the order the power
    /// accumulators need for bit-identical f64 sums, so callers pass the
    /// log on as is.
    pub fn swap_change_log(&mut self, buf: &mut Vec<u32>) {
        buf.clear();
        for (w, word) in self.changed.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                buf.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    #[inline]
    fn log_change(&mut self, i: usize) {
        if self.log_changes {
            self.changed[i / 64] |= 1 << (i % 64);
        }
    }

    /// The net's force, or `None` when no lane of it is forced.
    #[inline]
    fn force_of(&self, i: usize) -> Option<LaneForce> {
        ((self.forced[i / 64] >> (i % 64)) & 1 == 1).then(|| self.forces[i])
    }

    /// `v` with the net's force applied.
    #[inline]
    fn apply_force(&self, i: usize, v: LaneVal) -> LaneVal {
        match self.force_of(i) {
            Some(f) => f.apply(v),
            None => v,
        }
    }

    /// Stores a force and keeps the forced-net bitset in step.
    fn store_force(&mut self, i: usize, f: LaneForce) {
        let bit = 1u64 << (i % 64);
        if f.is_set() {
            self.forced[i / 64] |= bit;
        } else {
            self.forced[i / 64] &= !bit;
        }
        self.forces[i] = f;
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &'n Netlist {
        self.nl
    }

    /// Number of committed clock edges so far (shared by all lanes).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The evaluation engine in use.
    pub fn eval_mode(&self) -> EvalMode {
        self.mode
    }

    /// Switches the evaluation engine.
    ///
    /// Switching to [`EvalMode::EventDriven`] schedules one full
    /// re-evaluation so the incremental invariant (every clean gate's frame
    /// value equals its function of the current frame) is re-established.
    pub fn set_eval_mode(&mut self, mode: EvalMode) {
        if mode == self.mode {
            return;
        }
        self.mode = mode;
        self.full_dirty = true;
        self.evaled = false;
    }

    /// Attaches the external bus; every lane receives its own copy of the
    /// `mems` region set (diverge them through [`Engine::mem_mut_lane`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadBusSpec`] when bus widths are not 16 bits or
    /// `rdata` nets are not primary inputs.
    pub fn attach_bus(&mut self, bus: BusSpec, mems: Vec<MemRegion>) -> Result<(), SimError> {
        if bus.addr.len() != 16 || bus.rdata.len() != 16 || bus.wdata.len() != 16 {
            return Err(SimError::BadBusSpec {
                message: format!(
                    "expected 16-bit addr/rdata/wdata, got {}/{}/{}",
                    bus.addr.len(),
                    bus.rdata.len(),
                    bus.wdata.len()
                ),
            });
        }
        for &n in &bus.rdata {
            if !self.nl.inputs().contains(&n) {
                return Err(SimError::BadBusSpec {
                    message: format!("rdata net `{}` is not a primary input", self.nl.net_name(n)),
                });
            }
        }
        self.is_rdata = vec![false; self.nl.net_count()];
        for &n in &bus.rdata {
            self.is_rdata[n.index()] = true;
        }
        self.bus = Some(bus);
        self.mems = vec![mems; self.lanes];
        self.evaled = false;
        Ok(())
    }

    /// One lane of a net in the current frame.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes()`.
    pub fn value_lane(&self, net: NetId, lane: usize) -> Lv {
        self.frame.get_lane(net.index(), lane)
    }

    /// Reads a bus (LSB-first net list) of one lane as an [`XWord`].
    ///
    /// # Panics
    ///
    /// Panics if `nets` is longer than 16 or `lane >= lanes()`.
    pub fn value_word_lane(&self, nets: &[NetId], lane: usize) -> XWord {
        assert!(nets.len() <= 16, "bus wider than 16 bits");
        let mut w = XWord::ZERO;
        for (i, &n) in nets.iter().enumerate() {
            w.set_bit(i, self.frame.get_lane(n.index(), lane));
        }
        w
    }

    /// Extracts one lane of the settled frame as a scalar [`Frame`].
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes()`.
    pub fn lane_frame(&self, lane: usize) -> Frame {
        self.frame.lane_frame(lane)
    }

    /// Drives a primary input with the same persistent value in every lane.
    pub fn drive_input(&mut self, net: NetId, v: Lv) {
        let mask = self.frame.lane_mask();
        self.drives.insert(net, LaneVal::splat(v, mask));
        self.evaled = false;
    }

    /// Drives a primary input in one lane only (other lanes keep their
    /// current drive, default `0`).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes()`.
    pub fn drive_input_lane(&mut self, net: NetId, lane: usize, v: Lv) {
        assert!(lane < self.lanes, "lane {lane} out of range {}", self.lanes);
        self.drives.entry(net).or_insert(LaneVal::ZERO).set(lane, v);
        self.evaled = false;
    }

    /// Forces (or releases, with `None`) a net to the same value in every
    /// lane, overriding its driver. Forces persist across cycles until
    /// released.
    pub fn force(&mut self, net: NetId, v: Option<Lv>) {
        let mask = self.frame.lane_mask();
        let f = match v {
            Some(f) => LaneForce {
                mask,
                val: LaneVal::splat(f, mask),
            },
            None => LaneForce::default(),
        };
        self.store_force(net.index(), f);
        self.force_mark_dirty(net);
    }

    /// Forces (or releases, with `None`) a net in **one lane only**; other
    /// lanes keep their natural value (or their own lane force).
    ///
    /// The symbolic explorer uses this to constrain the `branch_taken` net
    /// of the branch it is re-simulating in lane `lane` while sibling
    /// branches in other lanes keep running unforced.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes()`.
    pub fn force_lane(&mut self, net: NetId, lane: usize, v: Option<Lv>) {
        assert!(lane < self.lanes, "lane {lane} out of range {}", self.lanes);
        let bit = 1u64 << lane;
        let mut f = self.forces[net.index()];
        match v {
            Some(value) => {
                f.mask |= bit;
                f.val.set(lane, value);
            }
            None => {
                f.mask &= !bit;
                f.val.set(lane, Lv::Zero);
            }
        }
        self.store_force(net.index(), f);
        self.force_mark_dirty(net);
    }

    /// After a force change, the driving gate must re-evaluate (apply the
    /// force, or recompute the natural value on release). Forced inputs
    /// and flip-flop outputs are re-applied by every eval anyway.
    fn force_mark_dirty(&mut self, net: NetId) {
        if self.mode == EvalMode::EventDriven {
            if let Some(g) = self
                .nl
                .driver_of(net)
                .filter(|&g| !self.nl.gate(g).kind().is_sequential())
            {
                self.mark_gate_dirty(g);
            }
        }
        self.evaled = false;
    }

    /// Schedules `cycles` of reset for all lanes: `rstn` is held 0 for
    /// that many upcoming cycles, then released to 1.
    pub fn reset(&mut self, cycles: u32) {
        self.reset_remaining = cycles;
        self.evaled = false;
    }

    /// Looks a region of one lane up by name.
    pub fn mem_lane(&self, name: &str, lane: usize) -> Option<&MemRegion> {
        self.mems[lane].iter().find(|m| m.name() == name)
    }

    /// Mutable access to a region of one lane by name.
    pub fn mem_mut_lane(&mut self, name: &str, lane: usize) -> Option<&mut MemRegion> {
        self.evaled = false;
        self.mems[lane].iter_mut().find(|m| m.name() == name)
    }

    /// Evaluates one combinational cell over all lanes at once, reading
    /// its fixed-arity input pins.
    #[inline]
    fn eval_cell(&self, gate: &Gate) -> LaneVal {
        let ins = gate.input_array();
        let v = |i: usize| self.frame.get(ins[i].index());
        let mask = self.frame.lane_mask();
        match gate.kind() {
            CellKind::Tie0 => LaneVal::ZERO,
            CellKind::Tie1 => LaneVal::splat(Lv::One, mask),
            CellKind::Buf => v(0),
            CellKind::Inv => v(0).not(mask),
            CellKind::And2 => v(0).and(v(1)),
            CellKind::Or2 => v(0).or(v(1)),
            CellKind::Nand2 => v(0).nand(v(1), mask),
            CellKind::Nor2 => v(0).nor(v(1), mask),
            CellKind::Xor2 => v(0).xor(v(1)),
            CellKind::Xnor2 => v(0).xnor(v(1), mask),
            CellKind::Mux2 => LaneVal::mux(v(2), v(0), v(1)),
            CellKind::Aoi21 => LaneVal::aoi21(v(0), v(1), v(2), mask),
            CellKind::Oai21 => LaneVal::oai21(v(0), v(1), v(2), mask),
            CellKind::Dff | CellKind::Dffe | CellKind::Dffr | CellKind::Dffre => {
                unreachable!("sequential gate in combinational evaluation")
            }
        }
    }

    // --- event-driven core ----------------------------------------------

    fn mark_gate_dirty(&mut self, g: GateId) {
        if !self.dirty[g.index()] {
            self.dirty[g.index()] = true;
            self.buckets[self.nl.comb_level(g) as usize].push(g);
        }
    }

    /// Marks the combinational readers of net `i` dirty, reading each
    /// reader's level from the netlist's CSR fanout.
    #[inline]
    fn mark_readers_dirty(&mut self, i: usize) {
        let nl = self.nl;
        for r in nl.fanout_comb_of(NetId(i as u32)) {
            let g = r.gate.index();
            if !self.dirty[g] {
                self.dirty[g] = true;
                self.buckets[r.level as usize].push(r.gate);
            }
        }
    }

    /// Keeps the lane-0 scalar frame view coherent with a write to the
    /// batched frame. Compiled out of the wide instantiation; the 1-lane
    /// instantiation pays O(1) per changed net instead of a full
    /// transpose per settled cycle.
    #[inline]
    fn mirror_scalar(&mut self, i: usize, v: LaneVal) {
        if L::MAX == 1 {
            self.scalar_frame.set(i, v.get(0));
        }
    }

    /// Writes `net` (batched + scalar mirror + change log) without dirty
    /// propagation — the levelized oracle's store.
    #[inline]
    fn store_net_levelized(&mut self, i: usize, v: LaneVal) {
        if self.frame.replace(i, v) {
            self.mirror_scalar(i, v);
            self.log_change(i);
        }
    }

    /// Writes `net` and, when any lane changed, marks its combinational
    /// readers dirty.
    fn set_net(&mut self, net: NetId, v: LaneVal) {
        let i = net.index();
        if self.frame.replace(i, v) {
            self.mirror_scalar(i, v);
            self.log_change(i);
            self.mark_readers_dirty(i);
        }
    }

    /// Drains the dirty set in level order. A processed gate whose output
    /// changes marks its readers dirty; readers are always at a strictly
    /// higher level, so one ascending sweep settles the whole changed cone
    /// — for every lane at once.
    fn process_dirty(&mut self) {
        let gates = self.nl.gates();
        for lvl in 0..self.buckets.len() {
            let mut bucket = std::mem::take(&mut self.buckets[lvl]);
            self.gate_evals += bucket.len() as u64;
            for &g in &bucket {
                let gate = &gates[g.index()];
                let out = gate.output().index();
                let v = self.apply_force(out, self.eval_cell(gate));
                self.dirty[g.index()] = false;
                self.set_net(NetId(out as u32), v);
            }
            bucket.clear();
            // Put the buffer back to keep its capacity for the next sweep.
            self.buckets[lvl] = bucket;
        }
    }

    /// The input value of net `n` for this cycle: drive (or default 0),
    /// then the reset override, then any force.
    fn input_value(&self, n: NetId, rstn_v: Lv) -> LaneVal {
        let mask = self.frame.lane_mask();
        let mut v = self.drives.get(&n).copied().unwrap_or(LaneVal::ZERO);
        if Some(n) == self.rstn_net {
            v = LaneVal::splat(rstn_v, mask);
        }
        self.apply_force(n.index(), v)
    }

    fn rstn_value(&self) -> Lv {
        if self.reset_remaining > 0 {
            Lv::Zero
        } else {
            Lv::One
        }
    }

    fn apply_inputs_event(&mut self) {
        let rstn_v = self.rstn_value();
        let has_bus = self.bus.is_some();
        for &n in self.nl.inputs() {
            // Bus read-data inputs are owned by the settle loop: writing
            // the default drive here would only inject a spurious 0 that
            // the memory lookup overwrites a moment later, dirtying the
            // (large) instruction-fetch cone twice per cycle.
            if has_bus && self.is_rdata[n.index()] {
                continue;
            }
            let v = self.input_value(n, rstn_v);
            self.set_net(n, v);
        }
    }

    /// The bus address of every lane: one lane word per address bit.
    fn addr_words(&self, bus: &BusSpec) -> [LaneVal; 16] {
        std::array::from_fn(|i| self.frame.get(bus.addr[i].index()))
    }

    /// One rdata forcing pass: per-lane memory lookups merged into one
    /// batched write per rdata net (respecting forces). Addresses and
    /// read data cross between lane words and per-lane [`XWord`]s by bit
    /// transposes.
    fn write_rdata(&mut self, bus: &BusSpec, addr: &[LaneVal; 16], levelized: bool) {
        let mut rdata = [LaneVal::ZERO; 16];
        for l in 0..self.lanes {
            let (mut val, mut unk) = (0u16, 0u16);
            for (i, a) in addr.iter().enumerate() {
                val |= (((a.val >> l) & 1) as u16) << i;
                unk |= (((a.unk >> l) & 1) as u16) << i;
            }
            let r = read_regions(&self.mems[l], XWord::from_planes(val, unk));
            let (val, unk) = (r.val_plane(), r.unk_plane());
            for (i, d) in rdata.iter_mut().enumerate() {
                d.val |= u64::from((val >> i) & 1) << l;
                d.unk |= u64::from((unk >> i) & 1) << l;
            }
        }
        for (&n, lv) in bus.rdata.iter().zip(rdata) {
            let v = self.apply_force(n.index(), lv);
            if levelized {
                self.store_net_levelized(n.index(), v);
            } else {
                self.set_net(n, v);
            }
        }
    }

    fn settle_bus(&mut self, bus: &BusSpec) -> Result<(), SimError> {
        // The levelized oracle stores read data directly (no dirty
        // propagation — the next pass re-evaluates everything anyway).
        let direct = self.mode != EvalMode::EventDriven;
        let mut last_addr = self.addr_words(bus);
        for _ in 0..4 {
            self.write_rdata(bus, &last_addr, direct);
            match self.mode {
                EvalMode::EventDriven => self.process_dirty(),
                EvalMode::Levelized => self.eval_comb_once(),
            }
            let addr_now = self.addr_words(bus);
            if addr_now == last_addr {
                return Ok(());
            }
            last_addr = addr_now;
        }
        Err(SimError::BusNotSettled)
    }

    fn eval_event(&mut self) -> Result<(), SimError> {
        if self.full_dirty {
            let nl = self.nl;
            for &g in nl.topo_order() {
                self.mark_gate_dirty(g);
            }
            self.full_dirty = false;
        }
        self.apply_inputs_event();
        for &g in self.nl.sequential_gates() {
            let out = self.nl.gate(g).output();
            if let Some(f) = self.force_of(out.index()) {
                let v = f.apply(self.frame.get(out.index()));
                self.set_net(out, v);
            }
        }
        self.process_dirty();
        if let Some(bus) = self.bus.take() {
            let r = self.settle_bus(&bus);
            self.bus = Some(bus);
            r?;
        }
        Ok(())
    }

    // --- levelized oracle ------------------------------------------------

    fn apply_inputs_levelized(&mut self) {
        let rstn_v = self.rstn_value();
        for &n in self.nl.inputs() {
            let v = self.input_value(n, rstn_v);
            self.store_net_levelized(n.index(), v);
        }
    }

    fn eval_comb_once(&mut self) {
        self.gate_evals += self.nl.topo_order().len() as u64;
        for &g in self.nl.topo_order() {
            let gate = self.nl.gate(g);
            let out = gate.output().index();
            let v = self.apply_force(out, self.eval_cell(gate));
            self.store_net_levelized(out, v);
        }
    }

    fn eval_levelized(&mut self) -> Result<(), SimError> {
        self.apply_inputs_levelized();
        // Forces on flip-flop outputs take effect immediately (commit also
        // honors them, keeping the forced value across edges).
        for &g in self.nl.sequential_gates() {
            let out = self.nl.gate(g).output();
            if let Some(f) = self.force_of(out.index()) {
                let v = f.apply(self.frame.get(out.index()));
                self.store_net_levelized(out.index(), v);
            }
        }
        self.eval_comb_once();
        if let Some(bus) = self.bus.take() {
            let r = self.settle_bus(&bus);
            self.bus = Some(bus);
            r?;
        }
        Ok(())
    }

    /// Lifetime count of gate evaluations performed by this engine: gates
    /// popped off the dirty queue (event-driven) or gates of full
    /// topological sweeps (levelized) — the denominator of ns/gate-pass
    /// throughput comparisons.
    pub fn gate_evals(&self) -> u64 {
        self.gate_evals
    }

    /// Settles the combinational logic of every lane for the current
    /// cycle. Idempotent until state changes. The typed
    /// `eval` wrappers ([`Engine::<Scalar>::eval`], [`Engine::<Wide>::eval`])
    /// add the instantiation-specific frame view on top.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BusNotSettled`] if any lane's address keeps
    /// changing after read-data forcing (combinational bus loop).
    pub fn settle(&mut self) -> Result<(), SimError> {
        if self.evaled {
            return Ok(());
        }
        match self.mode {
            EvalMode::EventDriven => self.eval_event()?,
            EvalMode::Levelized => self.eval_levelized()?,
        }
        self.evaled = true;
        Ok(())
    }

    // --- flip-flop commit -------------------------------------------------

    /// Computes the next value of every flip-flop (all lanes) from the
    /// settled frame.
    ///
    /// Exposed so the symbolic explorer can inspect next-state (e.g. the
    /// PC register) *before* committing the clock edge.
    ///
    /// # Panics
    ///
    /// Panics unless the current cycle settled successfully.
    pub fn ff_next_lanes(&self) -> Vec<LaneVal> {
        let mut next = Vec::new();
        self.ff_next_into(&mut next);
        next
    }

    /// [`Engine::ff_next_lanes`] into a caller-owned buffer (replacing its
    /// contents), so a per-cycle caller reuses one allocation.
    ///
    /// # Panics
    ///
    /// Panics unless the current cycle settled successfully.
    pub fn ff_next_into(&self, next: &mut Vec<LaneVal>) {
        assert!(self.evaled, "eval() before inspecting flip-flop inputs");
        next.clear();
        next.extend(self.nl.sequential_gates().iter().map(|&g| {
            let gate = self.nl.gate(g);
            let ins = gate.input_array();
            let q = self.frame.get(gate.output().index());
            let v = |i: usize| self.frame.get(ins[i].index());
            match gate.kind() {
                CellKind::Dff => v(0),
                CellKind::Dffe => {
                    let d = v(0);
                    LaneVal::select(v(1), q, d, d.join(q))
                }
                CellKind::Dffr => {
                    let d = v(0);
                    LaneVal::select(v(1), LaneVal::ZERO, d, d.join(LaneVal::ZERO))
                }
                CellKind::Dffre => {
                    let d = v(0);
                    let after_en = LaneVal::select(v(1), q, d, d.join(q));
                    LaneVal::select(v(2), LaneVal::ZERO, after_en, after_en.join(LaneVal::ZERO))
                }
                _ => unreachable!("combinational gate in sequential list"),
            }
        }));
    }

    fn commit_memory_writes(&mut self, active: u64) {
        let Some(bus) = self.bus.take() else {
            return;
        };
        if let Some(wen_net) = bus.wen {
            for l in 0..self.lanes {
                if (active >> l) & 1 == 0 {
                    continue; // frozen lane: no clock edge, no write
                }
                let wen = self.frame.get_lane(wen_net.index(), l);
                if wen == Lv::Zero {
                    continue; // skip the addr/wdata sweeps on write-free cycles
                }
                let addr = self.value_word_lane(&bus.addr, l);
                let wdata = self.value_word_lane(&bus.wdata, l);
                write_regions(&mut self.mems[l], wen, addr, wdata);
            }
        }
        self.bus = Some(bus);
    }

    /// [`Engine::commit_with_next_lanes`] restricted to the lanes of
    /// `active`: lanes outside the mask receive **no clock edge** — their
    /// flip-flops hold, their memories see no write, and (in the
    /// event-driven engine) they therefore contribute no dirty work to
    /// subsequent passes.
    ///
    /// The batched symbolic explorer freezes lanes whose branch already
    /// finished this way while the rest of the batch keeps stepping; a
    /// frozen lane's architectural state stays exactly where it ended.
    /// The global cycle counter still advances once per call.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful eval, or if `next` does not
    /// have one value per sequential gate.
    pub fn commit_with_next_masked(&mut self, next: &[LaneVal], active: u64) {
        assert!(self.evaled, "eval() must succeed before commit()");
        assert_eq!(
            next.len(),
            self.nl.sequential_gates().len(),
            "one next-value per flip-flop"
        );
        let active = active & self.frame.lane_mask();
        self.commit_memory_writes(active);
        let event = self.mode == EvalMode::EventDriven;
        for (&g, &v) in self.nl.sequential_gates().iter().zip(next) {
            let out = self.nl.gate(g).output();
            let v = self.apply_force(out.index(), v);
            let q = self.frame.get(out.index());
            let v = LaneVal::from_planes(
                (q.val & !active) | (v.val & active),
                (q.unk & !active) | (v.unk & active),
            );
            if event {
                self.set_net(out, v);
            } else {
                // The levelized store keeps the scalar frame view coherent
                // across the edge (the historical scalar engine committed
                // straight into it); the event path does via `set_net`.
                self.store_net_levelized(out.index(), v);
            }
        }
        if self.reset_remaining > 0 {
            self.reset_remaining -= 1;
        }
        self.cycle += 1;
        self.evaled = false;
    }

    /// Applies the clock edge to every lane with the flip-flop next-values
    /// computed by an earlier [`Engine::ff_next_lanes`] call on the same
    /// settled frame: memory writes, flip-flop updates, cycle++.
    ///
    /// Callers that already inspected the next state (the symbolic
    /// explorer checks the PC for X every cycle) pass it back in rather
    /// than paying for the full flip-flop sweep twice.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful eval, or if `next` does not
    /// have one value per sequential gate.
    pub fn commit_with_next_lanes(&mut self, next: &[LaneVal]) {
        self.commit_with_next_masked(next, self.frame.lane_mask());
    }

    /// Applies the clock edge to every lane: memory writes, flip-flop
    /// updates, cycle++.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful eval.
    pub fn commit(&mut self) {
        let mut next = std::mem::take(&mut self.ff_next);
        self.ff_next_into(&mut next);
        self.commit_with_next_lanes(&next);
        self.ff_next = next;
    }

    /// `eval()` + `commit()` in one call.
    ///
    /// # Panics
    ///
    /// Panics on bus settle failure (use `eval`/`commit` to handle errors).
    pub fn step(&mut self) {
        self.settle().expect("bus settles");
        self.commit();
    }

    // --- machine state ----------------------------------------------------

    /// One lane's architectural state as a scalar [`MachineState`],
    /// stamped with an explicit cycle.
    ///
    /// The engine's [`Engine::cycle`] counter is global (one commit
    /// advances every lane), so callers running logically-independent
    /// per-lane timelines — the batched symbolic explorer — track each
    /// lane's own cycle and stamp snapshots with it.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes()`.
    pub fn lane_machine_state_at(&self, lane: usize, cycle: u64) -> MachineState {
        assert!(lane < self.lanes, "lane {lane} out of range {}", self.lanes);
        MachineState {
            ffs: self
                .nl
                .sequential_gates()
                .iter()
                .map(|&g| self.frame.get_lane(self.nl.gate(g).output().index(), lane))
                .collect(),
            mems: self
                .mems
                .get(lane) // empty when no bus/memories are attached
                .map(|regions| regions.iter().map(|m| m.data().to_vec()).collect())
                .unwrap_or_default(),
            cycle,
        }
    }

    /// One lane's architectural state as a scalar [`MachineState`],
    /// stamped with the engine's global cycle.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes()`.
    pub fn lane_machine_state(&self, lane: usize) -> MachineState {
        self.lane_machine_state_at(lane, self.cycle)
    }

    /// Restores a scalar [`MachineState`] into **one lane**: the lane's
    /// flip-flop bits and memories are overwritten; other lanes are
    /// untouched. The engine's global cycle counter is left alone (see
    /// [`Engine::lane_machine_state_at`]).
    ///
    /// Flip-flops are diffed against the current frame: only flip-flops
    /// whose value actually differs mark their fanout cones dirty, so
    /// restoring a nearby state (the common case in depth-first
    /// exploration, where siblings share most state) costs work
    /// proportional to the difference, not to the design.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes()` or the snapshot shape does not match
    /// this machine.
    pub fn set_lane_machine_state(&mut self, lane: usize, s: &MachineState) {
        assert!(lane < self.lanes, "lane {lane} out of range {}", self.lanes);
        assert_eq!(
            s.ffs.len(),
            self.nl.sequential_gates().len(),
            "machine shape mismatch"
        );
        let event = self.mode == EvalMode::EventDriven;
        for (&g, v) in self.nl.sequential_gates().iter().zip(&s.ffs) {
            let out = self.nl.gate(g).output();
            let mut lv = self.frame.get(out.index());
            lv.set(lane, *v);
            if event {
                self.set_net(out, lv);
            } else {
                self.store_net_levelized(out.index(), lv);
            }
        }
        let lane_mems = &mut self.mems[lane];
        assert_eq!(lane_mems.len(), s.mems.len(), "memory count mismatch");
        for (m, data) in lane_mems.iter_mut().zip(&s.mems) {
            m.data_mut().copy_from_slice(data);
        }
        self.evaled = false;
    }
}

// --- the 1-lane (scalar) instantiation ---------------------------------

impl<'n> Engine<'n, Scalar> {
    /// Creates a 1-lane simulator with no attached memories.
    ///
    /// Primary inputs default to `0`, except an input named `rstn`, which
    /// the simulator drives low during [`Engine::reset`] cycles and high
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is not finalized.
    pub fn new(nl: &'n Netlist) -> Engine<'n, Scalar> {
        Engine::new_inner(nl, 1)
    }

    /// Reads the value of a net in the current frame.
    ///
    /// Meaningful for combinational nets only after [`Engine::<Scalar>::eval`].
    pub fn value(&self, net: NetId) -> Lv {
        self.frame.get_lane(net.index(), 0)
    }

    /// Reads a bus (LSB-first net list) as an [`XWord`].
    ///
    /// # Panics
    ///
    /// Panics if `nets` is longer than 16.
    pub fn value_word(&self, nets: &[NetId]) -> XWord {
        self.value_word_lane(nets, 0)
    }

    /// The current value frame (all nets), refreshed by the last
    /// successful [`Engine::<Scalar>::eval`].
    pub fn frame(&self) -> &Frame {
        &self.scalar_frame
    }

    /// Settles the combinational logic for the current cycle and returns
    /// the scalar frame view.
    ///
    /// Idempotent until state changes. With an attached bus, read data is
    /// iterated to a fixpoint (address → read data → address must be
    /// stable).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BusNotSettled`] if the address keeps changing
    /// after read-data forcing (combinational bus loop).
    pub fn eval(&mut self) -> Result<&Frame, SimError> {
        self.settle()?;
        Ok(&self.scalar_frame)
    }

    /// Computes the next value of every flip-flop from the settled frame.
    ///
    /// # Panics
    ///
    /// Panics unless [`Engine::<Scalar>::eval`] succeeded for this cycle.
    pub fn ff_next_values(&self) -> Vec<Lv> {
        self.ff_next_lanes().iter().map(|v| v.get(0)).collect()
    }

    /// Memory regions.
    pub fn mems(&self) -> &[MemRegion] {
        self.mems.first().map(Vec::as_slice).unwrap_or(&[])
    }

    /// Looks a region up by name.
    pub fn mem(&self, name: &str) -> Option<&MemRegion> {
        self.mem_lane(name, 0)
    }

    /// Mutable access to a region by name.
    pub fn mem_mut(&mut self, name: &str) -> Option<&mut MemRegion> {
        self.mem_mut_lane(name, 0)
    }

    /// Snapshot of flip-flops + memories + cycle.
    pub fn machine_state(&self) -> MachineState {
        self.lane_machine_state_at(0, self.cycle)
    }

    /// Restores a snapshot taken by [`Engine::<Scalar>::machine_state`]
    /// (including its cycle counter).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot shape does not match this machine.
    pub fn set_machine_state(&mut self, s: &MachineState) {
        self.set_lane_machine_state(0, s);
        self.cycle = s.cycle;
    }
}

// --- the wide instantiation --------------------------------------------

impl<'n> Engine<'n, Wide> {
    /// Creates a batched simulator with `lanes` lanes and no attached
    /// memories. Primary inputs default to `0` in every lane, except an
    /// input named `rstn` (driven by [`Engine::reset`]).
    ///
    /// # Panics
    ///
    /// Panics if the netlist is not finalized or `lanes` is outside
    /// `1..=`[`MAX_LANES`].
    pub fn new(nl: &'n Netlist, lanes: usize) -> Engine<'n, Wide> {
        Engine::new_inner(nl, lanes)
    }

    /// All lanes of a net in the current frame.
    pub fn value(&self, net: NetId) -> LaneVal {
        self.frame.get(net.index())
    }

    /// The current batched value frame (all nets × all lanes).
    pub fn frame(&self) -> &BatchFrame {
        &self.frame
    }

    /// Settles the combinational logic of every lane for the current
    /// cycle and returns the batched frame. Idempotent until state
    /// changes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BusNotSettled`] if any lane's address keeps
    /// changing after read-data forcing (combinational bus loop).
    pub fn eval(&mut self) -> Result<&BatchFrame, SimError> {
        self.settle()?;
        Ok(&self.frame)
    }

    /// Computes the next value of every flip-flop (all lanes) from the
    /// settled frame.
    ///
    /// # Panics
    ///
    /// Panics unless [`Engine::<Wide>::eval`] succeeded for this cycle.
    pub fn ff_next_values(&self) -> Vec<LaneVal> {
        self.ff_next_lanes()
    }

    /// Snapshot of flip-flops + per-lane memories + cycle.
    pub fn machine_state(&self) -> BatchMachineState {
        BatchMachineState {
            lanes: self.lanes,
            ffs: self
                .nl
                .sequential_gates()
                .iter()
                .map(|&g| self.frame.get(self.nl.gate(g).output().index()))
                .collect(),
            mems: self
                .mems
                .iter()
                .map(|lane| lane.iter().map(|m| m.data().to_vec()).collect())
                .collect(),
            cycle: self.cycle,
        }
    }

    /// Restores a snapshot taken by [`Engine::<Wide>::machine_state`].
    ///
    /// Like the 1-lane instantiation, flip-flops are diffed against the
    /// current frame: only flip-flops where any lane differs mark their
    /// fanout cones dirty.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot shape (flip-flops, lanes, memories) does
    /// not match this machine.
    pub fn set_machine_state(&mut self, s: &BatchMachineState) {
        assert_eq!(
            s.ffs.len(),
            self.nl.sequential_gates().len(),
            "machine shape mismatch"
        );
        assert_eq!(s.lanes, self.lanes, "lane count mismatch");
        assert_eq!(s.mems.len(), self.mems.len(), "memory lane mismatch");
        let event = self.mode == EvalMode::EventDriven;
        for (&g, v) in self.nl.sequential_gates().iter().zip(&s.ffs) {
            let out = self.nl.gate(g).output();
            if event {
                self.set_net(out, *v);
            } else {
                self.store_net_levelized(out.index(), *v);
            }
        }
        for (lane, snap) in self.mems.iter_mut().zip(&s.mems) {
            assert_eq!(lane.len(), snap.len(), "memory count mismatch");
            for (m, data) in lane.iter_mut().zip(snap) {
                m.data_mut().copy_from_slice(data);
            }
        }
        self.cycle = s.cycle;
        self.evaled = false;
    }
}

#[cfg(test)]
mod tests {
    use crate::{BatchSimulator, BusSpec, MemRegion, RegionKind, Simulator};
    use xbound_logic::Lv;
    use xbound_netlist::rtl::Rtl;
    use xbound_netlist::{NetId, Netlist};

    fn counter() -> Netlist {
        let mut r = Rtl::new("cnt");
        let en = r.input_bit("en");
        let (h, q) = r.reg("c", 4);
        let one = r.one();
        let (nx, _) = r.inc(&q, one);
        let gated: Vec<_> = q.iter().zip(&nx).map(|(&q, &n)| r.mux(en, q, n)).collect();
        r.reg_next(h, &gated);
        r.output("q", &q);
        r.finish().unwrap()
    }

    #[test]
    fn lanes_evolve_independently() {
        let nl = counter();
        let mut sim = BatchSimulator::new(&nl, 4);
        let en = nl.find_net("en").unwrap();
        for l in 0..4 {
            sim.drive_input_lane(en, l, if l % 2 == 0 { Lv::One } else { Lv::Zero });
        }
        sim.reset(1);
        sim.step();
        for _ in 0..6 {
            sim.step();
        }
        sim.eval().unwrap();
        let q: Vec<NetId> = (0..4)
            .map(|i| nl.find_net(&format!("top/c_q[{i}]")).unwrap())
            .collect();
        assert_eq!(sim.value_word_lane(&q, 0).to_u16(), Some(6));
        assert_eq!(sim.value_word_lane(&q, 1).to_u16(), Some(0));
        assert_eq!(sim.value_word_lane(&q, 2).to_u16(), Some(6));
    }

    #[test]
    fn matches_scalar_simulator_per_lane() {
        let nl = counter();
        let en = nl.find_net("en").unwrap();
        let mut batch = BatchSimulator::new(&nl, 2);
        batch.drive_input_lane(en, 0, Lv::One);
        batch.drive_input_lane(en, 1, Lv::X);
        let mut scalars: Vec<Simulator<'_>> = (0..2).map(|_| Simulator::new(&nl)).collect();
        scalars[0].drive_input(en, Lv::One);
        scalars[1].drive_input(en, Lv::X);
        batch.reset(2);
        for s in scalars.iter_mut() {
            s.reset(2);
        }
        for _ in 0..8 {
            let bf = batch.eval().unwrap().clone();
            for (l, s) in scalars.iter_mut().enumerate() {
                let sf = s.eval().unwrap();
                assert_eq!(&bf.lane_frame(l), sf, "lane {l} diverged");
            }
            batch.commit();
            for s in scalars.iter_mut() {
                s.commit();
            }
        }
    }

    #[test]
    fn per_lane_memories_feed_per_lane_rdata() {
        // Accumulator device fetching ROM[pc] (same shape as the scalar
        // simulator's bus test), with different per-lane ROM contents.
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
        r.output("addr", &addr);
        r.output("acc", &acc);
        let nl = r.finish().unwrap();
        let addr_nets: Vec<NetId> = (0..16)
            .map(|i| {
                nl.outputs()
                    .iter()
                    .find(|(n, _)| n == &format!("addr[{i}]"))
                    .map(|(_, net)| *net)
                    .unwrap()
            })
            .collect();
        let rdata_nets: Vec<NetId> = (0..16)
            .map(|i| nl.find_net(&format!("rdata[{i}]")).unwrap())
            .collect();
        let bus = BusSpec {
            addr: addr_nets,
            wdata: rdata_nets.clone(),
            rdata: rdata_nets,
            wen: None,
        };
        let rom = MemRegion::new("pmem", RegionKind::Rom, 0xF000, 8);
        let mut sim = BatchSimulator::new(&nl, 2);
        sim.attach_bus(bus, vec![rom]).unwrap();
        sim.mem_mut_lane("pmem", 0)
            .unwrap()
            .load(0xF000, &[1, 2, 3, 4]);
        sim.mem_mut_lane("pmem", 1)
            .unwrap()
            .load(0xF000, &[10, 20, 30, 40]);
        sim.reset(1);
        sim.step();
        for _ in 0..4 {
            sim.step();
        }
        sim.eval().unwrap();
        let acc_nets: Vec<NetId> = (0..16)
            .map(|i| {
                nl.outputs()
                    .iter()
                    .find(|(n, _)| n == &format!("acc[{i}]"))
                    .map(|(_, net)| *net)
                    .unwrap()
            })
            .collect();
        assert_eq!(sim.value_word_lane(&acc_nets, 0).to_u16(), Some(10));
        assert_eq!(sim.value_word_lane(&acc_nets, 1).to_u16(), Some(100));
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let nl = counter();
        let en = nl.find_net("en").unwrap();
        let mut sim = BatchSimulator::new(&nl, 3);
        sim.drive_input(en, Lv::One);
        sim.reset(1);
        for _ in 0..5 {
            sim.step();
        }
        let snap = sim.machine_state();
        for _ in 0..7 {
            sim.step();
        }
        assert_ne!(sim.machine_state(), snap);
        sim.set_machine_state(&snap);
        assert_eq!(sim.machine_state(), snap);
        assert_eq!(sim.cycle(), snap.cycle());
        // Per-lane extraction matches the batch snapshot shape.
        let l0 = snap.lane_state(0);
        assert_eq!(l0.cycle(), snap.cycle());
        assert_eq!(l0.ffs().len(), nl.sequential_gates().len());
    }
}
