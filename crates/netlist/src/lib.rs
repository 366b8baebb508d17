//! Gate-level netlist model for `xbound`.
//!
//! A [`Netlist`] is a flat sea of gates over single-bit nets, with a light
//! module hierarchy (every gate belongs to a named module such as
//! `exec_unit` or `multiplier`) used for the per-module power breakdowns the
//! paper reports. Netlists are built either by the word-level RTL builder in
//! [`rtl`] or by parsing the structural-Verilog subset in [`verilog`].
//!
//! # Example
//!
//! ```
//! use xbound_netlist::{CellKind, Netlist};
//!
//! let mut nl = Netlist::new("toy");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let y = nl.add_net("y");
//! nl.add_gate(CellKind::Nand2, "g0", &[a, b], y).unwrap();
//! nl.add_output("y", y);
//! let nl = nl.finalize().unwrap();
//! assert_eq!(nl.gate_count(), 1);
//! ```

#![warn(missing_docs)]

pub mod rtl;
pub mod verilog;

use std::collections::HashMap;
use std::fmt;

/// Identifier of a single-bit net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Identifier of a gate instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub u32);

/// Identifier of a hierarchy module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(pub u16);

impl NetId {
    /// Index into dense per-net arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl GateId {
    /// Index into dense per-gate arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ModuleId {
    /// Index into dense per-module arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The standard-cell kinds understood by the simulator and power engine.
///
/// This is the complete cell vocabulary of the synthetic libraries in
/// `xbound-cells`; the Verilog writer/parser uses the canonical names returned
/// by [`CellKind::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Constant logic 0 driver (no inputs).
    Tie0,
    /// Constant logic 1 driver (no inputs).
    Tie1,
    /// Buffer.
    Buf,
    /// Inverter.
    Inv,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 mux; inputs `[d0, d1, s]`, output `s ? d1 : d0`.
    Mux2,
    /// AND-OR-INVERT 21; inputs `[a, b, c]`, output `!((a & b) | c)`.
    Aoi21,
    /// OR-AND-INVERT 21; inputs `[a, b, c]`, output `!((a | b) & c)`.
    Oai21,
    /// D flip-flop; inputs `[d]`.
    Dff,
    /// D flip-flop with enable; inputs `[d, en]`.
    Dffe,
    /// D flip-flop with synchronous active-low reset; inputs `[d, rstn]`.
    Dffr,
    /// D flip-flop with enable and synchronous active-low reset;
    /// inputs `[d, en, rstn]`.
    Dffre,
}

impl CellKind {
    /// All kinds, in a stable order.
    pub const ALL: [CellKind; 17] = [
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
        CellKind::Dff,
        CellKind::Dffe,
        CellKind::Dffr,
        CellKind::Dffre,
    ];

    /// Canonical library cell name (used in Verilog and Liberty files).
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Tie0 => "TIE0",
            CellKind::Tie1 => "TIE1",
            CellKind::Buf => "BUF",
            CellKind::Inv => "INV",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNOR2",
            CellKind::Mux2 => "MUX2",
            CellKind::Aoi21 => "AOI21",
            CellKind::Oai21 => "OAI21",
            CellKind::Dff => "DFF",
            CellKind::Dffe => "DFFE",
            CellKind::Dffr => "DFFR",
            CellKind::Dffre => "DFFRE",
        }
    }

    /// Looks a kind up by its canonical name.
    pub fn from_name(name: &str) -> Option<CellKind> {
        CellKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// Number of input pins.
    pub fn input_count(self) -> usize {
        match self {
            CellKind::Tie0 | CellKind::Tie1 => 0,
            CellKind::Buf | CellKind::Inv | CellKind::Dff => 1,
            CellKind::And2
            | CellKind::Or2
            | CellKind::Nand2
            | CellKind::Nor2
            | CellKind::Xor2
            | CellKind::Xnor2
            | CellKind::Dffe
            | CellKind::Dffr => 2,
            CellKind::Mux2 | CellKind::Aoi21 | CellKind::Oai21 | CellKind::Dffre => 3,
        }
    }

    /// `true` for flip-flops.
    pub fn is_sequential(self) -> bool {
        matches!(
            self,
            CellKind::Dff | CellKind::Dffe | CellKind::Dffr | CellKind::Dffre
        )
    }

    /// Input pin names, in input order (used by the Verilog writer).
    pub fn pin_names(self) -> &'static [&'static str] {
        match self {
            CellKind::Tie0 | CellKind::Tie1 => &[],
            CellKind::Buf | CellKind::Inv => &["A"],
            CellKind::And2
            | CellKind::Or2
            | CellKind::Nand2
            | CellKind::Nor2
            | CellKind::Xor2
            | CellKind::Xnor2 => &["A", "B"],
            CellKind::Mux2 => &["D0", "D1", "S"],
            CellKind::Aoi21 | CellKind::Oai21 => &["A", "B", "C"],
            CellKind::Dff => &["D"],
            CellKind::Dffe => &["D", "EN"],
            CellKind::Dffr => &["D", "RSTN"],
            CellKind::Dffre => &["D", "EN", "RSTN"],
        }
    }

    /// Output pin name.
    pub fn output_pin(self) -> &'static str {
        if self.is_sequential() {
            "Q"
        } else {
            "Y"
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One gate instance.
#[derive(Debug, Clone)]
pub struct Gate {
    kind: CellKind,
    name: String,
    inputs: [NetId; 3],
    input_len: u8,
    output: NetId,
    module: ModuleId,
}

impl Gate {
    /// Cell kind.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Instance name (unique within the netlist).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input nets, in pin order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs[..self.input_len as usize]
    }

    /// Output net.
    pub fn output(&self) -> NetId {
        self.output
    }

    /// Hierarchy module this gate belongs to.
    pub fn module(&self) -> ModuleId {
        self.module
    }
}

/// Errors produced while building or validating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate was given the wrong number of inputs.
    ArityMismatch {
        /// Offending cell kind.
        kind: CellKind,
        /// Inputs supplied.
        got: usize,
    },
    /// Two drivers contend for one net.
    MultipleDrivers {
        /// The doubly-driven net.
        net: String,
    },
    /// A net has no driver and is not a primary input.
    Undriven {
        /// The floating net.
        net: String,
    },
    /// The combinational logic contains a cycle.
    CombinationalCycle {
        /// A net on the cycle.
        net: String,
    },
    /// A name was reused.
    DuplicateName {
        /// The clashing name.
        name: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::ArityMismatch { kind, got } => write!(
                f,
                "cell {kind} expects {} inputs, got {got}",
                kind.input_count()
            ),
            NetlistError::MultipleDrivers { net } => {
                write!(f, "net `{net}` has multiple drivers")
            }
            NetlistError::Undriven { net } => {
                write!(f, "net `{net}` has no driver and is not an input")
            }
            NetlistError::CombinationalCycle { net } => {
                write!(f, "combinational cycle through net `{net}`")
            }
            NetlistError::DuplicateName { name } => {
                write!(f, "duplicate name `{name}`")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// A flat gate-level netlist under construction or finalized.
///
/// Build with [`Netlist::new`] + [`Netlist::add_gate`] (or the [`rtl`]
/// builder), then call [`Netlist::finalize`] to validate and levelize.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    net_names: Vec<String>,
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    input_names: Vec<String>,
    outputs: Vec<(String, NetId)>,
    modules: Vec<String>,
    driver: Vec<Option<GateId>>,
    name_set: HashMap<String, ()>,
    // Populated by finalize():
    topo: Vec<GateId>,
    seq_gates: Vec<GateId>,
    fanout: Vec<Vec<GateId>>,
    fanout_comb: Vec<Vec<GateId>>,
    comb_level: Vec<u32>,
    level_count: u32,
    finalized: bool,
}

impl Netlist {
    /// Creates an empty netlist with a design name and a root module.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            net_names: Vec::new(),
            gates: Vec::new(),
            inputs: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
            modules: vec!["top".to_string()],
            driver: Vec::new(),
            name_set: HashMap::new(),
            topo: Vec::new(),
            seq_gates: Vec::new(),
            fanout: Vec::new(),
            fanout_comb: Vec::new(),
            comb_level: Vec::new(),
            level_count: 0,
            finalized: false,
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers a hierarchy module and returns its id.
    ///
    /// Registering the same name twice returns the existing id.
    pub fn add_module(&mut self, name: impl Into<String>) -> ModuleId {
        let name = name.into();
        if let Some(i) = self.modules.iter().position(|m| *m == name) {
            return ModuleId(i as u16);
        }
        self.modules.push(name);
        ModuleId((self.modules.len() - 1) as u16)
    }

    /// Module names, indexed by [`ModuleId`].
    pub fn modules(&self) -> &[String] {
        &self.modules
    }

    /// Name of a module.
    pub fn module_name(&self, m: ModuleId) -> &str {
        &self.modules[m.index()]
    }

    /// Creates a fresh net.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId(self.net_names.len() as u32);
        self.net_names.push(name.into());
        self.driver.push(None);
        id
    }

    /// Creates a fresh net that is a primary input.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        let id = self.add_net(name.clone());
        self.inputs.push(id);
        self.input_names.push(name);
        id
    }

    /// Declares `net` a primary output under `name`.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// Adds a gate driving a fresh or existing undriven net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] for a wrong input count,
    /// [`NetlistError::MultipleDrivers`] if `output` already has a driver, and
    /// [`NetlistError::DuplicateName`] if the instance name is taken.
    pub fn add_gate(
        &mut self,
        kind: CellKind,
        name: impl Into<String>,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<GateId, NetlistError> {
        self.add_gate_in(kind, name, inputs, output, ModuleId(0))
    }

    /// Like [`Netlist::add_gate`], assigning the gate to a hierarchy module.
    pub fn add_gate_in(
        &mut self,
        kind: CellKind,
        name: impl Into<String>,
        inputs: &[NetId],
        output: NetId,
        module: ModuleId,
    ) -> Result<GateId, NetlistError> {
        if inputs.len() != kind.input_count() {
            return Err(NetlistError::ArityMismatch {
                kind,
                got: inputs.len(),
            });
        }
        if self.driver[output.index()].is_some() || self.inputs.contains(&output) {
            return Err(NetlistError::MultipleDrivers {
                net: self.net_names[output.index()].clone(),
            });
        }
        let name = name.into();
        if self.name_set.insert(name.clone(), ()).is_some() {
            return Err(NetlistError::DuplicateName { name });
        }
        let mut ins = [NetId(0); 3];
        ins[..inputs.len()].copy_from_slice(inputs);
        let id = GateId(self.gates.len() as u32);
        self.gates.push(Gate {
            kind,
            name,
            inputs: ins,
            input_len: inputs.len() as u8,
            output,
            module,
        });
        self.driver[output.index()] = Some(id);
        Ok(id)
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// All gates, indexed by [`GateId`].
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// One gate.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Primary inputs.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs as `(name, net)` pairs.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Name of a net.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.net_names[id.index()]
    }

    /// Finds a net by exact name (linear scan; intended for tests/tools).
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names
            .iter()
            .position(|n| n == name)
            .map(|i| NetId(i as u32))
    }

    /// The gate driving `net`, if any.
    pub fn driver_of(&self, net: NetId) -> Option<GateId> {
        self.driver[net.index()]
    }

    /// Validates the netlist and computes the evaluation order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Undriven`] for floating nets and
    /// [`NetlistError::CombinationalCycle`] if the combinational gates cannot
    /// be topologically ordered.
    pub fn finalize(mut self) -> Result<Netlist, NetlistError> {
        // Every net must be driven or be a primary input.
        for (i, drv) in self.driver.iter().enumerate() {
            let id = NetId(i as u32);
            if drv.is_none() && !self.inputs.contains(&id) {
                return Err(NetlistError::Undriven {
                    net: self.net_names[i].clone(),
                });
            }
        }
        // Kahn levelization over combinational gates. Sequential outputs and
        // primary inputs are sources.
        let mut indeg = vec![0usize; self.gates.len()];
        let mut fanout: Vec<Vec<GateId>> = vec![Vec::new(); self.net_names.len()];
        for (gi, g) in self.gates.iter().enumerate() {
            for &inp in g.inputs() {
                fanout[inp.index()].push(GateId(gi as u32));
            }
        }
        let mut ready: Vec<GateId> = Vec::new();
        for (gi, g) in self.gates.iter().enumerate() {
            if g.kind.is_sequential() {
                continue;
            }
            let mut d = 0;
            for &inp in g.inputs() {
                if let Some(drv) = self.driver[inp.index()] {
                    if !self.gates[drv.index()].kind.is_sequential() {
                        d += 1;
                    }
                }
            }
            indeg[gi] = d;
            if d == 0 {
                ready.push(GateId(gi as u32));
            }
        }
        let mut topo = Vec::with_capacity(self.gates.len());
        let mut head = 0;
        while head < ready.len() {
            let g = ready[head];
            head += 1;
            topo.push(g);
            let out = self.gates[g.index()].output;
            for &succ in &fanout[out.index()] {
                let sg = &self.gates[succ.index()];
                if sg.kind.is_sequential() {
                    continue;
                }
                indeg[succ.index()] -= 1;
                if indeg[succ.index()] == 0 {
                    ready.push(succ);
                }
            }
        }
        let comb_count = self
            .gates
            .iter()
            .filter(|g| !g.kind.is_sequential())
            .count();
        if topo.len() != comb_count {
            // Find a gate still blocked to name the cycle.
            let blocked = self
                .gates
                .iter()
                .enumerate()
                .find(|(i, g)| !g.kind.is_sequential() && indeg[*i] > 0)
                .map(|(_, g)| self.net_names[g.output.index()].clone())
                .unwrap_or_default();
            return Err(NetlistError::CombinationalCycle { net: blocked });
        }
        self.seq_gates = self
            .gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.kind.is_sequential())
            .map(|(i, _)| GateId(i as u32))
            .collect();
        // Fanout/cone index for event-driven evaluation: per-net
        // combinational readers, and per-gate logic levels (a combinational
        // gate's level is 1 + the max level of its combinational drivers;
        // flip-flops and primary inputs are level-0 sources). The levels
        // give the incremental simulator a bucket queue that processes a
        // dirty cone in dependency order.
        self.fanout_comb = fanout
            .iter()
            .map(|gs| {
                gs.iter()
                    .copied()
                    .filter(|&g| !self.gates[g.index()].kind.is_sequential())
                    .collect()
            })
            .collect();
        self.comb_level = vec![0u32; self.gates.len()];
        let mut max_level = 0u32;
        for &g in &topo {
            let mut lvl = 0u32;
            for &inp in self.gates[g.index()].inputs() {
                if let Some(drv) = self.driver[inp.index()] {
                    if !self.gates[drv.index()].kind.is_sequential() {
                        lvl = lvl.max(self.comb_level[drv.index()] + 1);
                    }
                }
            }
            self.comb_level[g.index()] = lvl;
            max_level = max_level.max(lvl);
        }
        self.level_count = if topo.is_empty() { 0 } else { max_level + 1 };
        self.topo = topo;
        self.fanout = fanout;
        self.finalized = true;
        Ok(self)
    }

    /// `true` once [`Netlist::finalize`] has succeeded.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Combinational gates in evaluation order.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has not been finalized.
    pub fn topo_order(&self) -> &[GateId] {
        assert!(self.finalized, "netlist not finalized");
        &self.topo
    }

    /// Sequential gates (flip-flops).
    ///
    /// # Panics
    ///
    /// Panics if the netlist has not been finalized.
    pub fn sequential_gates(&self) -> &[GateId] {
        assert!(self.finalized, "netlist not finalized");
        &self.seq_gates
    }

    /// Gates reading `net`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has not been finalized.
    pub fn fanout_of(&self, net: NetId) -> &[GateId] {
        assert!(self.finalized, "netlist not finalized");
        &self.fanout[net.index()]
    }

    /// Combinational gates reading `net` (flip-flop readers excluded).
    ///
    /// This is the edge set the event-driven simulator follows when a net
    /// changes value: only combinational readers must re-evaluate within
    /// the cycle (flip-flops sample at the clock edge).
    ///
    /// # Panics
    ///
    /// Panics if the netlist has not been finalized.
    pub fn fanout_comb_of(&self, net: NetId) -> &[GateId] {
        assert!(self.finalized, "netlist not finalized");
        &self.fanout_comb[net.index()]
    }

    /// Logic level of a gate: combinational gates are `1 +` the maximum
    /// level of their combinational drivers; flip-flops (and gates fed only
    /// by flip-flops or primary inputs) are level 0.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has not been finalized.
    pub fn comb_level(&self, g: GateId) -> u32 {
        assert!(self.finalized, "netlist not finalized");
        self.comb_level[g.index()]
    }

    /// Number of distinct combinational logic levels (0 for a purely
    /// sequential netlist).
    ///
    /// # Panics
    ///
    /// Panics if the netlist has not been finalized.
    pub fn comb_level_count(&self) -> usize {
        assert!(self.finalized, "netlist not finalized");
        self.level_count as usize
    }

    /// Per-module gate counts (index by [`ModuleId`]).
    pub fn module_gate_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.modules.len()];
        for g in &self.gates {
            counts[g.module.index()] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut nl = Netlist::new("tiny");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let n1 = nl.add_net("n1");
        let q = nl.add_net("q");
        nl.add_gate(CellKind::Nand2, "u1", &[a, b], n1).unwrap();
        nl.add_gate(CellKind::Dff, "ff", &[n1], q).unwrap();
        nl.add_output("q", q);
        nl
    }

    #[test]
    fn build_and_finalize() {
        let nl = tiny().finalize().unwrap();
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.topo_order().len(), 1);
        assert_eq!(nl.sequential_gates().len(), 1);
        assert_eq!(nl.net_name(NetId(2)), "n1");
    }

    #[test]
    fn arity_checked() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        let err = nl.add_gate(CellKind::Nand2, "u", &[a], y).unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate(CellKind::Buf, "u1", &[a], y).unwrap();
        let err = nl.add_gate(CellKind::Inv, "u2", &[a], y).unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn driving_primary_input_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let err = nl.add_gate(CellKind::Buf, "u1", &[b], a).unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn undriven_net_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let float = nl.add_net("float");
        let y = nl.add_net("y");
        nl.add_gate(CellKind::And2, "u1", &[a, float], y).unwrap();
        let err = nl.finalize().unwrap_err();
        assert!(matches!(err, NetlistError::Undriven { .. }));
    }

    #[test]
    fn combinational_cycle_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let n1 = nl.add_net("n1");
        let n2 = nl.add_net("n2");
        nl.add_gate(CellKind::And2, "u1", &[a, n2], n1).unwrap();
        nl.add_gate(CellKind::Buf, "u2", &[n1], n2).unwrap();
        let err = nl.finalize().unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalCycle { .. }));
    }

    #[test]
    fn dff_breaks_cycles() {
        let mut nl = Netlist::new("t");
        let q = nl.add_net("q");
        let d = nl.add_net("d");
        nl.add_gate(CellKind::Inv, "u1", &[q], d).unwrap();
        nl.add_gate(CellKind::Dff, "ff", &[d], q).unwrap();
        let nl = nl.finalize().unwrap();
        assert_eq!(nl.topo_order().len(), 1);
    }

    #[test]
    fn duplicate_instance_name_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y1 = nl.add_net("y1");
        let y2 = nl.add_net("y2");
        nl.add_gate(CellKind::Buf, "u", &[a], y1).unwrap();
        let err = nl.add_gate(CellKind::Buf, "u", &[a], y2).unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateName { .. }));
    }

    #[test]
    fn modules_deduplicate() {
        let mut nl = Netlist::new("t");
        let m1 = nl.add_module("frontend");
        let m2 = nl.add_module("frontend");
        assert_eq!(m1, m2);
        assert_eq!(nl.module_name(m1), "frontend");
        assert_eq!(nl.modules().len(), 2); // top + frontend
    }

    #[test]
    fn cell_kind_name_round_trip() {
        for k in CellKind::ALL {
            assert_eq!(CellKind::from_name(k.name()), Some(k));
            assert_eq!(k.pin_names().len(), k.input_count());
        }
        assert_eq!(CellKind::from_name("BOGUS"), None);
    }

    #[test]
    fn fanout_computed() {
        let nl = tiny().finalize().unwrap();
        let a = nl.find_net("a").unwrap();
        assert_eq!(nl.fanout_of(a).len(), 1);
        let n1 = nl.find_net("n1").unwrap();
        assert_eq!(nl.fanout_of(n1).len(), 1);
    }

    #[test]
    fn comb_fanout_excludes_flip_flops() {
        let nl = tiny().finalize().unwrap();
        let n1 = nl.find_net("n1").unwrap();
        assert_eq!(nl.fanout_of(n1).len(), 1, "DFF reads n1");
        assert!(nl.fanout_comb_of(n1).is_empty(), "no combinational readers");
        let a = nl.find_net("a").unwrap();
        assert_eq!(nl.fanout_comb_of(a).len(), 1, "NAND reads a");
    }

    #[test]
    fn levels_follow_dependencies() {
        // a -> inv -> and(b) -> dff; and is one level above inv.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let n1 = nl.add_net("n1");
        let n2 = nl.add_net("n2");
        let q = nl.add_net("q");
        let g_inv = nl.add_gate(CellKind::Inv, "u1", &[a], n1).unwrap();
        let g_and = nl.add_gate(CellKind::And2, "u2", &[n1, b], n2).unwrap();
        nl.add_gate(CellKind::Dff, "ff", &[n2], q).unwrap();
        let nl = nl.finalize().unwrap();
        assert_eq!(nl.comb_level(g_inv), 0);
        assert_eq!(nl.comb_level(g_and), 1);
        assert_eq!(nl.comb_level_count(), 2);
        assert_eq!(nl.fanout_comb_of(a), &[g_inv]);
        assert_eq!(nl.fanout_comb_of(n1), &[g_and]);
        // Levels strictly increase along combinational edges.
        for &g in nl.topo_order() {
            for &inp in nl.gate(g).inputs() {
                if let Some(drv) = nl.driver_of(inp) {
                    if !nl.gate(drv).kind().is_sequential() {
                        assert!(nl.comb_level(g) > nl.comb_level(drv));
                    }
                }
            }
        }
    }
}
