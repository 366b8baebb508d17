//! Standard-cell power libraries for `xbound`.
//!
//! The paper's power analysis (Synopsys PrimeTime) reads a Liberty `.lib`
//! characterization of the standard cells. This crate provides:
//!
//! * [`CellLibrary`] — per-cell transition energies (rise/fall, fJ), leakage
//!   (nW) and area (µm²) for the cell vocabulary of
//!   [`xbound_netlist::CellKind`];
//! * a parser for the **Liberty subset** in [`liberty`] plus a writer;
//! * two embedded synthetic libraries: [`CellLibrary::ulp65`] (65 nm-class,
//!   1.0 V — stands in for the paper's TSMC 65GP openMSP430 target) and
//!   [`CellLibrary::ulp130`] (130 nm-class, 3.0 V — stands in for the
//!   MSP430F1610 silicon measured in Chapter 2).
//!
//! # Example
//!
//! ```
//! use xbound_cells::CellLibrary;
//! use xbound_netlist::CellKind;
//!
//! let lib = CellLibrary::ulp65();
//! let dff = lib.power(CellKind::Dff);
//! assert!(dff.energy_rise_fj > dff.energy_fall_fj);
//! assert!(lib.max_transition_energy_fj(CellKind::Xor2) > 0.0);
//! ```

pub mod liberty;

use std::fmt;
use xbound_netlist::CellKind;

/// Per-cell power/area characterization.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CellPower {
    /// Dynamic energy for a rising output transition, femtojoules.
    pub energy_rise_fj: f64,
    /// Dynamic energy for a falling output transition, femtojoules.
    pub energy_fall_fj: f64,
    /// Leakage power, nanowatts.
    pub leakage_nw: f64,
    /// Cell area, square micrometres.
    pub area_um2: f64,
    /// Energy drawn from the clock pin each cycle (femtojoules); zero for
    /// combinational cells.
    pub clock_pin_fj: f64,
}

impl CellPower {
    /// Energy of the given output transition direction.
    #[inline]
    pub fn energy_fj(&self, rising: bool) -> f64 {
        if rising {
            self.energy_rise_fj
        } else {
            self.energy_fall_fj
        }
    }

    /// The larger of the rise/fall energies.
    #[inline]
    pub fn max_energy_fj(&self) -> f64 {
        self.energy_rise_fj.max(self.energy_fall_fj)
    }

    /// The output transition maximizing energy: `(first, second)` cycle
    /// values — the `maxTransition` lookup of the paper's Algorithm 2.
    #[inline]
    pub fn max_transition(&self) -> (bool, bool) {
        if self.energy_rise_fj >= self.energy_fall_fj {
            (false, true) // 0 -> 1
        } else {
            (true, false) // 1 -> 0
        }
    }
}

/// A complete characterization of the cell vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct CellLibrary {
    name: String,
    voltage_v: f64,
    cells: [CellPower; CellKind::ALL.len()],
}

/// Errors raised when a library is incomplete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibraryError {
    /// A cell kind required by the netlist vocabulary is missing.
    MissingCell {
        /// Canonical name of the missing cell.
        cell: String,
    },
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryError::MissingCell { cell } => {
                write!(f, "library does not characterize cell `{cell}`")
            }
        }
    }
}

impl std::error::Error for LibraryError {}

impl CellLibrary {
    /// Builds a library from `(kind, power)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::MissingCell`] if any [`CellKind`] is absent.
    pub fn from_cells(
        name: impl Into<String>,
        voltage_v: f64,
        pairs: &[(CellKind, CellPower)],
    ) -> Result<CellLibrary, LibraryError> {
        let mut cells = [None; CellKind::ALL.len()];
        for (k, p) in pairs {
            cells[Self::slot(*k)] = Some(*p);
        }
        let mut resolved = [CellPower::default(); CellKind::ALL.len()];
        for (i, k) in CellKind::ALL.iter().enumerate() {
            match cells[i] {
                Some(p) => resolved[i] = p,
                None => {
                    return Err(LibraryError::MissingCell {
                        cell: k.name().to_string(),
                    })
                }
            }
        }
        Ok(CellLibrary {
            name: name.into(),
            voltage_v,
            cells: resolved,
        })
    }

    fn slot(kind: CellKind) -> usize {
        CellKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind in ALL")
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Nominal supply voltage, volts.
    pub fn voltage_v(&self) -> f64 {
        self.voltage_v
    }

    /// Characterization of one cell kind.
    #[inline]
    pub fn power(&self, kind: CellKind) -> &CellPower {
        &self.cells[Self::slot(kind)]
    }

    /// Maximum single-transition energy of a cell, femtojoules.
    #[inline]
    pub fn max_transition_energy_fj(&self, kind: CellKind) -> f64 {
        self.power(kind).max_energy_fj()
    }

    /// Total leakage of a gate population, nanowatts.
    pub fn total_leakage_nw<'a>(&self, kinds: impl IntoIterator<Item = &'a CellKind>) -> f64 {
        kinds.into_iter().map(|k| self.power(*k).leakage_nw).sum()
    }

    /// The embedded 65 nm-class library (openMSP430 stand-in target).
    ///
    /// Parsed from Liberty text at every call; the text is embedded in the
    /// binary so the Liberty parser is exercised on the production path.
    ///
    /// # Panics
    ///
    /// Panics only if the embedded library text is corrupt (a build error).
    pub fn ulp65() -> CellLibrary {
        liberty::parse(ULP65_LIB).expect("embedded ulp65.lib is valid")
    }

    /// The embedded 130 nm-class library (MSP430F1610 stand-in, Chapter 2).
    ///
    /// # Panics
    ///
    /// Panics only if the embedded library text is corrupt (a build error).
    pub fn ulp130() -> CellLibrary {
        liberty::parse(ULP130_LIB).expect("embedded ulp130.lib is valid")
    }

    /// A voltage-scaled derate of this library: every switching energy
    /// (rise, fall, clock pin) and the leakage scale by `(v / Vnom)²`,
    /// the first-order CV² dependence; area is voltage-independent.
    ///
    /// `derated(Vnom)` is the **identity** — same name, equal cells — so
    /// a nominal operating-point corner keys and caches exactly like the
    /// base library. Any other voltage yields a distinct name
    /// (`"<name>@<v>v"`): the name is the only library-identifying key
    /// material in the bound cache, so two voltages
    /// must never share it. Scaling rise and fall by the same positive
    /// factor preserves every cell's [`CellPower::max_transition`]
    /// direction, which is what lets operating-point sweeps share one
    /// max-transitions table across the derates of a base library.
    pub fn derated(&self, v: f64) -> CellLibrary {
        if v == self.voltage_v {
            return self.clone();
        }
        let s = (v / self.voltage_v) * (v / self.voltage_v);
        let mut cells = self.cells;
        for c in &mut cells {
            c.energy_rise_fj *= s;
            c.energy_fall_fj *= s;
            c.clock_pin_fj *= s;
            c.leakage_nw *= s;
        }
        CellLibrary {
            name: format!("{}@{}v", self.name, v),
            voltage_v: v,
            cells,
        }
    }
}

/// Raw Liberty text of the 65 nm-class library.
pub const ULP65_LIB: &str = include_str!("../data/ulp65.lib");
/// Raw Liberty text of the 130 nm-class library.
pub const ULP130_LIB: &str = include_str!("../data/ulp130.lib");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_libraries_parse() {
        let l65 = CellLibrary::ulp65();
        assert_eq!(l65.name(), "ulp65");
        assert_eq!(l65.voltage_v(), 1.0);
        let l130 = CellLibrary::ulp130();
        assert_eq!(l130.name(), "ulp130");
        assert_eq!(l130.voltage_v(), 3.0);
    }

    #[test]
    fn all_cells_characterized_and_positive() {
        let lib = CellLibrary::ulp65();
        for k in CellKind::ALL {
            let p = lib.power(k);
            assert!(p.leakage_nw > 0.0, "{k} leakage");
            assert!(p.area_um2 > 0.0, "{k} area");
            if !matches!(k, CellKind::Tie0 | CellKind::Tie1) {
                assert!(p.energy_rise_fj > 0.0, "{k} rise energy");
            }
        }
    }

    #[test]
    fn ulp130_energies_scale_up() {
        let l65 = CellLibrary::ulp65();
        let l130 = CellLibrary::ulp130();
        for k in CellKind::ALL {
            assert!(
                l130.power(k).energy_rise_fj >= l65.power(k).energy_rise_fj,
                "{k}"
            );
        }
    }

    #[test]
    fn sequential_cells_cost_more_than_inverters() {
        let lib = CellLibrary::ulp65();
        assert!(
            lib.max_transition_energy_fj(CellKind::Dff)
                > lib.max_transition_energy_fj(CellKind::Inv)
        );
    }

    #[test]
    fn clock_pin_energy_only_on_sequential_cells() {
        let lib = CellLibrary::ulp65();
        for k in CellKind::ALL {
            if k.is_sequential() {
                assert!(lib.power(k).clock_pin_fj > 0.0, "{k}");
            } else {
                assert_eq!(lib.power(k).clock_pin_fj, 0.0, "{k}");
            }
        }
    }

    #[test]
    fn max_transition_picks_higher_energy_direction() {
        let p = CellPower {
            energy_rise_fj: 2.0,
            energy_fall_fj: 5.0,
            leakage_nw: 1.0,
            area_um2: 1.0,
            clock_pin_fj: 0.0,
        };
        assert_eq!(p.max_transition(), (true, false));
        assert_eq!(p.max_energy_fj(), 5.0);
    }

    #[test]
    fn derated_at_nominal_voltage_is_identity() {
        let lib = CellLibrary::ulp65();
        let same = lib.derated(lib.voltage_v());
        assert_eq!(same, lib);
        assert_eq!(same.name(), "ulp65");
    }

    #[test]
    fn derated_energies_scale_quadratically() {
        let lib = CellLibrary::ulp65();
        let v = 0.9;
        let low = lib.derated(v);
        assert_eq!(low.name(), "ulp65@0.9v");
        assert_eq!(low.voltage_v(), v);
        let s = (v / lib.voltage_v()) * (v / lib.voltage_v());
        for k in CellKind::ALL {
            let base = lib.power(k);
            let der = low.power(k);
            assert_eq!(der.energy_rise_fj, base.energy_rise_fj * s, "{k} rise");
            assert_eq!(der.energy_fall_fj, base.energy_fall_fj * s, "{k} fall");
            assert_eq!(der.clock_pin_fj, base.clock_pin_fj * s, "{k} clock");
            assert_eq!(der.leakage_nw, base.leakage_nw * s, "{k} leakage");
            assert_eq!(der.area_um2, base.area_um2, "{k} area is voltage-free");
        }
    }

    #[test]
    fn derating_preserves_max_transition_direction() {
        let lib = CellLibrary::ulp130();
        let low = lib.derated(2.7);
        for k in CellKind::ALL {
            assert_eq!(
                low.power(k).max_transition(),
                lib.power(k).max_transition(),
                "{k}"
            );
        }
    }

    #[test]
    fn missing_cell_detected() {
        let err = CellLibrary::from_cells("partial", 1.0, &[]).unwrap_err();
        assert!(matches!(err, LibraryError::MissingCell { .. }));
    }

    #[test]
    fn total_leakage_sums() {
        let lib = CellLibrary::ulp65();
        let kinds = [CellKind::Inv, CellKind::Inv, CellKind::Dff];
        let total = lib.total_leakage_nw(kinds.iter());
        let expect =
            2.0 * lib.power(CellKind::Inv).leakage_nw + lib.power(CellKind::Dff).leakage_nw;
        assert!((total - expect).abs() < 1e-12);
    }
}
