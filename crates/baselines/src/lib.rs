//! Conventional techniques for rating peak power and energy (paper §4.2).
//!
//! Three baselines are reproduced, matching Figure 4's methodology
//! overview:
//!
//! * [`design_tool`] — rating from the design specification: vectorless
//!   power analysis at the EDA tool's default toggle rates, plus the
//!   data-sheet "rated" power (every cell switching);
//! * [`stressmark`] — a genetic algorithm evolves instruction sequences
//!   that maximize measured peak (or average) power, in the style of
//!   Kim et al.'s AUDIT framework;
//! * [`profiling`] — input-based profiling over many input sets with the
//!   4/3 guardband of prior work applied to the observed peak.
//!
//! All three over-approximate application-specific behavior; the paper's
//! X-based co-analysis (in `xbound-core`) beats each of them while staying
//! sound — the experiments harness regenerates that comparison (Fig 16/17).

pub mod design_tool;
pub mod profiling;
pub mod stressmark;

use xbound_core::UlpSystem;
use xbound_logic::Frame;
use xbound_power::PowerTrace;

/// The guardband factor applied to profiled peaks (paper §4.2, from prior
/// studies; appropriate for the ~25 % input-induced variability of Fig 7a).
pub const GUARDBAND: f64 = 4.0 / 3.0;

/// Runs a program (or endless stressmark) for a fixed number of cycles and
/// measures its power — no halt required.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measure_cycles(
    system: &UlpSystem,
    program: &xbound_msp430::Program,
    inputs: &[u16],
    cycles: u64,
) -> Result<(Vec<Frame>, PowerTrace), xbound_core::AnalysisError> {
    let cpu = system.cpu();
    let mut sim = cpu.new_sim();
    xbound_cpu::Cpu::load_program(&mut sim, program, true);
    xbound_cpu::Cpu::set_inputs(&mut sim, inputs);
    let mut frames = Vec::with_capacity(cycles as usize);
    for _ in 0..cycles {
        frames.push(sim.eval()?.clone());
        sim.commit();
    }
    Ok((frames.clone(), system.analyzer().analyze(&frames)))
}

/// Batched [`measure_cycles`]: runs up to [`xbound_logic::MAX_LANES`]
/// *different* programs (one per lane, no inputs — the stressmark shape)
/// for a fixed cycle count through one
/// [`xbound_sim::BatchSimulator`], returning one measured power trace
/// per program. Each trace is bit-identical to the corresponding scalar
/// [`measure_cycles`] run — the GA's fitness ranking cannot depend on
/// the lane width.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if `programs` is empty or longer than
/// [`xbound_logic::MAX_LANES`].
pub fn measure_cycles_batch(
    system: &UlpSystem,
    programs: &[&xbound_msp430::Program],
    cycles: u64,
) -> Result<Vec<PowerTrace>, xbound_core::AnalysisError> {
    let lanes = programs.len();
    let mut sim = system.cpu().new_batch_sim(lanes);
    for (lane, program) in programs.iter().enumerate() {
        xbound_cpu::Cpu::load_program_lane(&mut sim, lane, program, true);
    }
    sim.set_change_logging(true);
    // Stream each settled cycle into the batched power accumulator — the
    // frame sequence is never materialized, and the engine's ascending
    // change log limits each accumulation to the nets that actually
    // changed (the ascending order keeps the f64 sums bit-identical to a
    // full scan).
    let analyzer = system.analyzer();
    let mut acc = analyzer.batch_accumulator(lanes);
    let mut changes: Vec<u32> = Vec::new();
    for _ in 0..cycles {
        sim.eval()?;
        sim.swap_change_log(&mut changes);
        acc.push_changed(sim.frame(), &changes);
        sim.commit();
    }
    Ok(acc.finish(None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbound_msp430::assemble;

    #[test]
    fn measure_cycles_runs_fixed_window() {
        let sys = UlpSystem::openmsp430_class().unwrap();
        let p = assemble("main: add #1, r4\n jmp main\n").unwrap();
        let (frames, trace) = measure_cycles(&sys, &p, &[], 64).unwrap();
        assert_eq!(frames.len(), 64);
        assert_eq!(trace.cycles(), 64);
        assert!(trace.peak_mw() > 0.0);
    }
}
