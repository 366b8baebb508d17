//! The engine's gate-evaluation counter (`Engine::gate_evals`), on a real
//! workload: the denominator of the ns/gate-pass numbers in
//! `BENCH_sim.json`.
//!
//! Run with `--nocapture` to see the per-engine counts.

use xbound_cpu::Cpu;
use xbound_sim::EvalMode;

/// Same 200-cycle concrete tea8 run under each engine: the event-driven
/// engine evaluates only dirty gates, the levelized oracle sweeps the
/// whole netlist every pass.
#[test]
fn gate_eval_counts_order_as_designed() {
    let cpu = Cpu::build().expect("builds");
    let bench = xbound_benchsuite::by_name("tea8").expect("exists");
    let program = bench.program().expect("assembles");
    let cycles = 200u64;
    let mut counts = Vec::new();
    for (name, mode) in [
        ("event-driven", EvalMode::EventDriven),
        ("levelized", EvalMode::Levelized),
    ] {
        let mut sim = cpu.new_sim();
        sim.set_eval_mode(mode);
        Cpu::load_program(&mut sim, &program, true);
        for _ in 0..cycles {
            sim.step();
        }
        let evals = sim.gate_evals();
        println!(
            "{name}: {evals} gate evals over {cycles} cycles ({:.1}/cycle)",
            evals as f64 / cycles as f64
        );
        counts.push((name, evals));
    }
    let by_name = |n: &str| counts.iter().find(|(m, _)| *m == n).unwrap().1;
    let event = by_name("event-driven");
    let levelized = by_name("levelized");
    assert!(event > 0);
    assert!(
        event < levelized,
        "the event-driven engine's dirty sets must stay sparser than full \
         re-evaluation ({event} vs {levelized})"
    );
}
