//! The segment-power cache keys on the stability flag: on the ablation's
//! six programs, a stability-off Algorithm 2 run after a stability-on run
//! over one shared cache replays nothing, and its bound is never below
//! the stability-refined one.

use xbound_bench::Harness;
use xbound_core::memo::SubtreeMemo;
use xbound_core::{bound_tree, Corner, SweepSpec, SymbolicExplorer, UlpSystem};

#[test]
fn stability_off_never_replays_stability_on_traces() {
    let sys = UlpSystem::openmsp430_class().expect("system builds");
    let nl = sys.cpu().netlist();
    let spec = SweepSpec::new(vec![Corner::nominal(sys.library().clone(), sys.clock_hz())]);
    let memo = SubtreeMemo::in_memory();
    let cache = Some(memo.power());
    for name in ["mult", "tea8", "tHold", "PI", "intAVG", "binSearch"] {
        let bench = xbound_benchsuite::by_name(name).expect("exists");
        let program = bench.program().expect("assembles");
        let (tree, _) = SymbolicExplorer::new(sys.cpu(), Harness::explore_config(bench))
            .explore(&program)
            .expect("explores");
        let rounds = bench.energy_rounds();
        let peak_mw = |use_stability| {
            bound_tree(nl, &tree, &spec, use_stability, rounds, 1, cache, |_, b| {
                b.peak.peak_mw
            })[0]
        };
        let on = peak_mw(true);
        let before = memo.stats();
        let off = peak_mw(false);
        let after = memo.stats();
        assert_eq!(after.power_hits, before.power_hits, "{name}: replayed");
        assert_eq!(
            after.power_misses - before.power_misses,
            tree.segments().len() as u64,
            "{name}: every segment recomputes without stability"
        );
        assert!(off >= on, "{name}: stability off {off} mW < on {on} mW");
        // The stability-off traces are cached under their own key.
        assert_eq!(peak_mw(false), off, "{name}");
        assert_eq!(
            memo.stats().power_hits - after.power_hits,
            tree.segments().len() as u64,
            "{name}: a repeated stability-off run replays every segment"
        );
    }
}
