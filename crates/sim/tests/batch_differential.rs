//! Differential test: the batched bit-parallel engine against independent
//! scalar simulators.
//!
//! Lanes of a [`BatchSimulator`] never interact, so lane `l` of every
//! settled frame must be bit-identical to a scalar [`Simulator`] run
//! under lane `l`'s stimulus — for random designs, random *per-lane*
//! input drives, broadcast forces/releases, and snapshot/restore
//! mid-sequence (the scalar differential test's op mix, widened by one
//! lane axis).

use proptest::prelude::*;
use xbound_logic::{BatchFrame, Lv, XWord};
use xbound_netlist::rtl::Rtl;
use xbound_netlist::{CellKind, NetId, Netlist};
use xbound_sim::{
    BatchMachineState, BatchSimulator, BusSpec, MachineState, MemRegion, RegionKind, Simulator,
};

/// Builds a random DAG netlist (combinational + flip-flop mix) from a
/// seed — same generator as the scalar engine differential test.
fn random_netlist(n_gates: usize, seed: u64) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let a = nl.add_input("in_a");
    let b = nl.add_input("in_b");
    let c = nl.add_input("in_c");
    let mut nets = vec![a, b, c];
    let kinds = [
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
    for gi in 0..n_gates {
        let kind = kinds[(next() as usize) % kinds.len()];
        let ins: Vec<NetId> = (0..kind.input_count())
            .map(|_| nets[(next() as usize) % nets.len()])
            .collect();
        let y = nl.add_net(format!("n{gi}"));
        nl.add_gate(kind, format!("g{gi}"), &ins, y).expect("gate");
        nets.push(y);
    }
    nl.add_output("out", *nets.last().expect("nonempty"));
    nl.finalize().expect("random DAG is acyclic")
}

fn lv_of(x: u64) -> Lv {
    match x % 3 {
        0 => Lv::Zero,
        1 => Lv::One,
        _ => Lv::X,
    }
}

/// Asserts every lane of the settled batch frame and committed machine
/// state against its scalar twin.
fn assert_lanes_match(
    batch: &BatchSimulator<'_>,
    scalars: &[Simulator<'_>],
    step: usize,
) -> Result<(), TestCaseError> {
    for (l, s) in scalars.iter().enumerate() {
        let bf = batch.lane_frame(l);
        prop_assert_eq!(
            &bf,
            s.frame(),
            "lane {} diverges at step {} (diff nets: {:?})",
            l,
            step,
            bf.diff_indices(s.frame())
        );
        prop_assert_eq!(batch.lane_machine_state(l), s.machine_state());
    }
    Ok(())
}

/// Drains the change log and checks its contract against the frame at
/// the previous drain: strictly ascending, and holding every net whose
/// value changed since then.
fn check_change_log(
    batch: &mut BatchSimulator<'_>,
    at_last_drain: &mut BatchFrame,
    log: &mut Vec<u32>,
    step: usize,
) -> Result<(), TestCaseError> {
    batch.swap_change_log(log);
    prop_assert!(
        log.windows(2).all(|w| w[0] < w[1]),
        "step {}: log not strictly ascending: {:?}",
        step,
        log
    );
    let now = batch.frame();
    for i in 0..now.len() {
        if now.get(i) != at_last_drain.get(i) {
            prop_assert!(
                log.binary_search(&(i as u32)).is_ok(),
                "step {}: net {} changed but is not in the log {:?}",
                step,
                i,
                log
            );
        }
    }
    at_last_drain.clone_from(now);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The change log under the explorer's op mix (per-lane and
    /// broadcast forces, per-lane drives and restores, masked commits):
    /// every drain, after a settle or after a commit, is strictly
    /// ascending and covers every net whose lanes changed since the
    /// previous drain.
    #[test]
    fn change_log_drains_ascending_and_covers_every_change(
        n_gates in 4usize..60,
        seed in any::<u64>(),
        steps in 4usize..30,
        width in 0usize..3,
    ) {
        let lanes = [1usize, 5, 64][width];
        let nl = random_netlist(n_gates, seed);
        let mut batch = BatchSimulator::new(&nl, lanes);
        batch.set_change_logging(true);
        let mut at_last_drain = batch.frame().clone();
        let mut log = Vec::new();
        let mut rng = seed ^ 0x2545_F491_4F6C_DD1D | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut snapshots: Vec<MachineState> = Vec::new();
        for step in 0..steps {
            let l = (next() as usize) % lanes;
            match next() % 8 {
                0 => {
                    let n = NetId((next() % nl.net_count() as u64) as u32);
                    batch.force_lane(n, l, Some(lv_of(next())));
                }
                1 => {
                    let n = NetId((next() % nl.net_count() as u64) as u32);
                    batch.force(n, if next() % 2 == 0 { None } else { Some(lv_of(next())) });
                }
                2 => {
                    let n = NetId((next() % nl.net_count() as u64) as u32);
                    batch.force_lane(n, l, None);
                }
                3..=4 => {
                    let inputs = nl.inputs();
                    let n = inputs[(next() as usize) % inputs.len()];
                    for lane in 0..lanes {
                        batch.drive_input_lane(n, lane, lv_of(next()));
                    }
                }
                5 => snapshots.push(batch.lane_machine_state(l)),
                _ => {
                    if !snapshots.is_empty() {
                        let snap = &snapshots[(next() as usize) % snapshots.len()];
                        batch.set_lane_machine_state(l, snap);
                    }
                }
            }
            batch.eval().expect("no bus: settles");
            if next() % 3 != 0 {
                check_change_log(&mut batch, &mut at_last_drain, &mut log, step)?;
            }
            let mask = next() & batch.frame().lane_mask();
            let ff_next = batch.ff_next_values();
            batch.commit_with_next_masked(&ff_next, mask);
            if next() % 2 == 0 {
                check_change_log(&mut batch, &mut at_last_drain, &mut log, step)?;
            }
        }
    }

    /// Random designs under random per-lane stimulus, broadcast
    /// forces/releases, and snapshot/restore: every batch lane is
    /// bit-identical to an independent scalar run, every cycle.
    #[test]
    fn batch_lanes_match_scalar_runs(
        n_gates in 4usize..60,
        seed in any::<u64>(),
        steps in 4usize..30,
        lanes in 1usize..=8,
    ) {
        let nl = random_netlist(n_gates, seed);
        let mut batch = BatchSimulator::new(&nl, lanes);
        let mut scalars: Vec<Simulator<'_>> =
            (0..lanes).map(|_| Simulator::new(&nl)).collect();

        let mut rng = seed ^ 0xD1B5_4A32_D192_ED03 | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut snapshots: Vec<(BatchMachineState, Vec<MachineState>)> = Vec::new();
        for step in 0..steps {
            match next() % 10 {
                // Per-lane random drives on a random input — the batched
                // stimulus axis the scalar test cannot exercise.
                0..=3 => {
                    let inputs = nl.inputs();
                    let n = inputs[(next() as usize) % inputs.len()];
                    for (l, s) in scalars.iter_mut().enumerate() {
                        let v = lv_of(next());
                        batch.drive_input_lane(n, l, v);
                        s.drive_input(n, v);
                    }
                }
                // Broadcast force on a random net.
                4..=5 => {
                    let n = NetId((next() % nl.net_count() as u64) as u32);
                    let v = lv_of(next());
                    batch.force(n, Some(v));
                    for s in scalars.iter_mut() {
                        s.force(n, Some(v));
                    }
                }
                // Release a random net's force.
                6..=7 => {
                    let n = NetId((next() % nl.net_count() as u64) as u32);
                    batch.force(n, None);
                    for s in scalars.iter_mut() {
                        s.force(n, None);
                    }
                }
                // Snapshot all lanes + all scalar twins together.
                8 => snapshots.push((
                    batch.machine_state(),
                    scalars.iter().map(|s| s.machine_state()).collect(),
                )),
                // Restore a random earlier snapshot mid-sequence.
                _ => {
                    if !snapshots.is_empty() {
                        let (b, ss) = &snapshots[(next() as usize) % snapshots.len()];
                        batch.set_machine_state(b);
                        for (s, snap) in scalars.iter_mut().zip(ss) {
                            s.set_machine_state(snap);
                        }
                    }
                }
            }
            batch.eval().expect("no bus: settles");
            for s in scalars.iter_mut() {
                s.eval().expect("no bus: settles");
            }
            batch.commit();
            for s in scalars.iter_mut() {
                s.commit();
            }
            assert_lanes_match(&batch, &scalars, step)?;
        }
    }

    /// Per-lane forces, per-lane machine-state restores, and masked
    /// commits (the batched symbolic explorer's op mix): every batch lane
    /// stays bit-identical to an independent scalar run that mirrors that
    /// lane's forces/restores — and a commit-masked (frozen) lane matches
    /// a scalar twin that simply skipped the clock edge.
    #[test]
    fn per_lane_forces_and_restores_match_scalar_runs(
        n_gates in 4usize..60,
        seed in any::<u64>(),
        steps in 4usize..30,
        lanes in 2usize..=8,
    ) {
        let nl = random_netlist(n_gates, seed);
        let mut batch = BatchSimulator::new(&nl, lanes);
        let mut scalars: Vec<Simulator<'_>> =
            (0..lanes).map(|_| Simulator::new(&nl)).collect();

        let mut rng = seed ^ 0x9E37_79B9_7F4A_7C15 | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut snapshots: Vec<Vec<MachineState>> = Vec::new();
        for step in 0..steps {
            match next() % 10 {
                // Force a random net in ONE lane only; the scalar twin of
                // that lane mirrors it, the others are untouched.
                0..=2 => {
                    let n = NetId((next() % nl.net_count() as u64) as u32);
                    let l = (next() as usize) % lanes;
                    let v = lv_of(next());
                    batch.force_lane(n, l, Some(v));
                    scalars[l].force(n, Some(v));
                }
                // Release one lane's force.
                3..=4 => {
                    let n = NetId((next() % nl.net_count() as u64) as u32);
                    let l = (next() as usize) % lanes;
                    batch.force_lane(n, l, None);
                    scalars[l].force(n, None);
                }
                // Per-lane drive churn keeps lanes diverging.
                5..=6 => {
                    let inputs = nl.inputs();
                    let n = inputs[(next() as usize) % inputs.len()];
                    for (l, s) in scalars.iter_mut().enumerate() {
                        let v = lv_of(next());
                        batch.drive_input_lane(n, l, v);
                        s.drive_input(n, v);
                    }
                }
                // Snapshot every lane as scalar machine states.
                7 => snapshots.push(
                    (0..lanes).map(|l| batch.lane_machine_state(l)).collect(),
                ),
                // Restore an earlier snapshot into ONE lane only.
                _ => {
                    if !snapshots.is_empty() {
                        let snap = &snapshots[(next() as usize) % snapshots.len()];
                        let l = (next() as usize) % lanes;
                        batch.set_lane_machine_state(l, &snap[l]);
                        scalars[l].set_machine_state(&snap[l]);
                    }
                }
            }
            // One lane is frozen this pass (no clock edge); its scalar
            // twin skips commit. The rest step normally.
            let frozen = (next() as usize) % lanes;
            let mask = batch.frame().lane_mask() & !(1u64 << frozen);
            batch.eval().expect("no bus: settles");
            let batch_next = batch.ff_next_values();
            batch.commit_with_next_masked(&batch_next, mask);
            for (l, s) in scalars.iter_mut().enumerate() {
                s.eval().expect("no bus: settles");
                if l != frozen {
                    s.commit();
                }
            }
            for (l, s) in scalars.iter_mut().enumerate() {
                // Settle both sides before comparing (the frozen scalar
                // twin never committed, so its frame is already settled).
                s.eval().expect("settles");
                batch.eval().expect("settles");
                let bf = batch.lane_frame(l);
                prop_assert_eq!(
                    &bf,
                    s.frame(),
                    "lane {} diverges at step {} (frozen {}, diff nets: {:?})",
                    l,
                    step,
                    frozen,
                    bf.diff_indices(s.frame())
                );
            }
        }
    }

    /// Same agreement over a bus device with per-lane memories (ROM +
    /// RAM + port), X-valued addresses, and write smears.
    #[test]
    fn batch_lanes_match_scalar_runs_on_bus_device(
        seed in any::<u64>(),
        steps in 4usize..24,
        lanes in 2usize..=6,
    ) {
        let mut r = Rtl::new("busdev");
        let rdata = r.input("rdata", 16);
        let wen_in = r.input_bit("wen_in");
        let addr_in = r.input("addr_in", 16);
        let data_in = r.input("data_in", 16);
        let (ha, acc) = r.reg("acc", 16);
        let (sum, _) = r.add(&acc, &rdata, None);
        r.reg_next(ha, &sum);
        r.output("addr", &addr_in);
        r.output("wdata", &data_in);
        r.output_bit("wen", wen_in);
        r.output("acc", &acc);
        let nl = r.finish().expect("builds");
        let bus = || BusSpec {
            addr: (0..16)
                .map(|i| nl.find_net(&format!("addr_in[{i}]")).expect("net"))
                .collect(),
            wdata: (0..16)
                .map(|i| nl.find_net(&format!("data_in[{i}]")).expect("net"))
                .collect(),
            rdata: (0..16)
                .map(|i| nl.find_net(&format!("rdata[{i}]")).expect("net"))
                .collect(),
            wen: nl.find_net("wen_in"),
        };
        // Per-lane ROM contents diverge below; RAM/port start identical.
        let mems = |lane: usize| {
            let mut rom = MemRegion::new("rom", RegionKind::Rom, 0xF000, 8);
            let base = (lane as u16 + 1) * 3;
            rom.load(0xF000, &[base, base + 1, base + 2, base + 3]);
            let mut ram = MemRegion::new("ram", RegionKind::Ram, 0x0200, 8);
            ram.fill(XWord::from_u16(0));
            let port = MemRegion::new("port", RegionKind::Port, 0x0020, 4);
            vec![rom, ram, port]
        };
        let mut batch = BatchSimulator::new(&nl, lanes);
        batch.attach_bus(bus(), mems(0)).expect("bus ok");
        let mut scalars: Vec<Simulator<'_>> = (0..lanes)
            .map(|l| {
                let mut s = Simulator::new(&nl);
                s.attach_bus(bus(), mems(l)).expect("bus ok");
                s
            })
            .collect();
        for l in 0..lanes {
            // Diverge the batch lanes' ROMs to match their scalar twins.
            *batch.mem_mut_lane("rom", l).expect("rom") = mems(l)[0].clone();
        }

        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut snapshots: Vec<(BatchMachineState, Vec<MachineState>)> = Vec::new();
        for step in 0..steps {
            // Per-lane: point the address at one of the regions (or
            // nowhere) with a chance of X bits; random write data/enable.
            for (l, s) in scalars.iter_mut().enumerate() {
                let base = [0xF000u16, 0x0200, 0x0020, 0x4000][(next() % 4) as usize];
                let addr = base + ((next() % 8) as u16) * 2;
                for i in 0..16 {
                    let n = nl.find_net(&format!("addr_in[{i}]")).expect("net");
                    let v = if next() % 8 == 0 {
                        Lv::X
                    } else {
                        Lv::from_bool((addr >> i) & 1 == 1)
                    };
                    batch.drive_input_lane(n, l, v);
                    s.drive_input(n, v);
                    let d = nl.find_net(&format!("data_in[{i}]")).expect("net");
                    let dv = lv_of(next());
                    batch.drive_input_lane(d, l, dv);
                    s.drive_input(d, dv);
                }
                let wen = lv_of(next());
                let wn = nl.find_net("wen_in").expect("net");
                batch.drive_input_lane(wn, l, wen);
                s.drive_input(wn, wen);
            }
            if next() % 5 == 0 {
                snapshots.push((
                    batch.machine_state(),
                    scalars.iter().map(|s| s.machine_state()).collect(),
                ));
            }
            if next() % 5 == 0 && !snapshots.is_empty() {
                let (b, ss) = &snapshots[(next() as usize) % snapshots.len()];
                batch.set_machine_state(b);
                for (s, snap) in scalars.iter_mut().zip(ss) {
                    s.set_machine_state(snap);
                }
            }
            batch.eval().expect("bus settles");
            for s in scalars.iter_mut() {
                s.eval().expect("bus settles");
            }
            batch.commit();
            for s in scalars.iter_mut() {
                s.commit();
            }
            assert_lanes_match(&batch, &scalars, step)?;
        }
    }
}
