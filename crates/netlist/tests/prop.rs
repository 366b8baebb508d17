//! Property tests: randomly generated netlists survive the Verilog round
//! trip structurally intact.

use proptest::prelude::*;
use xbound_netlist::{verilog, CellKind, GateId, Netlist};

/// Strategy: a random DAG netlist over `n` gates.
fn arb_netlist(max_gates: usize) -> impl Strategy<Value = Netlist> {
    (2usize..=max_gates, any::<u64>()).prop_map(|(n, seed)| {
        let mut nl = Netlist::new("rand");
        let mut rng = seed;
        let mut next = move || {
            // xorshift64
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let a = nl.add_input("in_a");
        let b = nl.add_input("in_b");
        let mut nets = vec![a, b];
        let comb = [
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
        ];
        let m = nl.add_module("blob");
        for gi in 0..n {
            let kind = comb[(next() as usize) % comb.len()];
            let ins: Vec<_> = (0..kind.input_count())
                .map(|_| nets[(next() as usize) % nets.len()])
                .collect();
            let y = nl.add_net(format!("n{gi}"));
            nl.add_gate_in(kind, format!("g{gi}"), &ins, y, m)
                .expect("valid gate");
            nets.push(y);
        }
        nl.add_output("out", *nets.last().expect("nonempty"));
        nl.finalize().expect("random DAG is acyclic")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn verilog_round_trip_preserves_structure(nl in arb_netlist(60)) {
        let text = verilog::write(&nl);
        let back = verilog::parse(&text).expect("parses back");
        prop_assert_eq!(back.gate_count(), nl.gate_count());
        prop_assert_eq!(back.net_count(), nl.net_count());
        prop_assert_eq!(back.inputs().len(), nl.inputs().len());
        prop_assert_eq!(back.sequential_gates().len(), nl.sequential_gates().len());
        // Per-gate kinds survive (matched by instance name).
        for (gi, g) in nl.gates().iter().enumerate() {
            let name = nl.gate_name(GateId(gi as u32));
            let other = (0..back.gate_count())
                .find(|&oi| back.gate_name(GateId(oi as u32)) == name)
                .map(|oi| back.gate(GateId(oi as u32)))
                .expect("instance preserved");
            prop_assert_eq!(other.kind(), g.kind());
            prop_assert_eq!(other.inputs().len(), g.inputs().len());
        }
        // Topological evaluation order has the same length (same comb set).
        prop_assert_eq!(back.topo_order().len(), nl.topo_order().len());
    }

    /// Writing is deterministic and parse(write(parse(write(x)))) is stable.
    #[test]
    fn verilog_write_is_idempotent(nl in arb_netlist(30)) {
        let t1 = verilog::write(&nl);
        let p1 = verilog::parse(&t1).expect("parses");
        let t2 = verilog::write(&p1);
        let p2 = verilog::parse(&t2).expect("parses");
        prop_assert_eq!(verilog::write(&p2), t2);
    }
}
