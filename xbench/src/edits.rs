//! One-instruction edits of the four mid-size forking programs, as a
//! developer's edit-analyze loop produces them: a store of a seeded
//! constant to a RAM word no suite program reads, inserted at a seeded
//! instruction boundary. Code before the edit is unchanged, so how much
//! work the subtree memo can reuse varies with the edit's position.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;
use xbound_benchsuite::Benchmark;
use xbound_msp430::{assemble, Program};

/// The edited programs, in rotation order. Their 65–149 segments keep
/// edit latencies in one continuous distribution.
pub const PROGRAMS: [&str; 4] = ["binSearch", "tHold", "div", "inSort"];

/// The RAM word every edit stores to. No suite program reads or writes
/// it (their data lives below 0x0340 and none uses the stack).
pub const SCRATCH_WORD: u16 = 0x0800;

/// One edited program.
#[derive(Debug, Clone)]
pub struct Edit {
    /// The program edited.
    pub bench: &'static Benchmark,
    /// The edited program, assembled.
    pub program: Program,
}

/// Whether a source line holds an instruction (after any label), as
/// opposed to a blank, comment, label-only or directive line.
fn is_instruction(line: &str) -> bool {
    let text = line.split(';').next().unwrap_or("");
    let text = text.split("//").next().unwrap_or("");
    let text = match text.find(':') {
        Some(colon) => &text[colon + 1..],
        None => text,
    };
    let text = text.trim();
    !text.is_empty() && !text.starts_with('.')
}

/// Indices of the lines of `source` that hold an instruction: inserting
/// a line before any of them lands on an instruction boundary.
pub fn boundaries(source: &str) -> Vec<usize> {
    source
        .lines()
        .enumerate()
        .filter(|(_, l)| is_instruction(l))
        .map(|(i, _)| i)
        .collect()
}

/// `source` with `mov #value, &SCRATCH_WORD` inserted before line `at`.
pub fn insert_store(source: &str, at: usize, value: u16) -> String {
    let mut out = String::with_capacity(source.len() + 32);
    for (i, l) in source.lines().enumerate() {
        if i == at {
            out.push_str(&format!(
                "        mov #0x{value:04X}, &0x{SCRATCH_WORD:04X}\n"
            ));
        }
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// The first `n` edits of the sequence `seed` names: [`PROGRAMS`] in
/// rotation, every edit distinct from the others.
///
/// # Errors
///
/// Fails when a program is missing from the suite or an edit does not
/// assemble.
pub fn generate(seed: u64, n: usize) -> Result<Vec<Edit>, String> {
    let benches = PROGRAMS
        .iter()
        .map(|name| {
            xbound_benchsuite::by_name(name).ok_or_else(|| format!("no suite program `{name}`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let lines: Vec<Vec<usize>> = benches.iter().map(|b| boundaries(b.source())).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6564_6974_5f73_6565);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let k = i % benches.len();
        let (line, value) = loop {
            let line = lines[k][rng.random_range(0..lines[k].len())];
            let value = rng.random_range(0..=u16::MAX);
            if seen.insert((k, line, value)) {
                break (line, value);
            }
        };
        let source = insert_store(benches[k].source(), line, value);
        let program = assemble(&source)
            .map_err(|e| format!("{} edited at line {line}: {e}", benches[k].name()))?;
        out.push(Edit {
            bench: benches[k],
            program,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::staged::config;
    use xbound_core::{CoAnalysis, ExploreConfig, UlpSystem};

    #[test]
    fn boundaries_skip_labels_directives_and_comments() {
        let src = "; header\n        .equ X, 1\nmain:\n        mov #1, r4 ; c\nloop:   dec r4\n\n        jmp $\ntbl:    .word 1, 2\n";
        assert_eq!(boundaries(src), vec![3, 4, 6]);
        let edited = insert_store(src, 4, 0xBEEF);
        assert_eq!(edited.lines().nth(4), Some("        mov #0xBEEF, &0x0800"));
        assert_eq!(edited.lines().count(), src.lines().count() + 1);
    }

    #[test]
    fn no_suite_program_touches_the_scratch_word() {
        for b in xbound_benchsuite::all() {
            assert!(
                !b.source().to_ascii_uppercase().contains("0X0800"),
                "{}",
                b.name()
            );
        }
    }

    #[test]
    fn edits_are_distinct_seeded_and_rotate() {
        let a = generate(11, 64).expect("edits assemble");
        let b = generate(11, 64).expect("edits assemble");
        let c = generate(12, 64).expect("edits assemble");
        let images = |v: &[Edit]| {
            v.iter()
                .map(|e| e.program.image_bytes())
                .collect::<Vec<_>>()
        };
        assert_eq!(images(&a), images(&b));
        assert_ne!(images(&a), images(&c));
        let distinct: HashSet<_> = images(&a).into_iter().collect();
        assert_eq!(distinct.len(), a.len());
        for (i, e) in a.iter().enumerate() {
            assert_eq!(e.bench.name(), PROGRAMS[i % PROGRAMS.len()]);
        }
    }

    /// Edits assemble and analyze across a range of seeds, each one
    /// instruction longer than the program it edits.
    #[test]
    fn edits_analyze_across_seeds() {
        let system = UlpSystem::openmsp430_class().expect("system builds");
        for seed in 0..6 {
            for (i, e) in generate(seed, PROGRAMS.len())
                .expect("edits assemble")
                .into_iter()
                .enumerate()
            {
                let original = e.bench.program().expect("suite assembles");
                assert!(e.program.len() > original.len(), "{}", e.bench.name());
                let cfg = ExploreConfig {
                    threads: 1,
                    ..config(e.bench)
                };
                CoAnalysis::new(&system)
                    .config(cfg)
                    .energy_rounds(e.bench.energy_rounds())
                    .run(&e.program)
                    .unwrap_or_else(|err| {
                        panic!("seed {seed}, edit {i} of {}: {err}", e.bench.name())
                    });
            }
        }
    }
}
