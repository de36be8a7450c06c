//! Benchmark inputs: the pinned scenario instances, written as Newick
//! files with seed-derived taxon labels, and the digest used to compare
//! stands.

use gentrius_core::{GentriusConfig, StandProblem, StoppingRules};
use gentrius_datagen::scenario::{blowup_showcase, deadend_blowup, long_runner, trap_showcase};
use gentrius_datagen::Dataset;
use phylo::newick::{parse_forest, to_newick};
use phylo::taxa::TaxonSet;
use std::path::Path;

/// The named pinned scenario instance.
pub fn instance(name: &str) -> Result<Dataset, String> {
    Ok(match name {
        "deadend" => deadend_blowup(),
        "trap" => trap_showcase().0,
        "long-runner-0" => long_runner(0),
        "long-runner-1" => long_runner(1),
        "caterpillar-blowup" => blowup_showcase(),
        other => return Err(format!("unknown instance '{other}'")),
    })
}

/// The taxon label of `name` under label seed `seed`: seed 0 keeps the
/// generator's labels; any other seed prefixes a fixed-width tag derived
/// from the seed. Labels are interned in first-appearance order, so the
/// relabelled input yields the same taxon ids and the same search.
fn label(name: &str, seed: u64) -> String {
    if seed == 0 {
        name.to_string()
    } else {
        format!("s{:08x}_{name}", splitmix(seed) as u32)
    }
}

/// The dataset's constraint trees as Newick lines with seed-derived labels.
pub fn newick_lines(d: &Dataset, seed: u64) -> String {
    let mut taxa = TaxonSet::new();
    for (_, name) in d.taxa.iter() {
        taxa.intern(&label(name, seed));
    }
    let mut out = String::new();
    for c in &d.constraints {
        out.push_str(&to_newick(c, &taxa));
        out.push('\n');
    }
    out
}

/// A parsed input file, built exactly as `gentrius stand --trees` builds it.
pub struct Input {
    pub taxa: TaxonSet,
    pub problem: StandProblem,
}

/// Reads, parses and builds the problem of a Newick input file.
pub fn load(path: &Path) -> Result<Input, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (taxa, trees) = parse_forest(text.lines()).map_err(|e| e.to_string())?;
    let problem = StandProblem::from_constraints(trees).map_err(|e| e.to_string())?;
    Ok(Input { taxa, problem })
}

/// The binary's default configuration with explicit count limits and no
/// wall-clock limit.
pub fn config(max_trees: u64, max_states: u64) -> GentriusConfig {
    GentriusConfig {
        stopping: StoppingRules {
            max_stand_trees: Some(max_trees),
            max_intermediate_states: Some(max_states),
            max_time: None,
        },
        ..GentriusConfig::default()
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent digest of a multiset of lines: the count plus the
/// wrapping sum and the xor of a 64-bit hash of each line. Two stands
/// agree under it whatever order their trees were written in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub lines: u64,
    sum: u64,
    xor: u64,
}

impl Digest {
    pub fn add(&mut self, line: &str) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in line.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let h = splitmix(h);
        self.lines += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h;
    }

    pub fn of_lines<'a, I: IntoIterator<Item = &'a str>>(lines: I) -> Digest {
        let mut d = Digest::default();
        for l in lines {
            d.add(l);
        }
        d
    }

    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.sum, self.xor)
    }
}
