//! The benchmark's workloads and how their inputs are made from a seed.

use pgasm_simgen::presets::{self, Dataset};

/// One benchmark workload. The names are stable: results and later
/// changes cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Maize-like reads through the full serial pipeline
    /// (preprocess → cluster → assemble), as `pgasm assemble` runs it.
    MaizeAsm,
    /// Sargasso-like reads through preprocessing and serial clustering
    /// only; the assembler is bypassed.
    SargassoCluster,
    /// The `maize-asm` input through the distributed pipeline on two
    /// simulated ranks (one master, one worker).
    MaizeAsmP2,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::MaizeAsm, Workload::SargassoCluster, Workload::MaizeAsmP2];

    /// Stable workload name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MaizeAsm => "maize-asm",
            Workload::SargassoCluster => "sargasso-cluster",
            Workload::MaizeAsmP2 => "maize-asm-p2",
        }
    }

    /// Workload by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the assembly stage.
    pub fn assembles(self) -> bool {
        self != Workload::SargassoCluster
    }

    /// Simulated ranks of the distributed path (`None` = serial).
    pub fn ranks(self) -> Option<usize> {
        match self {
            Workload::MaizeAsmP2 => Some(2),
            _ => None,
        }
    }

    /// The workload whose output must equal this one's on the same
    /// input: the serial pipeline for the distributed one (the
    /// "byte-identical at any p" guarantee), itself otherwise.
    pub fn reference(self) -> Workload {
        match self {
            Workload::MaizeAsmP2 => Workload::MaizeAsm,
            w => w,
        }
    }

    /// Generate one project's input.
    pub fn dataset(self, seed: u64, size: Size) -> Dataset {
        match self {
            Workload::MaizeAsm | Workload::MaizeAsmP2 => {
                presets::maize_like(size.maize_genome_bp, size.maize_reads, seed)
            }
            Workload::SargassoCluster => {
                presets::sargasso_like(size.sargasso_species, size.sargasso_reads, seed)
            }
        }
    }

    /// Projects one run measures, each generated from its own
    /// sub-seed of the run's seed.
    pub fn projects(self, size: Size) -> usize {
        match self {
            Workload::SargassoCluster => size.sargasso_projects,
            _ => size.maize_projects,
        }
    }
}

/// Project sizes and how many projects make up one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Simulated maize genome length.
    pub maize_genome_bp: usize,
    /// Reads sampled from it.
    pub maize_reads: usize,
    /// Projects per `maize-asm` / `maize-asm-p2` run.
    pub maize_projects: usize,
    /// Species in the Sargasso-like community.
    pub sargasso_species: usize,
    /// Reads sampled from the community.
    pub sargasso_reads: usize,
    /// Projects per `sargasso-cluster` run.
    pub sargasso_projects: usize,
}

impl Size {
    /// The measured size.
    pub const BENCH: Size = Size {
        maize_genome_bp: 200_000,
        maize_reads: 400,
        maize_projects: 6,
        sargasso_species: 16,
        sargasso_reads: 1_500,
        sargasso_projects: 4,
    };

    /// A seconds-long size for smoke tests of the harness itself.
    pub const SMOKE: Size = Size {
        maize_genome_bp: 30_000,
        maize_reads: 60,
        maize_projects: 2,
        sargasso_species: 4,
        sargasso_reads: 120,
        sargasso_projects: 2,
    };

    /// Name [`Size::parse`] accepts.
    pub fn name(self) -> &'static str {
        if self == Size::SMOKE {
            "smoke"
        } else {
            "bench"
        }
    }

    /// Size by name (`bench` or `smoke`).
    pub fn parse(name: &str) -> Option<Size> {
        match name {
            "bench" => Some(Size::BENCH),
            "smoke" => Some(Size::SMOKE),
            _ => None,
        }
    }
}

/// Seed of project `index` of the run seeded with `run_seed`
/// (SplitMix64 of the pair, so neighbouring run seeds share no
/// project).
pub fn project_seed(run_seed: u64, index: usize) -> u64 {
    let mut z = run_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("maize"), None);
    }

    #[test]
    fn project_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for run in 0..50 {
            for i in 0..8 {
                assert!(seen.insert(project_seed(run, i)));
            }
        }
        assert_eq!(project_seed(7, 0), project_seed(7, 0));
    }

    #[test]
    fn same_seed_same_input() {
        let a = Workload::MaizeAsm.dataset(3, Size::SMOKE);
        let b = Workload::MaizeAsmP2.dataset(3, Size::SMOKE);
        assert_eq!(a.reads.seqs, b.reads.seqs);
    }
}
