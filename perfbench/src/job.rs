//! The untimed-layer (production) path of each workload: the program's
//! own entry points, called exactly as a user of the library would.

use crate::workload::Workload;
use pgasm_assemble::Assembly;
use pgasm_core::validation::validate_clusters;
use pgasm_core::{cluster_serial, ClusterParams, Clustering, Pipeline, PipelineConfig, StableHasher};
use pgasm_preprocess::{PreprocessConfig, Preprocessor};
use pgasm_seq::DnaSeq;
use pgasm_simgen::vector::VECTOR_SEQ;
use pgasm_simgen::ReadSet;
use pgasm_telemetry::{RankReport, RunContext};

/// Assembly threads of every job: one per core of the 2-core host the
/// benchmark is sized for (the CLI default is 4).
pub const ASSEMBLY_THREADS: usize = 2;

/// Read-interval gap tolerance when validating clusters against the
/// simulated provenance (the value the paper-table experiments use).
pub const VALIDATION_GAP_BP: u32 = 2_000;

/// What a job produced: enough to digest and validate it.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The clustering over the preprocessed fragments.
    pub clustering: Clustering,
    /// For each fragment, the index of its original read.
    pub origin: Vec<usize>,
    /// Per-non-singleton-cluster assemblies (empty when the workload
    /// does not assemble).
    pub assemblies: Vec<Assembly>,
}

impl Output {
    /// Order-sensitive digest of the clustering membership and of every
    /// contig's bases and read placements. Equal digests mean equal
    /// results.
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.update_u64(self.clustering.clusters.len() as u64);
        for c in &self.clustering.clusters {
            h.update_u64(c.len() as u64);
            for &f in c {
                h.update_u64(f as u64);
            }
        }
        h.update_u64(self.assemblies.len() as u64);
        for a in &self.assemblies {
            h.update_u64(a.contigs.len() as u64);
            for contig in &a.contigs {
                h.update_slice(&contig.seq.to_ascii());
                h.update_u64(contig.placements.len() as u64);
                for p in &contig.placements {
                    h.update_u64(p.read as u64).update_u64(p.offset as u64).update_u64(p.flipped as u64);
                }
            }
            h.update_u64(a.singletons.len() as u64);
            for &s in &a.singletons {
                h.update_u64(s as u64);
            }
            h.update_u64(a.inconsistent_edges as u64);
        }
        h.finish()
    }

    /// `(clusters examined, clusters mapping to one genomic region)`
    /// against the simulated provenance.
    pub fn specificity(&self, reads: &ReadSet) -> (usize, usize) {
        let r = validate_clusters(&self.clustering, &self.origin, &reads.provenance, VALIDATION_GAP_BP);
        (r.clusters, r.single_region)
    }

    /// N50 over every contig of the project (0 without contigs).
    pub fn n50(&self) -> usize {
        let mut lens: Vec<usize> =
            self.assemblies.iter().flat_map(|a| a.contigs.iter().map(|c| c.seq.len())).collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = lens.iter().sum();
        let mut acc = 0;
        for l in lens {
            acc += l;
            if 2 * acc >= total {
                return l;
            }
        }
        0
    }
}

/// Vector sequences handed to the preprocessor (what the CLI passes).
pub fn vectors() -> Vec<DnaSeq> {
    vec![DnaSeq::from(VECTOR_SEQ)]
}

/// The pipeline configuration of the assembling workloads: the CLI's
/// defaults (preprocessing on, artifact cache off, tracing off) at
/// [`ASSEMBLY_THREADS`].
pub fn pipeline_config(ranks: Option<usize>) -> PipelineConfig {
    PipelineConfig {
        preprocess: Some(PreprocessConfig::default()),
        parallel_ranks: ranks,
        assembly_threads: ASSEMBLY_THREADS,
        cache_dir: None,
        ..Default::default()
    }
}

/// Protocol traffic of a distributed job, summed over ranks and
/// stages as the run report records it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Traffic {
    /// Messages sent.
    pub msgs: u64,
    /// Payload bytes sent.
    pub bytes: u64,
}

impl Traffic {
    /// Traffic sent by `ranks`, over every tag.
    pub fn of<'a>(ranks: impl IntoIterator<Item = &'a RankReport>) -> Traffic {
        let rows = ranks.into_iter().flat_map(|r| r.comm.iter());
        rows.fold(Traffic::default(), |t, row| Traffic {
            msgs: t.msgs + row.msgs_sent,
            bytes: t.bytes + row.bytes_sent,
        })
    }
}

/// Run workload `w` over `reads` through the program's production entry
/// points.
pub fn run(w: Workload, reads: &ReadSet) -> (Output, Traffic) {
    match w {
        Workload::SargassoCluster => {
            let pp = Preprocessor::new(PreprocessConfig::default(), &vectors(), &[]);
            let out = pp.run(reads);
            let (clustering, _) = cluster_serial(&out.store, &ClusterParams::default());
            (Output { clustering, origin: out.origin, assemblies: Vec::new() }, Traffic::default())
        }
        Workload::MaizeAsm | Workload::MaizeAsmP2 => {
            let mut ctx = RunContext::new(w.name());
            let report =
                Pipeline::new(pipeline_config(w.ranks())).run_with_context(reads, &vectors(), &[], &mut ctx);
            let out = Output {
                clustering: report.clustering,
                origin: report.origin,
                assemblies: report.assemblies,
            };
            (out, Traffic::of(&ctx.finish().ranks))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traced;
    use crate::workload::Size;

    #[test]
    fn digest_is_stable_and_sensitive() {
        let ds = Workload::MaizeAsm.dataset(5, Size::SMOKE);
        let (a, _) = run(Workload::MaizeAsm, &ds.reads);
        let (b, _) = run(Workload::MaizeAsm, &ds.reads);
        assert_eq!(a.digest(), b.digest());
        let mut moved = a.clone();
        let last = moved.assemblies.iter_mut().find(|x| !x.contigs.is_empty()).expect("a contig");
        last.contigs[0].placements[0].offset += 1;
        assert_ne!(moved.digest(), a.digest(), "a moved placement changes the digest");
        let mut regrouped = a.clone();
        let c = regrouped.clustering.clusters.iter_mut().find(|c| c.len() >= 2).expect("a cluster");
        let f = c.pop().expect("member");
        regrouped.clustering.clusters.push(vec![f]);
        assert_ne!(regrouped.digest(), a.digest(), "membership changes the digest");
    }

    #[test]
    fn distributed_job_matches_serial() {
        let ds = Workload::MaizeAsm.dataset(11, Size::SMOKE);
        let (serial, none) = run(Workload::MaizeAsm, &ds.reads);
        let (dist, traffic) = run(Workload::MaizeAsmP2, &ds.reads);
        assert_eq!(serial.digest(), dist.digest());
        assert_eq!(none.msgs, 0);
        assert!(traffic.msgs > 0 && traffic.bytes > 0);
    }

    /// The traced path reproduces the production job on every
    /// workload, so its layer numbers describe the same program.
    #[test]
    fn traced_path_reproduces_every_workload() {
        for w in Workload::ALL {
            let ds = w.dataset(3, Size::SMOKE);
            let (plain, _) = run(w, &ds.reads);
            let tr = traced::run(w, &ds.reads, 3);
            assert_eq!(tr.output.digest(), plain.digest(), "{}", w.name());
            assert_eq!(tr.output.origin, plain.origin, "{}", w.name());
            let cov = tr.layers["trace.covered_s"] / tr.layers["trace.wall_s"];
            assert!(cov > 0.9 && cov <= 1.0, "{}: coverage {cov}", w.name());
        }
    }

    #[test]
    fn validation_and_n50() {
        let ds = Workload::MaizeAsm.dataset(5, Size::SMOKE);
        let (out, _) = run(Workload::MaizeAsm, &ds.reads);
        let (clusters, single) = out.specificity(&ds.reads);
        assert!(clusters > 0 && single <= clusters);
        let longest = out.assemblies.iter().flat_map(|a| &a.contigs).map(|c| c.seq.len()).max().unwrap();
        assert!(out.n50() > 0 && out.n50() <= longest);
    }
}
