//! The traced run: each workload's job re-driven layer by layer from
//! the benchmark's own code, with a span around every call into a
//! layer's public function. It composes the same public calls the
//! production entry points make, so its output digest must equal the
//! untraced job's; the run checks that before trusting the layer
//! numbers.

use crate::job::{self, Output, Traffic, ASSEMBLY_THREADS};
use crate::spans::Recorder;
use crate::stats::mean;
use crate::workload::Workload;
use pgasm_assemble::{consensus, layout, overlap, Assembly, AssemblyConfig};
use pgasm_core::clustering::{canonical_skip, same_fragment_skip, PairDecider};
use pgasm_core::{
    assemble_parallel, cluster_parallel, AssignPolicy, ClusterParams, ClusterStats, Clustering,
    MasterWorkerConfig, UnionFind,
};
use pgasm_gst::{Gst, PairGenerator, PromisingPair};
use pgasm_preprocess::pipeline::PreprocessOutput;
use pgasm_preprocess::{PreprocessConfig, Preprocessor};
use pgasm_seq::{DnaSeq, FragmentStore, QualityTrack, SeqId};
use pgasm_simgen::ReadSet;
use std::collections::BTreeMap;
use std::time::Instant;

/// Pairs pulled from the generator per `next_batch` call (the serial
/// engine consumes the stream one pair at a time; batching only
/// amortises the span cost).
const PAIR_BATCH: usize = 4_096;

/// Raw per-project layer quantities, by name. Times are seconds.
pub type Layers = BTreeMap<String, f64>;

/// Result of one traced project.
pub struct Traced {
    /// The job's output (must digest like the untraced job's).
    pub output: Output,
    /// Layer quantities of the project.
    pub layers: Layers,
    /// Every span recorded.
    pub spans: Recorder,
}

/// Run workload `w` over `reads` layer by layer. `run` identifies the
/// job's spans.
pub fn run(w: Workload, reads: &ReadSet, run: u64) -> Traced {
    let mut rec = Recorder::new(run);
    let mut layers = Layers::new();
    let root = rec.begin("job");
    let pre = rec.span("preprocess.run", |_| {
        Preprocessor::new(PreprocessConfig::default(), &job::vectors(), &[]).run(reads)
    });
    let params = ClusterParams::default();
    let assembly_config = job::pipeline_config(None).assembly;
    let mut output = match w.ranks() {
        None => {
            let (clustering, stats) = rec.span("cluster", |r| cluster(&pre.store, &params, r, &mut layers));
            record_cluster_stats(&mut layers, &stats);
            let assemblies = if w.assembles() {
                rec.span("assemble", |r| {
                    assemble(&pre.store_unmasked, &pre.quals, &clustering, &assembly_config, r, &mut layers)
                })
            } else {
                Vec::new()
            };
            Output { clustering, origin: Vec::new(), assemblies }
        }
        Some(p) => distributed(&pre, p, &params, &assembly_config, &mut rec, &mut layers),
    };
    rec.end(root);
    let wall = rec.spans()[root].seconds();
    layers.insert("trace.wall_s".into(), wall);
    layers.insert("trace.covered_s".into(), wall * rec.coverage(root));
    layers.insert("preprocess.s".into(), rec.seconds("preprocess.run"));
    layers.insert("preprocess.bases_in".into(), reads.total_bases() as f64);
    layers.insert("preprocess.fragments_out".into(), pre.store.num_fragments() as f64);
    if w.ranks().is_some() {
        // The distributed assembler runs inside worker ranks, where the
        // benchmark cannot open spans. Replay the same clusters through
        // the assembler's layers after the job (outside its root span,
        // so coverage and wall are the job's alone) and require the
        // replay to reproduce the distributed contigs.
        let replay = rec.span("replay", |r| {
            assemble(&pre.store_unmasked, &pre.quals, &output.clustering, &assembly_config, r, &mut layers)
        });
        assert!(replay == output.assemblies, "layer replay diverged from the distributed assembly");
    }
    output.origin = pre.origin;
    Traced { output, layers, spans: rec }
}

fn record_cluster_stats(layers: &mut Layers, stats: &ClusterStats) {
    layers.insert("cluster.generated".into(), stats.generated as f64);
    layers.insert("cluster.aligned".into(), stats.aligned as f64);
    layers.insert("unionfind.merges".into(), stats.merges as f64);
}

/// The serial clustering engine, call by call: reverse-complement store,
/// GST build, then batches of promising pairs decided against the
/// union–find (align only pairs still in different clusters, merge on
/// acceptance).
fn cluster(
    store: &FragmentStore,
    params: &ClusterParams,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> (Clustering, ClusterStats) {
    let ds = rec.span("store.with_reverse_complements", |_| store.with_reverse_complements());
    let gst = rec.span("gst.build", |_| Gst::build(&ds, params.gst));
    let gst_stats = gst.stats();
    layers.insert("gst.bases".into(), ds.total_len() as f64);
    layers.insert("gst.nodes".into(), gst_stats.nodes as f64);
    layers.insert("gst.memory_bytes".into(), gst.memory_bytes() as f64);
    let canonical = params.canonical_strands;
    let mut generator = rec.span("pairs.new", |_| {
        PairGenerator::new(gst, params.mode, move |a, b| {
            same_fragment_skip(a, b) || (canonical && canonical_skip(a, b))
        })
    });
    let decider = PairDecider { store: &ds, params: *params };
    let mut scratch = rec.span("align.new_scratch", |_| decider.new_scratch());
    let mut uf = UnionFind::new(store.num_fragments());
    let mut stats = ClusterStats::default();
    let mut batch: Vec<PromisingPair> = Vec::with_capacity(PAIR_BATCH);
    let mut align_ns = 0u128;
    loop {
        batch.clear();
        if rec.span("pairs.next_batch", |_| generator.next_batch(PAIR_BATCH, &mut batch)) == 0 {
            break;
        }
        rec.span("cluster.decide", |_| {
            for pair in &batch {
                stats.generated += 1;
                let (fa, fb) = decider.fragments_of(pair);
                if uf.same(fa.0, fb.0) {
                    continue;
                }
                stats.aligned += 1;
                let t = Instant::now();
                let r = decider.align_full(pair, &mut scratch);
                align_ns += t.elapsed().as_nanos();
                stats.record_align(&r);
                if params.criteria.accepts(r.identity, r.overlap_len) {
                    stats.accepted += 1;
                    if uf.union(fa.0, fb.0) {
                        stats.merges += 1;
                    }
                }
            }
        });
    }
    let clustering = rec.span("unionfind.sets", |_| Clustering::from_unionfind(&mut uf));
    layers.insert("gst.build_s".into(), rec.seconds("gst.build"));
    layers.insert("pairs.s".into(), rec.seconds("pairs.next_batch"));
    layers.insert("pairs.generated".into(), stats.generated as f64);
    layers.insert("align.s".into(), align_ns as f64 * 1e-9);
    layers.insert("align.pairs".into(), stats.aligned as f64);
    layers.insert("align.dp_cells".into(), stats.dp_cells as f64);
    layers.insert("align.accepted".into(), stats.accepted as f64);
    (clustering, stats)
}

/// Per-cluster assembly on [`ASSEMBLY_THREADS`] threads over contiguous
/// chunks of the non-singleton clusters, as the pipeline's threaded
/// assembly stage schedules them.
fn assemble(
    store: &FragmentStore,
    quals: &[QualityTrack],
    clustering: &Clustering,
    config: &AssemblyConfig,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> Vec<Assembly> {
    let clusters: Vec<&Vec<u32>> = clustering.non_singletons().collect();
    if clusters.is_empty() {
        return Vec::new();
    }
    let threads = ASSEMBLY_THREADS.clamp(1, clusters.len());
    let chunk = clusters.len().div_ceil(threads);
    let forks: Vec<Recorder> = (0..threads).map(|t| rec.fork(t as u32 + 1)).collect();
    let done: Vec<(Vec<Assembly>, Recorder, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clusters
            .chunks(chunk)
            .zip(forks)
            .map(|(mine, mut r)| {
                scope.spawn(move || {
                    let mut edges = 0;
                    let out = mine
                        .iter()
                        .map(|members| {
                            let (a, e) = r.span("assemble.cluster", |r| {
                                assemble_cluster(store, quals, members, config, r)
                            });
                            edges += e;
                            a
                        })
                        .collect();
                    (out, r, edges)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("assembly thread panicked")).collect()
    });
    let mut assemblies = Vec::with_capacity(clusters.len());
    let mut edges = 0;
    for (a, r, e) in done {
        assemblies.extend(a);
        rec.absorb(r);
        edges += e;
    }
    let cluster_s: Vec<f64> =
        rec.spans().iter().filter(|s| s.name == "assemble.cluster").map(|s| s.seconds()).collect();
    let pair_budget: usize = clusters.iter().map(|c| c.len() * (c.len() - 1) / 2).sum();
    layers.insert("assemble.overlap_s".into(), rec.seconds("assemble.overlap"));
    layers.insert("assemble.layout_s".into(), rec.seconds("assemble.layout"));
    layers.insert("assemble.consensus_s".into(), rec.seconds("assemble.consensus"));
    layers.insert("assemble.edges".into(), edges as f64);
    layers.insert("assemble.pair_budget".into(), pair_budget as f64);
    layers.insert("assemble.cluster_s".into(), cluster_s.iter().sum());
    layers.insert("assemble.max_cluster_s".into(), cluster_s.iter().copied().fold(0.0, f64::max));
    layers
        .insert("assemble.contigs".into(), assemblies.iter().map(|a| a.num_contigs()).sum::<usize>() as f64);
    assemblies
}

/// One cluster through overlap → layout → consensus, as the serial
/// assembler composes them. Returns the assembly and its overlap-edge
/// count.
fn assemble_cluster(
    store: &FragmentStore,
    quals: &[QualityTrack],
    members: &[u32],
    config: &AssemblyConfig,
    rec: &mut Recorder,
) -> (Assembly, usize) {
    let (reads, cluster_quals) = rec.span("assemble.gather", |_| {
        let reads: Vec<DnaSeq> = members.iter().map(|&f| store.get_seq(SeqId(f))).collect();
        let q: Vec<QualityTrack> = members.iter().map(|&f| quals[f as usize].clone()).collect();
        (reads, q)
    });
    let edges =
        rec.span("assemble.overlap", |_| overlap::find_overlaps(&reads, Some(&cluster_quals), config));
    let (layouts, inconsistent_edges) =
        rec.span("assemble.layout", |_| layout::layout(&reads, &edges, config));
    let mut contigs = Vec::new();
    let mut singletons = Vec::new();
    for l in layouts {
        if l.placements.len() == 1 {
            singletons.push(l.placements[0].read);
        } else {
            contigs.push(rec.span("assemble.consensus", |_| consensus::consensus(&reads, &l.placements)));
        }
    }
    contigs.sort_by_key(|c| std::cmp::Reverse(c.seq.len()));
    (Assembly { contigs, singletons, inconsistent_edges }, edges.len())
}

/// The distributed job: master–worker clustering over the distributed
/// GST, then LPT-scheduled distributed assembly, each timed as one
/// call.
fn distributed(
    pre: &PreprocessOutput,
    p: usize,
    params: &ClusterParams,
    assembly_config: &AssemblyConfig,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> Output {
    let mw = MasterWorkerConfig::default();
    let cr = rec.span("dist_cluster", |_| cluster_parallel(&pre.store, p, params, &mw));
    let ar = rec.span("dist_assemble", |_| {
        assemble_parallel(
            &pre.store_unmasked,
            Some(&pre.quals),
            &cr.clustering,
            assembly_config,
            p,
            AssignPolicy::Lpt,
        )
    });
    record_cluster_stats(layers, &cr.stats);
    layers.insert("dist_cluster.s".into(), rec.seconds("dist_cluster"));
    layers.insert("dist_cluster.gst_s".into(), cr.gst_seconds);
    layers.insert("dist_cluster.worker_idle_frac".into(), mean(&cr.worker_idle_fraction));
    layers.insert("dist_cluster.master_availability".into(), cr.master_availability);
    layers.insert("dist_assemble.s".into(), rec.seconds("dist_assemble"));
    layers.insert("dist_assemble.worker_idle_frac".into(), mean(&ar.worker_idle_fraction));
    let traffic = Traffic::of(cr.ranks.iter().chain(&ar.ranks));
    layers.insert("mpisim.msgs".into(), traffic.msgs as f64);
    layers.insert("mpisim.bytes".into(), traffic.bytes as f64);
    layers.insert("mpisim.wait_s".into(), cr.ranks.iter().chain(&ar.ranks).map(|r| r.idle_seconds).sum());
    Output { clustering: cr.clustering, origin: Vec::new(), assemblies: ar.assemblies }
}
