//! The metrics a run reports, derived from its projects' results. Names
//! and units here are the ones `BENCHMARK.json` declares (a test keeps
//! the two in step).

use crate::project::ProjectResult;
use crate::stats::{self, median, ratio};
use crate::traced::Layers;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Value.
    pub value: f64,
    /// For ratios: the numerator and base it was computed from.
    pub base: String,
}

fn metric(name: &'static str, unit: &'static str, better: Better, value: f64) -> Metric {
    Metric { name, unit, better, value, base: String::new() }
}

fn ratio_metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    num: f64,
    den: f64,
    scale: f64,
) -> Metric {
    Metric { name, unit, better, value: ratio(num, den) * scale, base: format!("{num:.6e} / {den:.6e}") }
}

/// End-to-end metric names, units and directions, in reporting order.
pub const END_TO_END: [(&str, &str, Better); 5] = [
    ("wall_s", "s", Better::Lower),
    ("cpu_s", "s", Better::Lower),
    ("peak_rss_mb", "MiB", Better::Lower),
    ("setup_s", "s", Better::Lower),
    ("cluster_specificity", "ratio", Better::Higher),
];

/// End-to-end metrics of a run. `timed[p]` holds project `p`'s timed
/// untraced results; `all` every successful result of the run (for
/// set-up time, which every child measures).
pub fn end_to_end(timed: &[Vec<ProjectResult>], all: &[&ProjectResult]) -> Vec<Metric> {
    let per_project = |f: fn(&ProjectResult) -> f64| {
        stats::mean(&timed.iter().map(|rs| median(&rs.iter().map(f).collect::<Vec<_>>())).collect::<Vec<_>>())
    };
    let firsts: Vec<&ProjectResult> = timed.iter().filter_map(|rs| rs.first()).collect();
    let clusters: usize = firsts.iter().map(|r| r.clusters).sum();
    let single: usize = firsts.iter().map(|r| r.single_region).sum();
    let [wall, cpu, rss, setup, _] = END_TO_END.map(|(name, unit, better)| metric(name, unit, better, 0.0));
    vec![
        Metric { value: per_project(|r| r.wall_s), ..wall },
        Metric { value: per_project(|r| r.cpu_s), ..cpu },
        Metric { value: per_project(|r| r.peak_rss_mb), ..rss },
        Metric { value: median(&all.iter().map(|r| r.setup_s).collect::<Vec<_>>()), ..setup },
        ratio_metric("cluster_specificity", "ratio", Better::Higher, single as f64, clusters as f64, 1.0),
    ]
}

/// Median contig N50 over the run's projects.
pub fn n50_bp(timed: &[Vec<ProjectResult>]) -> f64 {
    median(&timed.iter().filter_map(|rs| rs.first()).map(|r| r.n50_bp as f64).collect::<Vec<_>>())
}

/// Per-layer metrics of a traced run. `traced[p]` is project `p`'s
/// traced result, `untraced_wall[p]` its median untraced job wall, and
/// `msgs_spread` the relative range of protocol message counts over
/// repeated runs of one input. Layers a workload does not exercise read
/// 0.
pub fn per_layer(traced: &[&ProjectResult], untraced_wall: &[f64], msgs_spread: f64) -> Vec<Metric> {
    let layers: Vec<&Layers> = traced.iter().map(|r| &r.layers).collect();
    let n = layers.len().max(1) as f64;
    let get = |l: &Layers, k: &str| l.get(k).copied().unwrap_or(0.0);
    let sum = |k: &str| layers.iter().map(|l| get(l, k)).sum::<f64>();
    let mean = |k: &str| sum(k) / n;
    let max = |k: &str| layers.iter().map(|l| get(l, k)).fold(0.0, f64::max);
    let overhead = mean("trace.wall_s") - stats::mean(untraced_wall);
    use Better::{Higher, Lower};
    vec![
        metric("assemble.overlap_s", "s", Lower, mean("assemble.overlap_s")),
        metric("assemble.layout_s", "s", Lower, mean("assemble.layout_s")),
        metric("assemble.consensus_s", "s", Lower, mean("assemble.consensus_s")),
        metric("assemble.edges", "count", Lower, mean("assemble.edges")),
        metric("assemble.pair_budget", "count", Lower, mean("assemble.pair_budget")),
        metric("assemble.max_cluster_s", "s", Lower, max("assemble.max_cluster_s")),
        ratio_metric(
            "assemble.max_cluster_share",
            "ratio",
            Lower,
            sum("assemble.max_cluster_s"),
            sum("assemble.cluster_s"),
            1.0,
        ),
        metric("assemble.contigs", "count", Lower, mean("assemble.contigs")),
        metric(
            "assemble.n50_bp",
            "bp",
            Higher,
            median(&traced.iter().map(|r| r.n50_bp as f64).collect::<Vec<_>>()),
        ),
        metric("gst.build_s", "s", Lower, mean("gst.build_s")),
        metric("gst.bases", "bp", Lower, mean("gst.bases")),
        ratio_metric("gst.ns_per_base", "ns", Lower, sum("gst.build_s"), sum("gst.bases"), 1e9),
        metric("gst.nodes", "count", Lower, mean("gst.nodes")),
        metric("gst.memory_bytes", "bytes", Lower, mean("gst.memory_bytes")),
        metric("pairs.s", "s", Lower, mean("pairs.s")),
        metric("pairs.generated", "count", Lower, mean("pairs.generated")),
        ratio_metric("pairs.ns_per_pair", "ns", Lower, sum("pairs.s"), sum("pairs.generated"), 1e9),
        metric("align.s", "s", Lower, mean("align.s")),
        metric("align.pairs", "count", Lower, mean("align.pairs")),
        metric("align.dp_cells", "count", Lower, mean("align.dp_cells")),
        ratio_metric("align.ns_per_cell", "ns", Lower, sum("align.s"), sum("align.dp_cells"), 1e9),
        ratio_metric("align.accept_ratio", "ratio", Higher, sum("align.accepted"), sum("align.pairs"), 1.0),
        Metric {
            value: 1.0 - ratio(sum("cluster.aligned"), sum("cluster.generated")),
            base: format!("1 - {:.6e} / {:.6e}", sum("cluster.aligned"), sum("cluster.generated")),
            ..metric("cluster.skip_ratio", "ratio", Higher, 0.0)
        },
        metric("unionfind.merges", "count", Higher, mean("unionfind.merges")),
        metric("preprocess.s", "s", Lower, mean("preprocess.s")),
        metric("preprocess.bases_in", "bp", Lower, mean("preprocess.bases_in")),
        metric("preprocess.fragments_out", "count", Higher, mean("preprocess.fragments_out")),
        metric("dist_cluster.s", "s", Lower, mean("dist_cluster.s")),
        metric("dist_cluster.gst_s", "s", Lower, mean("dist_cluster.gst_s")),
        metric("dist_cluster.worker_idle_frac", "ratio", Lower, mean("dist_cluster.worker_idle_frac")),
        metric("dist_cluster.master_availability", "ratio", Higher, mean("dist_cluster.master_availability")),
        metric("mpisim.msgs", "count", Lower, mean("mpisim.msgs")),
        metric("mpisim.msgs_spread", "ratio", Lower, msgs_spread),
        metric("mpisim.bytes", "bytes", Lower, mean("mpisim.bytes")),
        metric("mpisim.wait_s", "s", Lower, mean("mpisim.wait_s")),
        metric("dist_assemble.s", "s", Lower, mean("dist_assemble.s")),
        metric("dist_assemble.worker_idle_frac", "ratio", Lower, mean("dist_assemble.worker_idle_frac")),
        metric("trace.overhead_s", "s", Lower, overhead),
        ratio_metric("trace.coverage", "ratio", Higher, sum("trace.covered_s"), sum("trace.wall_s"), 1.0),
    ]
}

/// Relative range `(max - min) / median` of one input's protocol
/// message counts over repeated runs, worst input first; 0 when no
/// input ran twice.
pub fn msgs_spread(per_project: &[Vec<u64>]) -> f64 {
    per_project
        .iter()
        .filter(|xs| xs.len() >= 2)
        .map(|xs| {
            let v: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
            let (lo, hi) = v.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            ratio(hi - lo, median(&v))
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgasm_telemetry::Json;

    fn result(wall: f64, layers: &[(&'static str, f64)]) -> ProjectResult {
        ProjectResult {
            digest: 1,
            wall_s: wall,
            cpu_s: wall * 1.5,
            peak_rss_mb: 100.0,
            setup_s: 0.01,
            reads: 10,
            bp: 1000,
            clusters: 4,
            single_region: 3,
            n50_bp: 500,
            msgs: 0,
            layers: layers.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            spans: Json::Null,
        }
    }

    fn get(ms: &[Metric], name: &str) -> f64 {
        ms.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("no {name}")).value
    }

    #[test]
    fn end_to_end_takes_per_project_medians_then_the_mean() {
        let timed = vec![vec![result(1.0, &[]), result(3.0, &[]), result(2.0, &[])], vec![result(4.0, &[])]];
        let all: Vec<&ProjectResult> = timed.iter().flatten().collect();
        let m = end_to_end(&timed, &all);
        assert_eq!(m.iter().map(|m| m.name).collect::<Vec<_>>(), END_TO_END.map(|e| e.0));
        assert_eq!(get(&m, "wall_s"), 3.0); // (median{1,3,2} + 4) / 2
        assert_eq!(get(&m, "cpu_s"), 4.5);
        assert_eq!(get(&m, "setup_s"), 0.01);
        assert_eq!(get(&m, "cluster_specificity"), 6.0 / 8.0);
    }

    #[test]
    fn ratios_are_taken_over_sums_with_their_base() {
        let a = result(
            2.0,
            &[("align.s", 1.0), ("align.dp_cells", 1e9), ("align.pairs", 10.0), ("align.accepted", 5.0)],
        );
        let b = result(
            2.0,
            &[("align.s", 3.0), ("align.dp_cells", 1e9), ("align.pairs", 30.0), ("align.accepted", 5.0)],
        );
        let m = per_layer(&[&a, &b], &[1.0, 1.0], 0.0);
        assert_eq!(get(&m, "align.ns_per_cell"), 2.0);
        assert_eq!(get(&m, "align.accept_ratio"), 0.25);
        assert_eq!(get(&m, "align.s"), 2.0);
        let accept = m.iter().find(|m| m.name == "align.accept_ratio").unwrap();
        assert!(accept.base.contains('/'), "{}", accept.base);
    }

    #[test]
    fn skip_ratio_coverage_and_overhead() {
        let a = result(
            2.0,
            &[
                ("cluster.generated", 100.0),
                ("cluster.aligned", 25.0),
                ("trace.wall_s", 2.0),
                ("trace.covered_s", 2.0),
                ("assemble.max_cluster_s", 1.0),
                ("assemble.cluster_s", 4.0),
            ],
        );
        let b = result(
            2.0,
            &[
                ("trace.wall_s", 4.0),
                ("trace.covered_s", 2.0),
                ("assemble.max_cluster_s", 3.0),
                ("assemble.cluster_s", 4.0),
            ],
        );
        let m = per_layer(&[&a, &b], &[1.5, 3.5], 0.0);
        assert_eq!(get(&m, "cluster.skip_ratio"), 0.75);
        assert_eq!(get(&m, "trace.coverage"), 4.0 / 6.0);
        assert_eq!(get(&m, "trace.overhead_s"), 0.5);
        assert_eq!(get(&m, "assemble.max_cluster_s"), 3.0);
        assert_eq!(get(&m, "assemble.max_cluster_share"), 0.5);
    }

    #[test]
    fn msgs_spread_is_the_worst_relative_range() {
        assert_eq!(msgs_spread(&[vec![100], vec![]]), 0.0);
        assert_eq!(msgs_spread(&[vec![90, 110, 100], vec![50, 50]]), 0.2);
    }

    /// The names, units and directions emitted are exactly the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_declares_every_emitted_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let own = |ms: Vec<Metric>| -> Vec<(String, String, String)> {
            ms.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.as_str().to_string()))
                .collect()
        };
        let timed = vec![vec![result(1.0, &[])]];
        let all: Vec<&ProjectResult> = timed.iter().flatten().collect();
        assert_eq!(declared("end_to_end"), own(end_to_end(&timed, &all)));
        assert_eq!(declared("per_layer"), own(per_layer(&all, &[1.0], 0.0)));
    }
}
