//! One project (one seeded input) run in a child process: input
//! generation, the job, and the measurements the orchestrating process
//! collects from the child's last stdout line.

use crate::host;
use crate::job;
use crate::traced::{self, Layers};
use crate::workload::{project_seed, Size, Workload};
use pgasm_telemetry::Json;
use std::time::{Duration, Instant};

/// Each child generates its input repeatedly for at least this long
/// (and at least [`SETUP_MIN_REPEATS`] times) and reports the mean:
/// one ~10 ms generation is too short to time steadily on a shared host,
/// where the speed of memory-heavy code swings by up to 2x within
/// seconds.
const SETUP_MIN_TIME: Duration = Duration::from_millis(250);
const SETUP_MIN_REPEATS: u32 = 3;

/// How a child runs its project.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The production entry points, untraced.
    Plain,
    /// The layer-by-layer traced path.
    Traced,
}

/// Measurements of one project run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectResult {
    /// Output digest.
    pub digest: u64,
    /// Job wall seconds (input generation excluded).
    pub wall_s: f64,
    /// Job user+system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident memory of the child process, MiB.
    pub peak_rss_mb: f64,
    /// Mean input-generation seconds.
    pub setup_s: f64,
    /// Input reads.
    pub reads: usize,
    /// Input bases.
    pub bp: usize,
    /// Non-singleton clusters validated against provenance.
    pub clusters: usize,
    /// Of those, clusters mapping to one genomic region.
    pub single_region: usize,
    /// Contig N50 (0 without assembly).
    pub n50_bp: usize,
    /// Protocol messages of a distributed job (0 for serial ones).
    pub msgs: u64,
    /// Layer quantities (traced path only).
    pub layers: Layers,
    /// Recorded spans as JSON (traced path only).
    pub spans: Json,
}

/// Run project `index` of workload `w`'s run `run_seed` on `path`, in
/// this process.
pub fn run(w: Workload, run_seed: u64, index: usize, size: Size, path: Path) -> ProjectResult {
    let seed = project_seed(run_seed, index);
    let setup = Instant::now();
    let mut generations = 0;
    let dataset = loop {
        let dataset = w.dataset(seed, size);
        generations += 1;
        if generations >= SETUP_MIN_REPEATS && setup.elapsed() >= SETUP_MIN_TIME {
            break dataset;
        }
    };
    let setup_s = setup.elapsed().as_secs_f64() / f64::from(generations);
    let reads = &dataset.reads;
    let before = host::usage();
    let t = Instant::now();
    let (output, msgs, layers, spans) = match path {
        Path::Plain => {
            let (output, traffic) = job::run(w, reads);
            (output, traffic.msgs, Layers::new(), Json::Null)
        }
        Path::Traced => {
            let tr = traced::run(w, reads, seed);
            let msgs = tr.layers.get("mpisim.msgs").copied().unwrap_or(0.0) as u64;
            (tr.output, msgs, tr.layers, tr.spans.to_json())
        }
    };
    let mut wall_s = t.elapsed().as_secs_f64();
    let after = host::usage();
    if let Some(&traced_wall) = layers.get("trace.wall_s") {
        // The traced path's own job span; the replay it may run after
        // the job is not part of the job.
        wall_s = traced_wall;
    }
    let (clusters, single_region) = output.specificity(reads);
    ProjectResult {
        digest: output.digest(),
        wall_s,
        cpu_s: after.cpu_s - before.cpu_s,
        peak_rss_mb: after.peak_rss_mb,
        setup_s,
        reads: reads.len(),
        bp: reads.total_bases(),
        clusters,
        single_region,
        n50_bp: output.n50(),
        msgs,
        layers,
        spans,
    }
}

impl ProjectResult {
    /// One-line JSON form (the child's last stdout line).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("digest", Json::Str(format!("{:016x}", self.digest))),
            ("wall_s", Json::Num(self.wall_s)),
            ("cpu_s", Json::Num(self.cpu_s)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("setup_s", Json::Num(self.setup_s)),
            ("reads", Json::Num(self.reads as f64)),
            ("bp", Json::Num(self.bp as f64)),
            ("clusters", Json::Num(self.clusters as f64)),
            ("single_region", Json::Num(self.single_region as f64)),
            ("n50_bp", Json::Num(self.n50_bp as f64)),
            ("msgs", Json::Num(self.msgs as f64)),
            ("layers", Json::Obj(self.layers.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())),
            ("spans", self.spans.clone()),
        ])
    }

    /// Parse [`ProjectResult::to_json`] output; `None` if malformed.
    pub fn from_json(v: &Json) -> Option<ProjectResult> {
        let num = |k: &str| v.get(k).and_then(Json::as_f64);
        let count = |k: &str| v.get(k).and_then(Json::as_u64);
        let mut layers = Layers::new();
        for (k, val) in v.get("layers")?.as_obj()? {
            layers.insert(k.clone(), val.as_f64()?);
        }
        Some(ProjectResult {
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
            wall_s: num("wall_s")?,
            cpu_s: num("cpu_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            setup_s: num("setup_s")?,
            reads: count("reads")? as usize,
            bp: count("bp")? as usize,
            clusters: count("clusters")? as usize,
            single_region: count("single_region")? as usize,
            n50_bp: count("n50_bp")? as usize,
            msgs: count("msgs")?,
            layers,
            spans: v.get("spans")?.clone(),
        })
    }
}
