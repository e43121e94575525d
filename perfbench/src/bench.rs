//! The orchestrating process: runs every job of a run in a child
//! process under a watchdog, checks digests, derives the metrics and
//! prints them.

use crate::host;
use crate::metrics::{self, Metric};
use crate::project::{Path, ProjectResult};
use crate::stats;
use crate::workload::{Size, Workload};
use pgasm_telemetry::Json;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A job still running after this long is killed and counted failed
/// (healthy jobs take seconds; a hung rank thread never returns).
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// No timed round starts after this much of the run has passed, so a
/// run ends well inside three minutes even when `--seconds` is large or
/// the host slow.
const TIMED_BUDGET: Duration = Duration::from_secs(75);

/// Projects the traced run covers (the first ones of the run): enough
/// to show each layer's share, few enough to keep a traced run well
/// inside three minutes.
const TRACED_PROJECTS: usize = 2;

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every project's input derives from.
    pub seed: u64,
    /// Seconds of timed rounds to run (at least one round runs).
    pub seconds: u64,
    /// Add the traced run and report per-layer metrics.
    pub trace: bool,
    /// Project size.
    pub size: Size,
}

/// Run the benchmark; returns the process exit code.
pub fn run(args: &Args) -> i32 {
    let start = Instant::now();
    let w = args.workload;
    let projects = w.projects(args.size);
    println!(
        "perfbench {} seed={} size={} projects={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.size.name(),
        projects,
        args.seconds,
        args.trace as u8
    );
    let cwd = std::env::current_dir().expect("working directory");
    println!(
        "host: nproc={} simd_lanes={} code={}",
        host::nproc(),
        pgasm_align::simd::effective_lanes(),
        host::code_id(&cwd)
    );

    let mut runner = Runner { args: *args, attempted: 0, failures: Vec::new(), first: vec![None; projects] };
    let mut timed: Vec<Vec<ProjectResult>> = vec![Vec::new(); projects];
    let mut extra: Vec<ProjectResult> = Vec::new();
    let mut msgs: Vec<Vec<u64>> = vec![Vec::new(); projects];

    // Timed rounds: every project once per round, whole rounds only.
    loop {
        let round = Instant::now();
        for (i, slot) in timed.iter_mut().enumerate() {
            if !runner.failures.is_empty() {
                break;
            }
            if let Some(r) = runner.job(w, i, Path::Plain) {
                msgs[i].push(r.msgs);
                slot.push(r);
            }
        }
        let elapsed = start.elapsed();
        if !runner.failures.is_empty()
            || elapsed + round.elapsed() > Duration::from_secs(args.seconds)
            || elapsed > TIMED_BUDGET
        {
            break;
        }
    }
    // Determinism check on the project whose job was quickest: the
    // reference path where the workload has one (the serial pipeline
    // for p=2 — "byte-identical at any p"), the same path again
    // otherwise.
    if runner.failures.is_empty() {
        let quickest = (0..projects)
            .min_by(|&a, &b| {
                stats::median(&walls_of(&timed[a])).total_cmp(&stats::median(&walls_of(&timed[b])))
            })
            .expect("at least one project");
        if w.reference() != w {
            extra.extend(runner.job(w.reference(), quickest, Path::Plain));
        } else if let Some(r) = runner.job(w, quickest, Path::Plain) {
            msgs[quickest].push(r.msgs);
            timed[quickest].push(r);
        }
    }
    // Traced run: the first projects once each, layer by layer.
    let mut traced: Vec<ProjectResult> = Vec::new();
    if args.trace && runner.failures.is_empty() {
        for (i, counts) in msgs.iter_mut().enumerate().take(TRACED_PROJECTS) {
            if let Some(r) = runner.job(w, i, Path::Traced) {
                if w.ranks().is_some() {
                    counts.push(r.msgs);
                }
                traced.push(r);
            }
        }
    }

    let firsts: Vec<&ProjectResult> = timed.iter().filter_map(|rs| rs.first()).collect();
    println!(
        "input: {} reads, {} bp over {} project(s)",
        firsts.iter().map(|r| r.reads).sum::<usize>(),
        firsts.iter().map(|r| r.bp).sum::<usize>(),
        firsts.len()
    );
    for (i, rs) in timed.iter().enumerate() {
        let walls: Vec<String> = rs.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
        println!("project {i}: wall_s [{}]", walls.join(", "));
    }
    let walls: Vec<f64> = timed.iter().flat_map(|rs| walls_of(rs)).collect();
    let (q1, q3) = stats::quartiles(&walls);
    println!(
        "job wall_s: n={} median={:.4} q1={:.4} q3={:.4} spread={:.4}",
        walls.len(),
        stats::median(&walls),
        q1,
        q3,
        stats::relative_spread(&walls)
    );
    let all: Vec<&ProjectResult> = timed.iter().flatten().chain(&extra).chain(&traced).collect();
    let failed = runner.failures.len();
    let correct = failed == 0 && !all.is_empty();
    for f in &runner.failures {
        println!("FAILED: {f}");
    }

    let mut report = metrics::end_to_end(&timed, &all);
    print_metrics("end-to-end", &report);
    let failed_frac = stats::ratio(failed as f64, runner.attempted as f64);
    println!("  {:<34} {failed_frac:>14.6} ratio  lower   ({failed} / {})", "failed_frac", runner.attempted);
    if w.assembles() {
        println!("  {:<34} {:>14.1} bp", "n50_bp", metrics::n50_bp(&timed));
    }
    if args.trace {
        let untraced: Vec<f64> =
            timed.iter().take(traced.len()).map(|rs| stats::median(&walls_of(rs))).collect();
        let traced_refs: Vec<&ProjectResult> = traced.iter().collect();
        report = metrics::per_layer(&traced_refs, &untraced, metrics::msgs_spread(&msgs));
        print_metrics("per-layer (traced run)", &report);
        write_spans(args, &traced);
    }

    let metrics_json = Json::Obj(
        report
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![("value", Json::Num(m.value)), ("unit", Json::Str(m.unit.to_string()))]),
                )
            })
            .collect(),
    );
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(runner.attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json),
    ]);
    println!("{}", line.emit());
    if correct {
        0
    } else {
        1
    }
}

fn walls_of(rs: &[ProjectResult]) -> Vec<f64> {
    rs.iter().map(|r| r.wall_s).collect()
}

fn print_metrics(title: &str, ms: &[Metric]) {
    println!("{title}:");
    for m in ms {
        let base = if m.base.is_empty() { String::new() } else { format!("  ({})", m.base) };
        println!("  {:<34} {:>14.6} {:<6} {:<6}{base}", m.name, m.value, m.unit, m.better.as_str());
    }
}

/// Write the traced run's spans next to the benchmark's executable
/// (inside the build directory), one array per project.
fn write_spans(args: &Args, traced: &[ProjectResult]) {
    let Some(dir) = std::env::current_exe().ok().and_then(|p| Some(p.parent()?.join("perfbench-traces")))
    else {
        return;
    };
    let doc = Json::obj(vec![
        ("workload", Json::Str(args.workload.name().to_string())),
        ("seed", Json::Num(args.seed as f64)),
        ("projects", Json::Arr(traced.iter().map(|r| r.spans.clone()).collect())),
    ]);
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, doc.emit())) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// Launches jobs and keeps the run's failure accounting.
struct Runner {
    args: Args,
    attempted: usize,
    failures: Vec<String>,
    /// Digest of each project's first successful run.
    first: Vec<Option<u64>>,
}

impl Runner {
    /// Run project `index` on `workload`'s path `path` in a child and
    /// check its digest against the project's first run. Failures are
    /// recorded and yield `None`.
    fn job(&mut self, workload: Workload, index: usize, path: Path) -> Option<ProjectResult> {
        self.attempted += 1;
        let label = format!("{} project {index} ({path:?})", workload.name());
        let result = match launch(&self.args, workload, index, path) {
            Ok(r) => r,
            Err(e) => {
                self.failures.push(format!("{label}: {e}"));
                return None;
            }
        };
        match self.first[index] {
            None => self.first[index] = Some(result.digest),
            Some(d) if d != result.digest => {
                self.failures.push(format!(
                    "{label}: digest {:016x} differs from the first run's {d:016x}",
                    result.digest
                ));
                return None;
            }
            Some(_) => {}
        }
        Some(result)
    }
}

/// Spawn this executable as a child running one project; wait for it
/// under [`JOB_TIMEOUT`], killing it when the time is up.
fn launch(args: &Args, workload: Workload, index: usize, path: Path) -> Result<ProjectResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--job", workload.name(), "--seed", &args.seed.to_string(), "--index", &index.to_string()])
        .args(["--size", args.size.name(), "--path", if path == Path::Traced { "traced" } else { "plain" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let deadline = Instant::now() + JOB_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("wait: {e}"));
            }
        }
    };
    let out = reader.join().expect("stdout reader thread").map_err(|e| format!("read stdout: {e}"))?;
    match status {
        None => Err(format!("killed after {} s without finishing", JOB_TIMEOUT.as_secs())),
        Some(s) if !s.success() => Err(format!("exited with {s}")),
        Some(_) => {
            let last = out.lines().last().unwrap_or("");
            Json::parse(last)
                .ok()
                .as_ref()
                .and_then(ProjectResult::from_json)
                .ok_or_else(|| format!("malformed result line '{last}'"))
        }
    }
}
