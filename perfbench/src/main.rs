//! End-to-end layered benchmark of the pgasm pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <maize-asm|sargasso-cluster|maize-asm-p2> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its projects (seeded inputs) with `simgen`, runs
//! every job in a child process under a watchdog, checks each output's
//! digest, and prints human-readable lines followed by one JSON object
//! as the last stdout line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` adds one traced, layer-by-layer run of every project and
//! reports the per-layer metrics. The exit code is nonzero when any job
//! failed.

mod bench;
mod host;
mod job;
mod metrics;
mod project;
mod spans;
mod stats;
mod traced;
mod workload;

use project::Path;
use workload::{Size, Workload};

const USAGE: &str = "usage: pgasm-perfbench --workload <maize-asm|sargasso-cluster|maize-asm-p2> \
                     --seed <u64> --seconds <u64> --trace <0|1> [--size <bench|smoke>]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args) {
        Ok(Command::Bench(b)) => bench::run(&b),
        Ok(Command::Child { workload, seed, index, size, path }) => {
            let result = project::run(workload, seed, index, size, path);
            println!("{}", result.to_json().emit());
            0
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

enum Command {
    Bench(bench::Args),
    /// One project in this process (how the benchmark runs its jobs).
    Child {
        workload: Workload,
        seed: u64,
        index: usize,
        size: Size,
        path: Path,
    },
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        if flags.insert(name, value.as_str()).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    let get = |name: &str| flags.get(name).copied().ok_or_else(|| format!("missing --{name}"));
    let number = |name: &str| get(name)?.parse::<u64>().map_err(|_| format!("--{name}: not a whole number"));
    let workload_of = |v: &str| Workload::parse(v).ok_or_else(|| format!("unknown workload '{v}'"));
    let size = match flags.get("size") {
        None => Size::BENCH,
        Some(s) => Size::parse(s).ok_or_else(|| format!("unknown size '{s}'"))?,
    };
    if let Some(job) = flags.get("job") {
        let path = match get("path")? {
            "plain" => Path::Plain,
            "traced" => Path::Traced,
            other => return Err(format!("unknown path '{other}'")),
        };
        let index = number("index")? as usize;
        return Ok(Command::Child { workload: workload_of(job)?, seed: number("seed")?, index, size, path });
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    let known = ["workload", "seed", "seconds", "trace", "size"];
    if let Some(extra) = flags.keys().find(|k| !known.contains(k)) {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Command::Bench(bench::Args {
        workload: workload_of(get("workload")?)?,
        seed: number("seed")?,
        seconds: number("seconds")?,
        trace,
        size,
    }))
}
