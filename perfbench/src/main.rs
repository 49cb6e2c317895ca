//! `dol-perfbench`: run one benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpc --seed 2018 --seconds 20 --trace 0
//! ```
//!
//! A human-readable summary goes to stderr; the last line of stdout is
//! the result object `{"correct", "attempted", "failed", "metrics"}`.

use std::path::PathBuf;
use std::process::ExitCode;

use dol_perfbench::alloc::CountingAlloc;
use dol_perfbench::expected;
use dol_perfbench::run::{self, Metric, Options, Report, SETUP_REPS};
use dol_perfbench::suite::{Budget, Kind, DEFAULT_SEED, HELD_OUT_SEED};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "\
usage: dol-perfbench [--workload tpc|nopf-replay|corun4|all] [--seed N]
                     [--seconds N] [--trace 0|1] [--print-digest]

  --workload      what to run (default tpc; `all` runs the three in turn)
  --seed          workload seed (default 2018; held-out seed 7)
  --seconds       measured time per run (default 20)
  --trace 1       report per-layer metrics from a traced run
  --print-digest  print the pass digest line for expected.txt and exit";

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        kinds: vec![Kind::Tpc],
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        print_digest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.kinds = if v == "all" {
                    Kind::ALL.to_vec()
                } else {
                    vec![Kind::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?]
                };
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--print-digest" => a.print_digest = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dol-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Budget::BENCH;
    let mut reports = Vec::new();
    for &kind in &args.kinds {
        let opts = Options {
            kind,
            seed: args.seed,
            budget,
            seconds: if args.print_digest { 0.0 } else { args.seconds },
            trace: args.trace && !args.print_digest,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
            setup_reps: if args.print_digest { 1 } else { SETUP_REPS },
        };
        let report = match run::run(&opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("dol-perfbench: {}: set-up failed: {e}", kind.name());
                return ExitCode::FAILURE;
            }
        };
        summarize(kind, &args, &report);
        if args.print_digest {
            println!(
                "{} {:016x}",
                expected::key(kind, args.seed, budget),
                report.digest
            );
        }
        reports.push((kind, report));
    }
    if args.print_digest {
        return ExitCode::SUCCESS;
    }
    let result = if let [(_, only)] = reports.as_slice() {
        only.clone()
    } else {
        combine(&reports)
    };
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

fn summarize(kind: Kind, args: &Args, r: &Report) {
    let held_out = if args.seed == HELD_OUT_SEED {
        " (held-out seed)"
    } else {
        ""
    };
    eprintln!(
        "== {} seed {}{held_out}: correct={} attempted={} failed={} digest={:016x}",
        kind.name(),
        args.seed,
        r.correct,
        r.attempted,
        r.failed,
        r.digest
    );
    for m in &r.metrics {
        eprintln!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for n in &r.notes {
        eprintln!("  note: {n}");
    }
}

/// One result for several workloads: metrics are named
/// `<workload>/<metric>`.
fn combine(reports: &[(Kind, Report)]) -> Report {
    let mut all = Report {
        correct: true,
        ..Report::default()
    };
    for (kind, r) in reports {
        all.correct &= r.correct;
        all.attempted += r.attempted;
        all.failed += r.failed;
        all.metrics.extend(r.metrics.iter().map(|m| Metric {
            name: format!("{}/{}", kind.name(), m.name),
            ..m.clone()
        }));
    }
    all
}
