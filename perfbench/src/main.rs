//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <explore|lookup|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes (sample counts, check failures), then as its last line
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced run with `--trace 1`. The traced run also writes its
//! spans to `.bench_build/perfbench/spans-<workload>-<seed>.jsonl`.
//! Exits with 1 if any output check failed, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::trace::Tracer;
use perfbench::{run, setup, Options, Workload};

fn parse() -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::Explore,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: setup::SCALE,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {}", opts.seconds));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(opts.trace);
    let report = run(&opts, &tracer);
    if opts.trace {
        let path = PathBuf::from(".bench_build/perfbench").join(format!(
            "spans-{}-{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
