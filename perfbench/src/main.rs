//! `snap-perfbench`: SNAP's three user-facing clocks (cold start,
//! update-to-effect, sustained packet path) on campus and igen-100, with a
//! traced mode that splits them by layer.
//!
//! ```text
//! snap-perfbench --workload <campus-steady|isp-churn>
//!                --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! A run starts copies of itself with `--setup-probe 1` for some of its
//! set-ups; such a copy sets the workload up once and prints that set-up's
//! figures on one line.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. Diagnostics go to standard error.

mod alloc;
mod bench;
mod gen;
mod spans;
mod stats;

use std::path::PathBuf;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub spans: Option<PathBuf>,
    pub setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            "--setup-probe" => setup_probe = value == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=600, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        spans,
        setup_probe,
    })
}

fn main() {
    alloc::one_arena_per_thread();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("snap-perfbench: {e}");
            eprintln!(
                "usage: snap-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]"
            );
            std::process::exit(2);
        }
    };
    if args.setup_probe {
        match bench::probe_setup(&args) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("snap-perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    match bench::run(&args) {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("snap-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
