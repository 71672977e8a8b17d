//! `perfbench`: run one workload of the dses benchmark and print its
//! metrics, the last line as JSON.
//!
//! ```text
//! perfbench --workload sweep|replicate|analytic|all [--seed N] [--seconds S]
//!           [--trace 0|1]
//! ```
//!
//! Run from the repository root. `--workload all` runs the three
//! workloads one after another, each in its own process.

use dses_perfbench::alloc_count;
use dses_perfbench::machine::MachineRecord;
use dses_perfbench::run::{run, Options, WorkloadName};
use dses_perfbench::workloads::Scale;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::process::{Command, ExitCode};

/// The system allocator, counting allocations for the traced run.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is an atomic
// bump that neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        alloc_count::on_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        alloc_count::on_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: perfbench --workload sweep|replicate|analytic|all [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Option<WorkloadName>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1997,
        seconds: 45.0,
        trace: false,
    };
    let mut it = argv.iter();
    let mut all = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => all = true,
            "--workload" => {
                a.workload = Some(
                    WorkloadName::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err(format!("seconds {value} outside (0, 3600]"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_none() && !all {
        return Err("--workload is required".to_string());
    }
    Ok(a)
}

/// Run each workload in a child process with the same flags, one at a time.
fn run_all(argv: &[String]) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate own executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for w in WorkloadName::ALL {
        let mut args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().cloned().unwrap_or_default();
            args.push(flag.clone());
            args.push(if flag == "--workload" {
                w.as_str().to_string()
            } else {
                value
            });
        }
        match Command::new(&exe).args(&args).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: workload {} exited with {s}", w.as_str());
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run workload {}: {e}", w.as_str());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&argv);
    };
    let machine = MachineRecord::read(args.seed, Path::new("."));
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
    };
    let out = run(&opts);
    if args.trace {
        let dir = Path::new("perfbench/out");
        let file = dir.join(format!("spans-{}-{}.jsonl", workload.as_str(), args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, &out.spans))
        {
            eprintln!("perfbench: cannot write {}: {e}", file.display());
        }
    }
    print!(
        "{}",
        dses_perfbench::report::render(workload.as_str(), &machine, &out)
    );
    ExitCode::SUCCESS
}
