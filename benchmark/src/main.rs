//! The repo benchmark: one run of one workload, traced or not.
//!
//! `run.sh` builds this and calls it; see `README.md` for what each
//! workload and metric means. The last line of standard output is the
//! result object the driver reads.

mod affinity;
mod ctx;
mod iblt;
mod keys;
mod lanes;
mod peel;
mod report;
mod stats;
mod svc;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use ctx::Context;
use report::Report;
use trace::Recorder;

pub const WORKLOADS: [&str; 5] = [
    "peel-below",
    "peel-above",
    "iblt-tables",
    "svc-bulk",
    "svc-mixed",
];

/// How often an untraced run sets up, to report the median as `setup_s`.
const SETUP_REPEATS: usize = 3;

pub struct Env {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub traced: bool,
    pub ctx: Context,
    /// Zero of every span's clock.
    pub epoch: Instant,
}

impl Env {
    pub fn recorder(&self, thread: &'static str) -> Recorder {
        Recorder::new(thread, self.epoch, self.traced)
    }

    /// A pool bound of `threads` workers for the parallel variants.
    pub fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("the pool builder cannot fail")
    }

    /// `setup_s` belongs to the untraced run, so a traced run sets up once.
    pub fn setup_repeats(&self) -> usize {
        if self.traced {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

/// Set up `times` times, keep the last, report the median time. Each
/// earlier set-up is dropped before the next is built, so memory holds
/// one at a time.
pub fn repeat_setup<S>(times: usize, mut build: impl FnMut() -> S) -> (S, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        secs.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("a run sets up at least once"),
        stats::median(&mut secs),
    )
}

fn usage() -> ! {
    eprintln!(
        "usage: peel-benchmark --workload <{}> [--seed S] [--seconds N] [--trace [0|1]] \
         [--out-dir DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 20.0f64;
    let mut traced = false;
    let mut out_dir = PathBuf::from("benchmark/out");

    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")),
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value("--seconds").parse().unwrap_or_else(|_| usage()),
            "--out-dir" => out_dir = PathBuf::from(value("--out-dir")),
            // Bare `--trace` means on; the driver passes 0 or 1.
            "--trace" => {
                traced = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            _ => usage(),
        }
    }
    if !(seconds.is_finite() && seconds >= 1.0) {
        usage();
    }
    let Some(name) = workload
        .as_deref()
        .and_then(|w| WORKLOADS.iter().find(|k| **k == w))
    else {
        usage()
    };

    let env = Env {
        seed,
        seconds,
        traced,
        ctx: Context::gather(),
        epoch: Instant::now(),
    };
    let mut report = Report::new(name, traced, seed, seconds);
    report.note("nproc", env.ctx.nproc);
    report.note("threads_T", env.ctx.threads);
    let recorders = match *name {
        "peel-below" => peel::run(&env, &mut report, peel::Regime::Below),
        "peel-above" => peel::run(&env, &mut report, peel::Regime::Above),
        "iblt-tables" => iblt::run(&env, &mut report),
        "svc-bulk" => svc::bulk(&env, &mut report),
        "svc-mixed" => svc::mixed(&env, &mut report),
        _ => unreachable!("checked against WORKLOADS"),
    };

    report.print_human();
    let mut io_ok = std::fs::create_dir_all(&out_dir).is_ok();
    let suffix = if traced { "-trace" } else { "" };
    if io_ok {
        let path = out_dir.join(format!("{name}{suffix}.json"));
        io_ok &= report.write_file(&path, &env.ctx).is_ok();
        println!("wrote {}", path.display());
    }
    if traced && io_ok {
        let path = out_dir.join(format!("trace-{name}.jsonl"));
        match trace::write_jsonl(&path, &recorders) {
            Ok(n) => println!("wrote {} ({n} spans)", path.display()),
            Err(_) => io_ok = false,
        }
    }
    if !io_ok {
        eprintln!("could not write under {}", out_dir.display());
    }
    println!("{}", report.result_line());
    if !report.correct() || !io_ok {
        std::process::exit(1);
    }
}
