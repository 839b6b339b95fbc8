//! Tables 3 & 4 reproduction: IBLT insert/recovery wall time, parallel
//! (rayon, substituting the paper's GPU) vs serial, at loads 0.75 (below
//! threshold → 100% recovery) and 0.83 (above → partial recovery).
//!
//! The paper uses 2^24 ≈ 16.8M cells; the default here is 2^21 (≈2M) so the
//! bin completes quickly on small machines — pass `--full` (or `--cells N`)
//! for the paper's size. Absolute times and speedup magnitudes depend on
//! core count (the paper had a 448-core GPU; this machine has
//! `rayon::current_num_threads()` workers); the *shape* to check is:
//!
//! * recovery speedup is largest below the threshold;
//! * above the threshold the parallel advantage shrinks (more rounds, and
//!   every round scans all cells while the serial baseline does less work);
//! * ~50% of cells recovered at load 0.83 with r=3, ~25% with r=4
//!   (matching the paper's "% recovered" column).

use std::time::Instant;

use peel_bench::{mean, row, Args};
use peel_graph::rng::Xoshiro256StarStar;
use peel_iblt::{AtomicIblt, Iblt, IbltConfig};
use rand::RngCore;

struct Measurement {
    gpu_recover: f64,
    frontier_recover: f64,
    serial_recover: f64,
    gpu_insert: f64,
    serial_insert: f64,
    pct_recovered: f64,
}

fn run_once(r: usize, cells: usize, load: f64, seed: u64) -> Measurement {
    let cfg = IbltConfig::with_total_cells(r, cells, seed);
    let items = (load * cfg.total_cells() as f64).round() as usize;
    let mut rng = Xoshiro256StarStar::new(seed ^ 0xabcdef);
    let keys: Vec<u64> = (0..items).map(|_| rng.next_u64()).collect();

    // Parallel insert.
    let atomic = AtomicIblt::new(cfg);
    let t0 = Instant::now();
    atomic.par_insert(&keys);
    let gpu_insert = t0.elapsed().as_secs_f64();

    // Second copy for the frontier-recovery measurement.
    let atomic2 = AtomicIblt::new(cfg);
    atomic2.par_insert(&keys);

    // Serial insert.
    let mut serial = Iblt::new(cfg);
    let t0 = Instant::now();
    for &k in &keys {
        serial.insert(k);
    }
    let serial_insert = t0.elapsed().as_secs_f64();

    // Parallel recovery, GPU-style dense scan (the paper's kernel).
    let t0 = Instant::now();
    let par_out = atomic.par_recover();
    let gpu_recover = t0.elapsed().as_secs_f64();

    // Parallel recovery, candidate-tracking variant (CPU adaptation).
    let t0 = Instant::now();
    let frontier_out = atomic2.par_recover_frontier();
    let frontier_recover = t0.elapsed().as_secs_f64();

    // Serial recovery.
    let t0 = Instant::now();
    let ser_out = serial.recover_destructive();
    let serial_recover = t0.elapsed().as_secs_f64();

    assert_eq!(par_out.positive.len(), ser_out.positive.len());
    assert_eq!(par_out.positive.len(), frontier_out.positive.len());
    let pct_recovered = 100.0 * par_out.positive.len() as f64 / items as f64;
    Measurement {
        gpu_recover,
        frontier_recover,
        serial_recover,
        gpu_insert,
        serial_insert,
        pct_recovered,
    }
}

fn main() {
    let args = Args::parse();
    if args.flag("help") {
        eprintln!(
            "table3_4 [--full] [--cells N] [--trials T] [--seed S]\n\
             Reproduces Tables 3 & 4 (IBLT parallel vs serial timings).\n\
             'Par' columns correspond to the paper's GPU columns (rayon\n\
             substitution)."
        );
        return;
    }
    let full = args.flag("full");
    let cells: usize = args.get("cells", if full { 1 << 24 } else { 1 << 21 });
    let trials: u64 = args.get("trials", if full { 10 } else { 3 });
    let seed: u64 = args.get("seed", 34);

    println!(
        "# Tables 3 & 4: IBLT recovery, {} cells, {} trials, {} rayon threads",
        cells,
        trials,
        rayon::current_num_threads()
    );
    let widths = [4usize, 6, 11, 11, 11, 11, 11, 11, 9, 9];
    println!(
        "{}",
        row(
            &[
                "r".into(),
                "load".into(),
                "%recovered".into(),
                "scan rec s".into(),
                "cand rec s".into(),
                "ser rec s".into(),
                "par ins s".into(),
                "ser ins s".into(),
                "rec spd".into(),
                "ins spd".into(),
            ],
            &widths
        )
    );

    for r in [3usize, 4] {
        for load in [0.75f64, 0.83] {
            let ms: Vec<Measurement> = (0..trials)
                .map(|t| run_once(r, cells, load, seed ^ (t << 8) ^ ((r as u64) << 4)))
                .collect();
            let gr = mean(&ms.iter().map(|m| m.gpu_recover).collect::<Vec<_>>());
            let fr = mean(&ms.iter().map(|m| m.frontier_recover).collect::<Vec<_>>());
            let sr = mean(&ms.iter().map(|m| m.serial_recover).collect::<Vec<_>>());
            let gi = mean(&ms.iter().map(|m| m.gpu_insert).collect::<Vec<_>>());
            let si = mean(&ms.iter().map(|m| m.serial_insert).collect::<Vec<_>>());
            let pct = mean(&ms.iter().map(|m| m.pct_recovered).collect::<Vec<_>>());
            println!(
                "{}",
                row(
                    &[
                        format!("{r}"),
                        format!("{load}"),
                        format!("{pct:.1}%"),
                        format!("{gr:.3}"),
                        format!("{fr:.3}"),
                        format!("{sr:.3}"),
                        format!("{gi:.3}"),
                        format!("{si:.3}"),
                        format!("{:.2}x", sr / fr),
                        format!("{:.2}x", si / gi),
                    ],
                    &widths
                )
            );
        }
    }
    println!("# 'scan rec' = paper's GPU kernel (dense per-round scan); 'cand rec' = candidate-");
    println!("# tracking CPU adaptation; 'rec spd' = serial / candidate-tracking parallel.");
    println!("# paper (Tesla C2070 vs 1 CPU core): rec spd ≈ 20x below / ≈7-9x above threshold;");
    println!("# here speedups are bounded by the rayon thread count.");
}
