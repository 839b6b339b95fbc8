//! `peel-below` and `peel-above`: the peeling engines on `Gnm(10⁶, c, 4)`,
//! `k = 2`, on either side of the threshold `c*₂,₄ ≈ 0.772`.

use std::time::{Duration, Instant};

use peel_analysis::fixedpoint::core_size_prediction;
use peel_analysis::Idealized;
use peel_core::{
    coreness, peel_parallel, peel_parallel_in, peel_rounds_serial, peel_subtables, ParallelOpts,
    PeelWorkspace, Strategy, SubtableOpts,
};
use peel_graph::models::{Gnm, Partitioned};
use peel_graph::rng::Xoshiro256StarStar;
use peel_graph::Hypergraph;

use crate::lanes::{report_end_to_end, report_overhead, Lane};
use crate::report::Report;
use crate::trace::Recorder;
use crate::{repeat_setup, Env};

const N: usize = 1_000_000;
const R: usize = 4;
const K: u32 = 2;

#[derive(Clone, Copy, PartialEq)]
pub enum Regime {
    Below,
    Above,
}

impl Regime {
    fn c(self) -> f64 {
        match self {
            Regime::Below => 0.70,
            Regime::Above => 0.85,
        }
    }

    /// The highest percentile that keeps about ten samples beyond it in
    /// one window: a rotation takes about 350 ms below the threshold and
    /// about 80 ms above it.
    fn tail(self) -> (f64, &'static str) {
        match self {
            Regime::Below => (0.75, "p75"),
            Regime::Above => (0.90, "p90"),
        }
    }
}

#[derive(Clone, Copy)]
enum Variant {
    Serial,
    /// `peel_parallel_in` on the pooled workspace.
    Pooled(Strategy, Width),
    /// `peel_parallel`, which allocates its working set on every call.
    Unpooled,
    Subtables,
    Coreness,
}

#[derive(Clone, Copy)]
enum Width {
    One,
    Max,
}

struct Setup {
    g: Hypergraph,
    /// The subtable engine needs a partitioned graph; traced runs only.
    parted: Option<Hypergraph>,
    ws: PeelWorkspace,
}

/// `(rounds, core vertices)` of one peel.
type Shape = (u32, u64);

struct Engines<'a> {
    setup: &'a mut Setup,
    one: rayon::ThreadPool,
    max: rayon::ThreadPool,
}

impl Engines<'_> {
    fn run(&mut self, variant: Variant) -> Shape {
        let Setup { g, parted, ws } = &mut *self.setup;
        match variant {
            Variant::Serial => {
                let o = peel_rounds_serial(g, K);
                (o.rounds, o.core_vertices)
            }
            Variant::Pooled(strategy, width) => {
                let opts = ParallelOpts {
                    strategy,
                    ..ParallelOpts::default()
                };
                let pool = match width {
                    Width::One => &self.one,
                    Width::Max => &self.max,
                };
                let run = pool.install(|| peel_parallel_in(g, K, &opts, ws));
                (run.rounds, run.core_vertices)
            }
            Variant::Unpooled => {
                let o = self
                    .max
                    .install(|| peel_parallel(g, K, &ParallelOpts::default()));
                (o.rounds, o.core_vertices)
            }
            Variant::Subtables => {
                let parted = parted.as_ref().expect("traced set-up samples it");
                let o = self
                    .max
                    .install(|| peel_subtables(parted, K, &SubtableOpts::default()));
                (o.subrounds, o.core_vertices)
            }
            Variant::Coreness => {
                let in_core = coreness(g).iter().filter(|&&c| c >= K).count() as u64;
                // Coreness has no rounds; its check is the core size.
                (0, in_core)
            }
        }
    }
}

pub fn run(env: &Env, report: &mut Report, regime: Regime) -> Vec<Recorder> {
    let mut rec = env.recorder("main");
    let c = regime.c();
    let threads = env.ctx.threads;

    let mut lanes = vec![
        Lane::new("core.serial", Variant::Serial),
        Lane::new(
            "core.adaptive_tmax",
            Variant::Pooled(Strategy::Adaptive, Width::Max),
        ),
    ];
    if env.traced {
        let pooled = |s, w| Variant::Pooled(s, w);
        lanes.extend([
            Lane::new("core.dense_t1", pooled(Strategy::Dense, Width::One)),
            Lane::new("core.dense_tmax", pooled(Strategy::Dense, Width::Max)),
            Lane::new("core.frontier_t1", pooled(Strategy::Frontier, Width::One)),
            Lane::new("core.frontier_tmax", pooled(Strategy::Frontier, Width::Max)),
            Lane::new("core.adaptive_t1", pooled(Strategy::Adaptive, Width::One)),
            Lane::new("core.adaptive_unpooled_tmax", Variant::Unpooled),
            Lane::new("core.subtables", Variant::Subtables),
            Lane::new("core.coreness", Variant::Coreness),
            Lane::unrecorded(
                "core.adaptive_tmax",
                Variant::Pooled(Strategy::Adaptive, Width::Max),
            ),
        ]);
    }

    // Set-up: sample the graph from the seed, then one untimed pass of
    // every lane so buffers are sized and pages faulted.
    let mut setup_no = 0;
    let (mut setup, setup_s) = repeat_setup(env.setup_repeats(), || {
        setup_no += 1;
        let mut rng = Xoshiro256StarStar::new(env.seed);
        let (g, _) = rec.time("graph.sample", setup_no, || {
            Gnm::new(N, c, R).sample(&mut rng)
        });
        let parted = env
            .traced
            .then(|| Partitioned::new(N, c, R).sample(&mut rng));
        let mut setup = Setup {
            g,
            parted,
            ws: PeelWorkspace::new(),
        };
        let mut engines = Engines {
            setup: &mut setup,
            one: Env::pool(1),
            max: Env::pool(threads),
        };
        for lane in &lanes {
            engines.run(lane.variant);
        }
        setup
    });
    let edges = setup.g.num_edges();

    // The references every repetition is held to.
    let serial = peel_rounds_serial(&setup.g, K);
    let reference: Shape = (serial.rounds, serial.core_vertices);
    let ((predicted_rounds, predicted_core), _) = rec.time("analysis.predict", 0, || {
        (
            Idealized::new(K, R as u32, c).rounds_to_empty(N as u64, 64),
            core_size_prediction(K, R as u32, c, N as u64),
        )
    });
    match regime {
        Regime::Below => {
            let predicted = predicted_rounds.unwrap_or(u32::MAX);
            report.op(
                reference.1 == 0 && reference.0.abs_diff(predicted) <= 2,
                || {
                    format!(
                        "below the threshold the core must empty within 2 rounds of the \
                         predicted {predicted}: got {} rounds, {} core vertices",
                        reference.0, reference.1
                    )
                },
            );
        }
        Regime::Above => {
            let off = (reference.1 as f64 - predicted_core).abs() / predicted_core;
            report.op(off <= 0.02, || {
                format!(
                    "core of {} vertices is {:.2}% off the predicted {predicted_core:.0}",
                    reference.1,
                    off * 100.0
                )
            });
        }
    }
    let subtable_reference = env.traced.then(|| {
        let parted = setup.parted.as_ref().expect("traced set-up samples it");
        let o = peel_subtables(parted, K, &SubtableOpts::default());
        (o.subrounds, o.core_vertices)
    });

    // The timed window: every lane once per rotation, for the whole
    // window, so a slow spell of the host lands on all lanes alike.
    let mut engines = Engines {
        setup: &mut setup,
        one: Env::pool(1),
        max: Env::pool(threads),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(env.seconds);
    let mut rotation = 0u64;
    while Instant::now() < deadline {
        rotation += 1;
        for lane in lanes.iter_mut() {
            rec.enabled = env.traced && lane.record;
            let (shape, secs) = rec.time(lane.span, rotation, || engines.run(lane.variant));
            lane.secs.push(secs);
            let want = match lane.variant {
                Variant::Subtables => subtable_reference.expect("traced runs only"),
                Variant::Coreness => (0, reference.1),
                _ => reference,
            };
            report.op(shape == want, || {
                format!(
                    "{} gave (rounds, core) = {shape:?}, the reference is {want:?}",
                    lane.span
                )
            });
        }
    }
    rec.enabled = env.traced;
    for lane in lanes.iter().filter(|l| l.record) {
        report.raw(lane.span, &lane.secs);
    }

    let graph = format!("Gnm(n={N}, c={c}, r={R}), k={K}, {edges} edges");
    if !env.traced {
        let [serial_lane, parallel_lane] = &mut lanes[..] else {
            unreachable!("the untraced rotation has two lanes");
        };
        report_end_to_end(
            report,
            (setup_s, env.setup_repeats()),
            parallel_lane,
            serial_lane,
            regime.tail(),
            "peel_parallel",
            "peel_serial_ms",
        );
        report.note(
            "primary",
            "peel_parallel_in, Adaptive, pooled workspace, T threads",
        );
        report.note("secondary", "peel_rounds_serial");
        report.note("graph", graph);
        return vec![rec];
    }

    // Per-layer numbers. The lanes' spans have no children, so their
    // self times are their durations.
    let recorders = vec![rec];
    let mut times = report.set_layer_times(&recorders);
    let tmax_ms = times.median("core.adaptive_tmax") * 1e3;
    let samples = times.samples("core.adaptive_tmax");
    report.set(
        "core.adaptive_speedup",
        times.median("core.adaptive_t1") * 1e3 / tmax_ms,
        samples,
    );
    report.set(
        "core.adaptive_ns_per_edge",
        tmax_ms * 1e6 / edges as f64,
        samples,
    );
    report_overhead(
        report,
        tmax_ms,
        lanes.last_mut().expect("the recording-off lane"),
    );

    report.set("graph.edges", edges as f64, 1);
    let words = edges * R + (N + 1) + edges * R + edges * R * R;
    report.set("graph.csr_bytes_computed", (words * 4) as f64, 1);
    report.note(
        "csr_layout",
        "endpoints m*r + offsets n+1 + incidence m*r + adjacency m*r*r, 4 bytes each",
    );
    debug_assert_eq!(setup.g.adjacency_flat().len(), edges * R * R);
    report.set("core.rounds", reference.0 as f64, 1);
    report.set("core.core_vertices", reference.1 as f64, 1);
    let early: u64 = serial.trace.iter().take(3).map(|r| r.peeled_edges).sum();
    report.set("core.round1to3_edge_share", early as f64 / edges as f64, 1);
    let (subrounds, _) = subtable_reference.expect("traced runs only");
    report.set("core.subrounds", subrounds as f64, 1);

    // Theory against the serial trace. Above the threshold the
    // recurrence never empties, so the round prediction is the round in
    // which it stops moving by a whole vertex.
    let steps = serial.rounds.max(1);
    let predicted = Idealized::new(K, R as u32, c).survivor_predictions(N as u64, steps.max(64));
    let predicted_rounds = predicted_rounds.unwrap_or_else(|| {
        1 + predicted
            .windows(2)
            .position(|w| (w[0] - w[1]).abs() < 1.0)
            .unwrap_or(predicted.len() - 1) as u32
    });
    report.set("analysis.predicted_rounds", predicted_rounds as f64, 1);
    report.set(
        "analysis.rounds_gap",
        serial.rounds as f64 - predicted_rounds as f64,
        1,
    );
    // Relative error is only meaningful while the prediction is far
    // from zero: compare rounds predicted to keep at least n/1000.
    let floor = N as f64 / 1000.0;
    let worst = serial
        .trace
        .iter()
        .zip(&predicted)
        .filter(|(_, p)| **p >= floor)
        .map(|(seen, p)| (seen.unpeeled_vertices as f64 - p).abs() / p)
        .fold(0.0, f64::max);
    report.set("analysis.survivor_max_rel_err", worst, serial.trace.len());
    report.note("graph", graph);
    recorders
}
