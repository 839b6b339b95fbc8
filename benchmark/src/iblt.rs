//! `iblt-tables`: the shape of the paper's Tables 3–4. One IBLT of 2²¹
//! cells (`r = 4`) at load 0.75, far larger than L2, decoded in both of
//! the engine's modes: a dense recovery of the whole table, and the fused
//! subtract-and-recover of two such tables that differ in 16 384 keys,
//! which runs in candidate mode.

use std::time::{Duration, Instant};

use peel_iblt::{AtomicIblt, Iblt, IbltConfig, ParRecovery, RecoveryWorkspace};

use crate::keys::KeySpace;
use crate::lanes::{report_end_to_end, report_overhead, Lane};
use crate::report::Report;
use crate::trace::Recorder;
use crate::{repeat_setup, Env};

const HASHES: usize = 4;
const CELLS: usize = 1 << 21;
const KEYS: usize = CELLS / 4 * 3;
/// Keys planted on each side of the subtracted pair.
const PLANTED: usize = 8192;
/// About 500 ms a rotation: the highest percentile with some ten samples
/// beyond it in one window.
const TAIL: (f64, &str) = (0.75, "p75");

#[derive(Clone, Copy, PartialEq)]
enum Variant {
    SerialInsert,
    SerialRecover,
    ParInsert,
    Dense,
    /// `par_recover_frontier`: the same decode in a throwaway workspace.
    DenseUnpooled,
    Sparse,
    Snapshot,
    LoadSubtract,
}

type Fingerprint = (usize, u64, u64);

struct Tables {
    keys: Vec<u64>,
    /// The atomic table holding `keys`.
    full: AtomicIblt,
    /// Serial tables: `a` holds `keys`; `b` lacks `PLANTED` of them and
    /// holds `PLANTED` others.
    a: Iblt,
    b: Iblt,
    /// Target of the fused subtract-and-recover.
    diff: AtomicIblt,
    ws_dense: RecoveryWorkspace,
    ws_sparse: RecoveryWorkspace,
    want_all: Fingerprint,
    want_only_a: Fingerprint,
    want_only_b: Fingerprint,
    /// Traced runs only: an empty atomic table and an empty serial one
    /// for the insert lanes, and a pooled snapshot target.
    extra: Option<(AtomicIblt, Iblt, Iblt)>,
}

impl Tables {
    fn build(env: &Env, pool: &rayon::ThreadPool) -> Self {
        let space = KeySpace::new(env.seed);
        let cfg = IbltConfig::with_total_cells(HASHES, CELLS, space.key(0, 0));
        let keys = space.range(1, 0..KEYS as u64);
        let only_a = &keys[KEYS - PLANTED..];
        let only_b = space.range(2, 0..PLANTED as u64);

        let full = AtomicIblt::new(cfg);
        pool.install(|| full.par_insert(&keys));
        let a = full.snapshot();
        let mut b = a.clone();
        for &k in only_a {
            b.delete(k);
        }
        for &k in &only_b {
            b.insert(k);
        }
        Tables {
            want_all: KeySpace::fingerprint(&keys),
            want_only_a: KeySpace::fingerprint(only_a),
            want_only_b: KeySpace::fingerprint(&only_b),
            full,
            a,
            b,
            diff: AtomicIblt::new(cfg),
            ws_dense: RecoveryWorkspace::new(),
            ws_sparse: RecoveryWorkspace::new(),
            extra: env
                .traced
                .then(|| (AtomicIblt::new(cfg), Iblt::new(cfg), Iblt::new(cfg))),
            keys,
        }
    }

    fn dense_ok(&self, rec: &ParRecovery) -> bool {
        rec.complete
            && rec.negative.is_empty()
            && KeySpace::fingerprint(&rec.positive) == self.want_all
    }

    /// Run one lane's call inside `timed` and check what it returned.
    /// Work that only resets a table for the next rotation stays outside.
    fn run(&mut self, variant: Variant, timed: &mut dyn FnMut(&mut dyn FnMut())) -> bool {
        match variant {
            Variant::Dense => {
                timed(&mut || {
                    self.full.par_recover_in(&mut self.ws_dense);
                });
                self.dense_ok(self.ws_dense.recovery())
            }
            Variant::DenseUnpooled => {
                let mut out = None;
                timed(&mut || out = Some(self.full.par_recover_frontier()));
                self.dense_ok(&out.expect("timed runs its closure"))
            }
            Variant::Sparse => {
                timed(&mut || {
                    self.diff
                        .recover_subtracted_in(&self.a, &self.b, &mut self.ws_sparse);
                });
                let rec = self.ws_sparse.recovery();
                rec.complete
                    && KeySpace::fingerprint(&rec.positive) == self.want_only_a
                    && KeySpace::fingerprint(&rec.negative) == self.want_only_b
            }
            Variant::LoadSubtract => {
                timed(&mut || self.diff.load_subtract(&self.a, &self.b));
                true
            }
            Variant::ParInsert => {
                let (empty, _, snap) = self.extra.as_mut().expect("traced runs only");
                timed(&mut || empty.par_insert(&self.keys));
                empty.snapshot_into(snap);
                empty.par_delete(&self.keys);
                *snap == self.a
            }
            Variant::SerialInsert => {
                // Leaves the serial table full; `SerialRecover`, the next
                // lane, peels it back to empty.
                let (_, serial, _) = self.extra.as_mut().expect("traced runs only");
                timed(&mut || {
                    for &k in &self.keys {
                        serial.insert(k);
                    }
                });
                *serial == self.a
            }
            Variant::SerialRecover => {
                let (_, serial, _) = self.extra.as_mut().expect("traced runs only");
                let mut out = None;
                timed(&mut || out = Some(serial.recover_destructive()));
                let rec = out.expect("timed runs its closure");
                rec.complete
                    && rec.negative.is_empty()
                    && KeySpace::fingerprint(&rec.positive) == self.want_all
            }
            Variant::Snapshot => {
                let (_, _, snap) = self.extra.as_mut().expect("traced runs only");
                timed(&mut || self.full.snapshot_into(snap));
                *snap == self.a
            }
        }
    }
}

pub fn run(env: &Env, report: &mut Report) -> Vec<Recorder> {
    let mut rec = env.recorder("main");
    let threads = env.ctx.threads;
    let one = Env::pool(1);
    let max = Env::pool(threads);

    let mut lanes = vec![
        Lane::new("iblt.par_recover_tmax", (Variant::Dense, true)),
        Lane::new("iblt.recover_subtracted_tmax", (Variant::Sparse, true)),
    ];
    if env.traced {
        lanes.extend([
            Lane::new("iblt.serial_insert", (Variant::SerialInsert, false)),
            Lane::new("iblt.serial_recover", (Variant::SerialRecover, false)),
            Lane::new("iblt.par_insert_t1", (Variant::ParInsert, false)),
            Lane::new("iblt.par_insert_tmax", (Variant::ParInsert, true)),
            Lane::new("iblt.par_recover_t1", (Variant::Dense, false)),
            Lane::new(
                "iblt.par_recover_frontier_tmax",
                (Variant::DenseUnpooled, true),
            ),
            Lane::new("iblt.recover_subtracted_t1", (Variant::Sparse, false)),
            Lane::new("iblt.snapshot", (Variant::Snapshot, false)),
            Lane::new("iblt.load_subtract", (Variant::LoadSubtract, false)),
            Lane::unrecorded("iblt.par_recover_tmax", (Variant::Dense, true)),
        ]);
    }

    // Set-up: keys from the seed, the tables, and one untimed pass of
    // every lane.
    let (mut tables, setup_s) = repeat_setup(env.setup_repeats(), || {
        let mut tables = Tables::build(env, &max);
        for lane in &lanes {
            let (variant, wide) = lane.variant;
            let pool = if wide { &max } else { &one };
            pool.install(|| tables.run(variant, &mut |call| call()));
        }
        tables
    });

    // Once, exactly: the fingerprints the repetitions compare stand for
    // these sets.
    let mut recovered = tables.ws_dense.recovery().positive.clone();
    recovered.sort_unstable();
    let mut inserted = tables.keys.clone();
    inserted.sort_unstable();
    report.op(recovered == inserted, || {
        "the dense recovery did not return the inserted key set".to_string()
    });
    let sparse = tables.ws_sparse.recovery();
    report.op(
        sparse.complete && sparse.positive.len() == PLANTED && sparse.negative.len() == PLANTED,
        || {
            format!(
                "the subtracted decode returned {} + {} keys (complete: {}), not {PLANTED} + {PLANTED}",
                sparse.positive.len(),
                sparse.negative.len(),
                sparse.complete
            )
        },
    );
    let subrounds = tables.ws_dense.recovery().subrounds;

    let deadline = Instant::now() + Duration::from_secs_f64(env.seconds);
    let mut rotation = 0u64;
    while Instant::now() < deadline {
        rotation += 1;
        for lane in lanes.iter_mut() {
            rec.enabled = env.traced && lane.record;
            let (variant, wide) = lane.variant;
            let pool = if wide { &max } else { &one };
            let mut secs = 0.0;
            let ok = pool.install(|| {
                tables.run(variant, &mut |call| {
                    let open = rec.enter(lane.span, rotation);
                    call();
                    secs = rec.exit(open);
                })
            });
            lane.secs.push(secs);
            report.op(ok, || format!("{} returned the wrong keys", lane.span));
        }
    }
    rec.enabled = env.traced;
    for lane in lanes.iter().filter(|l| l.record) {
        report.raw(lane.span, &lane.secs);
    }

    let table_bytes = CELLS * 24;
    let shape = format!(
        "r={HASHES}, {CELLS} cells, {KEYS} keys, {table_bytes} bytes of cells per table, \
         16 bytes a cell more in the decode lanes"
    );
    if !env.traced {
        let [dense, sparse] = &mut lanes[..] else {
            unreachable!("the untraced rotation has two lanes");
        };
        report_end_to_end(
            report,
            (setup_s, env.setup_repeats()),
            dense,
            sparse,
            TAIL,
            "iblt_recover",
            "iblt_recover_sparse_ms",
        );
        report.note(
            "primary",
            "AtomicIblt::par_recover_in, dense mode, T threads",
        );
        report.note(
            "secondary",
            "AtomicIblt::recover_subtracted_in, 8192 + 8192 keys, T threads",
        );
        report.note("table", shape);
        return vec![rec];
    }

    let recorders = vec![rec];
    let mut times = report.set_layer_times(&recorders);
    let insert_tmax_ms = times.median("iblt.par_insert_tmax") * 1e3;
    let samples = times.samples("iblt.par_insert_tmax");
    report.set(
        "iblt.insert_speedup",
        times.median("iblt.par_insert_t1") * 1e3 / insert_tmax_ms,
        samples,
    );
    report.set(
        "iblt.insert_mkeys_s",
        KEYS as f64 / 1e3 / insert_tmax_ms,
        samples,
    );
    let recover_tmax_ms = times.median("iblt.par_recover_tmax") * 1e3;
    report.set(
        "iblt.recover_speedup",
        times.median("iblt.par_recover_t1") * 1e3 / recover_tmax_ms,
        times.samples("iblt.par_recover_tmax"),
    );
    report_overhead(
        report,
        recover_tmax_ms,
        lanes.last_mut().expect("the recording-off lane"),
    );
    report.set("iblt.subrounds", subrounds as f64, 1);
    report.set("iblt.table_bytes_computed", table_bytes as f64, 1);
    report.note("table", shape);
    recorders
}
