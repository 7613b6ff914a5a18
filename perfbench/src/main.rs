//! Host-side datapath benchmark for OpenDesc.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fwd64 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Two queues, one worker thread each, drive the public per-queue API
//! (`poll_batch_into` → verdict → `TxBatch::push` → `TxQueue::submit`).
//! The device model runs off the clock; every time reported end to end
//! is on the workers' host clocks. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer split from a traced run. The last
//! line of standard output is one JSON object. See `README.md` beside
//! this file for what each workload and metric is for.

mod check;
mod clock;
mod harness;
mod stats;
mod worker;
mod workload;

use crate::check::CheckReport;
use crate::harness::{
    build, model_mpps, setup_once, setup_split_once, Crew, Done, Job, Plans, SetupSplit,
};
use crate::stats::{median, percentile_sorted};
use crate::worker::{Counters, FlipSample, FlipTarget, Worker};
use crate::workload::{Kind, Spec, BATCH, QUEUES};
use opendesc_nicsim::pktgen::ShardFrame;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload {fwd64|kvs_get|churn_faults} is required")?,
        seed: seed.ok_or("--seed <n> is required")?,
        seconds: seconds.ok_or("--seconds <s> is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Cold set-ups per run (each about half a millisecond); the median is
/// reported.
const SETUP_REPS: usize = 41;

/// Frames per queue in one relayout-phase round of `fwd64`/`kvs_get`.
const FLIP_ROUND_FRAMES: usize = 4 * BATCH;

/// Latency samples per window: each window's p99 has 10 samples beyond
/// it, its p90 102.
const LAT_WINDOW: usize = 1024;

/// Measured metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Aggregate Mpps over the slower queue's host time, and host ns per
/// packet over both queues, of one closed-loop round.
fn round_figures(done: &[Done]) -> (f64, f64) {
    let fwd: u64 = done.iter().map(|d| d.c.forwarded).sum();
    let max = done.iter().map(|d| d.c.host_ns).max().unwrap_or(0);
    let sum: u64 = done.iter().map(|d| d.c.host_ns).sum();
    (fwd as f64 * 1e3 / max as f64, sum as f64 / fwd as f64)
}

/// Open-loop passes per measurement cycle, each about as long as the
/// cycle's closed-loop round.
const OPEN_PER_CYCLE: usize = 2;

/// Relayout rounds per measurement cycle on `fwd64`/`kvs_get`.
const FLIPS_PER_CYCLE: usize = 16;

type Pools<'s> = [&'s [ShardFrame]; QUEUES];

/// Everything one timed run measured: per-round figures of untraced
/// and traced closed-loop rounds, the traced rounds' summed counters,
/// every flip committed in an untraced round, and the open loop's
/// latency windows. Each queue's open-loop samples are cut, in
/// completion order, into windows of [`LAT_WINDOW`]; the reported
/// latencies are medians over windows, so a stall of the machine under a
/// few windows does not move them.
#[derive(Default)]
struct Record {
    mpps: Vec<f64>,
    cpu_ns: Vec<f64>,
    traced_mpps: Vec<f64>,
    traced_c: Counters,
    flips: Vec<FlipSample>,
    p50_us: Vec<f64>,
    p90_us: Vec<f64>,
    p99_us: Vec<f64>,
    samples: u64,
    open_c: Counters,
    /// Queue-rounds, warm-up included, that forwarded less than half of
    /// their frames. Device faults cost about 1%; a queue that stops
    /// delivering is a program failure, and the run reports it as one.
    stalled: u64,
}

/// Drives both queues' threads through measurement cycles.
struct Cycles<'a, 's> {
    spec: &'s Spec,
    plans: Plans<'s>,
    crew: Crew<'a>,
    /// Queue-rounds so far that forwarded less than half their frames.
    stalled: u64,
}

impl<'a, 's: 'a> Cycles<'a, 's> {
    /// One round on both queues; a relayout round first opens a plan
    /// generation, and the outgoing one is reclaimed afterwards.
    fn round(
        &mut self,
        job: impl Fn(&'s [ShardFrame], &'s [u64], Option<FlipTarget>) -> Job<'a>,
        pools: Pools<'s>,
        flip: bool,
    ) -> Vec<Done> {
        let target = flip.then(|| self.plans.next_target());
        let jobs = pools
            .into_iter()
            .zip(&self.spec.stream_idx)
            .map(|(pool, idx)| job(pool, idx, target.clone()))
            .collect();
        drop(target);
        let done = self.crew.run(jobs);
        self.plans.cache.evict_superseded();
        for (d, pool) in done.iter().zip(pools) {
            self.stalled += (2 * d.c.forwarded < pool.len() as u64) as u64;
        }
        done
    }

    fn closed(&mut self, pools: Pools<'s>, trace: bool, flip: bool) -> Vec<Done> {
        self.round(
            |pool, _, target| Job::Closed {
                pool,
                trace,
                target,
            },
            pools,
            flip,
        )
    }

    fn open(&mut self) -> Vec<Done> {
        let ns_per_frame = 1e9 / self.spec.rate_pps;
        self.round(
            |pool, idx, target| Job::Open {
                pool,
                idx,
                ns_per_frame,
                target,
            },
            self.pools(),
            self.spec.churn,
        )
    }

    fn pools(&self) -> Pools<'s> {
        std::array::from_fn(|q| &self.spec.pools[q][..])
    }

    /// One measurement cycle: a closed-loop round (and, `traced`, a
    /// traced one), the relayout rounds of `fwd64`/`kvs_get`, and the
    /// open-loop passes. Interleaving the kinds spreads each over the
    /// whole run, so a slow spell of the machine weighs on all of them
    /// alike instead of on one phase. Nothing is recorded when `rec` is
    /// `None` (the warm-up cycle).
    fn cycle(&mut self, traced: bool, mut rec: Option<&mut Record>) {
        let churn = self.spec.churn;
        for trace in [false, true].into_iter().take(1 + traced as usize) {
            let done = self.closed(self.pools(), trace, churn);
            let Some(r) = rec.as_deref_mut() else {
                continue;
            };
            let (mpps, cpu_ns) = round_figures(&done);
            if trace {
                r.traced_mpps.push(mpps);
                for d in &done {
                    r.traced_c.add(&d.c);
                }
            } else {
                r.mpps.push(mpps);
                r.cpu_ns.push(cpu_ns);
                for d in done {
                    r.flips.extend(d.flips);
                }
            }
        }
        if !churn {
            // Drain-and-flip onto a fresh cache generation of the running
            // plan, one batch in flight.
            let short = self.pools().map(|p| &p[..FLIP_ROUND_FRAMES.min(p.len())]);
            for _ in 0..FLIPS_PER_CYCLE {
                for d in self.closed(short, false, true) {
                    if let Some(r) = rec.as_deref_mut() {
                        r.flips.extend(d.flips);
                    }
                }
            }
        }
        for _ in 0..OPEN_PER_CYCLE {
            for d in self.open() {
                let Some(r) = rec.as_deref_mut() else {
                    continue;
                };
                r.open_c.add(&d.c);
                r.samples += d.lat.len() as u64;
                for w in d.lat.chunks_exact(LAT_WINDOW) {
                    let mut w = w.to_vec();
                    w.sort_unstable();
                    r.p50_us.push(percentile_sorted(&w, 50.0) as f64 / 1e3);
                    r.p90_us.push(percentile_sorted(&w, 90.0) as f64 / 1e3);
                    r.p99_us.push(percentile_sorted(&w, 99.0) as f64 / 1e3);
                }
            }
        }
    }

    /// A warm-up cycle, then cycles until `until` (at least three).
    fn measure(&mut self, until: Instant, traced: bool) -> Record {
        self.cycle(traced, None);
        let mut rec = Record::default();
        while rec.mpps.len() < 3 || Instant::now() < until {
            self.cycle(traced, Some(&mut rec));
        }
        rec.stalled = self.stalled;
        rec
    }
}

fn per_pkt(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

/// Write the traced run's spans, one CSV row each, under
/// `perfbench/traces/` in the working directory.
fn write_spans(workers: &[Worker], name: &str) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench").join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut s = String::from("worker,name,id,parent,start_ns,end_ns\n");
    for (q, w) in workers.iter().enumerate() {
        for sp in &w.tr.spans {
            writeln!(
                s,
                "{q},{},{},{},{},{}",
                sp.name.as_str(),
                sp.id,
                sp.parent,
                sp.start_ns,
                sp.end_ns
            )
            .expect("writing to a String cannot fail");
        }
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    f.write_all(s.as_bytes())?;
    f.flush()?;
    Ok(path.display().to_string())
}

/// `--trace 0`: the end-to-end metrics, and the stalled queue-rounds.
fn end_to_end(spec: &Spec, budget: Duration) -> (Metrics, u64) {
    let setup: Vec<f64> = (0..SETUP_REPS).map(|_| setup_once(spec)).collect();
    let (plans, mut workers) = build(spec, Instant::now());
    let rec = std::thread::scope(|s| {
        let mut c = Cycles {
            spec,
            plans,
            crew: Crew::spawn(s, &mut workers),
            stalled: 0,
        };
        c.measure(Instant::now() + budget, false)
    });
    println!(
        "# closed rounds {} | open windows {}, latency samples {} at {} pps offered, backlog max {} | flips {}",
        rec.mpps.len(),
        rec.p50_us.len(),
        rec.samples,
        spec.rate_pps,
        rec.open_c.backlog_max,
        rec.flips.len()
    );
    let m = vec![
        ("mpps", median(&rec.mpps), "Mpps"),
        ("cpu_ns_per_pkt", median(&rec.cpu_ns), "ns"),
        ("lat_p50_us", median(&rec.p50_us), "us"),
        ("lat_p90_us", median(&rec.p90_us), "us"),
        ("setup_s", median(&setup), "s"),
    ];
    (m, rec.stalled)
}

/// Share of a traced run's budget left for the modeled engine run.
const MODEL_SHARE: f64 = 0.1;

/// `--trace 1`: the per-layer split, and the stalled queue-rounds.
fn per_layer(spec: &Spec, budget: Duration, chk: &CheckReport) -> (Metrics, u64) {
    let split: Vec<SetupSplit> = (0..SETUP_REPS).map(|_| setup_split_once(spec)).collect();
    let stage = |f: fn(&SetupSplit) -> f64| median(&split.iter().map(f).collect::<Vec<_>>());
    let (plans, mut workers) = build(spec, Instant::now());
    let start = Instant::now();
    let rec = std::thread::scope(|s| {
        let mut c = Cycles {
            spec,
            plans,
            crew: Crew::spawn(s, &mut workers),
            stalled: 0,
        };
        c.measure(start + budget.mul_f64(1.0 - MODEL_SHARE), true)
    });
    let model = model_mpps(spec, start + budget);
    match write_spans(&workers, spec.name) {
        Ok(p) => println!("# spans written to {p}"),
        Err(e) => eprintln!("warning: spans not written: {e}"),
    }
    let t = &rec.traced_c;
    let plain_mpps = median(&rec.mpps);
    let traced_mpps = median(&rec.traced_mpps);
    let leaf = t.poll_ns + t.verdict_ns + t.push_ns + t.submit_ns + t.flip_ns;
    // A call's host time: its spans' share of the segments' wall time,
    // applied to the segments' host time, so a lost vCPU inside one call
    // is not charged to that layer alone.
    let host = |span_ns: u64, pkts: u64| {
        span_ns as f64 / t.seg_wall_ns as f64 * t.host_ns as f64 / pkts as f64
    };
    let pause: Vec<f64> = rec.flips.iter().map(|f| f.pause_ns as f64 / 1e3).collect();
    let call: Vec<f64> = rec.flips.iter().map(|f| f.call_ns as f64).collect();
    let polls: u64 = rec.flips.iter().map(|f| f.polls as u64).sum();
    let m = vec![
        ("datapath.poll_ns_per_pkt", host(t.poll_ns, t.rx_pkts), "ns"),
        (
            "datapath.pkts_per_poll",
            per_pkt(t.rx_pkts, t.polls),
            "count",
        ),
        (
            "datapath.empty_poll_share",
            per_pkt(t.empty_polls, t.polls),
            "fraction",
        ),
        (
            "datapath.fields_hw_per_pkt",
            per_pkt(chk.fields_hw, chk.rx_pkts),
            "count",
        ),
        (
            "datapath.fields_sw_per_pkt",
            per_pkt(chk.fields_sw, chk.rx_pkts),
            "count",
        ),
        (
            "softnic.shim_ops_per_pkt",
            per_pkt(chk.shim_ops, chk.rx_pkts),
            "count",
        ),
        (
            "robust.repaired_fields",
            chk.repaired_fields as f64,
            "count",
        ),
        ("robust.degraded_pkts", chk.degraded_pkts as f64, "count"),
        (
            "robust.structural_failures",
            chk.structural_failures as f64,
            "count",
        ),
        ("robust.discarded", chk.discarded as f64, "count"),
        (
            "robust.watchdog_resets",
            chk.watchdog_resets as f64,
            "count",
        ),
        ("tx.submit_ns_per_pkt", host(t.submit_ns, t.forwarded), "ns"),
        ("tx.push_ns_per_pkt", host(t.push_ns, t.forwarded), "ns"),
        (
            "tx.doorbells_per_pkt",
            per_pkt(chk.doorbells, chk.tx_frames),
            "count",
        ),
        (
            "tx.sw_fixups_per_pkt",
            per_pkt(chk.sw_fixups, chk.tx_frames),
            "count",
        ),
        ("tx.stalls", chk.stalls as f64, "count"),
        (
            "app.verdict_ns_per_pkt",
            host(t.verdict_ns, t.rx_pkts),
            "ns",
        ),
        ("evolve.pause_us", median(&pause), "us"),
        ("evolve.flip_ns", median(&call), "ns"),
        (
            "evolve.drain_polls",
            per_pkt(polls, rec.flips.len() as u64),
            "count",
        ),
        ("evolve.deferred", chk.deferred as f64, "count"),
        ("cache.hits", chk.cache_hits as f64, "count"),
        ("cache.misses", chk.cache_misses as f64, "count"),
        ("cache.live_generations", chk.cache_live as f64, "count"),
        ("setup.frontend_us", stage(|s| s.frontend_us), "us"),
        ("setup.extract_us", stage(|s| s.extract_us), "us"),
        ("setup.select_us", stage(|s| s.select_us), "us"),
        ("setup.lower_us", stage(|s| s.lower_us), "us"),
        ("setup.tx_compile_us", stage(|s| s.tx_compile_us), "us"),
        ("setup.attach_us", stage(|s| s.attach_us), "us"),
        (
            "nicsim.rx_ns_per_pkt",
            per_pkt(t.dev_rx_ns, t.dev_rx_frames),
            "ns",
        ),
        (
            "nicsim.tx_ns_per_pkt",
            per_pkt(t.dev_tx_ns, t.dev_tx_frames),
            "ns",
        ),
        (
            "nicsim.cmpt_bytes_per_pkt",
            per_pkt(chk.cmpt_bytes, chk.rx_pkts),
            "bytes",
        ),
        (
            "nicsim.faults_injected",
            chk.faults_injected as f64,
            "count",
        ),
        ("shard.model_mpps", model, "Mpps"),
        ("shard.model_over_measured", model / plain_mpps, "ratio"),
        ("trace.overhead", traced_mpps / plain_mpps, "ratio"),
        ("trace.coverage", per_pkt(leaf, t.seg_wall_ns), "fraction"),
        ("load.backlog_max", rec.open_c.backlog_max as f64, "count"),
        ("load.lat_samples", rec.samples as f64, "count"),
        ("load.lat_p99_us", median(&rec.p99_us), "us"),
        ("failed_ratio", chk.failed_ratio(), "fraction"),
        ("check.absent_fields", chk.absent_fields as f64, "count"),
    ];
    (m, rec.stalled)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload {{fwd64|kvs_get|churn_faults}} --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let spec = Spec::build(args.kind, args.seed);
    let chk = check::run(&spec);
    println!(
        "# {} seed {}: check offered {} lost {} unaccounted {} unmatched {} unhealed {} wrong_pkts {} absent_fields {} wire_mismatch {}",
        spec.name,
        args.seed,
        chk.offered,
        chk.lost,
        chk.unaccounted,
        chk.unmatched,
        chk.unhealed,
        chk.wrong_pkts,
        chk.absent_fields,
        chk.wire_mismatch
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let (metrics, stalled) = if args.trace {
        per_layer(&spec, budget, &chk)
    } else {
        end_to_end(&spec, budget)
    };
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            eprintln!("error: metric {name} is not a finite number ({value})");
            return ExitCode::FAILURE;
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    let failed = chk.failed() + stalled;
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        chk.offered
    );
    if correct {
        return ExitCode::SUCCESS;
    }
    if chk.failed() > 0 {
        eprintln!(
            "error: the check pass found {} failed operations",
            chk.failed()
        );
    }
    if stalled > 0 {
        eprintln!(
            "error: {stalled} queue-rounds of the timed run forwarded less than half their frames"
        );
    }
    ExitCode::FAILURE
}
