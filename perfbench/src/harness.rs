//! Builds the queues of one workload and runs them: one long-lived
//! thread per queue, the plan cache's relayout generations, the timed
//! set-up, its per-stage split, and the modeled engine run.

use crate::stats::median;
use crate::worker::{Counters, FlipSample, FlipTarget, Timed, Worker};
use crate::workload::{Spec, BATCH, QUEUES, RING};
use opendesc_core::{
    compile_tx, CompiledRx, CompiledTxPlan, Compiler, ForwardFn, Intent, OpenDescDriver, PlanCache,
    Selector, ShardedEngine, TxQueue,
};
use opendesc_ir::{enumerate_paths, extract, SemanticRegistry, DEFAULT_MAX_PATHS};
use opendesc_nicsim::pktgen::ShardFrame;
use opendesc_nicsim::{SimNic, SteerPolicy};
use opendesc_p4::parse_and_check;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::Scope;
use std::time::Instant;

/// The device model of one queue, faults armed (built off every clock).
fn nic(spec: &Spec, q: usize) -> SimNic {
    let mut nic = SimNic::new(spec.model.clone(), RING).expect("model contract is valid");
    if let Some(f) = &spec.faults {
        nic.set_faults(f[q]).expect("fault config is valid");
    }
    nic
}

/// The RX plan for `intent` and the workload's TX plan, out of `cache`.
fn compile(
    cache: &PlanCache,
    spec: &Spec,
    intent: &Intent,
    reg: &mut SemanticRegistry,
) -> FlipTarget {
    FlipTarget {
        rx: cache
            .get_or_compile(&spec.model, intent, reg)
            .expect("RX intent compiles"),
        tx: cache
            .get_or_compile_tx(&spec.model, &spec.tx_intent, reg)
            .expect("TX intent compiles"),
    }
}

/// Attach one queue pair: RX driver over the shared plan, TX queue.
fn attach(spec: &Spec, nic: SimNic, plans: FlipTarget) -> (OpenDescDriver, TxQueue) {
    let mut drv =
        OpenDescDriver::attach_shared(nic, plans.rx).expect("context programs the device");
    drv.set_validation_mode(spec.mode);
    let txq = TxQueue::attach(&mut drv.nic, plans.tx, spec.max_frame);
    (drv, txq)
}

/// The plan cache the queues were built from, and its relayout
/// generations.
pub struct Plans<'s> {
    spec: &'s Spec,
    pub cache: PlanCache,
    reg: SemanticRegistry,
    /// Index into `spec.rx_intents` of the plan the queues run.
    current: usize,
}

impl Plans<'_> {
    /// Open a plan-cache generation and compile the next relayout
    /// target: `churn_faults` alternates between its two intents, the
    /// other workloads re-flip onto the plan they run (a cache hit).
    pub fn next_target(&mut self) -> FlipTarget {
        self.cache.begin_generation();
        self.current = (self.current + 1) % self.spec.rx_intents.len();
        let intent = &self.spec.rx_intents[self.current];
        compile(&self.cache, self.spec, intent, &mut self.reg)
    }
}

/// Build every queue of `spec` from one fresh plan cache.
pub fn build(spec: &Spec, epoch: Instant) -> (Plans<'_>, Vec<Worker>) {
    let cache = PlanCache::default();
    let mut reg = spec.reg.clone();
    let workers = (0..QUEUES)
        .map(|q| {
            let plans = compile(&cache, spec, &spec.rx_intents[0], &mut reg);
            let (mut drv, txq) = attach(spec, nic(spec, q), plans);
            drv.set_queue_index(q as u16);
            Worker::new(drv, txq, spec.app, spec.max_frame, q, epoch)
        })
        .collect();
    let plans = Plans {
        spec,
        cache,
        reg,
        current: 0,
    };
    (plans, workers)
}

/// One round of work for one queue's thread.
pub enum Job<'a> {
    Closed {
        pool: &'a [ShardFrame],
        trace: bool,
        target: Option<FlipTarget>,
    },
    Open {
        pool: &'a [ShardFrame],
        idx: &'a [u64],
        ns_per_frame: f64,
        target: Option<FlipTarget>,
    },
}

/// What one queue measured in a round.
pub struct Done {
    pub c: Counters,
    pub flips: Vec<FlipSample>,
    /// Open loop: latency samples in completion order (ns).
    pub lat: Vec<u64>,
}

fn serve(w: &mut Worker, job: Job<'_>) -> Done {
    let mut lat = Vec::new();
    match job {
        Job::Closed {
            pool,
            trace: false,
            target,
        } => w.closed_round::<false, _>(pool, target.as_ref(), &mut Timed::<false>),
        Job::Closed {
            pool,
            trace: true,
            target,
        } => w.closed_round::<true, _>(pool, target.as_ref(), &mut Timed::<true>),
        Job::Open {
            pool,
            idx,
            ns_per_frame,
            target,
        } => {
            lat.reserve(pool.len());
            w.open_round(pool, idx, ns_per_frame, target.as_ref(), &mut lat);
        }
    }
    let done = Done {
        c: w.c,
        flips: std::mem::take(&mut w.flips),
        lat,
    };
    w.reset();
    done
}

/// One long-lived thread per queue, fed one job per round: no thread
/// start-up (fresh stacks, first-touch page faults) inside any round.
pub struct Crew<'a> {
    jobs: Vec<Sender<Job<'a>>>,
    done: Vec<Receiver<Done>>,
}

impl<'a> Crew<'a> {
    pub fn spawn<'scope>(s: &'scope Scope<'scope, 'a>, workers: &'a mut [Worker]) -> Crew<'a> {
        let (mut jobs, mut done) = (Vec::new(), Vec::new());
        for w in workers {
            let (job_tx, job_rx) = channel::<Job<'a>>();
            let (done_tx, done_rx) = channel();
            s.spawn(move || {
                for job in job_rx {
                    if done_tx.send(serve(w, job)).is_err() {
                        break;
                    }
                }
            });
            jobs.push(job_tx);
            done.push(done_rx);
        }
        Crew { jobs, done }
    }

    /// Run one job per queue at once and wait for all of them.
    pub fn run(&self, jobs: Vec<Job<'a>>) -> Vec<Done> {
        for (tx, job) in self.jobs.iter().zip(jobs) {
            tx.send(job).expect("queue thread is alive");
        }
        self.done
            .iter()
            .map(|rx| rx.recv().expect("queue thread panicked"))
            .collect()
    }
}

/// Seconds of one cold set-up: `PlanCache` `get_or_compile` and
/// `get_or_compile_tx`, `attach_shared` and `TxQueue::attach` for every
/// queue. The device models are built before the clock starts.
pub fn setup_once(spec: &Spec) -> f64 {
    let mut reg = spec.reg.clone();
    let nics: Vec<SimNic> = (0..QUEUES).map(|q| nic(spec, q)).collect();
    let t = Instant::now();
    let cache = PlanCache::default();
    let queues: Vec<_> = nics
        .into_iter()
        .map(|nic| {
            attach(
                spec,
                nic,
                compile(&cache, spec, &spec.rx_intents[0], &mut reg),
            )
        })
        .collect();
    let dt = t.elapsed().as_secs_f64();
    black_box((queues, cache));
    dt
}

/// Microseconds per set-up stage, one cold pass through the chain the
/// cache runs: contract front end, CFG extraction and path enumeration,
/// layout selection, plan validation/lowering/verification, TX compile,
/// and attaching every queue.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupSplit {
    pub frontend_us: f64,
    pub extract_us: f64,
    pub select_us: f64,
    pub lower_us: f64,
    pub tx_compile_us: f64,
    pub attach_us: f64,
}

pub fn setup_split_once(spec: &Spec) -> SetupSplit {
    let mut reg = spec.reg.clone();
    let model = &spec.model;
    let intent = &spec.rx_intents[0];
    let nics: Vec<SimNic> = (0..QUEUES).map(|q| nic(spec, q)).collect();
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    let t0 = Instant::now();
    let (checked, diags) = parse_and_check(&model.p4_source);
    assert!(!diags.has_errors(), "model contract checks");
    let t1 = Instant::now();
    let cfg = extract(&checked, &model.deparser, &mut reg).expect("CFG extracts");
    let paths = enumerate_paths(&cfg, DEFAULT_MAX_PATHS).expect("paths enumerate");
    let t2 = Instant::now();
    let iface = Compiler::default()
        .compile_paths(&paths, &model.name, intent, &reg)
        .expect("intent compiles");
    let t3 = Instant::now();
    let rx = Arc::new(CompiledRx::new(iface));
    assert!(rx.lowering_error().is_none(), "plan lowers and verifies");
    let t4 = Instant::now();
    let tx = compile_tx(
        &Selector::default(),
        &model.p4_source,
        model.desc_parser.as_deref().unwrap_or("DescParser"),
        &model.name,
        &spec.tx_intent,
        &mut reg,
    )
    .expect("TX intent compiles");
    let tx = Arc::new(CompiledTxPlan::new(tx, &reg));
    let t5 = Instant::now();
    let queues: Vec<_> = nics
        .into_iter()
        .map(|nic| {
            let plans = FlipTarget {
                rx: Arc::clone(&rx),
                tx: Arc::clone(&tx),
            };
            attach(spec, nic, plans)
        })
        .collect();
    let t6 = Instant::now();
    black_box(queues);
    SetupSplit {
        frontend_us: us(t0, t1),
        extract_us: us(t1, t2),
        select_us: us(t2, t3),
        lower_us: us(t3, t4),
        tx_compile_us: us(t4, t5),
        attach_us: us(t5, t6),
    }
}

/// The one-core-per-worker *model*: `ShardedEngine::run_sequential` on
/// the same pools, reported as its `aggregate_forward_mpps` (total
/// forwarded over the busiest isolated worker). Median over rounds run
/// until `deadline`.
pub fn model_mpps(spec: &Spec, deadline: Instant) -> f64 {
    let mut reg = spec.reg.clone();
    let app = spec.app;
    let forward: Arc<ForwardFn> = Arc::new(move |b, i, out| app.decide(b, i, out));
    let mut eng = ShardedEngine::new_uniform(
        &PlanCache::default(),
        &spec.model,
        &spec.rx_intents[0],
        &spec.tx_intent,
        &mut reg,
        QUEUES,
        RING,
        SteerPolicy::Rss,
        BATCH,
        spec.max_frame,
        forward,
    )
    .expect("engine builds");
    for (q, w) in eng.workers_mut().iter_mut().enumerate() {
        let drv = w.rx.driver_mut();
        drv.set_validation_mode(spec.mode);
        if let Some(f) = &spec.faults {
            drv.nic.set_faults(f[q]).expect("fault config is valid");
        }
    }
    eng.run_sequential(&spec.pools);
    let mut xs = Vec::new();
    while xs.is_empty() || Instant::now() < deadline {
        xs.push(eng.run_sequential(&spec.pools).aggregate_forward_mpps());
    }
    median(&xs)
}
