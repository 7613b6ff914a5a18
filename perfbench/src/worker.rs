//! One queue's worker: the host datapath chain over the public
//! per-queue API, with a *host clock* that advances only while host code
//! runs.
//!
//! Per iteration the worker calls `OpenDescDriver::poll_batch_into`,
//! the benchmark's verdict, `TxBatch::push` and `TxQueue::submit`. The
//! device model (`deliver_steered` feeding the RX ring,
//! `SimNic::process_tx_drain` consuming TX descriptors) stands in for
//! NIC silicon and runs between *host segments*, off the clock. A host
//! segment is a stretch of host calls timed by [`HostClock`]; only
//! segments advance the host clock.

use crate::clock::{cpu_now, HostClock};
use crate::workload::{App, BATCH, RING};
use opendesc_core::{
    CompiledRx, CompiledTxPlan, FlipProgress, OpenDescDriver, RxBatch, TxBatch, TxQueue, TxVerdict,
    FLIP_POLL_BUDGET,
};
use opendesc_nicsim::pktgen::ShardFrame;
use opendesc_softnic::wire::ParsedFrame;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames the closed loop delivers before each host segment: sixteen
/// polls' worth, so the clock reads around a segment are a small share
/// of it.
const SEGMENT: usize = 16 * BATCH;

/// Empty polls a round may spend after its last delivery waiting for
/// the watchdog to republish or write off hidden completions.
const TAIL_POLLS: u32 = 512;

/// What a traced run records spans for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// A host segment: the unit the host clock advances by.
    Segment,
    /// One worker iteration inside a segment; parent of the four below.
    Iter,
    /// `OpenDescDriver::poll_batch_into`.
    Poll,
    /// The benchmark's verdict over the drained batch.
    Verdict,
    /// `TxBatch::push` of every surviving packet.
    Push,
    /// `TxQueue::submit` (doorbell included).
    Submit,
    /// One relayout call: `request_relayout`, `advance_relayout` or
    /// `force_relayout`, plus the commit edge's `TxQueue::set_plan`.
    Flip,
    /// Device model feeding the RX ring (off the host clock).
    DevRx,
    /// Device model consuming TX descriptors (off the host clock).
    DevTx,
}

impl SpanName {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Segment => "host.segment",
            SpanName::Iter => "iter",
            SpanName::Poll => "datapath.poll_batch_into",
            SpanName::Verdict => "app.verdict",
            SpanName::Push => "tx.push",
            SpanName::Submit => "tx.submit",
            SpanName::Flip => "evolve.flip",
            SpanName::DevRx => "nicsim.deliver_steered",
            SpanName::DevTx => "nicsim.process_tx_drain",
        }
    }
}

/// One recorded span; times are wall-clock nanoseconds since the run's
/// epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: SpanName,
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept per worker: bounds memory; later spans still count in the
/// sums.
const SPAN_CAP: usize = 60_000;

/// In-memory span store of one worker, written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    /// Ids are `worker_tag | sequence` so two workers never collide.
    next_id: u32,
    /// The segment spans opened now are children of.
    segment: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new(epoch: Instant, worker: usize) -> Tracer {
        Tracer {
            epoch,
            next_id: ((worker as u32) << 28) | 1,
            segment: 0,
            spans: Vec::with_capacity(SPAN_CAP),
        }
    }

    fn id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id - 1
    }

    fn record(&mut self, name: SpanName, id: u32, parent: u32, start: Instant, end: Instant) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name,
                id,
                parent,
                start_ns: ns(start - self.epoch),
                end_ns: ns(end - self.epoch),
            });
        }
    }
}

/// Per-worker counters of one measurement window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// The host clock: time spent in host segments.
    pub host_ns: u64,
    pub rx_pkts: u64,
    /// Frames handed to `TxQueue::submit`.
    pub forwarded: u64,
    pub polls: u64,
    pub empty_polls: u64,
    /// Frames the device emitted.
    pub wire: u64,
    /// Frames `TxBatch::push` refused (larger than the arena slot).
    pub push_rejects: u64,
    /// Traced windows only: wall time of the segments and of each span
    /// kind inside them.
    pub seg_wall_ns: u64,
    pub poll_ns: u64,
    pub verdict_ns: u64,
    pub push_ns: u64,
    pub submit_ns: u64,
    pub flip_ns: u64,
    /// Traced windows only: device-model CPU time and frames, off the
    /// host clock.
    pub dev_rx_ns: u64,
    pub dev_rx_frames: u64,
    pub dev_tx_ns: u64,
    pub dev_tx_frames: u64,
    /// Open loop: most frames due but not yet polled at any poll.
    pub backlog_max: u64,
}

impl Counters {
    /// Fold another window's counters into this one.
    pub fn add(&mut self, o: &Counters) {
        macro_rules! sum {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        sum!(
            host_ns,
            rx_pkts,
            forwarded,
            polls,
            empty_polls,
            wire,
            push_rejects,
            seg_wall_ns,
            poll_ns,
            verdict_ns,
            push_ns,
            submit_ns,
            flip_ns,
            dev_rx_ns,
            dev_rx_frames,
            dev_tx_ns,
            dev_tx_frames
        );
        self.backlog_max = self.backlog_max.max(o.backlog_max);
    }
}

/// What runs between host segments. The timed phases only let the
/// device consume the TX ring; the check pass also inspects every
/// drained batch and every emitted frame.
pub trait Hooks {
    /// After each poll, inside the segment, before the batch is reused.
    fn after_step(&mut self, _w: &Worker, _n: usize) {}
    /// The device consumes the TX ring (off the clock).
    fn drain_tx(&mut self, w: &mut Worker);
}

/// The timed phases' hooks.
pub struct Timed<const TRACE: bool>;

impl<const TRACE: bool> Hooks for Timed<TRACE> {
    fn drain_tx(&mut self, w: &mut Worker) {
        w.device_tx::<TRACE>();
    }
}

/// A compiled RX/TX plan pair: what a queue attaches with, and the
/// relayout target handed to every queue at a round boundary.
#[derive(Clone)]
pub struct FlipTarget {
    pub rx: Arc<CompiledRx>,
    pub tx: Arc<CompiledTxPlan>,
}

/// One committed flip as the host clock saw it.
#[derive(Debug, Clone, Copy)]
pub struct FlipSample {
    /// Host time from the request (or the promotion of a parked
    /// request) to the commit, drain polls included.
    pub pause_ns: u64,
    /// Host time inside the relayout calls alone.
    pub call_ns: u64,
    /// Drain polls between request and commit.
    pub polls: u32,
}

enum Flip {
    Idle,
    /// Requested while the queue was `Degraded`: the queue keeps serving
    /// traffic on the old plan until health recovers.
    Parked,
    Draining {
        start: u64,
        polls: u32,
        call_ns: u64,
    },
}

pub struct Worker {
    pub drv: OpenDescDriver,
    pub txq: TxQueue,
    pub batch: RxBatch,
    txb: TxBatch,
    /// Verdict per packet of the current batch.
    pub verdicts: Vec<TxVerdict>,
    /// Rewrite scratch per packet of the current batch.
    replies: Vec<Vec<u8>>,
    app: App,
    flip: Flip,
    pending_tx: Option<Arc<CompiledTxPlan>>,
    pub flips: Vec<FlipSample>,
    pub c: Counters,
    pub tr: Tracer,
    clk: HostClock,
    /// Open loop: pool indices delivered and not yet matched to a poll.
    fifo: VecDeque<usize>,
}

fn lap<const TRACE: bool>(prev: Instant) -> Instant {
    if TRACE {
        Instant::now()
    } else {
        prev
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

impl Worker {
    pub fn new(
        drv: OpenDescDriver,
        txq: TxQueue,
        app: App,
        max_frame: usize,
        q: usize,
        epoch: Instant,
    ) -> Worker {
        let batch = drv.make_batch(BATCH);
        Worker {
            drv,
            txq,
            batch,
            txb: TxBatch::new(BATCH, max_frame),
            verdicts: vec![TxVerdict::Drop; BATCH],
            replies: (0..BATCH).map(|_| Vec::with_capacity(max_frame)).collect(),
            app,
            flip: Flip::Idle,
            pending_tx: None,
            flips: Vec::new(),
            c: Counters::default(),
            tr: Tracer::new(epoch, q),
            clk: HostClock::calibrate(),
            fifo: VecDeque::with_capacity(RING),
        }
    }

    /// Start a fresh measurement window (flip samples included).
    pub fn reset(&mut self) {
        self.c = Counters::default();
        self.flips.clear();
    }

    fn draining(&self) -> bool {
        matches!(self.flip, Flip::Draining { .. })
    }

    /// Run `f` as one host segment: the host clock advances by the time
    /// it took ([`HostClock::stop`]). Traced, the segment is also a
    /// wall-clock span that parents what `f` records.
    fn seg<const TRACE: bool, R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let m = self.clk.start();
        let id = if TRACE {
            self.tr.segment = self.tr.id();
            self.tr.segment
        } else {
            0
        };
        let r = f(self);
        let (host, end) = self.clk.stop(&m);
        self.c.host_ns += host;
        if TRACE {
            self.c.seg_wall_ns += ns(end - m.wall);
            self.tr.record(SpanName::Segment, id, 0, m.wall, end);
        }
        r
    }

    /// Device model: deliver up to `count` frames of `pool` from `next`
    /// (off the clock); returns the new cursor.
    fn deliver_n<const TRACE: bool>(
        &mut self,
        pool: &[ShardFrame],
        next: usize,
        count: usize,
    ) -> usize {
        let end = (next + count).min(pool.len());
        let (s, w0) = (cpu_now(), Instant::now());
        for sf in &pool[next..end] {
            self.deliver(sf);
        }
        if TRACE {
            self.c.dev_rx_ns += cpu_now() - s;
            self.c.dev_rx_frames += (end - next) as u64;
            let id = self.tr.id();
            self.tr.record(SpanName::DevRx, id, 0, w0, Instant::now());
        }
        end
    }

    fn deliver(&mut self, sf: &ShardFrame) {
        let parsed = ParsedFrame::parse(&sf.bytes);
        self.drv
            .deliver_steered(&sf.bytes, parsed.as_ref(), sf.rss)
            .expect("steered delivery into a configured queue");
    }

    /// Device model: consume every posted TX descriptor (off the clock).
    pub fn device_tx<const TRACE: bool>(&mut self) {
        let (s, w0) = (cpu_now(), Instant::now());
        let n = self.drv.nic.process_tx_drain();
        self.c.wire += n;
        if TRACE {
            self.c.dev_tx_ns += cpu_now() - s;
            self.c.dev_tx_frames += n;
            let id = self.tr.id();
            self.tr.record(SpanName::DevTx, id, 0, w0, Instant::now());
        }
    }

    /// One host iteration: poll → verdict → push → submit. Returns the
    /// packets polled. Traced, each call gets a span under one iteration
    /// span, all four sharing their boundary clock reads.
    pub fn step<const TRACE: bool>(&mut self) -> usize {
        let t0 = Instant::now();
        let n = self.drv.poll_batch_into(&mut self.batch);
        let t1 = lap::<TRACE>(t0);
        for i in 0..n {
            self.verdicts[i] = self.app.decide(&self.batch, i, &mut self.replies[i]);
        }
        let t2 = lap::<TRACE>(t1);
        self.txb.clear();
        for i in 0..n {
            let ok = match self.verdicts[i] {
                TxVerdict::Drop => continue,
                TxVerdict::Forward(req) => self.txb.push(self.batch.frame(i), req),
                TxVerdict::Rewrite(req) => self.txb.push(&self.replies[i], req),
            };
            if !ok {
                self.c.push_rejects += 1;
            }
        }
        let t3 = lap::<TRACE>(t2);
        // The TX ring holds a whole segment, so submit places every
        // frame; a short placement would be counted in `tx.stalls` and
        // the rest dropped here rather than drained on the clock.
        self.txq
            .submit(&mut self.drv.nic, &mut self.txb)
            .expect("descriptor fits the ring slot");
        self.c.polls += 1;
        self.c.empty_polls += (n == 0) as u64;
        self.c.rx_pkts += n as u64;
        self.c.forwarded += self.txb.len() as u64;
        if TRACE {
            let t4 = Instant::now();
            self.c.poll_ns += ns(t1 - t0);
            self.c.verdict_ns += ns(t2 - t1);
            self.c.push_ns += ns(t3 - t2);
            self.c.submit_ns += ns(t4 - t3);
            let (seg, id) = (self.tr.segment, self.tr.id());
            self.tr.record(SpanName::Iter, id, seg, t0, t4);
            for (name, a, b) in [
                (SpanName::Poll, t0, t1),
                (SpanName::Verdict, t1, t2),
                (SpanName::Push, t2, t3),
                (SpanName::Submit, t3, t4),
            ] {
                let child = self.tr.id();
                self.tr.record(name, child, id, a, b);
            }
        }
        n
    }

    /// Host segment of polls: one, or (`until_drained`) as many as it
    /// takes to drain what the device delivered.
    fn host_steps<const TRACE: bool, H: Hooks>(&mut self, hooks: &mut H, until_drained: bool) {
        self.seg::<TRACE, _>(|w| loop {
            let n = w.step::<TRACE>();
            hooks.after_step(w, n);
            if !until_drained || n == 0 || w.drv.in_flight() == 0 {
                break;
            }
        });
    }

    /// One relayout call as its own host segment; returns the driver's
    /// answer and the host time it took.
    fn flip_call<const TRACE: bool>(
        &mut self,
        f: impl FnOnce(&mut Self) -> FlipProgress,
    ) -> (FlipProgress, u64) {
        let before = self.c.host_ns;
        let prog = self.seg::<TRACE, _>(|w| {
            let t = Instant::now();
            let p = f(w);
            if TRACE {
                let e = Instant::now();
                w.c.flip_ns += ns(e - t);
                let (seg, id) = (w.tr.segment, w.tr.id());
                w.tr.record(SpanName::Flip, id, seg, t, e);
            }
            p
        });
        (prog, self.c.host_ns - before)
    }

    /// Ask the queue to flip onto `t` (the driver parks the request
    /// while the queue is `Degraded`).
    pub fn request_flip<const TRACE: bool>(&mut self, t: &FlipTarget) {
        let before = self.c.host_ns;
        let (prog, dt) = self.flip_call::<TRACE>(|w| {
            w.pending_tx = Some(Arc::clone(&t.tx));
            w.drv.request_relayout(Arc::clone(&t.rx))
        });
        self.flip = match prog {
            FlipProgress::Draining => Flip::Draining {
                start: before,
                polls: 0,
                call_ns: dt,
            },
            _ => Flip::Parked,
        };
    }

    /// Drive a pending flip after a poll: promote a parked request,
    /// commit a drained queue, or force the commit once the drain budget
    /// is spent. On commit the TX queue swaps plans (its ring is empty:
    /// the device consumed every descriptor after the last poll) and the
    /// batch storage is rebuilt for the new plan's shape.
    pub fn advance_flip<const TRACE: bool>(&mut self) {
        let (start, polls, call) = match self.flip {
            Flip::Idle => return,
            Flip::Parked => (None, 0, 0),
            Flip::Draining {
                start,
                polls,
                call_ns,
            } => (Some(start), polls + 1, call_ns),
        };
        let force = start.is_some() && polls >= FLIP_POLL_BUDGET;
        let before = self.c.host_ns;
        let (prog, dt) = self.flip_call::<TRACE>(|w| {
            let p = if force {
                w.drv.force_relayout(polls as u64)
            } else {
                w.drv.advance_relayout(polls as u64)
            };
            if matches!(p, FlipProgress::Committed(_)) {
                if let Some(tx) = w.pending_tx.take() {
                    w.txq.set_plan(&mut w.drv.nic, tx);
                }
                w.batch = w.drv.make_batch(BATCH);
            }
            p
        });
        let start = start.unwrap_or(before);
        self.flip = match prog {
            FlipProgress::Committed(_) => {
                self.flips.push(FlipSample {
                    pause_ns: self.c.host_ns - start,
                    call_ns: call + dt,
                    polls,
                });
                Flip::Idle
            }
            FlipProgress::Draining => Flip::Draining {
                start,
                polls,
                call_ns: call + dt,
            },
            FlipProgress::Deferred => Flip::Parked,
            FlipProgress::Idle => {
                // The device refused the new context; the old plan stays.
                self.pending_tx = None;
                Flip::Idle
            }
        };
    }

    /// Closed loop over `pool`: the device delivers a segment's worth of
    /// frames, the host drains them in one segment, the device consumes
    /// the TX ring; once the pool is spent, bounded empty polls let the
    /// watchdog settle hidden completions. A round with a `flip` delivers
    /// one batch and requests the relayout first; while the flip drains,
    /// nothing more is delivered and every poll is its own segment.
    pub fn closed_round<const TRACE: bool, H: Hooks>(
        &mut self,
        pool: &[ShardFrame],
        flip: Option<&FlipTarget>,
        hooks: &mut H,
    ) {
        let mut next = 0;
        if let Some(t) = flip {
            next = self.deliver_n::<TRACE>(pool, 0, BATCH);
            self.request_flip::<TRACE>(t);
        }
        let mut tail = 0;
        loop {
            if self.draining() {
                self.host_steps::<TRACE, H>(hooks, false);
                hooks.drain_tx(self);
                self.advance_flip::<TRACE>();
                continue;
            }
            if next < pool.len() {
                next = self.deliver_n::<TRACE>(pool, next, SEGMENT);
                self.host_steps::<TRACE, H>(hooks, true);
            } else if self.drv.in_flight() > 0 && tail < TAIL_POLLS {
                tail += 1;
                self.host_steps::<TRACE, H>(hooks, false);
            } else {
                break;
            }
            hooks.drain_tx(self);
            if matches!(self.flip, Flip::Parked) {
                self.advance_flip::<TRACE>();
            }
        }
    }

    /// Open loop over `pool` at a fixed offered rate, from an idle queue
    /// and a fresh host clock: frame `k` falls due on the host clock at
    /// `idx[k] * ns_per_frame`. Before each
    /// poll the device delivers every frame due by now (capped at half
    /// the ring; the rest wait in the generator, late); with nothing in
    /// flight the clock jumps to the next due frame. Every poll is one
    /// host segment. A packet's latency runs from its due time to the
    /// return of the `submit` that posted it, and is pushed to `lat` in
    /// nanoseconds.
    pub fn open_round(
        &mut self,
        pool: &[ShardFrame],
        idx: &[u64],
        ns_per_frame: f64,
        flip: Option<&FlipTarget>,
        lat: &mut Vec<u64>,
    ) {
        let due = |i: u64| (i as f64 * ns_per_frame) as u64;
        self.fifo.clear();
        let mut next = 0;
        let mut flip = flip;
        loop {
            if !self.draining() {
                let now = self.c.host_ns;
                while next < pool.len()
                    && due(idx[next]) <= now
                    && (self.drv.in_flight() as usize) < RING / 2
                {
                    self.deliver(&pool[next]);
                    self.fifo.push_back(next);
                    next += 1;
                }
                if let Some(t) = flip.take() {
                    self.request_flip::<false>(t);
                    continue;
                }
                let late = idx[next..].partition_point(|&i| due(i) <= now) as u64;
                self.c.backlog_max = self.c.backlog_max.max(self.drv.in_flight() + late);
                if self.drv.in_flight() == 0 {
                    if next >= pool.len() {
                        break;
                    }
                    self.c.host_ns = self.c.host_ns.max(due(idx[next]));
                    continue;
                }
            }
            let n = self.seg::<false, _>(|w| w.step::<false>());
            let now = self.c.host_ns;
            for i in 0..n {
                let frame = self.batch.frame(i);
                // Frames the device lost are skipped; a received frame
                // always matches the oldest delivered one still waiting.
                while let Some(k) = self.fifo.pop_front() {
                    if pool[k].bytes == frame {
                        lat.push(now.saturating_sub(due(idx[k])));
                        break;
                    }
                }
            }
            // The device consumes the TX ring lazily, half a ring at a
            // time, so device work between polls is mostly the RX
            // delivery a packet's latency depends on. A pending flip
            // needs the ring empty before its commit swaps TX plans.
            let flipping = !matches!(self.flip, Flip::Idle);
            if flipping || self.txq.in_flight(&self.drv.nic) as usize >= RING / 2 {
                self.device_tx::<false>();
            }
            if flipping {
                self.advance_flip::<false>();
            }
        }
        self.device_tx::<false>();
    }
}
