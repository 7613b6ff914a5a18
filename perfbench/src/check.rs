//! The untimed check pass: every workload runs once, single-threaded
//! from fresh state, through the same worker loop as the timed phases,
//! and every packet is checked.
//!
//! * RX metadata: each value must equal the SoftNIC reference computed
//!   over the frame (masked to the slot width for hardware fields), or
//!   be absent — under device faults the contract is correct-or-absent.
//! * Frames: what the host polls must be the offered frames, in order,
//!   minus frames the device lost.
//! * Wire: what the device emits must be exactly what the verdict asked
//!   for (forwarded frame or GET reply, checksums filled).
//! * Losses must be accounted for by the device's own fault counters
//!   (hang-swallowed frames) or by the host discarding stale-generation
//!   completions; anything beyond that is a program failure.
//! * A closing round with the device's faults switched off must bring
//!   every frame to the wire: faults may cost frames while they last,
//!   never the queue.
//!
//! Everything counted here is a pure function of the seed.

use crate::harness::build;
use crate::worker::{Hooks, Worker};
use crate::workload::Spec;
use opendesc_core::{AccessorKind, MetricRegistry, TxVerdict};
use opendesc_ir::bits::width_mask;
use opendesc_nicsim::FaultConfig;
use opendesc_softnic::SoftNic;
use std::time::Instant;

/// How far ahead of the last matched frame a polled frame is searched
/// for among the offered ones.
const MATCH_WINDOW: usize = 4096;

#[derive(Debug, Default, Clone, Copy)]
pub struct CheckReport {
    /// Frames offered to the device.
    pub offered: u64,
    /// Offered frames that never reached the wire.
    pub lost: u64,
    /// Losses neither the device's fault counters nor the host's stale
    /// discards account for.
    pub unaccounted: u64,
    /// Polled frames that match no offered frame in order.
    pub unmatched: u64,
    /// Frames lost in the closing round, whose device has no faults.
    pub unhealed: u64,
    /// Packets carrying at least one wrong metadata value.
    pub wrong_pkts: u64,
    /// Metadata values absent where the reference has one.
    pub absent_fields: u64,
    /// Wire frames that differ from what the verdict asked for, plus
    /// missing or surplus wire frames.
    pub wire_mismatch: u64,
    /// Frames `TxBatch::push` refused.
    pub push_rejects: u64,
    pub rx_pkts: u64,
    pub cmpt_bytes: u64,
    pub fields_hw: u64,
    pub fields_sw: u64,
    pub shim_ops: u64,
    pub repaired_fields: u64,
    pub degraded_pkts: u64,
    pub structural_failures: u64,
    pub discarded: u64,
    pub watchdog_resets: u64,
    pub deferred: u64,
    pub faults_injected: u64,
    pub tx_frames: u64,
    pub doorbells: u64,
    pub sw_fixups: u64,
    pub stalls: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_live: u64,
}

impl CheckReport {
    /// Program failures: wrong values, frames out of nowhere, wrong wire
    /// bytes, losses nothing accounts for, and losses once the device is
    /// honest again.
    pub fn failed(&self) -> u64 {
        self.wrong_pkts
            + self.unmatched
            + self.unhealed
            + self.wire_mismatch
            + self.unaccounted
            + self.push_rejects
    }

    /// Offered packets that never reach the wire or carry a wrong value.
    pub fn failed_ratio(&self) -> f64 {
        (self.lost + self.wrong_pkts) as f64 / self.offered as f64
    }
}

/// Per-queue checker state.
struct Checker<'a> {
    spec: &'a Spec,
    q: usize,
    soft: SoftNic,
    /// Cursor into the offered sequence (the pool, once per round).
    cursor: usize,
    offered: usize,
    matched: u64,
    expected_wire: Vec<Vec<u8>>,
    r: CheckReport,
}

impl Hooks for Checker<'_> {
    fn after_step(&mut self, w: &Worker, n: usize) {
        let spec = self.spec;
        let pool = &spec.pools[self.q];
        let iface = std::sync::Arc::clone(&w.drv.iface);
        let (accessors, reg) = (&iface.accessors.accessors, &iface.reg);
        for i in 0..n {
            let frame = w.batch.frame(i);
            self.r.cmpt_bytes += w.batch.cmpt(i).len() as u64;
            let end = self.offered.min(self.cursor + MATCH_WINDOW);
            match (self.cursor..end).find(|&k| pool[k % pool.len()].bytes == frame) {
                Some(k) => {
                    self.cursor = k + 1;
                    self.matched += 1;
                }
                None => self.r.unmatched += 1,
            }
            let mut wrong = false;
            for (f, acc) in accessors.iter().enumerate() {
                let Some(r) = self.soft.compute_by_name(reg.name(acc.semantic), frame) else {
                    continue;
                };
                let want = match acc.kind {
                    AccessorKind::Hardware => r as u128 & width_mask(acc.width_bits),
                    AccessorKind::Software => r as u128,
                };
                match w.batch.value_at(f, i) {
                    Some(v) if v == want => {}
                    None => self.r.absent_fields += 1,
                    Some(_) => wrong = true,
                }
            }
            self.r.wrong_pkts += wrong as u64;
            if !matches!(w.verdicts[i], TxVerdict::Drop) {
                self.expected_wire.push(spec.app.expected_wire(frame));
            }
        }
    }

    fn drain_tx(&mut self, w: &mut Worker) {
        let wire = w.drv.nic.process_tx();
        w.c.wire += wire.len() as u64;
        let same = wire
            .iter()
            .zip(&self.expected_wire)
            .filter(|(a, b)| a == b)
            .count();
        self.r.wire_mismatch += (wire.len().max(self.expected_wire.len()) - same) as u64;
        self.expected_wire.clear();
    }
}

impl Checker<'_> {
    /// Fold the queue's own counters in once the pass is over.
    fn finish(mut self, w: &Worker) -> CheckReport {
        let d = &w.drv;
        let v = d.validation_stats();
        let nic = &d.nic.stats;
        self.r.offered = self.offered as u64;
        self.r.lost = self.offered as u64 - w.c.wire.min(self.offered as u64);
        let accounted = nic.hang_dropped + nic.dropped_faults + v.stale;
        self.r.unaccounted = (self.offered as u64 - self.matched).saturating_sub(accounted);
        self.r.rx_pkts = w.c.rx_pkts;
        self.r.push_rejects = w.c.push_rejects;
        self.r.repaired_fields = v.repaired_fields;
        self.r.degraded_pkts = v.degraded_packets;
        self.r.structural_failures = v.structural_failures;
        self.r.discarded = v.duplicates + v.stale;
        self.r.watchdog_resets = d.watchdog_resets();
        self.r.deferred = d.relayout_counters().deferred;
        self.r.faults_injected = nic.injected_faults();
        let t = &w.txq.stats;
        self.r.tx_frames = t.frames;
        self.r.doorbells = t.doorbells;
        self.r.sw_fixups = t.sw_fixups;
        self.r.stalls = t.stalls;
        let mut reg = MetricRegistry::default();
        d.register_metrics(&mut reg, "rx");
        let snap = reg.snapshot();
        self.r.fields_hw = snap.counter("rx.fields_hw");
        self.r.fields_sw = snap.counter("rx.fields_sw");
        self.r.shim_ops = snap.counter("rx.softnic.shim_ops");
        self.r
    }
}

fn add(a: &mut CheckReport, b: &CheckReport) {
    macro_rules! sum {
        ($($f:ident),*) => { $( a.$f += b.$f; )* };
    }
    sum!(
        offered,
        lost,
        unaccounted,
        unmatched,
        unhealed,
        wrong_pkts,
        absent_fields,
        wire_mismatch,
        push_rejects,
        rx_pkts,
        cmpt_bytes,
        fields_hw,
        fields_sw,
        shim_ops,
        repaired_fields,
        degraded_pkts,
        structural_failures,
        discarded,
        watchdog_resets,
        deferred,
        faults_injected,
        tx_frames,
        doorbells,
        sw_fixups,
        stalls
    );
}

/// Rounds of the check pass before the closing fault-free one. Every
/// round after the first starts with a relayout (every round, for
/// `churn_faults`), so the flip path is checked on every workload.
const ROUNDS: usize = 4;

pub fn run(spec: &Spec) -> CheckReport {
    let (mut plans, mut workers) = build(spec, Instant::now());
    for w in &mut workers {
        w.drv.set_telemetry_enabled(true);
    }
    let mut checkers: Vec<Checker> = (0..workers.len())
        .map(|q| Checker {
            spec,
            q,
            soft: SoftNic::new(),
            cursor: 0,
            offered: 0,
            matched: 0,
            expected_wire: Vec::new(),
            r: CheckReport::default(),
        })
        .collect();
    for round in 0..ROUNDS {
        let target = (spec.churn || round > 0).then(|| plans.next_target());
        for (w, c) in workers.iter_mut().zip(&mut checkers) {
            c.offered += spec.pools[c.q].len();
            w.closed_round::<false, _>(&spec.pools[c.q], target.as_ref(), c);
        }
        drop(target);
        plans.cache.evict_superseded();
    }
    // With the device's faults switched off, one more round must bring
    // every frame to the wire: a queue the fault rounds left wedged, or
    // still shedding frames, shows here.
    for (w, c) in workers.iter_mut().zip(&mut checkers) {
        w.drv
            .nic
            .set_faults(FaultConfig::default())
            .expect("an empty fault config is valid");
        let (pool, matched) = (&spec.pools[c.q], c.matched);
        c.offered += pool.len();
        w.closed_round::<false, _>(pool, None, c);
        c.r.unhealed = pool.len() as u64 - (c.matched - matched);
    }
    let mut total = CheckReport::default();
    for (w, c) in workers.iter().zip(checkers) {
        add(&mut total, &c.finish(w));
    }
    let (rx_hits, rx_misses) = plans.cache.stats();
    let (tx_hits, tx_misses) = plans.cache.tx_stats();
    total.cache_hits = rx_hits + tx_hits;
    total.cache_misses = rx_misses + tx_misses;
    total.cache_live = plans.cache.len() as u64;
    total
}
