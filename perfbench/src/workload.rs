//! The three workloads: which NIC model, which RX/TX intents, which
//! traffic, which application verdict, and which device faults. Each is
//! built from the command's `--seed` alone.

use opendesc_core::{Intent, RxBatch, TxRequest, TxVerdict, ValidationMode};
use opendesc_ir::{names, SemanticId, SemanticRegistry};
use opendesc_nicsim::pktgen::{PktGen, ShardFrame, Workload};
use opendesc_nicsim::{models, FaultConfig, NicModel, SteerPolicy, Steerer};
use opendesc_softnic::fixup::{fill_ipv4_checksum, fill_l4_checksum};

/// Queues, one worker thread each (never more threads than the two
/// cores the benchmark is sized for).
pub const QUEUES: usize = 2;
/// RX poll budget and TX batch size per worker.
pub const BATCH: usize = 32;
/// RX completion ring and TX descriptor ring per queue. Large enough
/// that the open loop's backlog cap (half the ring) is never the device
/// dropping frames.
pub const RING: usize = 1024;

/// Which benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fwd64,
    KvsGet,
    ChurnFaults,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "fwd64" => Some(Kind::Fwd64),
            "kvs_get" => Some(Kind::KvsGet),
            "churn_faults" => Some(Kind::ChurnFaults),
            _ => None,
        }
    }
}

/// The benchmark's application: decides, per received packet, what goes
/// back out. Benchmark code, timed under its own span so its cost is
/// never blamed on the program.
#[derive(Debug, Clone, Copy)]
pub enum App {
    /// Forward the frame unchanged with the IPv4 checksum offloaded.
    Forward,
    /// Answer a memcached-style GET: swap addresses and ports, leave
    /// both checksums to the TX path. Packets without a key hash drop.
    KvsReply { key_hash: SemanticId },
}

impl App {
    /// The verdict; same signature as the engine's `ForwardFn`, so the
    /// modeled engine run uses exactly this code.
    pub fn decide(&self, b: &RxBatch, i: usize, out: &mut Vec<u8>) -> TxVerdict {
        match self {
            App::Forward => TxVerdict::Forward(TxRequest {
                ip_csum: true,
                ..TxRequest::default()
            }),
            App::KvsReply { key_hash } => {
                if b.get(i, *key_hash).is_none() {
                    return TxVerdict::Drop;
                }
                build_response(b.frame(i), out);
                TxVerdict::Rewrite(TxRequest {
                    ip_csum: true,
                    l4_csum: true,
                    vlan: None,
                })
            }
        }
    }

    /// The wire frame a correct program emits for a received `frame` the
    /// verdict did not drop — the check pass's reference.
    pub fn expected_wire(&self, frame: &[u8]) -> Vec<u8> {
        match self {
            App::Forward => {
                let mut f = frame.to_vec();
                fill_ipv4_checksum(&mut f);
                f
            }
            App::KvsReply { .. } => {
                let mut f = Vec::new();
                build_response(frame, &mut f);
                fill_ipv4_checksum(&mut f);
                fill_l4_checksum(&mut f);
                f
            }
        }
    }
}

/// Turn an untagged UDP GET request into its response in `out`: swap
/// MACs, IPs and UDP ports, zero both checksums for the TX path to fill.
fn build_response(req: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(req);
    for i in 0..6 {
        out.swap(i, 6 + i);
    }
    for i in 0..4 {
        out.swap(26 + i, 30 + i);
    }
    out.swap(34, 36);
    out.swap(35, 37);
    out[24] = 0;
    out[25] = 0;
    out[40] = 0;
    out[41] = 0;
}

/// Everything one workload needs, built from the seed.
pub struct Spec {
    pub name: &'static str,
    pub model: NicModel,
    pub reg: SemanticRegistry,
    /// RX intents the queues run; `churn_faults` alternates between the
    /// two on every relayout, the others re-flip onto the first.
    pub rx_intents: Vec<Intent>,
    pub tx_intent: Intent,
    pub app: App,
    pub mode: ValidationMode,
    /// Per-queue device faults (`None`: an honest device).
    pub faults: Option<[FaultConfig; QUEUES]>,
    /// Per-queue frame pools and each frame's index in the global stream
    /// (the open loop's due time is `index / rate`).
    pub pools: Vec<Vec<ShardFrame>>,
    pub stream_idx: Vec<Vec<u64>>,
    /// Largest frame the TX arenas take.
    pub max_frame: usize,
    /// Offered load of the open loop, aggregate packets per second on
    /// the host clock: about 35% of the workload's `mpps` at seed 1, where
    /// the open loop's backlog stays bounded (see `README.md`).
    pub rate_pps: f64,
    /// Whether every closed-loop round starts with a live relayout.
    pub churn: bool,
}

fn intent(reg: &mut SemanticRegistry, name: &str, sems: &[&str]) -> Intent {
    sems.iter()
        .fold(Intent::builder(name), |b, s| b.want(reg, s))
        .build()
}

/// SplitMix64 step: independent per-queue fault seeds from one seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Device faults of `churn_faults`: every metadata-fault class the
/// issue names at the same small rate, about 1% of frames in total.
fn faults(seed: u64, q: usize) -> FaultConfig {
    const P: f64 = 0.002;
    FaultConfig::builder()
        .torn_chance(P)
        .truncate_chance(P)
        .duplicate_chance(P)
        .stale_gen_chance(P)
        .doorbell_loss_chance(P)
        .hang(P / 3.0, 2)
        .seed(mix(seed ^ ((q as u64 + 1) << 32)))
        .build()
        .expect("fault rates are probabilities")
}

/// Generate `total` frames and steer them across the queues the way the
/// device's RSS stage does, keeping each frame's stream index.
fn pools(wl: Workload, total: usize) -> (Vec<Vec<ShardFrame>>, Vec<Vec<u64>>) {
    let steerer = Steerer::new(SteerPolicy::Rss, QUEUES);
    let mut gen = PktGen::new(wl);
    let mut pools: Vec<Vec<ShardFrame>> = vec![Vec::new(); QUEUES];
    let mut idx: Vec<Vec<u64>> = vec![Vec::new(); QUEUES];
    for i in 0..total as u64 {
        let bytes = gen.next_frame();
        let (q, rss) = {
            let v = steerer.steer(i, &bytes);
            (v.queue, v.rss)
        };
        pools[q].push(ShardFrame { bytes, rss });
        idx[q].push(i);
    }
    (pools, idx)
}

impl Spec {
    pub fn build(kind: Kind, seed: u64) -> Spec {
        let mut reg = SemanticRegistry::with_builtins();
        let fwd_rx = intent(&mut reg, "fwd64-rx", &[names::RSS_HASH, names::PKT_LEN]);
        let fig1_rx = intent(
            &mut reg,
            "fig1-rx",
            &[
                names::IP_CHECKSUM,
                names::VLAN_TCI,
                names::RSS_HASH,
                names::KVS_KEY_HASH,
            ],
        );
        let fwd_tx = intent(&mut reg, "fwd-tx", &[names::TX_IP_CSUM]);
        match kind {
            Kind::Fwd64 => {
                let (pools, stream_idx) = pools(
                    Workload {
                        seed,
                        ..Workload::min_size(1024)
                    },
                    32_768,
                );
                Spec {
                    name: "fwd64",
                    model: models::e1000e(),
                    reg,
                    rx_intents: vec![fwd_rx],
                    tx_intent: fwd_tx,
                    app: App::Forward,
                    mode: ValidationMode::Structural,
                    faults: None,
                    pools,
                    stream_idx,
                    max_frame: 128,
                    rate_pps: 3.0e6,
                    churn: false,
                }
            }
            Kind::KvsGet => {
                let key_hash = reg.id(names::KVS_KEY_HASH).expect("builtin semantic");
                let kvs_tx = intent(&mut reg, "kvs-tx", &[names::TX_IP_CSUM, names::TX_L4_CSUM]);
                let (pools, stream_idx) = pools(
                    Workload {
                        seed,
                        ..Workload::kvs(1024)
                    },
                    32_768,
                );
                Spec {
                    name: "kvs_get",
                    model: models::e1000e(),
                    reg,
                    rx_intents: vec![fig1_rx],
                    tx_intent: kvs_tx,
                    app: App::KvsReply { key_hash },
                    mode: ValidationMode::Structural,
                    faults: None,
                    pools,
                    stream_idx,
                    max_frame: 256,
                    rate_pps: 1.85e6,
                    churn: false,
                }
            }
            Kind::ChurnFaults => {
                let (pools, stream_idx) = pools(
                    Workload {
                        flows: 1024,
                        seed,
                        ..Workload::default()
                    },
                    8_192,
                );
                Spec {
                    name: "churn_faults",
                    model: models::qdma_default(),
                    reg,
                    rx_intents: vec![fwd_rx, fig1_rx],
                    tx_intent: fwd_tx,
                    app: App::Forward,
                    mode: ValidationMode::Full,
                    faults: Some([faults(seed, 0), faults(seed, 1)]),
                    pools,
                    stream_idx,
                    max_frame: 1536,
                    rate_pps: 1.0e6,
                    churn: true,
                }
            }
        }
    }
}
