//! Equivalence of the sharded parallel RX engine with a sequential
//! single-queue drain.
//!
//! Sharding must be invisible in the data: for the same wire traffic,
//! the *multiset* of (frame, metadata) pairs produced by N workers
//! draining their queues concurrently must be bit-identical to one
//! driver receiving everything on a single queue — on every NIC model,
//! under both `Rss` (RETA-indirected Toeplitz) and `DstPort`
//! (flow-director style) steering. Only packet *order across queues* may
//! differ, which is exactly what the multiset comparison allows.
//!
//! The intent deliberately holds stateless semantics only: per-flow
//! state (`flow_tag`) and device clocks (`timestamp`) legitimately
//! depend on which queue a frame lands on, so they are out of scope for
//! bit-equivalence — the engine shards *stateless* metadata extraction.
//!
//! Also pins the plan cache's determinism: identical `(model, context,
//! intent)` requests return pointer-equal `Arc<CompiledRx>` artifacts,
//! and the full-duplex engine's threaded round over those shared
//! artifacts: it must count exactly what the sequential round counts,
//! and leave each artifact's refcount at one pin per queue plus the
//! cache's own.

use opendesc::compiler::{
    ForwardFn, Intent, OpenDescDriver, PlanCache, RxBatch, ShardedEngine, ShardedRx, TxRequest,
    TxVerdict,
};
use opendesc::ir::{names, SemanticRegistry};
use opendesc::nicsim::{models, NicModel, ShardedPktGen, SimNic, SteerPolicy, Workload};
use opendesc::softnic::testpkt;
use proptest::prelude::*;
use std::sync::Arc;

fn intent(reg: &mut SemanticRegistry) -> Intent {
    Intent::builder("sharded-equiv")
        .want(reg, names::RSS_HASH)
        .want(reg, names::QUEUE_HINT)
        .want(reg, names::VLAN_TCI)
        .want(reg, names::PKT_LEN)
        .want(reg, names::PACKET_TYPE)
        .want(reg, names::PAYLOAD_OFFSET)
        .want(reg, names::KVS_KEY_HASH)
        .want(reg, names::IP_CHECKSUM)
        .build()
}

/// Sorted (frame, metadata) pairs of a sequential single-queue drain.
fn sequential_pairs(model: NicModel, frames: &[Vec<u8>]) -> Vec<(Vec<u8>, Vec<Option<u128>>)> {
    let mut reg = SemanticRegistry::with_builtins();
    let i = intent(&mut reg);
    let compiled = opendesc::compiler::Compiler::default()
        .compile_model(&model, &i, &mut reg)
        .expect("intent compiles on every model");
    let mut drv = OpenDescDriver::attach(SimNic::new(model, 256).unwrap(), compiled).unwrap();
    for f in frames {
        drv.deliver(f).unwrap();
    }
    let mut out = Vec::new();
    while let Some(pkt) = drv.poll() {
        let meta = pkt.meta.iter().map(|(_, v)| *v).collect();
        out.push((pkt.frame, meta));
    }
    out.sort();
    out
}

/// Sorted (frame, metadata) pairs of an N-worker parallel drain.
fn sharded_pairs(
    model: NicModel,
    policy: SteerPolicy,
    workers: usize,
    frames: &[Vec<u8>],
) -> Vec<(Vec<u8>, Vec<Option<u128>>)> {
    let cache = PlanCache::default();
    let mut reg = SemanticRegistry::with_builtins();
    let i = intent(&mut reg);
    let mut eng =
        ShardedRx::new_uniform(&cache, &model, &i, &mut reg, workers, 256, policy, 8).unwrap();
    for f in frames {
        eng.deliver(f).unwrap();
    }
    let mut out: Vec<(Vec<u8>, Vec<Option<u128>>)> =
        eng.drain_collect_parallel().into_iter().flatten().collect();
    out.sort();
    out
}

/// One arbitrary frame: valid UDP/TCP (VLAN-tagged or not), a KVS GET
/// request, or raw bytes (non-IP ethertypes, runts, garbage).
fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (
            any::<[u8; 4]>(),
            any::<[u8; 4]>(),
            any::<u16>(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..64usize),
            any::<bool>(),
            any::<u16>(),
        )
            .prop_map(|(s, d, sp, dp, pay, tagged, tci)| {
                testpkt::udp4(s, d, sp, dp, &pay, tagged.then_some(tci & 0x0FFF))
            }),
        (
            any::<[u8; 4]>(),
            any::<[u8; 4]>(),
            any::<u16>(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..64usize),
            any::<bool>(),
            any::<u16>(),
        )
            .prop_map(|(s, d, sp, dp, pay, tagged, tci)| {
                testpkt::tcp4(s, d, sp, dp, &pay, tagged.then_some(tci & 0x0FFF))
            }),
        "\\PC{1,12}".prop_map(|key| {
            testpkt::udp4(
                [10, 0, 0, 1],
                [10, 0, 0, 2],
                40000,
                11211,
                &testpkt::kvs_get_payload(&key),
                None,
            )
        }),
        proptest::collection::vec(any::<u8>(), 0..120usize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_drain_multiset_equals_sequential_single_queue(
        frames in proptest::collection::vec(arb_frame(), 1..24),
        workers in 2..5usize,
    ) {
        for model in [models::e1000e(), models::ixgbe(), models::mlx5(), models::qdma_default()] {
            let want = sequential_pairs(model.clone(), &frames);
            for policy in [
                SteerPolicy::Rss,
                SteerPolicy::DstPort { table: vec![(11211, 1), (443, 0)], default: 0 },
            ] {
                let pname = match &policy {
                    SteerPolicy::Rss => "Rss",
                    _ => "DstPort",
                };
                let got = sharded_pairs(model.clone(), policy, workers, &frames);
                prop_assert_eq!(
                    &got,
                    &want,
                    "{} / {} / {} workers: sharded drain diverged from sequential",
                    model.name.clone(),
                    pname,
                    workers
                );
            }
        }
    }
}

#[test]
fn plan_cache_returns_pointer_equal_artifacts() {
    // Deterministic (not property) per the issue: identical (model,
    // context, intent) must yield pointer-equal Arc artifacts, both via
    // direct cache hits and across a uniform engine's workers.
    let cache = PlanCache::default();
    for model in [models::e1000e(), models::mlx5()] {
        let mut reg = SemanticRegistry::with_builtins();
        let i = intent(&mut reg);
        let a = cache.get_or_compile(&model, &i, &mut reg).unwrap();
        let b = cache.get_or_compile(&model, &i, &mut reg).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "{}: repeated compilation not shared",
            model.name
        );
        let eng = ShardedRx::new_uniform(&cache, &model, &i, &mut reg, 4, 64, SteerPolicy::Rss, 8)
            .unwrap();
        for w in eng.workers() {
            assert!(
                Arc::ptr_eq(&a, w.artifact()),
                "{}: worker artifact not the cached one",
                model.name
            );
        }
    }
    // Two models → exactly two artifacts, every other request was a hit.
    assert_eq!(cache.len(), 2);
    let (hits, misses) = cache.stats();
    assert_eq!(misses, 2);
    assert_eq!(hits, 2 * (1 + 4));
}

#[test]
fn threaded_duplex_over_shared_plans_matches_sequential() {
    // Every queue borrows the same cached RX and TX artifacts on its own
    // thread. Per queue, the threaded round must receive, forward, emit
    // and fix up exactly what the sequential collecting round does on
    // the same pools, and neither round may leak or drop a plan pin.
    let queues = 3;
    let tx_models = models::catalog()
        .into_iter()
        .filter(|m| m.desc_parser.is_some());
    for model in tx_models {
        let cache = PlanCache::default();
        let mut reg = SemanticRegistry::with_builtins();
        let rx_intent = intent(&mut reg);
        let tx_intent = Intent::builder("sharded-equiv-tx")
            .want(&mut reg, names::TX_IP_CSUM)
            .want(&mut reg, names::TX_L4_CSUM)
            .want(&mut reg, names::TX_VLAN_INSERT)
            .build();
        // Drop every fifth frame by length; tag and checksum the rest.
        let forward: Arc<ForwardFn> = Arc::new(|b: &RxBatch, i: usize, _s: &mut Vec<u8>| {
            if b.frame(i).len().is_multiple_of(5) {
                TxVerdict::Drop
            } else {
                TxVerdict::Forward(TxRequest {
                    ip_csum: true,
                    l4_csum: true,
                    vlan: Some(7),
                })
            }
        });
        let mut eng = ShardedEngine::new_uniform(
            &cache,
            &model,
            &rx_intent,
            &tx_intent,
            &mut reg,
            queues,
            256,
            SteerPolicy::Rss,
            8,
            2048,
            forward,
        )
        .unwrap();
        let pools = ShardedPktGen::generate(Workload::default(), eng.steerer(), 600).into_pools();
        let fixups = |eng: &ShardedEngine| -> Vec<u64> {
            eng.workers()
                .iter()
                .map(|w| w.tx_queue().stats.sw_fixups)
                .collect()
        };
        let base = fixups(&eng);
        let threaded = eng.run(&pools);
        let mid = fixups(&eng);
        let (sequential, wires) = eng.run_collect(&pools);
        let end = fixups(&eng);
        assert_eq!(threaded.total_rx_packets(), 600, "{}", model.name);
        for q in 0..queues {
            let ctx = format!("{} q{q}", model.name);
            assert_eq!(threaded.rx[q].packets, sequential.rx[q].packets, "{ctx}");
            assert_eq!(
                threaded.tx[q].forwarded, sequential.tx[q].forwarded,
                "{ctx}"
            );
            assert_eq!(threaded.tx[q].dropped, sequential.tx[q].dropped, "{ctx}");
            assert_eq!(
                threaded.tx[q].wire_frames, sequential.tx[q].wire_frames,
                "{ctx}"
            );
            assert_eq!(sequential.tx[q].wire_frames, wires[q].len() as u64, "{ctx}");
            assert_eq!(mid[q] - base[q], end[q] - mid[q], "{ctx}: sw_fixups");
        }
        let rx = eng.workers()[0].rx.artifact();
        let tx = eng.workers()[0].tx_queue().plan();
        for w in eng.workers() {
            assert!(Arc::ptr_eq(rx, w.rx.artifact()), "{}", model.name);
            assert!(Arc::ptr_eq(tx, w.tx_queue().plan()), "{}", model.name);
        }
        assert_eq!(Arc::strong_count(rx), 1 + queues, "{}: RX pins", model.name);
        assert_eq!(Arc::strong_count(tx), 1 + queues, "{}: TX pins", model.name);
    }
}
