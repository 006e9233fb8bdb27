//! Microbenchmarks of the asynchronous channel's hot path: buffers, object
//! store, and end-to-end endpoint delivery (ablation A1: per-hop costs of the
//! push pipeline).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netsim::Cluster;
use xingtian_comm::{Broker, Buffer, CommConfig, ObjectStore};
use xingtian_message::{Header, Message, MessageKind, ProcessId};

fn msg(size: usize) -> Message {
    let h = Header::new(ProcessId::explorer(0), vec![ProcessId::learner(0)], MessageKind::Dummy);
    Message::new(h, Bytes::from(vec![7u8; size]))
}

fn bench_buffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer");
    let buffer = Buffer::new();
    group.bench_function("push_pop_1k", |b| {
        b.iter(|| {
            assert!(buffer.push(msg(1024)).is_ok());
            buffer.pop().unwrap()
        })
    });
    group.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("object_store");
    for size in [1024usize, 64 * 1024, 1024 * 1024] {
        let store = ObjectStore::new();
        let body = Bytes::from(vec![1u8; size]);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("insert_fetch", size), &body, |b, body| {
            b.iter(|| {
                let id = store.insert(body.clone(), 1);
                store.fetch(id).unwrap()
            })
        });
    }
    group.finish();
}

/// Messages sent back-to-back before draining, so receiver threads see a
/// burst while bounded receive buffers (16 MiB by default) never fill.
const BURST: usize = 4;

/// Broadcast fan-out on one machine: one learner pushes a parameter message
/// to `n` explorer endpoints. Throughput is reported in *deliveries* per
/// second (`n × BURST` elements per iteration) — the control-plane msgs/sec
/// number quoted in EXPERIMENTS.md.
fn bench_fanout_local(c: &mut Criterion) {
    let mut group = c.benchmark_group("fanout_local");
    group.sample_size(10);
    for n in [1usize, 64, 256] {
        let broker = Broker::new(0, Cluster::single(), CommConfig::uncompressed());
        let learner = broker.endpoint(ProcessId::learner(0));
        let explorers: Vec<_> =
            (0..n).map(|i| broker.endpoint(ProcessId::explorer(i as u32))).collect();
        let dst: Vec<ProcessId> = (0..n as u32).map(ProcessId::explorer).collect();
        let body = Bytes::from(vec![5u8; 1024]);
        group.throughput(Throughput::Elements((n * BURST) as u64));
        group.bench_function(BenchmarkId::new("broadcast", n), |b| {
            b.iter(|| {
                for _ in 0..BURST {
                    learner.send_to(dst.clone(), MessageKind::Parameters, body.clone());
                }
                for e in &explorers {
                    for _ in 0..BURST {
                        e.recv().unwrap();
                    }
                }
            })
        });
        drop(explorers);
        drop(learner);
        broker.shutdown();
    }
    group.finish();
}

/// Broadcast fan-out across two machines (half the explorers remote), with a
/// fast simulated NIC so the measurement stays control-plane bound: routing,
/// store accounting, uplink grouping, and remote re-homing.
fn bench_fanout_cross(c: &mut Criterion) {
    let mut group = c.benchmark_group("fanout_cross");
    group.sample_size(10);
    for n in [64usize, 256] {
        let cluster = Cluster::new(
            netsim::ClusterSpec::default().machines(2).nic_bandwidth(1e12).latency_secs(0.0),
        );
        let b0 = Broker::new(0, cluster.clone(), CommConfig::uncompressed());
        let b1 = Broker::new(1, cluster, CommConfig::uncompressed());
        let learner = b0.endpoint(ProcessId::learner(0));
        let mut explorers = Vec::new();
        for i in 0..n as u32 {
            let broker = if (i as usize) < n / 2 { &b0 } else { &b1 };
            explorers.push(broker.endpoint(ProcessId::explorer(i)));
        }
        xingtian_comm::connect_brokers(&[b0.clone(), b1.clone()]);
        let dst: Vec<ProcessId> = (0..n as u32).map(ProcessId::explorer).collect();
        let body = Bytes::from(vec![5u8; 1024]);
        group.throughput(Throughput::Elements((n * BURST) as u64));
        group.bench_function(BenchmarkId::new("broadcast", n), |b| {
            b.iter(|| {
                for _ in 0..BURST {
                    learner.send_to(dst.clone(), MessageKind::Parameters, body.clone());
                }
                for e in &explorers {
                    for _ in 0..BURST {
                        e.recv().unwrap();
                    }
                }
            })
        });
        drop(explorers);
        drop(learner);
        b0.shutdown();
        b1.shutdown();
    }
    group.finish();
}

fn bench_endpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("endpoint");
    group.sample_size(30);
    let broker = Broker::new(0, Cluster::single(), CommConfig::uncompressed());
    let explorer = broker.endpoint(ProcessId::explorer(0));
    let learner = broker.endpoint(ProcessId::learner(0));
    for size in [1024usize, 256 * 1024] {
        let body = Bytes::from(vec![2u8; size]);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("send_recv", size), &body, |b, body| {
            b.iter(|| {
                explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Dummy, body.clone());
                learner.recv().unwrap()
            })
        });
    }
    drop(explorer);
    drop(learner);
    broker.shutdown();
    group.finish();
}

criterion_group!(
    benches,
    bench_buffer,
    bench_store,
    bench_endpoint,
    bench_fanout_local,
    bench_fanout_cross
);
criterion_main!(benches);
