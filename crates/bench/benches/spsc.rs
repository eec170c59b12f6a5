//! Ablation: bounded vs unbounded lock-free SPSC queues vs a mutex
//! baseline — the paper's building-block claim is that
//! lock-free queues keep streaming overhead negligible.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fastflow::spsc::SpscQueue;
use fastflow::unbounded::UnboundedSpsc;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

const N: u64 = 100_000;

fn bench_queues(c: &mut Criterion) {
    let mut g = c.benchmark_group("spsc");
    g.throughput(Throughput::Elements(N));

    g.bench_function("bounded_spsc_ping", |b| {
        let q = SpscQueue::new(1024);
        b.iter(|| {
            for i in 0..N {
                // SAFETY: single thread drives both sides here.
                unsafe {
                    while q.try_push(i).is_err() {
                        let _ = q.try_pop();
                    }
                }
            }
            while unsafe { q.try_pop() }.is_some() {}
        });
    });

    g.bench_function("unbounded_spsc_ping", |b| {
        let q = UnboundedSpsc::new();
        b.iter(|| {
            for i in 0..N {
                // SAFETY: single thread drives both sides here.
                unsafe { q.push(i) };
                if i % 64 == 0 {
                    while unsafe { q.try_pop() }.is_some() {}
                }
            }
            while unsafe { q.try_pop() }.is_some() {}
        });
    });

    g.bench_function("mutex_vecdeque_baseline", |b| {
        let q = Arc::new(Mutex::new(VecDeque::new()));
        b.iter(|| {
            for i in 0..N {
                q.lock().unwrap().push_back(i);
                if i % 64 == 0 {
                    while q.lock().unwrap().pop_front().is_some() {}
                }
            }
            while q.lock().unwrap().pop_front().is_some() {}
        });
    });

    g.bench_function("threaded_bounded_channel", |b| {
        b.iter(|| {
            let (tx, rx) = fastflow::channel::bounded(1024);
            let producer = std::thread::spawn(move || {
                for i in 0..N {
                    tx.send(i).unwrap();
                }
            });
            let mut count = 0;
            while rx.recv().is_some() {
                count += 1;
            }
            producer.join().unwrap();
            assert_eq!(count, N);
        });
    });

    g.finish();
}

criterion_group!(benches, bench_queues);
criterion_main!(benches);
