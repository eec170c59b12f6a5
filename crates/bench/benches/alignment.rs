//! Ablation: alignment-stage throughput vs instance count and batch size
//! — the single-threaded stage whose cost bounds Fig. 5's VM speedup.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use cwcsim::alignment::Alignment;
use cwcsim::task::SampleBatch;
use fastflow::node::{Outbox, Stage};

fn batches(instances: u64, samples_each: usize) -> Vec<SampleBatch> {
    (0..instances)
        .map(|i| SampleBatch {
            instance: i,
            samples: (0..samples_each)
                .map(|k| (k as f64, vec![k as u64, i, 1]))
                .collect(),
            events: 0,
            finished: true,
        })
        .collect()
}

fn bench_alignment(c: &mut Criterion) {
    let mut g = c.benchmark_group("alignment");
    for instances in [64u64, 512] {
        for samples in [1usize, 16] {
            let total = instances * samples as u64;
            g.throughput(Throughput::Elements(total));
            g.bench_function(format!("{instances}inst_x{samples}samples"), |b| {
                b.iter(|| {
                    let mut stage = Alignment::new(instances, 1.0);
                    let (tx, rx) = fastflow::channel::unbounded();
                    let mut out = Outbox::new(&tx);
                    for batch in batches(instances, samples) {
                        stage.on_item(batch, &mut out);
                    }
                    drop(tx); // close the channel so the drain below terminates
                    let cuts: Vec<_> = rx.iter().collect();
                    assert_eq!(cuts.len(), samples);
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_alignment);
criterion_main!(benches);
