//! The traced TCP run: a `ShardTransport` wrapped around
//! `TcpShardTransport` that records when each shard's cuts arrive and
//! when each shard ends, and what the coordinator-bound frames weigh on
//! the wire.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cwc::model::Model;
use cwcsim::{
    ShardActivity, ShardError, ShardFeed, ShardHandle, ShardMsg, ShardSpec, ShardTransport,
    Steering,
};
use distrt::shard::ToCoordinator;
use distrt::wire::encoded_size;
use distrt::TcpShardTransport;
use gillespie::deps::ModelDeps;

/// What the recording transport saw during one run.
#[derive(Debug, Default, Clone)]
pub struct ShardLog {
    /// Partial cuts received from all shards.
    pub cuts: u64,
    /// Encoded size of every received cut and end frame (computed with
    /// `wire::encoded_size`; heartbeats are not counted).
    pub wire_bytes: u64,
    /// Arrival of each shard's end-of-stream report, seconds since the
    /// transport was created.
    pub ends: Vec<f64>,
}

/// `TcpShardTransport` plus a forwarding thread per shard attempt that
/// logs every feed before passing it on.
pub struct RecordingTransport {
    inner: TcpShardTransport,
    origin: Instant,
    log: Arc<Mutex<ShardLog>>,
}

impl RecordingTransport {
    /// Wraps `inner`; times are measured from now.
    pub fn new(inner: TcpShardTransport) -> Self {
        RecordingTransport {
            inner,
            origin: Instant::now(),
            log: Arc::default(),
        }
    }

    /// Seconds since the transport was created.
    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// The log so far.
    pub fn log(&self) -> ShardLog {
        self.log.lock().expect("shard log").clone()
    }

    /// Shard attempts placed on a worker, from the inner transport.
    pub fn attempts(&self) -> usize {
        self.inner.placements().len()
    }
}

impl ShardTransport for RecordingTransport {
    fn launch_shard(
        &mut self,
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        spec: &ShardSpec,
        steering: &Steering,
        sink: mpsc::SyncSender<ShardFeed>,
        activity: Arc<ShardActivity>,
    ) -> Result<ShardHandle, ShardError> {
        let (tx, rx) = mpsc::sync_channel(spec.channel_capacity.max(1));
        let inner = self
            .inner
            .launch_shard(model, deps, spec, steering, tx, activity)?;
        let shard = inner.shard;
        let slot = Arc::new(Mutex::new(Some(inner)));
        let forward_slot = Arc::clone(&slot);
        let (origin, log) = (self.origin, Arc::clone(&self.log));
        let join = std::thread::spawn(move || {
            for feed in rx {
                record(&log, origin, &feed);
                if sink.send(feed).is_err() {
                    break;
                }
            }
            // Take the inner handle out before joining, so a concurrent
            // cancel never waits on the join.
            let inner = forward_slot.lock().expect("handle slot").take();
            if let Some(inner) = inner {
                let _ = inner.join.join();
            }
        });
        Ok(ShardHandle::new(shard, join).with_cancel(move || {
            if let Some(inner) = slot.lock().expect("handle slot").as_ref() {
                inner.cancel();
            }
        }))
    }
}

fn record(log: &Mutex<ShardLog>, origin: Instant, feed: &ShardFeed) {
    let ShardFeed::Msg(msg) = feed else {
        return;
    };
    // Size the frame exactly as the daemon encoded it.
    let (bytes, end) = match msg {
        ShardMsg::Cut(cut) => (encoded_size(&ToCoordinator::Cut(cut.clone())), false),
        ShardMsg::End(end) => (
            encoded_size(&ToCoordinator::End {
                events: end.events,
                summary: end.summary.clone(),
            }),
            true,
        ),
    };
    let mut log = log.lock().expect("shard log");
    log.wire_bytes += bytes as u64;
    if end {
        log.ends.push(origin.elapsed().as_secs_f64());
    } else {
        log.cuts += 1;
    }
}
