//! In-memory spans recorded around calls into each layer, and the
//! per-layer figures derived from them once a run has ended.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within a trace (never 0).
    pub id: u64,
    /// The span that caused this one, 0 for none.
    pub parent: u64,
    /// Which call this is (for example `gillespie.run_quantum`).
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start: u64,
    /// End, ns since the trace origin.
    pub end: u64,
    /// Instance id, grid index or window sequence number.
    pub key: u64,
    /// Which farm worker or thread recorded the span.
    pub lane: u32,
    /// Work done in the call (events fired, rows produced, …).
    pub count: u64,
    /// Grid indices `lo..=hi` of the samples the call produced, if any.
    pub grid: Option<(u64, u64)>,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The shared clock and span store of one traced run.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Trace {
    /// A trace whose clock starts now.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// ns since the trace origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A per-thread buffer for lane `lane`; spans reach the store when
    /// the buffer is dropped (at the end of its thread).
    pub fn buffer(&self, lane: u32) -> SpanBuf {
        SpanBuf {
            trace: self.clone(),
            lane,
            next: 0,
            local: Vec::new(),
        }
    }

    /// Every span flushed so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store"))
    }
}

/// Thread-local span buffer; see [`Trace::buffer`].
#[derive(Debug)]
pub struct SpanBuf {
    trace: Trace,
    lane: u32,
    next: u64,
    local: Vec<Span>,
}

impl SpanBuf {
    /// ns since the trace origin.
    pub fn now(&self) -> u64 {
        self.trace.now()
    }

    /// Records a span and returns its id (for children to name as parent).
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, key: u64) -> u64 {
        self.next += 1;
        // Lane in the high bits keeps ids unique across buffers.
        let id = (u64::from(self.lane) + 1) << 40 | self.next;
        self.local.push(Span {
            id,
            parent: 0,
            name,
            start,
            end,
            key,
            lane: self.lane,
            count: 0,
            grid: None,
        });
        id
    }

    /// The most recently recorded span, for filling in optional fields.
    pub fn last(&mut self) -> &mut Span {
        self.local.last_mut().expect("a span was recorded")
    }
}

impl Drop for SpanBuf {
    fn drop(&mut self) {
        if let Ok(mut store) = self.trace.spans.lock() {
            store.append(&mut self.local);
        }
    }
}

/// Self time of every span that has children: its duration minus the
/// part of its interval that child spans cover (overlapping children
/// are counted once). Returns `span id → self ns`.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out = HashMap::new();
    for s in spans {
        let Some(kids) = children.get_mut(&s.id) else {
            continue;
        };
        kids.sort_unstable();
        let mut covered = 0;
        let mut cursor = s.start;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(cursor), b.min(s.end));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        out.insert(s.id, s.dur() - covered);
    }
    out
}

/// Row latency per grid index: from the moment the last sample of grid
/// index `k` left a sim worker (the end of the latest span named
/// `leave` whose grid range holds `k`) until the row for `k` was
/// emitted. `emitted` maps grid index → emission time (ns). Grid
/// indices missing on either side are skipped. Returns ns, in grid order.
pub fn row_latencies(spans: &[Span], leave: &str, emitted: &HashMap<u64, u64>) -> Vec<u64> {
    let mut last_leave: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == leave) {
        if let Some((lo, hi)) = s.grid {
            for k in lo..=hi {
                let slot = last_leave.entry(k).or_insert(0);
                *slot = (*slot).max(s.end);
            }
        }
    }
    let mut ks: Vec<u64> = emitted.keys().copied().collect();
    ks.sort_unstable();
    ks.into_iter()
        .filter_map(|k| {
            let left = last_leave.get(&k)?;
            Some(emitted[&k].saturating_sub(*left))
        })
        .collect()
}

/// Gaps between consecutive spans named `name` of the same key (from
/// one quantum's end to the next quantum's start, per instance), ns.
pub fn requeue_waits(spans: &[Span], name: &str) -> Vec<u64> {
    let mut by_key: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        by_key.entry(s.key).or_default().push((s.start, s.end));
    }
    let mut out = Vec::new();
    for v in by_key.values_mut() {
        v.sort_unstable();
        out.extend(v.windows(2).map(|w| w[1].0.saturating_sub(w[0].1)));
    }
    out
}

/// Sum of durations of spans named `name`, seconds.
pub fn busy_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .sum::<u64>() as f64
        * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
            key: 0,
            lane: 0,
            count: 0,
            grid: None,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_child_intervals() {
        let spans = vec![
            span(1, 0, "parent", 0, 100),
            // Overlapping children cover 10..40 once.
            span(2, 1, "child", 10, 30),
            span(3, 1, "child", 20, 40),
            // A child running past the parent counts only inside it.
            span(4, 1, "child", 90, 120),
            span(5, 0, "leaf", 0, 50),
            // A grandchild does not reduce the grandparent.
            span(6, 2, "grandchild", 12, 14),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 10);
        assert_eq!(st[&2], 20 - 2);
        assert!(!st.contains_key(&5), "leaves have no children");
    }

    #[test]
    fn row_latency_runs_from_the_last_sample_leaving_to_the_row() {
        let mut a = span(1, 0, "leave", 0, 100);
        a.grid = Some((0, 2));
        let mut b = span(2, 0, "leave", 50, 150);
        b.grid = Some((1, 3));
        let mut other = span(3, 0, "other", 0, 999);
        other.grid = Some((0, 3));
        let emitted: HashMap<u64, u64> = [(0, 110), (1, 200), (2, 160), (3, 400), (9, 5)]
            .into_iter()
            .collect();
        let lat = row_latencies(&[a, b, other], "leave", &emitted);
        // k=0 left at 100; k=1..=3 left at 150; k=9 never left a worker.
        assert_eq!(lat, vec![10, 50, 10, 250]);
    }

    #[test]
    fn requeue_wait_is_per_key_end_to_next_start() {
        let mut spans = vec![
            span(1, 0, "q", 0, 10),
            span(2, 0, "q", 25, 30),
            span(3, 0, "q", 5, 8),
            span(4, 0, "q", 9, 12),
        ];
        spans[2].key = 7;
        spans[3].key = 7;
        let mut w = requeue_waits(&spans, "q");
        w.sort_unstable();
        assert_eq!(w, vec![1, 15]);
        assert!((busy_s(&spans, "q") - 21e-9).abs() < 1e-15);
    }

    #[test]
    fn buffers_flush_on_drop_with_unique_ids() {
        let trace = Trace::new();
        let ids: Vec<u64> = (0..3)
            .map(|lane| {
                let mut buf = trace.buffer(lane);
                buf.record("x", 0, 1, 0)
            })
            .collect();
        let spans = trace.take();
        assert_eq!(spans.len(), 3);
        assert!(ids.iter().all(|&id| id != 0));
        assert_eq!(
            ids.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
    }
}
