//! In-memory span recorder and the per-layer self-time split it yields.
//!
//! Spans are recorded on the driving thread only, around calls into a
//! layer's public functions, and kept in a vector until the run ends.
//! A span's *self* time is its duration minus the durations of its
//! children; a layer's self time is the sum over its spans. A layer is
//! the span-name prefix before the first `.` (`nn.forward` → `nn`).
//!
//! Work a layer does on other threads cannot be a child span. Where the
//! caller knows such work ran strictly inside the open span and never
//! concurrently with it (a wrapper's summed busy time in a sequential
//! phase), [`Tracer::record_child`] adds it as a child of known duration.

use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    start: u64,
    dur: u64,
}

/// Span recorder; a disabled tracer records nothing and costs one branch
/// per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start,
            dur: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit() matches an enter()");
        let end = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.dur = end - span.start;
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Adds a child of the innermost open span whose duration was
    /// measured elsewhere (see the module docs for when that is valid).
    pub fn record_child(&mut self, name: &'static str, dur_ns: u64) {
        if !self.on {
            return;
        }
        let parent = *self.open.last().expect("record_child() inside a span");
        let start = self.spans[parent as usize].start;
        self.spans.push(Span {
            name,
            parent,
            start,
            dur: dur_ns,
        });
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur)
            .collect()
    }

    /// Aggregates the recorded spans into per-name and per-layer totals.
    pub fn split(&self) -> Split {
        assert!(self.open.is_empty(), "every span closed before the split");
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut roots_ns = 0u64;
        for s in &self.spans {
            if s.parent == NO_PARENT {
                roots_ns += s.dur;
            } else {
                child_ns[s.parent as usize] += s.dur;
            }
        }
        let mut names: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let t = names.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.dur;
            // Children covering more than their parent (a wrapper's busy
            // time that overlapped) are clipped here, which surfaces as an
            // accounting error rather than a negative self time.
            t.self_ns += s.dur.saturating_sub(c);
        }
        Split {
            names,
            spans: self.spans.len(),
            roots_ns,
        }
    }
}

/// Totals of all spans sharing one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean self time per call, ns (0 when never called).
    pub fn self_mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// The self-time split of one traced region.
pub struct Split {
    names: BTreeMap<&'static str, NameTotals>,
    /// Spans recorded.
    pub spans: usize,
    /// Summed duration of the root spans.
    pub roots_ns: u64,
}

impl Split {
    pub fn name(&self, name: &str) -> NameTotals {
        self.names.get(name).copied().unwrap_or_default()
    }

    /// Self time per layer (span-name prefix), ns.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, t) in &self.names {
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_insert(0) += t.self_ns;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children_and_sum_to_roots() {
        let mut t = Tracer::new(true);
        t.enter("a.root");
        t.span("b.leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.record_child("c.virtual", 1_000);
        t.exit();
        let s = t.split();
        let layers = s.layer_self_ns();
        let sum: u64 = layers.values().sum();
        assert_eq!(sum, s.roots_ns);
        assert_eq!(s.name("c.virtual").self_ns, 1_000);
        assert!(s.name("b.leaf").self_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("a.x");
        t.exit();
        assert_eq!(t.split().roots_ns, 0);
    }
}
