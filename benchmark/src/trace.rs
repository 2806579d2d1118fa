//! Spans taken from outside the crates.
//!
//! A traced pass records one span per layer boundary the benchmark can
//! see without touching the crates: the run itself, every host-app
//! callback (through the generic [`Traced`] wrapper), and the pieces of
//! a dashboard refresh. Each span has a name, a start, an end, and the
//! name of the span that caused it; spans of one pass share a `run_id`.
//!
//! Every span is aggregated by name (calls, total time). Callbacks are
//! far too many to time each — two clock reads cost more than a probe
//! sink's whole `on_frame` — so every callback is **counted**, one in
//! [`TIME_EVERY`] per name and host is **timed** and stands for the
//! others in the total, and one in [`SAMPLE_EVERY`] is also kept raw.
//! Spans recorded with [`SpanLog::record`] are exact and all kept. A
//! name's **self time** is its total minus the totals of the names whose
//! parent it is.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use tpp_netsim::{HostApp, HostCtx, HostId, Simulator};

/// One callback in this many (per name and host) is timed; its duration
/// counts this many times in the name's total.
pub const TIME_EVERY: u64 = 4;

/// One callback in this many (per name and host) is also kept raw. A
/// multiple of [`TIME_EVERY`], so a kept span is always a timed one.
pub const SAMPLE_EVERY: u64 = 1024;

/// Frames a [`Traced`] host keeps for the layer probes' corpus.
const CORPUS_PER_HOST: usize = 32;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let since = EPOCH.get_or_init(Instant::now).elapsed();
    // Two callbacks' worth of these per hop of a probe: skip the u128.
    since.as_secs() * 1_000_000_000 + since.subsec_nanos() as u64
}

/// Whether the timed region has begun. A flag read by every callback,
/// publishing no other data, hence relaxed; worker threads are spawned
/// after it is set.
static TIMED: AtomicBool = AtomicBool::new(false);

/// Mark the start of the timed region and return its time. [`Traced`]
/// spans `on_frame`/`on_timer` only from here on, so the children of the
/// run span all lie inside it; the warm-up slice before it is not traced.
pub fn open_timed_region() -> u64 {
    TIMED.store(true, Ordering::Relaxed);
    now_ns()
}

/// Index of a registered span name in its [`SpanLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Agg {
    name: &'static str,
    parent: Option<&'static str>,
    calls: u64,
    total_ns: u64,
}

/// A span kept in full.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSpan {
    /// Span name.
    pub name: &'static str,
    /// Start, ns since [`now_ns`]'s epoch.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Name of the span that caused this one.
    pub parent: Option<&'static str>,
}

/// What [`SpanLog::next`] decided for one callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampling {
    /// Counted only.
    Count,
    /// Counted and timed.
    Time,
    /// Counted, timed and kept raw.
    TimeAndKeep,
}

/// Aggregates and sampled raw spans of one pass (or one host of it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanLog {
    aggs: Vec<Agg>,
    raw: Vec<RawSpan>,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// Register `name` under `parent` (idempotent).
    pub fn name(&mut self, name: &'static str, parent: Option<&'static str>) -> SpanId {
        if let Some(i) = self.aggs.iter().position(|a| a.name == name) {
            return SpanId(i);
        }
        self.aggs.push(Agg {
            name,
            parent,
            calls: 0,
            total_ns: 0,
        });
        SpanId(self.aggs.len() - 1)
    }

    fn push(&mut self, id: SpanId, start_ns: u64, end_ns: u64, stands_for: u64, keep_raw: bool) {
        let agg = &mut self.aggs[id.0];
        agg.total_ns += end_ns.saturating_sub(start_ns) * stands_for;
        if keep_raw {
            self.raw.push(RawSpan {
                name: agg.name,
                start_ns,
                end_ns,
                parent: agg.parent,
            });
        }
    }

    /// Record one exact span; `keep_raw` also keeps it in full.
    pub fn record(&mut self, id: SpanId, start_ns: u64, end_ns: u64, keep_raw: bool) {
        self.aggs[id.0].calls += 1;
        self.push(id, start_ns, end_ns, 1, keep_raw);
    }

    /// Count one callback of a high-volume name and decide its fate: the
    /// first and every [`TIME_EVERY`]-th are timed, the first and every
    /// [`SAMPLE_EVERY`]-th also kept. Meant for a log that one host owns.
    pub fn next(&mut self, id: SpanId) -> Sampling {
        let agg = &mut self.aggs[id.0];
        let n = agg.calls;
        agg.calls += 1;
        if n.is_multiple_of(SAMPLE_EVERY) {
            Sampling::TimeAndKeep
        } else if n.is_multiple_of(TIME_EVERY) {
            Sampling::Time
        } else {
            Sampling::Count
        }
    }

    /// Record the span of a callback [`next`](Self::next) chose to time
    /// (already counted): it stands for [`TIME_EVERY`] callbacks.
    pub fn record_sampled(&mut self, id: SpanId, start_ns: u64, end_ns: u64, how: Sampling) {
        self.push(
            id,
            start_ns,
            end_ns,
            TIME_EVERY,
            how == Sampling::TimeAndKeep,
        );
    }

    /// Fold another log into this one, matching names.
    pub fn merge(&mut self, other: &SpanLog) {
        for a in &other.aggs {
            let id = self.name(a.name, a.parent);
            self.aggs[id.0].calls += a.calls;
            self.aggs[id.0].total_ns += a.total_ns;
        }
        self.raw.extend_from_slice(&other.raw);
    }

    fn agg(&self, name: &str) -> Option<&Agg> {
        self.aggs.iter().find(|a| a.name == name)
    }

    /// Spans recorded under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.agg(name).map_or(0, |a| a.calls)
    }

    /// Total duration recorded under `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.agg(name).map_or(0, |a| a.total_ns)
    }

    /// Total of `name` minus the totals of its child names, ns.
    pub fn self_ns(&self, name: &str) -> u64 {
        let children: u64 = self
            .aggs
            .iter()
            .filter(|a| a.parent == Some(name))
            .map(|a| a.total_ns)
            .sum();
        self.total_ns(name).saturating_sub(children)
    }

    /// The raw spans kept so far.
    pub fn raw(&self) -> &[RawSpan] {
        &self.raw
    }

    /// The raw spans as JSON lines
    /// `{name, start_ns, end_ns, parent, run_id}`, ordered by start.
    pub fn to_jsonl(&self, run_id: &str) -> String {
        use crate::json::{obj, Json};
        let mut spans: Vec<&RawSpan> = self.raw.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        let mut out = String::new();
        for s in spans {
            let line = obj([
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("run_id", Json::from(run_id)),
            ]);
            out.push_str(&line.encode());
            out.push('\n');
        }
        out
    }
}

/// Name of the span around the timed region; parent of the `on_frame`
/// and `on_timer` callbacks.
pub const RUN: &str = "netsim.run";
/// Name of the span from process start to the timed region; parent of
/// `on_start`, which the simulator calls in the warm-up slice.
pub const SETUP: &str = "bench.setup";
/// Span names of the three host-app callbacks.
pub const ON_START: &str = "host.app.on_start";
/// See [`ON_START`].
pub const ON_FRAME: &str = "host.app.on_frame";
/// See [`ON_START`].
pub const ON_TIMER: &str = "host.app.on_timer";

/// Wraps any host app and spans the callbacks it receives: every one
/// counted, one in [`TIME_EVERY`] timed, one in [`SAMPLE_EVERY`] kept.
///
/// Each wrapper owns its log, so worker threads of a sharded run never
/// share one; the harness merges the logs after the run. The wrapper
/// also copies a few of the frames it delivers — the workload's own
/// frame corpus, which the layer probes replay.
pub struct Traced<A> {
    /// The wrapped app.
    pub inner: A,
    log: SpanLog,
    ids: [SpanId; 3],
    corpus: Vec<Vec<u8>>,
}

impl<A: HostApp> Traced<A> {
    /// Wrap `inner`.
    pub fn new(inner: A) -> Self {
        let mut log = SpanLog::new();
        let ids = [
            log.name(ON_START, Some(SETUP)),
            log.name(ON_FRAME, Some(RUN)),
            log.name(ON_TIMER, Some(RUN)),
        ];
        Traced {
            inner,
            log,
            ids,
            corpus: Vec::new(),
        }
    }

    /// The callback spans recorded so far.
    pub fn log(&self) -> &SpanLog {
        &self.log
    }

    /// Copies of sampled delivered frames.
    pub fn corpus(&self) -> &[Vec<u8>] {
        &self.corpus
    }
}

impl<A: HostApp> HostApp for Traced<A> {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        let t0 = now_ns();
        self.inner.on_start(ctx);
        self.log.record(self.ids[0], t0, now_ns(), false);
    }

    fn on_frame(&mut self, frame: Vec<u8>, ctx: &mut HostCtx<'_>) {
        if !TIMED.load(Ordering::Relaxed) {
            return self.inner.on_frame(frame, ctx);
        }
        let how = self.log.next(self.ids[1]);
        if how == Sampling::Count {
            return self.inner.on_frame(frame, ctx);
        }
        if how == Sampling::TimeAndKeep && self.corpus.len() < CORPUS_PER_HOST {
            self.corpus.push(frame.clone());
        }
        let t0 = now_ns();
        self.inner.on_frame(frame, ctx);
        self.log.record_sampled(self.ids[1], t0, now_ns(), how);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>) {
        if !TIMED.load(Ordering::Relaxed) {
            return self.inner.on_timer(token, ctx);
        }
        let how = self.log.next(self.ids[2]);
        if how == Sampling::Count {
            return self.inner.on_timer(token, ctx);
        }
        let t0 = now_ns();
        self.inner.on_timer(token, ctx);
        self.log.record_sampled(self.ids[2], t0, now_ns(), how);
    }
}

/// How a workload installs its host apps: bare for the untraced passes
/// that give the end-to-end numbers, inside [`Traced`] for the traced
/// pass. Workloads are generic over this, so the untraced binary path
/// contains no wrapper at all.
pub trait Wrap {
    /// Whether apps are wrapped (and spans exist to harvest).
    const TRACED: bool;
    /// Box `app` for the simulator.
    fn boxed<A: HostApp>(app: A) -> Box<dyn HostApp>;
    /// The app of type `A` installed on `host`.
    fn app<A: HostApp>(sim: &Simulator, host: HostId) -> &A;
    /// Fold the spans and corpus of `host` (whose app is an `A`) into
    /// `log` / `corpus`. A no-op when untraced.
    fn harvest<A: HostApp>(
        sim: &Simulator,
        host: HostId,
        log: &mut SpanLog,
        corpus: &mut Vec<Vec<u8>>,
    );
}

/// Apps installed bare.
pub struct Bare;
/// Apps installed inside [`Traced`].
pub struct Spanned;

impl Wrap for Bare {
    const TRACED: bool = false;
    fn boxed<A: HostApp>(app: A) -> Box<dyn HostApp> {
        Box::new(app)
    }
    fn app<A: HostApp>(sim: &Simulator, host: HostId) -> &A {
        sim.host_app::<A>(host)
    }
    fn harvest<A: HostApp>(_: &Simulator, _: HostId, _: &mut SpanLog, _: &mut Vec<Vec<u8>>) {}
}

impl Wrap for Spanned {
    const TRACED: bool = true;
    fn boxed<A: HostApp>(app: A) -> Box<dyn HostApp> {
        Box::new(Traced::new(app))
    }
    fn app<A: HostApp>(sim: &Simulator, host: HostId) -> &A {
        &sim.host_app::<Traced<A>>(host).inner
    }
    fn harvest<A: HostApp>(
        sim: &Simulator,
        host: HostId,
        log: &mut SpanLog,
        corpus: &mut Vec<Vec<u8>>,
    ) {
        let traced = sim.host_app::<Traced<A>>(host);
        log.merge(traced.log());
        corpus.extend_from_slice(traced.corpus());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `n` callbacks of `dur` ns each through the sampling path.
    fn callbacks(log: &mut SpanLog, id: SpanId, n: u64, dur: u64) {
        for i in 0..n {
            let how = log.next(id);
            if how != Sampling::Count {
                log.record_sampled(id, i * 100, i * 100 + dur, how);
            }
        }
    }

    #[test]
    fn self_time_is_total_minus_children() {
        let mut log = SpanLog::new();
        let run = log.name(RUN, None);
        let frame = log.name(ON_FRAME, Some(RUN));
        let timer = log.name(ON_TIMER, Some(RUN));
        let other = log.name("obs.refresh", None);
        log.record(run, 1_000, 11_000, true); // 10 us
        log.record(frame, 2_000, 3_500, false); // 1.5 us
        log.record(frame, 4_000, 4_500, false); // 0.5 us
        log.record(timer, 5_000, 8_000, false); // 3 us
        log.record(other, 20_000, 21_000, true); // unrelated root
        assert_eq!(log.total_ns(RUN), 10_000);
        assert_eq!(log.calls(ON_FRAME), 2);
        assert_eq!(log.total_ns(ON_FRAME), 2_000);
        assert_eq!(log.self_ns(RUN), 10_000 - 2_000 - 3_000);
        // A leaf's self time is its total; an unknown name reads 0.
        assert_eq!(log.self_ns(ON_TIMER), 3_000);
        assert_eq!(log.self_ns("missing"), 0);
        // By construction: children + parent's self == parent's total.
        assert_eq!(
            log.total_ns(ON_FRAME) + log.total_ns(ON_TIMER) + log.self_ns(RUN),
            log.total_ns(RUN)
        );
    }

    #[test]
    fn raw_spans_carry_their_parent() {
        let mut log = SpanLog::new();
        let run = log.name(RUN, None);
        let frame = log.name(ON_FRAME, Some(RUN));
        log.record(run, 0, 100, true);
        log.record(frame, 10, 20, true);
        log.record(frame, 30, 40, false);
        assert_eq!(log.raw().len(), 2);
        assert_eq!(log.raw()[0].parent, None);
        assert_eq!(log.raw()[1].parent, Some(RUN));
        assert_eq!(log.raw()[1].name, ON_FRAME);
        assert_eq!(log.name(ON_FRAME, Some(RUN)), frame, "names register once");
    }

    #[test]
    fn every_callback_is_counted_one_in_4_timed_one_in_1024_kept() {
        let mut log = SpanLog::new();
        let frame = log.name(ON_FRAME, Some(RUN));
        let n = 3 * SAMPLE_EVERY + 5;
        callbacks(&mut log, frame, n, 7);
        // Counted exactly.
        assert_eq!(log.calls(ON_FRAME), n);
        // Timed: callbacks 0, 4, 8, ... each standing for four.
        let timed = n.div_ceil(TIME_EVERY);
        assert_eq!(log.total_ns(ON_FRAME), timed * TIME_EVERY * 7);
        // Kept: the 1st, 1025th, 2049th and 3073rd.
        assert_eq!(log.raw().len(), 4);
        assert_eq!(log.raw()[1].start_ns, SAMPLE_EVERY * 100);
        assert_eq!(SAMPLE_EVERY % TIME_EVERY, 0);
    }

    #[test]
    fn merge_adds_by_name() {
        let mut a = SpanLog::new();
        let fa = a.name(ON_FRAME, Some(RUN));
        callbacks(&mut a, fa, 1, 10);
        let mut b = SpanLog::new();
        let tb = b.name(ON_TIMER, Some(RUN));
        let fb = b.name(ON_FRAME, Some(RUN));
        callbacks(&mut b, tb, 2, 5);
        callbacks(&mut b, fb, 1, 4);
        let mut run = SpanLog::new();
        let r = run.name(RUN, None);
        run.record(r, 0, 1000, true);
        run.merge(&a);
        run.merge(&b);
        assert_eq!(run.calls(ON_FRAME), 2);
        assert_eq!(run.calls(ON_TIMER), 2);
        assert_eq!(run.total_ns(ON_FRAME), (10 + 4) * TIME_EVERY);
        assert_eq!(run.self_ns(RUN), 1000 - (10 + 4 + 5) * TIME_EVERY);
        assert_eq!(run.raw().len(), 4, "run + first span of each name and host");
    }

    #[test]
    fn jsonl_has_the_five_fields() {
        let mut log = SpanLog::new();
        let run = log.name(RUN, None);
        let frame = log.name(ON_FRAME, Some(RUN));
        log.record(frame, 50, 60, true);
        log.record(run, 0, 100, true);
        let text = log.to_jsonl("w-s1-r0");
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("name").unwrap().as_str(), Some(RUN));
        assert_eq!(first.get("parent"), Some(&crate::json::Json::Null));
        let second = crate::json::Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent").unwrap().as_str(), Some(RUN));
        assert_eq!(second.get("start_ns").unwrap().as_u64(), Some(50));
        assert_eq!(second.get("end_ns").unwrap().as_u64(), Some(60));
        assert_eq!(second.get("run_id").unwrap().as_str(), Some("w-s1-r0"));
    }

    /// The wrapper end to end: a sender's timer fires 3,000 times, each
    /// sending one frame to a receiver, all inside the timed region.
    #[test]
    fn traced_counts_every_callback_of_a_real_run() {
        use tpp_netsim::{time, Endpoint, NetworkBuilder, RunLimit};
        struct Sender(u64);
        impl HostApp for Sender {
            fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
                ctx.set_timer(1_000, 0);
            }
            fn on_timer(&mut self, _: u64, ctx: &mut HostCtx<'_>) {
                if self.0 > 0 {
                    self.0 -= 1;
                    ctx.send(tpp_wire::ethernet::build_frame(
                        tpp_wire::EthernetAddress::from_host_id(1),
                        ctx.mac(),
                        tpp_wire::EtherType(0x0802),
                        &[0u8; 50],
                    ));
                    ctx.set_timer(1_000, 0);
                }
            }
        }
        #[derive(Default)]
        struct Receiver(u64);
        impl HostApp for Receiver {
            fn on_frame(&mut self, _: Vec<u8>, _: &mut HostCtx<'_>) {
                self.0 += 1;
            }
        }
        let mut net = NetworkBuilder::new();
        let s = net.add_switch(tpp_asic::AsicConfig::with_ports(1, 2));
        let h0 = net.add_host(Spanned::boxed(Sender(3_000)), 1_000_000);
        let h1 = net.add_host(Spanned::boxed(Receiver::default()), 1_000_000);
        net.connect(Endpoint::host(h0), Endpoint::switch(s, 0), time::micros(1));
        net.connect(Endpoint::host(h1), Endpoint::switch(s, 1), time::micros(1));
        let mut sim = net.build();
        sim.populate_l2();
        open_timed_region();
        sim.run(RunLimit::Until(time::millis(10)));

        assert_eq!(Spanned::app::<Receiver>(&sim, h1).0, 3_000);
        let (mut log, mut corpus) = (SpanLog::new(), Vec::new());
        Spanned::harvest::<Sender>(&sim, h0, &mut log, &mut corpus);
        Spanned::harvest::<Receiver>(&sim, h1, &mut log, &mut corpus);
        assert_eq!(log.calls(ON_START), 2);
        assert_eq!(log.calls(ON_FRAME), 3_000);
        assert_eq!(log.calls(ON_TIMER), 3_001, "the last firing sends nothing");
        assert!(log.total_ns(ON_FRAME) > 0 && log.total_ns(ON_TIMER) > 0);
        // Kept raw: callbacks 0, 1024 and 2048 of each of the two names.
        assert_eq!(log.raw().len(), 6);
        assert_eq!(corpus.len(), 3, "one frame copy per kept on_frame span");
    }
}
