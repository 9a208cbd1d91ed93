//! What every workload shares: arguments, the seeded generator, the
//! closed-loop runner with its timed windows, and the report.

use crate::spans::SpanLog;
use crate::stats::{median, quantile_of, Histogram};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Length of one timed window. Run metrics are quartiles over windows:
/// a shared host speeds up and slows down for seconds at a time, and
/// the rate the run sustained in three windows of four moves far less
/// between runs than the median window does.
pub const WINDOW_S: f64 = 0.5;
/// Untimed operations before the first window (caches, lazy set-up).
pub const WARMUP: Duration = Duration::from_millis(300);
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;
/// Spans one thread may hold in the traced window.
pub const SPAN_CAP: usize = 1 << 17;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 40.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// SplitMix64: the workloads' only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// True with probability `pct` percent.
    pub fn pct(&mut self, pct: u64) -> bool {
        self.next_u64() % 100 < pct
    }
}

/// Outcome counters of one thread's operations (warm-up included).
#[derive(Default, Clone, Copy, Debug)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
    pub allocs: u64,
    pub denied: u64,
    pub grants: u64,
    pub granted_bytes: u64,
    pub fast_bytes: u64,
    pub spill_hops: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.allocs += o.allocs;
        self.denied += o.denied;
        self.grants += o.grants;
        self.granted_bytes += o.granted_bytes;
        self.fast_bytes += o.fast_bytes;
        self.spill_hops += o.spill_hops;
    }

    /// Books one grant of `size` bytes placed as `placement`.
    pub fn grant(&mut self, size: u64, fast: u64, chunks: usize) {
        self.grants += 1;
        self.granted_bytes += size;
        self.fast_bytes += fast;
        self.spill_hops += chunks.saturating_sub(1) as u64;
    }
}

/// One thread's latencies over a timed stretch, split in windows.
pub struct Meter {
    start: Instant,
    win: Duration,
    /// Operations completed per window.
    ops: Vec<u64>,
    /// Latencies of the timed calls per window.
    hists: Vec<Histogram>,
}

impl Meter {
    pub fn new(start: Instant, seconds: f64) -> Meter {
        let windows = ((seconds / WINDOW_S).round() as usize).max(1);
        Meter {
            start,
            win: Duration::from_secs_f64(seconds / windows as f64),
            ops: vec![0; windows],
            hists: vec![Histogram::default(); windows],
        }
    }

    /// The window `t` falls in; `None` before the start.
    pub fn window(&self, t: Instant) -> Option<usize> {
        let since = t.checked_duration_since(self.start)?;
        Some((since.as_nanos() / self.win.as_nanos()) as usize)
    }

    /// Records one operation that began at `begin`, with its call
    /// latency in ns when the workload times that kind of call.
    /// Operations beginning before the start are warm-up and are
    /// skipped; returns false once the last window has closed (that
    /// operation is not recorded).
    pub fn record(&mut self, begin: Instant, ns: Option<u64>) -> bool {
        let Some(w) = self.window(begin) else { return true };
        if w >= self.ops.len() {
            return false;
        }
        self.ops[w] += 1;
        if let Some(ns) = ns {
            self.hists[w].record(ns);
        }
        true
    }
}

/// Run-level timing from every thread's meter over the same stretch.
pub struct Timing {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub ops: u64,
    /// Operations whose latency was recorded.
    pub timed: u64,
    pub windows: usize,
    /// Samples beyond the p99 in the smallest window.
    pub min_beyond_p99: u64,
    /// Operations per second over all windows with data.
    pub overall_ops_per_s: f64,
    /// The highest percentile with at least ten samples beyond it over
    /// the whole stretch, and its value in us.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(meters: &[&Meter]) -> Timing {
    let n = meters[0].hists.len();
    let win_s = meters[0].win.as_secs_f64();
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut ops = 0;
    let mut min_beyond = u64::MAX;
    let mut all = Histogram::default();
    for w in 0..n {
        let mut h = Histogram::default();
        for m in meters {
            h.merge(&m.hists[w]);
        }
        let done: u64 = meters.iter().map(|m| m.ops[w]).sum();
        if done == 0 {
            continue;
        }
        all.merge(&h);
        ops += done;
        rates.push(done as f64 / win_s);
        p50s.push(h.quantile(0.5).unwrap_or(0) as f64 / 1e3);
        min_beyond = min_beyond.min(crate::stats::beyond(h.count(), 0.99));
        if let Some(p99) = h.tail(0.99) {
            p99s.push(p99 as f64 / 1e3);
        }
    }
    Timing {
        ops_per_s: quantile_of(&rates, 0.25),
        p50_us: quantile_of(&p50s, 0.75),
        p99_us: quantile_of(&p99s, 0.75),
        ops,
        windows: rates.len(),
        min_beyond_p99: if rates.is_empty() { 0 } else { min_beyond },
        timed: all.count(),
        overall_ops_per_s: ratio(ops as f64, rates.len() as f64 * win_s),
        tail: crate::stats::highest_reportable(all.count())
            .and_then(|q| Some((q, all.quantile(q)? as f64 / 1e3))),
    }
}

/// One closed-loop client: each `step` issues the next operation,
/// waits for its outcome, books it in `counts`, and returns the time
/// spent in the call (ns) if the workload times this kind of call.
/// With a span log the step records a root span for the operation and
/// a child span around the library call.
pub trait Worker {
    fn step(&mut self, log: Option<&mut SpanLog>, counts: &mut Counts) -> Option<u64>;
}

/// When a run's timed windows start, how long they last, and whether
/// every other window is traced.
#[derive(Clone, Copy)]
pub struct Plan {
    pub start: Instant,
    pub seconds: f64,
    pub traced: bool,
}

impl Plan {
    pub fn new(args: &Args) -> Plan {
        Plan { start: Instant::now() + WARMUP, seconds: args.seconds, traced: args.trace }
    }
}

pub struct Driven {
    pub untraced: Meter,
    pub traced: Option<Meter>,
    pub log: Option<SpanLog>,
    pub counts: Counts,
}

/// Runs `worker` through the warm-up and the plan's windows. A traced
/// run alternates untraced and traced windows, so host drift falls on
/// both halves alike and their rates give the cost of tracing; the
/// span log keeps the first [`SPAN_CAP`] spans.
pub fn drive(worker: &mut dyn Worker, plan: Plan, base: Instant) -> Driven {
    let mut counts = Counts::default();
    let mut meters = [Meter::new(plan.start, plan.seconds), Meter::new(plan.start, plan.seconds)];
    let mut log = plan.traced.then(|| SpanLog::new(base, SPAN_CAP));
    loop {
        let begin = Instant::now();
        let odd = meters[0].window(begin).is_some_and(|w| w % 2 == 1);
        let traced = odd && log.is_some();
        let ns = worker.step(if traced { log.as_mut() } else { None }, &mut counts);
        if !meters[usize::from(traced)].record(begin, ns) {
            break;
        }
    }
    let [untraced, traced] = meters;
    Driven { untraced, traced: plan.traced.then_some(traced), log, counts }
}

/// Pins the calling thread, and the threads it spawns afterwards, to
/// `cpu` when the host has more than one; returns whether it did.
/// Thread placement is then the same in every run: left to the
/// scheduler, two runs in ten of `served_churn` spent their whole
/// length with hand-offs queued behind another thread's time slice
/// (about 1 ms), at -40% ops/s and seven times the p99.
#[cfg(target_os = "linux")]
pub fn pin_to_cpu(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 || cpu >= 1024 {
        return false;
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread, and `mask` is a live
    // 128-byte CPU set whose exact size is passed with it; the call
    // only reads the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_cpu(_cpu: usize) -> bool {
    false
}

/// Wall-clock step durations of one set-up, seconds.
#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    pub machine: f64,
    pub discovery: f64,
    pub broker_new: f64,
    pub bind: f64,
    pub prefill: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.machine + self.discovery + self.broker_new + self.bind + self.prefill
    }
}

/// Times `f` and adds the elapsed seconds to `slot`.
pub fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed().as_secs_f64();
    out
}

/// The end-to-end metrics, in output order: name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("fast_hit", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics of the traced run, in output order: name, unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.req_encode_ns", "ns"),
    ("wire.req_decode_ns", "ns"),
    ("wire.resp_encode_ns", "ns"),
    ("wire.resp_decode_ns", "ns"),
    ("wire.bytes_per_op", "B"),
    ("wire.share", "frac"),
    ("server.serve_alloc_ns", "ns"),
    ("server.serve_free_ns", "ns"),
    ("server.serve_renew_ns", "ns"),
    ("server.serve_stats_ns", "ns"),
    ("server.transport_us", "us"),
    ("server.transport_share", "frac"),
    ("broker.acquire_ns", "ns"),
    ("broker.acquire_p99_ns", "ns"),
    ("broker.release_ns", "ns"),
    ("broker.renew_ns", "ns"),
    ("broker.heartbeat_ns", "ns"),
    ("broker.stats_ns", "ns"),
    ("broker.advance_epoch_ns", "ns"),
    ("broker.self_ns", "ns"),
    ("broker.contention_x", "ratio"),
    ("broker.admit_ratio", "frac"),
    ("broker.clamps_per_alloc", "count"),
    ("broker.spill_hops_per_grant", "count"),
    ("placement.rank_ns", "ns"),
    ("placement.plan_ns", "ns"),
    ("memsim.commit_ns", "ns"),
    ("memsim.phase_ns", "ns"),
    ("guidance.feed_ns", "ns"),
    ("guidance.fold_ns", "ns"),
    ("guidance.promotions_per_epoch", "count"),
    ("guidance.demotions_per_epoch", "count"),
    ("guidance.mean_accuracy", "frac"),
    ("guidance.modelled_overhead_frac", "frac"),
    ("telemetry.emit_ns", "ns"),
    ("telemetry.events_per_op", "count"),
    ("telemetry.drain_ns_per_event", "ns"),
    ("telemetry.events_lost", "count"),
    ("memsim.machine_ms", "ms"),
    ("core.discovery_ms", "ms"),
    ("broker.new_ms", "ms"),
    ("server.bind_ms", "ms"),
    ("broker.prefill_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// What a workload hands back to `main` for printing.
#[derive(Default)]
pub struct Report {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    pub counts: Counts,
}

impl Report {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Fills the metrics every workload derives the same way.
    pub fn timing(&mut self, t: &Timing, setups: &[SetupTimes], what: &str) {
        let totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
        self.e2e.insert("ops_per_s", t.ops_per_s);
        self.e2e.insert("op_p50_us", t.p50_us);
        self.e2e.insert("op_p99_us", t.p99_us);
        self.e2e.insert("setup_s", median(&totals));
        self.notes.push(format!(
            "timing: {} ops ({} timed) in {} windows of {WINDOW_S} s; {what}; ops_per_s is the first \
             quartile of window rates, p50 and p99 the third quartile of window percentiles; fewest samples beyond a window's p99: {}",
            t.ops, t.timed, t.windows, t.min_beyond_p99
        ));
        if let Some((q, us)) = t.tail {
            self.notes.push(format!("tail: p{} over the whole stretch = {us:.2} us", q * 100.0));
        }
        self.notes.push(format!("setup_s: median of {} set-ups", setups.len()));
        self.check("every window has >= 10 samples beyond its p99", t.min_beyond_p99 >= 10);
        let ms =
            |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>()) * 1e3;
        self.layer.insert("memsim.machine_ms", ms(|s| s.machine));
        self.layer.insert("core.discovery_ms", ms(|s| s.discovery));
        self.layer.insert("broker.new_ms", ms(|s| s.broker_new));
        self.layer.insert("server.bind_ms", ms(|s| s.bind));
        self.layer.insert("broker.prefill_ms", ms(|s| s.prefill));
    }

    /// Traced-run bookkeeping shared by the workloads.
    pub fn overhead(&mut self, untraced: &Timing, traced: &Timing) {
        let frac = if untraced.overall_ops_per_s > 0.0 {
            1.0 - traced.overall_ops_per_s / untraced.overall_ops_per_s
        } else {
            0.0
        };
        self.layer.insert("trace.overhead_frac", frac);
        self.notes.push(format!(
            "trace: {:.0} ops/s untraced vs {:.0} ops/s traced ({} traced ops)",
            untraced.overall_ops_per_s, traced.overall_ops_per_s, traced.ops
        ));
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 0);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 0);
                move |_| r.next_u64()
            })
            .collect();
        let mut c = Rng::new(7, 1);
        assert_eq!(a, b);
        assert_ne!(a[0], c.next_u64());
        let mut r = Rng::new(1, 0);
        assert!((0..1000).map(|_| r.range(3, 5)).all(|v| (3..=5).contains(&v)));
    }

    #[test]
    fn meter_skips_warmup_and_closes() {
        let start = Instant::now() + Duration::from_secs(1);
        let mut m = Meter::new(start, 1.0);
        assert!(m.record(start - Duration::from_millis(1), Some(5)), "warm-up is skipped");
        assert!(m.record(start + Duration::from_millis(100), Some(10)));
        assert!(m.record(start + Duration::from_millis(600), None));
        assert!(!m.record(start + Duration::from_millis(1001), Some(30)));
        let t = summarize(&[&m]);
        assert_eq!(t.ops, 2);
        assert_eq!(t.timed, 1, "untimed operations count but carry no latency");
        assert_eq!(t.windows, 2);
        assert_eq!(t.ops_per_s, 2.0, "one op per 0.5 s window");
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload x --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("x", 9, 3.0, true));
        assert_eq!(parse_args(&argv("--workload x")).unwrap().seed, DEFAULT_SEED);
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload x --bogus")).is_err());
    }
}
