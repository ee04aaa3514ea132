//! The `serve-sensors` workload: an operator's dashboards querying
//! `pta-serve`. Each iteration starts a server over the sensor CSV and
//! drives it over loopback with two kept-alive clients in a closed loop,
//! each running its own seeded script: a first touch of every group (in
//! the same order on both clients, so each cold curve fill meets a
//! concurrent request for the same group), then curve hits with one
//! off-curve direct DP per group mixed in. Every reply must equal the
//! reference line built from `GroupEntry::answer` on an identically built
//! store.

use std::net::TcpListener;
use std::sync::{Barrier, Mutex, PoisonError};
use std::time::{Duration, Instant};

use pta::{Agg, RowPolicy};
use pta_core::{
    optimal_error_curve_with_cancel, pta_size_bounded_with_opts, CancelToken, DpOptions,
    DpStrategy, Weights,
};
use pta_ita::{ita, ItaQuerySpec, StreamingIta};
use pta_serve::{Client, GroupEntry, GroupStore, QueryBound, Server, ServerConfig};
use pta_temporal::csv::parse_schema;
use pta_temporal::{Schema, SequentialRelation};

use crate::batch::{report_dp, report_ita};
use crate::gen::{sensor_csv, Rng};
use crate::report::{median, percentile, secs, slowdown, Report};
use crate::trace::Tracer;
use crate::{time_reps, Args, THREADS};

pub struct ServeSpec {
    pub groups: usize,
    /// Consecutive unit chronons per group.
    pub len: usize,
    /// The server's cached curve depth (its default).
    pub curve_depth: usize,
    /// Curve-served requests per client script.
    pub hits: usize,
    /// The server's admission queue capacity (its default).
    pub queue_depth: usize,
}

pub const SERVE_SENSORS: ServeSpec =
    ServeSpec { groups: 16, len: 1000, curve_depth: 128, hits: 600, queue_depth: 64 };

/// Per-layer metrics of the serve layer; workloads without a server
/// report them as zero.
pub const SERVE_METRICS: [(&str, &str); 11] = [
    ("serve.build_s", "s"),
    ("serve.fill_ms", "ms"),
    ("serve.answer_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.direct_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.curves_cached", "count"),
    ("serve.shed", "count"),
    ("serve.overloaded", "count"),
    ("serve.hit_us_p50", "us"),
    ("serve.hit_us_p99", "us"),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    /// A group's first touch: waits for (or performs) its curve fill.
    Cold,
    /// Answered from the cached curve.
    Hit,
    /// Past the cached depth: a direct size-bounded DP.
    Direct,
}

struct Req {
    group: usize,
    bound: QueryBound,
    line: String,
    class: Class,
    /// The reply the server must send, bit for bit.
    expect: String,
}

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

struct Input {
    text: String,
    schema: Schema,
    spec: ItaQuerySpec,
    config: ServerConfig,
    seq: SequentialRelation,
    scripts: Vec<Vec<Req>>,
}

/// The exact reply line the server sends for an answered request.
fn reply(entry: &GroupEntry, bound: QueryBound) -> Res<(String, bool)> {
    let ans = entry.answer(bound, &CancelToken::inert()).map_err(err)?;
    let line = format!(
        "ok group={} n={} size={} sse={} source={}",
        entry.name(),
        entry.len(),
        ans.size,
        ans.sse,
        if ans.cached { "curve" } else { "direct" }
    );
    Ok((line, ans.cached))
}

/// A fraction written the way a dashboard sends it, and the value the
/// server will parse from it.
fn fraction(x: f64) -> (String, f64) {
    let s = format!("{:.6}", x.clamp(0.0, 1.0));
    let v = s.parse().expect("a formatted float parses");
    (s, v)
}

/// Runs `f` over `items` on `THREADS` scoped threads, preserving order.
fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let chunk = items.len().div_ceil(THREADS).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> =
            items.chunks(chunk).map(|c| s.spawn(|| c.iter().map(&f).collect::<Vec<U>>())).collect();
        parts.into_iter().flat_map(|h| h.join().expect("a reference thread panicked")).collect()
    })
}

impl Input {
    fn new(spec: &ServeSpec, seed: u64) -> Res<Input> {
        let text = sensor_csv(seed, spec.groups, spec.len);
        let schema = parse_schema(crate::gen::SCHEMA).map_err(err)?;
        let ita_spec = ItaQuerySpec::new(&["G"], vec![Agg::avg("V").as_output("AvgV")]);
        let config = ServerConfig {
            threads: THREADS,
            curve_depth: spec.curve_depth,
            queue_depth: spec.queue_depth,
            ..ServerConfig::default()
        };
        let (rel, _) =
            pta::read_csv(schema.clone(), &text, THREADS, RowPolicy::Strict).map_err(err)?;
        let seq = ita(&rel, &ita_spec).map_err(err)?;
        let store = GroupStore::build(&seq, Weights::uniform(1), spec.curve_depth).map_err(err)?;
        let entries = store.entries();
        // Fill every reference curve.
        let depth: Vec<usize> = entries.iter().map(|e| spec.curve_depth.min(e.len())).collect();
        let deepest: Vec<f64> = par_map(entries, |e| sse_at(e, spec.curve_depth.min(e.len())))
            .into_iter()
            .collect::<Res<_>>()?;

        let mut order: Vec<usize> = (0..entries.len()).collect();
        Rng::new(seed, 9).shuffle(&mut order);
        let mut scripts = Vec::new();
        for client in 0..THREADS as u64 {
            let mut rng = Rng::new(seed, 10 + client);
            // The lowest ε the cached depth still answers, per group.
            let eps_floor = |g: usize| deepest[g] / entries[g].emax();
            let mut reqs: Vec<(usize, QueryBound, Class)> = order
                .iter()
                .map(|&g| {
                    let lo = eps_floor(g) * 1.05;
                    (g, QueryBound::Error(lo + (1.0 - lo) * rng.unit()), Class::Cold)
                })
                .collect();
            let mut rest: Vec<(usize, QueryBound, Class)> = (0..spec.hits)
                .map(|_| {
                    let g = rng.range(0, entries.len() as i64 - 1) as usize;
                    let e = &entries[g];
                    let k = rng.range(e.cmin().max(1) as i64, depth[g] as i64) as usize;
                    let bound = match rng.range(0, 2) {
                        0 => QueryBound::Size(k),
                        1 => {
                            let lo = eps_floor(g) * 1.05;
                            QueryBound::Error(lo + (1.0 - lo) * rng.unit())
                        }
                        // ⌈r·n⌉ = k at most, so the curve answers it.
                        _ => QueryBound::Ratio((k as f64 - 0.5) / e.len() as f64),
                    };
                    (g, bound, Class::Hit)
                })
                .collect();
            for (g, e) in entries.iter().enumerate() {
                let d = spec.curve_depth;
                if e.len() > d {
                    let c = rng.range(d as i64 + 1, (2 * d).min(e.len()) as i64) as usize;
                    let at = rng.range(0, rest.len() as i64) as usize;
                    rest.insert(at, (g, QueryBound::Size(c), Class::Direct));
                }
            }
            reqs.extend(rest);
            scripts.push(reqs);
        }

        // Render every request, and its reference reply, in wire form.
        let mut rendered = Vec::new();
        for reqs in scripts {
            let lines = par_map(&reqs, |&(g, bound, class)| -> Res<Req> {
                let e = &entries[g];
                let (line, bound) = match bound {
                    QueryBound::Size(c) => (format!("reduce {} c={c}", e.name()), bound),
                    QueryBound::Error(x) => {
                        let (s, v) = fraction(x);
                        (format!("reduce {} eps={s}", e.name()), QueryBound::Error(v))
                    }
                    QueryBound::Ratio(x) => {
                        let (s, v) = fraction(x);
                        (format!("reduce {} ratio={s}", e.name()), QueryBound::Ratio(v))
                    }
                };
                let (expect, cached) = reply(e, bound)?;
                if cached != (class != Class::Direct) {
                    return Err(format!("`{line}` does not resolve as a {class:?} request"));
                }
                Ok(Req { group: g, bound, line, class, expect })
            });
            rendered.push(lines.into_iter().collect::<Res<Vec<Req>>>()?);
        }
        Ok(Input { text, schema, spec: ita_spec, config, seq, scripts: rendered })
    }

    /// Set-up as the operator pays it: CSV text to a listening server.
    fn start(&self) -> Res<Server> {
        let (rel, report) =
            pta::read_csv(self.schema.clone(), &self.text, THREADS, RowPolicy::Strict)
                .map_err(err)?;
        let server = Server::start(self.config.clone(), &rel, &self.spec).map_err(err)?;
        server.record_ingest(&report);
        Ok(server)
    }
}

fn sse_at(entry: &GroupEntry, k: usize) -> Res<f64> {
    Ok(entry.answer(QueryBound::Size(k), &CancelToken::inert()).map_err(err)?.sse)
}

/// One reply as the client saw it.
struct Sample {
    class: Class,
    secs: f64,
    ok: bool,
    curve: bool,
}

/// First touches between two slowdown readings.
const COLD_STEP: usize = 4;
/// Slices of the rest of a script (curve hits and direct DPs), each
/// between two slowdown readings.
const REST_SEGMENTS: usize = 4;

/// How the serve requests' wall time scales with the calibration
/// kernel's slowdown: as its square. On the 2-vCPU host the benchmark
/// was sized on, the log-log slope of single-threaded curve-fill time
/// against the kernel's slowdown read around it was 1.8 (340 paired
/// readings over 200 s). The kernel is latency-bound and in cache; the
/// DP's fills are throughput-bound over a table that is not, and lose
/// more to a busy neighbour. (The batch workloads, whose queries use
/// both cores, track the kernel with an exponent of 1 or less, and keep
/// 1.)
const SERVE_SENSITIVITY: f64 = 2.0;

/// The script positions at which both clients pause while the machine's
/// slowdown is read: the start, every `COLD_STEP` first touches, the
/// bounds of `REST_SEGMENTS` even slices of the rest, and the end.
fn checkpoint_positions(len: usize, cold: usize) -> Vec<usize> {
    let mut at: Vec<usize> = (0..cold).step_by(COLD_STEP).collect();
    at.extend((0..=REST_SEGMENTS).map(|j| cold + (len - cold) * j / REST_SEGMENTS));
    at.dedup();
    at
}

/// The pauses both clients of an iteration share. Once both have
/// arrived at one, no request is in flight and client 0 reads the
/// slowdown; the script's busy time runs from leaving one pause to
/// arriving at the next, so the readings are not part of it.
struct Checkpoints {
    at: Vec<usize>,
    barrier: Barrier,
    /// Per pause: the slowdown read there, when the clients arrived and
    /// when they left.
    marks: Mutex<Vec<(f64, Instant, Instant)>>,
}

impl Checkpoints {
    fn new(len: usize, cold: usize, clients: usize) -> Checkpoints {
        Checkpoints {
            at: checkpoint_positions(len, cold),
            barrier: Barrier::new(clients),
            marks: Mutex::new(Vec::new()),
        }
    }

    fn pause(&self, leader: bool) {
        self.barrier.wait();
        let mark = leader.then(|| (Instant::now(), slowdown()));
        self.barrier.wait();
        if let Some((arrived, slow)) = mark {
            let mut marks = self.marks.lock().unwrap_or_else(PoisonError::into_inner);
            marks.push((slow, arrived, Instant::now()));
        }
    }

    /// The slowdowns read, and the seconds between the pauses.
    fn readings_and_busy(&self) -> (Vec<f64>, f64) {
        let marks = self.marks.lock().unwrap_or_else(PoisonError::into_inner);
        let busy = marks.windows(2).map(|w| secs(w[1].1 - w[0].2)).sum();
        (marks.iter().map(|m| m.0).collect(), busy)
    }
}

struct Iteration {
    setup_s: f64,
    /// The slowdowns read before the server started and at every pause.
    readings: Vec<f64>,
    /// Seconds the clients ran their scripts, pauses excluded.
    busy_s: f64,
    samples: Vec<Sample>,
    failures: Vec<String>,
    stats_line: Option<String>,
    overloaded: u64,
    shed: u64,
}

/// A kept-alive client running one script in a closed loop, pausing at
/// every checkpoint. Returns its samples and its first failures.
fn client_loop(
    addr: std::net::SocketAddr,
    script: &[Req],
    checkpoints: &Checkpoints,
    leader: bool,
) -> (Vec<Sample>, Vec<String>) {
    let mut failures = Vec::new();
    let mut client = Client::connect(addr).map_err(|e| failures.push(format!("connect: {e}"))).ok();
    let mut passed = 0;
    let mut samples = Vec::with_capacity(script.len());
    for (i, req) in script.iter().enumerate() {
        if checkpoints.at.get(passed) == Some(&i) {
            checkpoints.pause(leader);
            passed += 1;
        }
        let t = Instant::now();
        let got = match client.as_mut() {
            Some(c) => c.request(&req.line).map_err(err),
            None => Err("not connected".to_string()),
        };
        let secs = secs(t.elapsed());
        let ok = got.as_deref() == Ok(req.expect.as_str());
        if !ok && failures.len() < 3 {
            failures.push(format!("`{}` got {got:?}, want `{}`", req.line, req.expect));
        }
        let curve = ok && req.expect.ends_with("source=curve");
        samples.push(Sample { class: req.class, secs, ok, curve });
        if got.is_err() {
            // The connection is gone; the rest of the script fails too.
            client = None;
        }
    }
    // The remaining pauses, the end of the script among them; every
    // client passes every pause, so none is left waiting.
    while passed < checkpoints.at.len() {
        checkpoints.pause(leader);
        passed += 1;
    }
    (samples, failures)
}

fn iteration(input: &Input, ask_stats: bool) -> Res<Iteration> {
    let before = slowdown();
    let t = Instant::now();
    let server = input.start()?;
    let setup_s = secs(t.elapsed());
    let handle = server.handle();
    let addr = handle.addr();
    let script = &input.scripts[0];
    let cold = script.iter().filter(|r| r.class == Class::Cold).count();
    let checkpoints = Checkpoints::new(script.len(), cold, input.scripts.len());
    std::thread::scope(|s| {
        let run = s.spawn(move || server.run());
        let clients: Vec<_> = input
            .scripts
            .iter()
            .enumerate()
            .map(|(i, script)| {
                let checkpoints = &checkpoints;
                s.spawn(move || client_loop(addr, script, checkpoints, i == 0))
            })
            .collect();
        let mut samples = Vec::new();
        let mut failures = Vec::new();
        for c in clients {
            let (s, f) = c.join().map_err(|_| "a client thread panicked".to_string())?;
            samples.extend(s);
            failures.extend(f);
        }
        let (mut readings, busy_s) = checkpoints.readings_and_busy();
        readings.push(before);
        let stats_line = if ask_stats {
            Client::connect(addr).and_then(|mut c| c.request("stats")).ok()
        } else {
            None
        };
        handle.shutdown();
        let stats = run.join().map_err(|_| "the server thread panicked".to_string())?;
        Ok(Iteration {
            setup_s,
            readings,
            busy_s,
            samples,
            failures,
            stats_line,
            overloaded: stats.overloaded,
            shed: stats.shed_queue_wait,
        })
    })
}

/// Round trips of the answered requests of `class`, in seconds.
fn class_secs(iters: &[Iteration], class: Class) -> Vec<f64> {
    iters
        .iter()
        .flat_map(|it| it.samples.iter().filter(|s| s.class == class && s.ok).map(|s| s.secs))
        .collect()
}

/// Per iteration, the mean round trip of the answered `class` requests.
/// A mean over a whole script (≈ 1 s of work per class) smooths the
/// sub-second stalls of a shared host that single ≈ 100 ms requests are
/// exposed to; the metric is the median of these means.
fn iteration_means(iters: &[Iteration], class: Class) -> Vec<f64> {
    iters
        .iter()
        .filter_map(|it| {
            let xs: Vec<f64> =
                it.samples.iter().filter(|s| s.class == class && s.ok).map(|s| s.secs).collect();
            (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
        })
        .collect()
}

pub fn run(spec: &ServeSpec, args: &Args) -> Res<Report> {
    let input = Input::new(spec, args.seed)?;
    let mut report = Report::default();
    let n = input.seq.len();
    let runs = input.seq.cmin();
    report.note(format!(
        "input: {} groups x {} chronons, ITA n {n}, ita.runs {runs}, curve depth {}, \
         {} requests per client",
        spec.groups,
        spec.len,
        spec.curve_depth,
        input.scripts[0].len()
    ));
    let mut readings = vec![slowdown()];
    let mut setup = time_reps(Duration::from_millis(1500), 3, 100, || input.start())?;
    readings.push(slowdown());
    let budget = Duration::from_secs(args.seconds);
    let mut iters: Vec<Iteration> = Vec::new();
    let t0 = Instant::now();
    // The traced run needs one iteration for the wire-level figures; the
    // layers are then timed in-process.
    while iters.is_empty() || (!args.trace && t0.elapsed() < budget) {
        let it = iteration(&input, args.trace)?;
        for s in &it.samples {
            report.tally(s.ok);
        }
        for f in &it.failures {
            report.note(format!("FAILED: {f}"));
        }
        setup.push(it.setup_s);
        readings.extend(&it.readings);
        iters.push(it);
    }
    let hits = class_secs(&iters, Class::Hit);
    let direct = class_secs(&iters, Class::Direct);
    let cold = class_secs(&iters, Class::Cold);
    let hit_p50 = median(&hits) * 1e6;
    let hit_p99 = percentile(&hits, 0.99) * 1e6;
    report.note(format!(
        "per request: hit_us p50 {hit_p50} p99 {hit_p99} (samples {}); direct_ms p50 {} \
         p90 {} (samples {}); cold_ms p50 {} p90 {} (samples {}); {} iterations",
        hits.len(),
        median(&direct) * 1e3,
        percentile(&direct, 0.9) * 1e3,
        direct.len(),
        median(&cold) * 1e3,
        percentile(&cold, 0.9) * 1e3,
        cold.len(),
        iters.len(),
    ));
    if !args.trace {
        // One slowdown for the whole run: the median of all its readings.
        // Single readings are too noisy to calibrate single iterations by.
        let slow = median(&readings);
        let scale = slow.powf(SERVE_SENSITIVITY);
        let requests: usize = iters.iter().map(|i| i.samples.len()).sum();
        let busy: f64 = iters.iter().map(|i| i.busy_s).sum();
        let direct_means = iteration_means(&iters, Class::Direct);
        let cold_means = iteration_means(&iters, Class::Cold);
        report.note(format!(
            "uncalibrated medians: ptac_ms {} ptae_ms {} setup_s {} ops_per_s {}; \
             slowdown {slow} (median of {} readings)",
            median(&direct_means) * 1e3,
            median(&cold_means) * 1e3,
            median(&setup),
            requests as f64 / busy,
            readings.len()
        ));
        report.timing("setup_s", "s", 1.0 / slow, &setup);
        report.value("peak_rss_mb", "MB", crate::report::peak_rss_mb()?);
        report.timing("ptac_ms", "ms", 1e3 / scale, &direct_means);
        report.timing("ptae_ms", "ms", 1e3 / scale, &cold_means);
        report.value("ops_per_s", "1/s", requests as f64 / busy * scale);
        return Ok(report);
    }

    let it = &iters[0];
    let tr = layers(&input, &mut report, &setup)?;
    let answered: Vec<&Sample> = it.samples.iter().filter(|s| s.ok).collect();
    let curve = answered.iter().filter(|s| s.curve).count();
    let answer_us = report.metric("serve.answer_us").unwrap_or(0.0);
    report.value("serve.wire_us", "us", hit_p50 - answer_us);
    report.value("serve.hit_ratio", "ratio", curve as f64 / answered.len().max(1) as f64);
    let cached = it
        .stats_line
        .as_deref()
        .and_then(|l| l.split_whitespace().find_map(|t| t.strip_prefix("curves_cached=")))
        .and_then(|v| v.parse::<f64>().ok());
    match cached {
        Some(c) => report.value("serve.curves_cached", "count", c),
        None => report.check_failures.push("no curves_cached in the stats reply".to_string()),
    }
    report.value("serve.shed", "count", it.shed as f64);
    report.value("serve.overloaded", "count", it.overloaded as f64);
    report.value("serve.hit_us_p50", "us", hit_p50);
    report.value("serve.hit_us_p99", "us", hit_p99);
    report.trace = Some(tr);
    Ok(report)
}

/// The traced part: the set-up pipeline rebuilt from public entry points
/// under spans, then `GroupEntry::answer` and the DP entry points timed
/// in-process on a store built the same way the server builds its own.
fn layers(input: &Input, report: &mut Report, setup: &[f64]) -> Res<Tracer> {
    let mut tr = Tracer::default();
    let mut roots = Vec::new();
    let mut store = None;
    let t0 = Instant::now();
    while roots.len() < 3 || (roots.len() < 20 && t0.elapsed() < Duration::from_millis(600)) {
        let root = tr.open("setup");
        let (rel, _) = tr
            .span("csv", || {
                pta::read_csv(input.schema.clone(), &input.text, THREADS, RowPolicy::Strict)
            })
            .map_err(err)?;
        let seq = tr.span("ita", || ita(&rel, &input.spec)).map_err(err)?;
        tr.span("csv", || drop(rel));
        let built = tr
            .span("serve.build", || {
                GroupStore::build(&seq, Weights::uniform(1), input.config.curve_depth)
            })
            .map_err(err)?;
        let listener = tr.span("bind", || TcpListener::bind(&input.config.addr)).map_err(err)?;
        tr.span("serve.build", || drop((seq, listener, store.replace(built))));
        tr.close(root);
        roots.push(root);
    }
    let store = store.expect("at least one store was built");
    let stream_s = time_reps(Duration::from_millis(300), 3, 50, || {
        let rel = pta::read_csv(input.schema.clone(), &input.text, THREADS, RowPolicy::Strict)
            .map_err(err)?
            .0;
        StreamingIta::new(&rel, &input.spec).map(Iterator::count).map_err(err)
    })?;

    // Client 0's script, in-process, checked against the reference.
    let script = &input.scripts[0];
    let mut by_class: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for req in script {
        let entry = &store.entries()[req.group];
        let t = Instant::now();
        let got = reply(entry, req.bound);
        by_class[req.class as usize].push(secs(t.elapsed()));
        match got {
            Ok((line, _)) if line == req.expect => report.tally(true),
            other => report.fail(format!("in-process `{}` gave {other:?}", req.line)),
        }
    }

    // The DP entry points the serve layer calls, on the same series.
    let slices = group_slices(&input.seq);
    let weights = Weights::uniform(1);
    let mut direct_dp = Vec::new();
    let mut direct_stats = None;
    for req in script.iter().filter(|r| r.class == Class::Direct) {
        let QueryBound::Size(c) = req.bound else { continue };
        let opts = DpOptions::default().with_threads(1);
        let t = Instant::now();
        let out = pta_size_bounded_with_opts(&slices[req.group], &weights, c, opts).map_err(err)?;
        direct_dp.push(secs(t.elapsed()));
        direct_stats.get_or_insert(out.stats);
    }
    let mut curve_dp = Vec::new();
    for s in &slices {
        let kmax = input.config.curve_depth.min(s.len());
        let t = Instant::now();
        optimal_error_curve_with_cancel(
            s,
            &weights,
            kmax,
            DpStrategy::Auto,
            1,
            CancelToken::inert(),
        )
        .map_err(err)?;
        curve_dp.push(secs(t.elapsed()));
    }

    let per = |name: &str| -> Vec<f64> { roots.iter().map(|&r| tr.child_secs(r, name)).collect() };
    let csv = per("csv");
    report.timing("csv.parse_s", "s", 1.0, &csv);
    let rows = input.text.lines().count() - 1;
    report.value("csv.rows_per_s", "1/s", rows as f64 / median(&csv));
    report_ita(report, &per("ita"), &stream_s, input.seq.len(), input.seq.cmin());
    report.value("query.c", "count", input.config.curve_depth as f64);
    // `.ptac`: the direct size-bounded DPs; `.ptae`: the curve fills that
    // answer ε requests (that entry point reports no counters).
    report_dp(report, "ptac", median(&direct_dp), direct_stats);
    report.value("dp.share.ptac", "ratio", median(&direct_dp) / median(&by_class[2]));
    report_dp(report, "ptae", median(&curve_dp), None);
    report.value("dp.share.ptae", "ratio", median(&curve_dp) / median(&by_class[0]));
    for k in ["ptac", "ptae"] {
        for (name, unit) in
            [("greedy.s", "s"), ("greedy.merges", "count"), ("greedy.max_heap", "count")]
        {
            report.value(&format!("{name}.{k}"), unit, 0.0);
        }
        report.value(&format!("output.s.{k}"), "s", 0.0);
        report.value(&format!("output.bytes.{k}"), "bytes", 0.0);
    }
    report.timing("serve.build_s", "s", 1.0, &per("serve.build"));
    report.timing("serve.fill_ms", "ms", 1e3, &by_class[0]);
    report.timing("serve.answer_us", "us", 1e6, &by_class[1]);
    report.timing("serve.direct_ms", "ms", 1e3, &by_class[2]);
    let coverage = median(&roots.iter().map(|&r| tr.coverage(r)).collect::<Vec<_>>());
    report.value("trace.coverage", "ratio", coverage);
    let traced: Vec<f64> = roots.iter().map(|&r| tr.get(r).secs()).collect();
    report.value("trace.overhead", "ratio", median(&traced) / median(setup));
    Ok(tr)
}

/// The per-group series, split the way `GroupStore::build` splits them.
fn group_slices(seq: &SequentialRelation) -> Vec<SequentialRelation> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < seq.len() {
        let j = (i..seq.len()).find(|&j| seq.group(j) != seq.group(i)).unwrap_or(seq.len());
        out.push(seq.slice(i..j));
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TINY_SERVE;

    fn failed(it: &Iteration) -> usize {
        it.samples.iter().filter(|s| !s.ok).count()
    }

    #[test]
    fn scripts_hold_every_request_class() {
        let input = Input::new(&TINY_SERVE, 4).unwrap();
        for script in &input.scripts {
            let count = |c: Class| script.iter().filter(|r| r.class == c).count();
            assert_eq!(count(Class::Cold), TINY_SERVE.groups);
            assert_eq!(count(Class::Direct), TINY_SERVE.groups);
            assert_eq!(count(Class::Hit), TINY_SERVE.hits);
        }
        // Both clients touch the groups in the same order first.
        let firsts =
            |s: &Vec<Req>| s[..TINY_SERVE.groups].iter().map(|r| r.group).collect::<Vec<_>>();
        assert_eq!(firsts(&input.scripts[0]), firsts(&input.scripts[1]));
    }

    #[test]
    fn checkpoints_span_the_script() {
        assert_eq!(checkpoint_positions(632, 16), vec![0, 4, 8, 12, 16, 170, 324, 478, 632]);
        assert_eq!(checkpoint_positions(46, 3), vec![0, 3, 13, 24, 35, 46]);
        assert_eq!(checkpoint_positions(0, 0), vec![0]);
    }

    #[test]
    fn a_wrong_answer_counts_as_failed() {
        let mut input = Input::new(&TINY_SERVE, 4).unwrap();
        input.scripts[0][3].expect.push('!');
        let it = iteration(&input, false).unwrap();
        assert_eq!(failed(&it), 1);
        assert_eq!(it.samples.len(), 2 * (2 * TINY_SERVE.groups + TINY_SERVE.hits));
    }

    #[test]
    fn refused_requests_count_as_failed() {
        let spec = ServeSpec { queue_depth: 0, ..TINY_SERVE };
        let input = Input::new(&spec, 4).unwrap();
        let it = iteration(&input, false).unwrap();
        assert_eq!(failed(&it), it.samples.len());
        assert_eq!(it.overloaded, 2);
    }
}
