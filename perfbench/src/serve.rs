//! The `serve_tcp` workload: a closed loop of `nproc` connections over
//! a real loopback socket to `tcpfront::accept_loop`, each sending a
//! seeded mix of the four builtin pipelines.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use mozart_core::{Config, PhaseStats};
use mozart_serve::protocol::{parse_line, ClientLine};
use mozart_serve::tcpfront::{accept_loop, FrontendConfig};
use mozart_serve::{builtin_pipelines, PipelineService, ServiceStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::eval::{engine_metrics, pool_metrics, run_metrics, Engine};
use crate::report::Report;
use crate::stats::{geomean, median, percentile, quantile, Failures, TAIL_SUPPORT};
use crate::{sub_seed, sys, RunArgs};

/// The builtin pipelines, in the order their lines are generated.
const PIPELINES: [&str; 4] = ["black_scholes", "haversine", "nashville", "crime_index"];

/// Size classes in elements (pixels for `nashville`, rows for
/// `crime_index`): tiny requests, where the front end and planning
/// dominate; large ones, where evaluation dominates (the Figure 4 scale-1
/// size of Haversine and Data Cleaning); and medium between them. The
/// classes are six doublings apart. Each (pipeline, size) pair has the
/// same weight (see [`Mix`]), so no regime is favoured; the per-class
/// latencies are printed with every run.
const SIZES: [usize; 3] = [1 << 8, 1 << 14, 1 << 20];
const SIZE_NAMES: [&str; 3] = ["tiny", "medium", "large"];

/// Input seeds per pipeline and size. Three sizes × two seeds keep every
/// pipeline's keys within the server's eight-entry input memo, so the
/// memo stays warm; equal sizes with different seeds share a shape, so
/// plan-cache replay applies and coalescing can.
const SEEDS_PER_SIZE: usize = 2;

/// A distinct request line of the mix.
struct Line {
    text: String,
    pipeline: usize,
    size: usize,
}

fn request_line(pipeline: usize, elements: usize, seed: u64) -> String {
    match PIPELINES[pipeline] {
        "nashville" => {
            // A 4:3 image with about `elements` pixels.
            let w = ((elements as f64 * 4.0 / 3.0).sqrt() as usize).max(4);
            format!(
                "nashville width={w} height={} seed={seed}",
                (w * 3 / 4).max(3)
            )
        }
        "crime_index" => format!("crime_index rows={elements} seed={seed}"),
        name => format!("{name} n={elements} seed={seed}"),
    }
}

/// Every distinct line of the mix, indexed `(pipeline, size, seed)`.
fn distinct_lines(seed: u64) -> Vec<Line> {
    let mut lines = Vec::new();
    for p in 0..PIPELINES.len() {
        for (s, &elements) in SIZES.iter().enumerate() {
            for k in 0..SEEDS_PER_SIZE {
                let input_seed = sub_seed(seed, (p * 100 + s * 10 + k) as u64) % 1_000_000;
                lines.push(Line {
                    text: request_line(p, elements, input_seed),
                    pipeline: p,
                    size: s,
                });
            }
        }
    }
    lines
}

/// The seeded request sequence of connection `conn`: rounds of every
/// distinct line once, each round in its own seeded order. Every
/// (pipeline, size, input seed) line is sent equally often, so runs of
/// different seeds differ in order, not in composition.
struct Mix {
    rng: StdRng,
    round: Vec<usize>,
}

impl Mix {
    fn new(seed: u64, conn: usize) -> Mix {
        Mix {
            rng: StdRng::seed_from_u64(sub_seed(seed, 1000 + conn as u64)),
            round: Vec::new(),
        }
    }

    /// Index of the next line into [`distinct_lines`].
    fn next(&mut self) -> usize {
        if self.round.is_empty() {
            self.round = (0..PIPELINES.len() * SIZES.len() * SEEDS_PER_SIZE).collect();
            for i in (1..self.round.len()).rev() {
                self.round.swap(i, self.rng.gen_range(0..=i));
            }
        }
        self.round.pop().expect("refilled when empty")
    }
}

/// A service listening on a loopback port.
struct Server {
    service: PipelineService,
    addr: SocketAddr,
}

/// Build a service, bind a loopback listener and start the accept loop.
/// The accept loop has no shutdown: its thread ends with the process.
fn start_server(workers: usize, tracing: bool) -> Result<Server, String> {
    let service = PipelineService::builder()
        .workers(workers)
        .tracing(tracing)
        .builtin_pipelines()
        .build();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let served = service.clone();
    std::thread::spawn(move || accept_loop(listener, served, FrontendConfig::default()));
    Ok(Server { service, addr })
}

/// One client connection speaking the line protocol.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer,
            reader,
            reply: String::new(),
        })
    }

    /// Send one line (a single write) and read its one-line reply.
    fn round_trip(&mut self, line: &str) -> Result<&str, String> {
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line);
        msg.push('\n');
        self.writer
            .write_all(msg.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.reply.trim_end()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// The body of an `OK` reply with any ` trace=<id>` suffix removed, or
/// `None` for anything else.
fn ok_body(reply: &str) -> Option<&str> {
    let body = reply.strip_prefix("OK ")?;
    Some(body.rsplit_once(" trace=").map_or(body, |(b, _)| b))
}

/// Reference bodies: every distinct line through in-process
/// `Session::call` (outside every timed and setup region). This also
/// fills the server's input memo and plan cache.
fn references(
    service: &PipelineService,
    lines: &[Line],
    failures: &mut Failures,
) -> Vec<Option<String>> {
    let session = service.session();
    lines
        .iter()
        .map(|l| {
            let body = match parse_line(&l.text) {
                Ok(ClientLine::Call(name, req)) => session.call(&name, &req).map(|r| r.body).ok(),
                _ => None,
            };
            if body.is_none() {
                eprintln!("reference call failed: {}", l.text);
            }
            failures.record(body.is_some());
            body
        })
        .collect()
}

/// Latency samples of one closed-loop phase.
#[derive(Default)]
struct Phase {
    /// `(line index, seconds)` of every good reply.
    samples: Vec<(usize, f64)>,
    failures: Failures,
    wall: f64,
}

impl Phase {
    fn seconds(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }

    fn req_per_s(&self) -> f64 {
        self.samples.len() as f64 / self.wall
    }

    /// Geometric mean over pipelines of each pipeline's median latency.
    fn pipeline_geomean(&self, lines: &[Line]) -> Option<f64> {
        let medians: Vec<f64> = (0..PIPELINES.len())
            .map(|p| {
                let v: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| lines[s.0].pipeline == p)
                    .map(|s| s.1)
                    .collect();
                median(&v)
            })
            .collect::<Option<_>>()?;
        geomean(&medians)
    }

    /// Latencies of the replies of size class `size`.
    fn class_seconds(&self, lines: &[Line], size: usize) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| lines[s.0].size == size)
            .map(|s| s.1)
            .collect()
    }
}

/// Print each size class's reply count and latency percentiles (p99
/// interpolated: a class may have fewer than a p99 needs).
fn print_classes(label: &str, phase: &Phase, lines: &[Line]) {
    for (s, name) in SIZE_NAMES.iter().enumerate() {
        let v = phase.class_seconds(lines, s);
        let ms = |q| quantile(&v, q).map_or(f64::NAN, |x| 1e3 * x);
        println!(
            "{label} {name:<6} ({:>7} elements): {:>5} replies, p50 {:>9.3} ms, p99 {:>9.3} ms",
            SIZES[s],
            v.len(),
            ms(0.5),
            ms(0.99)
        );
    }
}

/// How a phase's requests reach the service.
#[derive(Clone, Copy)]
enum Transport<'a> {
    /// A TCP connection per client.
    Tcp(SocketAddr),
    /// A `Session::call` per request, one session per client thread.
    InProcess(&'a PipelineService),
}

/// The request load of a closed-loop phase: `conns` clients, each
/// sending its own seeded sequence over `lines`, checked against `refs`.
#[derive(Clone, Copy)]
struct Load<'a> {
    lines: &'a [Line],
    refs: &'a [Option<String>],
    seed: u64,
    conns: usize,
}

/// Closed loop: every client sends one request after the previous reply,
/// until `budget` has passed and at least `min_samples` replies arrived
/// (or `limit` passed). Each client first sends [`WARMUP`] requests
/// of its own sequence untimed; the peak-RSS mark is reset when timing
/// starts.
fn closed_loop(
    transport: Transport<'_>,
    load: Load<'_>,
    budget: Duration,
    min_samples: usize,
    limit: Duration,
) -> Result<Phase, String> {
    let Load {
        lines,
        refs,
        seed,
        conns,
    } = load;
    let ready = Barrier::new(conns + 1);
    let go = Barrier::new(conns + 1);
    let start_at: Mutex<Option<Instant>> = Mutex::new(None);
    let done = AtomicUsize::new(0);
    let result: Mutex<Phase> = Mutex::new(Phase::default());
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::with_capacity(conns);
        for conn in 0..conns {
            let (ready, go, start_at, done, result) = (&ready, &go, &start_at, &done, &result);
            handles.push(scope.spawn(move || -> Result<(), String> {
                let mut tcp = None;
                let session = match transport {
                    Transport::Tcp(addr) => {
                        tcp = Some(Client::connect(addr));
                        None
                    }
                    Transport::InProcess(service) => Some(service.session()),
                };
                let mut send = |i: usize| -> Option<bool> {
                    let body = match (&mut tcp, &session) {
                        (Some(Ok(c)), _) => c
                            .round_trip(&lines[i].text)
                            .ok()
                            .and_then(ok_body)
                            .map(str::to_string),
                        (_, Some(s)) => match parse_line(&lines[i].text) {
                            Ok(ClientLine::Call(name, req)) => {
                                s.call(&name, &req).ok().map(|r| r.body)
                            }
                            _ => None,
                        },
                        _ => return None,
                    };
                    Some(body.is_some() && body == refs[i])
                };
                let mut mix = Mix::new(seed, conn);
                let mut local = Phase::default();
                for _ in 0..WARMUP {
                    let i = mix.next();
                    local.failures.record(send(i).unwrap_or(false));
                }
                ready.wait();
                go.wait();
                let start = start_at
                    .lock()
                    .expect("start time poisoned")
                    .expect("set before go");
                let hard_stop = start + limit.max(budget);
                loop {
                    let now = Instant::now();
                    if now >= hard_stop
                        || (now >= start + budget && done.load(Ordering::Relaxed) >= min_samples)
                    {
                        break;
                    }
                    let i = mix.next();
                    let t0 = Instant::now();
                    let ok = send(i);
                    let dt = t0.elapsed();
                    let Some(ok) = ok else {
                        return Err(format!("connection {conn} failed"));
                    };
                    local.failures.record(ok);
                    if ok {
                        local.samples.push((i, dt.as_secs_f64()));
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let mut r = result.lock().expect("phase result poisoned");
                r.samples.extend(local.samples);
                r.failures.absorb(local.failures);
                Ok(())
            }));
        }
        ready.wait();
        let started = sys::reset_peak_rss().map_err(|e| format!("cannot reset VmHWM: {e}"));
        let start = Instant::now();
        *start_at.lock().expect("start time poisoned") = Some(start);
        go.wait();
        let mut outcome = started;
        for h in handles {
            let r = h
                .join()
                .map_err(|_| "client thread panicked".to_string())
                .and_then(|r| r);
            if outcome.is_ok() {
                outcome = r;
            }
        }
        result.lock().expect("phase result poisoned").wall = start.elapsed().as_secs_f64();
        outcome
    })?;
    Ok(result.into_inner().expect("phase result poisoned"))
}

/// Setups measured per run; `setup_s` is their median. A setup takes
/// about a millisecond, so many are cheap and steady the median.
const SETUP_REPS: usize = 31;

/// Longest the traced run's in-process phase may run to collect
/// [`P99_SAMPLES`] calls (it needs about 15 s on two cores).
const IN_PROCESS_LIMIT: Duration = Duration::from_secs(90);

/// Warm-up requests per connection before timing.
const WARMUP: usize = 8;

/// Replies needed for a p99 with [`TAIL_SUPPORT`] samples beyond it.
const P99_SAMPLES: usize = TAIL_SUPPORT * 100;

/// Service build, bind, and the first round trip (a tiny request).
fn setup(
    workers: usize,
    tracing: bool,
    lines: &[Line],
    failures: &mut Failures,
) -> Result<(Server, f64, f64), String> {
    let t0 = Instant::now();
    let server = start_server(workers, tracing)?;
    let service_s = t0.elapsed().as_secs_f64();
    let mut client = Client::connect(server.addr)?;
    let ok = client
        .round_trip(&lines[0].text)
        .map(|r| ok_body(r).is_some())
        .unwrap_or(false);
    failures.record(ok);
    Ok((server, service_s, t0.elapsed().as_secs_f64()))
}

fn print_context(args: &RunArgs, workers: usize, lines: &[Line]) {
    let llc = sys::llc_bytes().map_or("null".to_string(), |b| b.to_string());
    println!(
        "context {{\"workload\": \"serve_tcp\", \"nproc\": {}, \"workers\": {workers}, \"connections\": {workers}, \"seed\": {}, \"llc_bytes\": {llc}, \"distinct_lines\": {}}}",
        sys::nproc(),
        args.seed,
        lines.len()
    );
}

/// Run `serve_tcp`.
pub fn run(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let workers = sys::nproc();
    let lines = distinct_lines(args.seed);
    print_context(args, workers, &lines);
    if args.trace {
        traced(args, workers, &lines, report)
    } else {
        untraced(args, workers, &lines, report)
    }
}

fn untraced(
    args: &RunArgs,
    workers: usize,
    lines: &[Line],
    report: &mut Report,
) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        let (s, _, total) = setup(workers, false, lines, &mut report.failures)?;
        setups.push(total);
        server = Some(s);
    }
    let server = server.expect("SETUP_REPS > 0");
    println!(
        "setup: {SETUP_REPS} runs, ms: {}",
        setups
            .iter()
            .map(|s| format!("{:.3}", 1e3 * s))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let refs = references(&server.service, lines, &mut report.failures);
    let load = Load {
        lines,
        refs: &refs,
        seed: args.seed,
        conns: workers,
    };
    let phase = closed_loop(
        Transport::Tcp(server.addr),
        load,
        Duration::from_secs(args.seconds),
        P99_SAMPLES,
        3 * Duration::from_secs(args.seconds),
    )?;
    let peak = sys::peak_rss_mb().ok_or("cannot read VmHWM")?;
    report.failures.absorb(phase.failures);
    let secs = phase.seconds();
    let p50 = percentile(&secs, 0.5).ok_or("too few replies for a p50")?;
    let p99 = percentile(&secs, 0.99).ok_or_else(|| {
        format!(
            "{} replies cannot support a p99 (need {P99_SAMPLES})",
            secs.len()
        )
    })?;
    report.set(
        "eval_s",
        phase
            .pipeline_geomean(lines)
            .ok_or("a pipeline got no good replies")?,
    );
    report.set("req_per_s", phase.req_per_s());
    report.set("latency_p50_ms", 1e3 * p50);
    report.set("latency_p99_ms", 1e3 * p99);
    report.set("setup_s", median(&setups).expect("SETUP_REPS > 0"));
    report.set("peak_rss_mb", peak);
    print_classes("tcp", &phase, lines);
    println!(
        "samples: {} replies over {:.2} s on {workers} connections; setup runs: {SETUP_REPS}",
        secs.len(),
        phase.wall
    );
    Ok(())
}

fn stats_delta(report: &mut Report, before: &ServiceStats, after: &ServiceStats) {
    let hits = after.plan_cache.hits - before.plan_cache.hits;
    let misses = after.plan_cache.misses - before.plan_cache.misses;
    if hits + misses > 0 {
        report.set(
            "service.plan_hit_rate",
            hits as f64 / (hits + misses) as f64,
        );
    }
    let completed = after.completed - before.completed;
    if completed > 0 {
        report.set(
            "service.coalesced_share",
            (after.coalesced_requests - before.coalesced_requests) as f64 / completed as f64,
        );
    }
    report.set("service.retries", (after.retries - before.retries) as f64);
    report.set(
        "service.rejected",
        (after.rejected - before.rejected) as f64,
    );
}

/// Replay `count` requests of connection 0's sequence directly through
/// the builtin pipelines, each on a fresh context of `engine`: the engine
/// layers under the service, measured per request. Every distinct line
/// runs once untimed first, so input generation stays out of the timing.
fn replay(
    engine: &Engine,
    load: Load<'_>,
    count: usize,
    failures: &mut Failures,
) -> (PhaseStats, Vec<Vec<f64>>, f64, f64) {
    let pipelines: HashMap<&str, _> = builtin_pipelines()
        .into_iter()
        .map(|p| (p.name(), p))
        .collect();
    let mut run = |i: usize| {
        let Ok(ClientLine::Call(name, req)) = parse_line(&load.lines[i].text) else {
            failures.record(false);
            return None;
        };
        let ctx = engine.context();
        let cpu0 = sys::cpu_seconds();
        let t0 = Instant::now();
        let out = pipelines[name.as_str()].run(&ctx, &req);
        let dt = t0.elapsed().as_secs_f64();
        let cpu = sys::cpu_seconds() - cpu0;
        failures.record(out.is_ok_and(|r| Some(r.body) == load.refs[i]));
        Some((dt, cpu, ctx.take_stats()))
    };
    for i in 0..load.lines.len() {
        run(i);
    }
    let mut mix = Mix::new(load.seed, 0);
    let mut stats = PhaseStats::default();
    let mut per_pipeline = vec![Vec::new(); PIPELINES.len()];
    let (mut wall, mut cpu) = (0.0, 0.0);
    for _ in 0..count {
        let i = mix.next();
        if let Some((dt, c, s)) = run(i) {
            wall += dt;
            cpu += c;
            stats.accumulate(&s);
            per_pipeline[load.lines[i].pipeline].push(dt);
        }
    }
    (stats, per_pipeline, wall, cpu)
}

fn traced(
    args: &RunArgs,
    workers: usize,
    lines: &[Line],
    report: &mut Report,
) -> Result<(), String> {
    let mut failures = Failures::default();
    let (plain, service_s, setup_total) = setup(workers, false, lines, &mut failures)?;
    report.set("setup.service_s", service_s);
    report.set("setup.first_eval_s", setup_total - service_s);
    let t0 = Instant::now();
    let engine = Engine::new(Config::with_workers(workers));
    report.set("setup.context_s", t0.elapsed().as_secs_f64());
    let refs = references(&plain.service, lines, &mut failures);
    let load = Load {
        lines,
        refs: &refs,
        seed: args.seed,
        conns: workers,
    };
    let part = Duration::from_secs(args.seconds).div_f64(3.5);

    // Untraced wire latency and the service's own counters.
    let before = plain.service.stats();
    let tcp = closed_loop(Transport::Tcp(plain.addr), load, part, 0, part)?;
    stats_delta(report, &before, &plain.service.stats());
    failures.absorb(tcp.failures);
    let wire_p50 = percentile(&tcp.seconds(), 0.5).ok_or("too few TCP replies for a p50")?;

    // The same sequences and concurrency in-process, long enough for a
    // p99 (up to [`IN_PROCESS_LIMIT`]).
    let inproc = closed_loop(
        Transport::InProcess(&plain.service),
        load,
        part,
        P99_SAMPLES,
        IN_PROCESS_LIMIT,
    )?;
    failures.absorb(inproc.failures);
    let call = inproc.seconds();
    let call_p50 = percentile(&call, 0.5).ok_or("too few in-process calls for a p50")?;
    report.set("service.call_p50_ms", 1e3 * call_p50);
    let call_p99 = percentile(&call, 0.99).ok_or_else(|| {
        format!(
            "{} in-process calls cannot support a p99 (need {P99_SAMPLES})",
            call.len()
        )
    })?;
    report.set("service.call_p99_ms", 1e3 * call_p99);
    report.set("tcpfront.wire_ms", 1e3 * (wire_p50 - call_p50));

    // Tracing on: histogram metrics and the tracing overhead.
    let (traced_server, _, _) = setup(workers, true, lines, &mut failures)?;
    let traced_tcp = closed_loop(Transport::Tcp(traced_server.addr), load, part, 0, part)?;
    failures.absorb(traced_tcp.failures);
    report.set("trace.overhead", tcp.req_per_s() / traced_tcp.req_per_s());
    let m = traced_server
        .service
        .metrics()
        .ok_or("tracing service has no metrics")?;
    let us = |ns: u64| ns as f64 / 1e3;
    report.set("metrics.admission_wait_p50_us", us(m.admission_wait.p50()));
    report.set("metrics.admission_wait_p99_us", us(m.admission_wait.p99()));
    for (name, h) in &m.phases {
        if *name != "unprotect" {
            report.set(format!("metrics.{name}_p50_us"), us(h.p50()));
            report.set(format!("metrics.{name}_p99_us"), us(h.p99()));
        }
    }

    // Protocol parsing alone.
    const PARSES: usize = 400;
    let t0 = Instant::now();
    for _ in 0..PARSES {
        for l in lines {
            std::hint::black_box(parse_line(std::hint::black_box(&l.text)).is_ok());
        }
    }
    report.set(
        "protocol.parse_us",
        t0.elapsed().as_secs_f64() * 1e6 / (PARSES * lines.len()) as f64,
    );

    // The engine under the service, at `workers` and at one worker.
    let count = tcp.samples.len().clamp(50, 200);
    let pool_before = engine.pool_stats();
    let (stats, per, wall, cpu) = replay(&engine, load, count, &mut failures);
    let pool_after = engine.pool_stats();
    engine_metrics(report, &stats, count as f64, wall, cpu);
    pool_metrics(report, &pool_before, &pool_after, count as f64);
    let one_worker = Engine::new(Config::with_workers(1));
    let (_, per_one, _, _) = replay(&one_worker, load, count, &mut failures);
    let gm = |v: &[Vec<f64>]| -> Option<f64> {
        geomean(&v.iter().map(|s| median(s)).collect::<Option<Vec<_>>>()?)
    };
    if let (Some(a), Some(b)) = (gm(&per_one), gm(&per)) {
        report.set("pool.scaling", a / b);
    }
    run_metrics(report, args, workers, tcp.samples.len());
    report.failures.absorb(failures);

    println!(
        "tcp: {} replies, p50 {:.3} ms, p99 {:.3} ms; in-process: p50 {:.3} ms; wire share of p50: {:.1}%",
        tcp.samples.len(),
        1e3 * wire_p50,
        1e3 * quantile(&tcp.seconds(), 0.99).unwrap_or(f64::NAN),
        1e3 * call_p50,
        100.0 * (wire_p50 - call_p50) / wire_p50
    );
    print_classes("tcp", &tcp, lines);
    print_classes("in-process", &inproc, lines);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_sends_every_line_once_per_round() {
        let lines = distinct_lines(5);
        let n = lines.len();
        assert_eq!(n, PIPELINES.len() * SIZES.len() * SEEDS_PER_SIZE);
        let mut mix = Mix::new(5, 0);
        let mut again = Mix::new(5, 0);
        for _ in 0..3 {
            let mut round: Vec<usize> = (0..n).map(|_| mix.next()).collect();
            let repeat: Vec<usize> = (0..n).map(|_| again.next()).collect();
            assert_eq!(round, repeat, "same seed, same order");
            round.sort();
            assert_eq!(round, (0..n).collect::<Vec<_>>());
        }
        let other: Vec<usize> = {
            let mut m = Mix::new(5, 1);
            (0..n).map(|_| m.next()).collect()
        };
        let first: Vec<usize> = {
            let mut m = Mix::new(5, 0);
            (0..n).map(|_| m.next()).collect()
        };
        assert_ne!(other, first, "connections differ in order");
        for s in 0..SIZES.len() {
            let count = lines.iter().filter(|l| l.size == s).count();
            assert_eq!(count, n / SIZES.len(), "equal share per size class");
        }
    }
}
