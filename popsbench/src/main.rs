//! Closed-loop benchmark of the `pops serve` routing daemon.
//!
//! One invocation measures one workload:
//!
//! ```text
//! popsbench --pops PATH --daemon "FLAGS" --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! It generates the workload's inputs from the seed, starts and stops one
//! untimed throwaway daemon (so the binary's pages are cached), then
//! launches the daemon it measures, timing its set-up. Requests go over one
//! closed-loop connection through the public `ServiceClient`; every reply
//! is refereed on the conflict-checking simulator outside its timed round
//! trip. With `--trace 0` it reports the end-to-end metrics
//! (`Run::end_to_end`); with `--trace 1` the per-layer metrics of a traced
//! run over the same inputs (`Run::traced`, `layers`). The last line of
//! standard output is one JSON object with the result; the lines before it
//! are the human report.

mod daemon;
mod inputs;
mod layers;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use pops_network::{PopsTopology, Schedule, Simulator};
use pops_permutation::Permutation;
use pops_service::{frame, RouteReply, ServiceClient, WireFormat};

use daemon::{Daemon, DaemonFlags};
use inputs::{Inputs, Mix};
use stats::Sorted;

/// One traffic mix, sent to a daemon serving POPS(d, g).
struct Workload {
    name: &'static str,
    d: usize,
    g: usize,
    format: WireFormat,
    mix: Mix,
    /// Requests per second the stream is pre-generated for, above the
    /// measured rate. A faster run extends the stream outside its timed
    /// round trips, and the report says by how many requests.
    pregenerate_rate: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "miss-32x32-bin",
        d: 32,
        g: 32,
        format: WireFormat::Binary,
        mix: Mix::Miss,
        pregenerate_rate: 1200,
    },
    Workload {
        name: "hot-16x16-bin",
        d: 16,
        g: 16,
        format: WireFormat::Binary,
        mix: Mix::Hot(768),
        pregenerate_rate: 20_000,
    },
    Workload {
        name: "miss-32x32-json",
        d: 32,
        g: 32,
        format: WireFormat::Json,
        mix: Mix::Miss,
        pregenerate_rate: 600,
    },
];

/// The untraced timed phase runs in this many parts, with a set-up launch
/// before each; `setup_s` is the median of those launches.
const SEGMENTS: usize = 12;
/// The timed phase runs at least this many requests, so even p99 has at
/// least `stats::MIN_BEYOND` samples beyond it.
const MIN_REQUESTS: usize = 2000;
/// The schedule digest covers the first this many timed replies, so runs of
/// different lengths (and codecs) compare.
const DIGEST_REQUESTS: usize = 1000;
/// `cache.l1_hit_ratio` counts hits among the first this many timed
/// replies, so it repeats exactly for a seed.
const RATIO_REQUESTS: usize = 2000;
/// Replies are refereed in bursts of this many, between round trips, so
/// requests mostly follow each other back to back.
const BURST: usize = 32;
/// The traced run alternates untraced and traced blocks of this many
/// requests.
const TRACE_BLOCK: usize = 64;
/// Traced blocks ping the daemon after every this many requests.
const PING_EVERY: usize = 8;

struct Args {
    pops: PathBuf,
    daemon: DaemonFlags,
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a whole number")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        pops: PathBuf::from(get("--pops")?),
        daemon: DaemonFlags::parse(get("--daemon")?)?,
        workload,
        seed: get("--seed")?.parse().map_err(|_| "--seed needs a u64")?,
        seconds: seconds as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("popsbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{}", result.to_json());
            if result.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("popsbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run prints as its last line.
struct RunResult {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Counts failures and keeps the first few messages for the report.
#[derive(Default)]
struct Failures {
    count: usize,
}

impl Failures {
    fn record(&mut self, what: impl std::fmt::Display) {
        self.count += 1;
        if self.count <= 5 {
            eprintln!("popsbench: FAILED: {what}");
        }
    }
}

/// The paper's slot bound for a Theorem-2 plan: 1 for d = 1, else 2⌈d/g⌉.
fn slot_bound(t: PopsTopology) -> usize {
    if t.d() == 1 {
        1
    } else {
        2 * t.d().div_ceil(t.g())
    }
}

/// Referees one reply: the slot count meets the paper's bound, and the
/// schedule runs conflict-free on the simulator and delivers every packet.
fn referee(
    t: PopsTopology,
    pi: &Permutation,
    slots: usize,
    schedule: &Schedule,
) -> Result<(), String> {
    let bound = slot_bound(t);
    if slots != bound || schedule.slot_count() != bound {
        return Err(format!(
            "{} slots ({} in the reply), the bound is {bound}",
            schedule.slot_count(),
            slots
        ));
    }
    let mut sim = Simulator::with_unit_packets(t);
    sim.execute_schedule(schedule)
        .map_err(|(slot, e)| format!("illegal schedule at slot {slot}: {e}"))?;
    sim.verify_delivery(pi.as_slice())
        .map_err(|e| format!("misdelivery: {e}"))
}

/// FNV-1a over the binary schedule encoding of a sequence of replies.
struct Digest {
    hash: u64,
    replies: usize,
    buf: Vec<u8>,
}

impl Digest {
    fn new() -> Self {
        Self {
            hash: 0xcbf2_9ce4_8422_2325,
            replies: 0,
            buf: Vec::new(),
        }
    }

    fn add(&mut self, schedule: &Schedule) {
        self.buf.clear();
        frame::encode_schedule(&mut self.buf, schedule);
        for &b in &self.buf {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.replies += 1;
    }
}

/// A daemon and the closed-loop connection to it.
struct Connection {
    daemon: Daemon,
    client: ServiceClient,
}

/// What closed-loop phases measured.
#[derive(Default)]
struct LoopStats {
    requests: usize,
    wall_s: f64,
    server_cpu_s: f64,
    rtt_us: Vec<f64>,
    service_us: Vec<f64>,
    ping_us: Vec<f64>,
    hits: Vec<bool>,
}

impl LoopStats {
    fn absorb(&mut self, other: LoopStats) {
        self.requests += other.requests;
        self.wall_s += other.wall_s;
        self.server_cpu_s += other.server_cpu_s;
        self.rtt_us.extend(other.rtt_us);
        self.service_us.extend(other.service_us);
        self.ping_us.extend(other.ping_us);
        self.hits.extend(other.hits);
    }
}

/// Referees and digests the replies in `pending`, in order, and empties it.
fn check_replies(
    t: PopsTopology,
    pending: &mut Vec<(usize, Permutation, RouteReply)>,
    digest: &mut Digest,
    failures: &mut Failures,
) {
    for (i, pi, reply) in pending.drain(..) {
        if let Err(e) = referee(t, &pi, reply.slots, &reply.schedule) {
            failures.record(format!("request {i}: {e}"));
        }
        if digest.replies < DIGEST_REQUESTS {
            digest.add(&reply.schedule);
        }
    }
}

/// Shared state of one invocation's closed-loop phases.
struct Run<'a> {
    args: &'a Args,
    t: PopsTopology,
    inputs: Inputs,
    /// The next stream request to send.
    next: usize,
    digest: Digest,
    failures: Failures,
    /// Route requests sent, warm passes included.
    attempted: usize,
    /// The CPUs the segments of the untraced run take turns on.
    cpus: Vec<usize>,
}

impl Run<'_> {
    /// Launches a daemon, waits for its first answered request (a ping) and
    /// sends warm pass `launch`, all timed together as set-up. The warm
    /// replies are refereed after the clock stops.
    fn launch(&mut self, launch: usize) -> Result<(Connection, f64), String> {
        let (args, t) = (self.args, self.t);
        let warm = self.inputs.warm(launch);
        let began = Instant::now();
        let daemon = Daemon::spawn(&args.pops, t.d(), t.g(), &args.daemon)?;
        let mut client = daemon.connect(args.workload.format)?;
        client.ping().map_err(|e| format!("ready probe: {e}"))?;
        let replies: Vec<_> = warm
            .iter()
            .map(|pi| client.route_permutation("theorem2", pi))
            .collect();
        let setup_s = began.elapsed().as_secs_f64();
        self.attempted += warm.len();
        for (pi, reply) in warm.iter().zip(replies) {
            let checked = reply
                .map_err(|e| e.to_string())
                .and_then(|r| referee(t, pi, r.slots, &r.schedule));
            if let Err(e) = checked {
                self.failures.record(format!("warm pass: {e}"));
            }
        }
        Ok((Connection { daemon, client }, setup_s))
    }

    /// Sends stream requests over the daemon connection, one at a time,
    /// until `seconds` have passed and at least `min_requests` were sent.
    /// Each round trip is timed on its own. Refereeing and digesting happen
    /// outside it, in bursts of `BURST` replies; with `ping`, so does the
    /// ping after every `PING_EVERY`-th request, and so does `after`, which
    /// is handed each request's stream index and permutation.
    fn closed_loop(
        &mut self,
        conn: &mut Connection,
        seconds: f64,
        min_requests: usize,
        ping: bool,
        after: &mut dyn FnMut(usize, &Permutation),
    ) -> Result<LoopStats, String> {
        let cpu0 = conn.daemon.cpu_seconds()?;
        let began = Instant::now();
        let mut stats = LoopStats::default();
        let mut pending: Vec<(usize, Permutation, RouteReply)> = Vec::with_capacity(BURST);
        loop {
            if stats.requests >= min_requests && began.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let i = self.next;
            self.next += 1;
            let pi = self.inputs.request(i);
            let t0 = Instant::now();
            let reply = conn.client.route_permutation("theorem2", &pi);
            let rtt = t0.elapsed();
            stats.requests += 1;
            let reply = match reply {
                Ok(reply) => reply,
                Err(e) => {
                    // A transport failure poisons the connection: stop here.
                    self.failures.record(format!("request {i}: {e}"));
                    break;
                }
            };
            stats.rtt_us.push(rtt.as_secs_f64() * 1e6);
            stats.service_us.push(reply.micros as f64);
            stats.hits.push(reply.cache_hit);
            after(i, &pi);
            pending.push((i, pi, reply));
            if pending.len() == BURST {
                check_replies(self.t, &mut pending, &mut self.digest, &mut self.failures);
            }
            if ping && stats.requests % PING_EVERY == 0 {
                let p0 = Instant::now();
                if let Err(e) = conn.client.ping() {
                    self.failures.record(format!("ping: {e}"));
                    break;
                }
                stats.ping_us.push(p0.elapsed().as_secs_f64() * 1e6);
            }
        }
        check_replies(self.t, &mut pending, &mut self.digest, &mut self.failures);
        stats.wall_s = began.elapsed().as_secs_f64();
        stats.server_cpu_s = conn.daemon.cpu_seconds()? - cpu0;
        self.attempted += stats.requests;
        Ok(stats)
    }

    /// The untraced run: the timed phase is split into `SEGMENTS` parts on
    /// one daemon, each with client and daemon pinned to the next allowed
    /// CPU in turn. Between parts a further daemon is launched and shut down
    /// just to time its set-up, so the set-up samples spread over the run
    /// instead of sharing one moment's host load.
    fn end_to_end(
        &mut self,
        mut conn: Connection,
        first_setup_s: f64,
    ) -> Result<Vec<Metric>, String> {
        let mut setups = vec![first_setup_s];
        let mut timed = LoopStats::default();
        let part_s = self.args.seconds / SEGMENTS as f64;
        for segment in 0..SEGMENTS {
            let cpu = self.cpus[segment % self.cpus.len()];
            daemon::pin(std::process::id(), cpu, false)?;
            daemon::pin(conn.daemon.pid(), cpu, true)?;
            let min = if segment + 1 == SEGMENTS {
                MIN_REQUESTS.saturating_sub(timed.requests)
            } else {
                0
            };
            timed.absorb(self.closed_loop(&mut conn, part_s, min, false, &mut |_, _| {})?);
            if segment + 1 < SEGMENTS {
                let (extra, setup_s) = self.launch(segment + 1)?;
                setups.push(setup_s);
                extra.daemon.shutdown(extra.client)?;
            }
        }
        let peak = conn.daemon.peak_rss_mib()?;
        conn.daemon.shutdown(conn.client)?;

        let latency = Sorted::new(timed.rtt_us);
        let p50 = latency
            .percentile(0.5)
            .ok_or("the timed phase answered nothing")?;
        let p90 = latency.supported_percentile(0.9)?;
        println!(
            "requests: {} timed in {:.3} s; digest {:016x} over the first {} replies",
            timed.requests, timed.wall_s, self.digest.hash, self.digest.replies
        );
        // p50 and p99 are reported, not gated. A shared host switches
        // between a fast and a slow speed every few seconds, so the samples
        // of a run form two modes. p50 falls on whichever mode holds more of
        // the run, and p99 on how often a stall hits 1% of requests; both
        // swing by more than any usable bound. p90 lies inside the slow
        // mode, which every run visits.
        let p99 = match latency.supported_percentile(0.99) {
            Ok(p) => format!("{:.1} us ({} beyond)", p.value, p.beyond),
            Err(e) => format!("not reported: {e}"),
        };
        println!(
            "latency over {} exact samples: p50 {:.1} us ({} beyond), p90 {:.1} us ({} beyond), p99 {p99}",
            latency.len(),
            p50.value,
            p50.beyond,
            p90.value,
            p90.beyond,
        );
        println!(
            "setup_s is the median of {} launches (spawn, ready probe, warm pass of {} requests)",
            setups.len(),
            self.inputs.warm(0).len()
        );
        let cpu_us = timed.server_cpu_s * 1e6 / timed.requests as f64;
        println!(
            "capacity: {:.0} plans/s per daemon core at {cpu_us:.1} us of daemon CPU per request",
            1e6 / cpu_us
        );
        Ok(vec![
            Metric {
                name: "latency_p90_us",
                value: p90.value,
                unit: "us",
            },
            Metric {
                name: "server_cpu_us_per_request",
                value: cpu_us,
                unit: "us",
            },
            Metric {
                name: "server_peak_rss_mib",
                value: peak,
                unit: "MiB",
            },
            Metric {
                name: "setup_s",
                value: stats::median(&setups),
                unit: "s",
            },
        ])
    }

    /// The traced run. Blocks of `TRACE_BLOCK` requests alternate between
    /// untraced ones (the daemon only) and traced ones, where each request
    /// is also pushed through the layers in-process (`layers`) and every
    /// `PING_EVERY`-th is followed by a ping. Interleaving lets both kinds
    /// see the same host load, so the residual (untraced mean round trip −
    /// the in-process parts) and the tracing overhead (traced p50 −
    /// untraced p50) are not differences of two moments. After an untraced
    /// block the in-process service routes the same requests untimed, so
    /// its cache stays in step with the daemon's.
    fn traced(&mut self, mut conn: Connection) -> Result<Vec<Metric>, String> {
        let w = self.args.workload;
        let mut layers = layers::Layers::new(
            self.t,
            &self.args.daemon.config,
            w.format,
            self.inputs.warm(0),
            w.mix == Mix::Miss,
        )?;
        let (mut untraced, mut traced) = (LoopStats::default(), LoopStats::default());
        let began = Instant::now();
        while began.elapsed().as_secs_f64() < self.args.seconds
            || untraced.requests + traced.requests < RATIO_REQUESTS.max(2 * MIN_REQUESTS)
        {
            let first = self.next;
            let block = self.closed_loop(&mut conn, 0.0, TRACE_BLOCK, false, &mut |_, _| {})?;
            for i in first..self.next {
                layers.follow(self.inputs.request(i));
            }
            untraced.absorb(block);
            let block = self.closed_loop(&mut conn, 0.0, TRACE_BLOCK, true, &mut |i, pi| {
                layers.trace(i, pi)
            })?;
            traced.absorb(block);
        }
        let entries = l1_entries(&mut conn.client)?;
        conn.daemon.shutdown(conn.client)?;
        for e in layers.errors.drain(..) {
            self.failures.record(e);
        }

        // Daemon cache answers, in stream order: blocks alternate.
        let blocks = untraced
            .hits
            .chunks(TRACE_BLOCK)
            .zip(traced.hits.chunks(TRACE_BLOCK));
        let daemon_hits: Vec<bool> = blocks
            .flat_map(|(u, t)| u.iter().chain(t))
            .copied()
            .collect();
        let mismatched = layers
            .hits
            .iter()
            .zip(&daemon_hits)
            .filter(|(a, b)| a != b)
            .count();
        if mismatched > 0 || layers.hits.len() != daemon_hits.len() {
            self.failures.record(format!(
                "the in-process service answered {mismatched} of {} requests differently from the daemon",
                daemon_hits.len()
            ));
        }
        let hits = daemon_hits
            .iter()
            .take(RATIO_REQUESTS)
            .filter(|&&h| h)
            .count();
        println!(
            "traced run: {} untraced + {} traced requests; digest {:016x} over the first {} \
             replies; cache.l1_hit_ratio counts {hits} hits in the first {RATIO_REQUESTS}",
            untraced.requests, traced.requests, self.digest.hash, self.digest.replies
        );

        let mut metrics = layers.metrics(stats::mean(&untraced.rtt_us))?;
        let outside: Vec<f64> = untraced
            .rtt_us
            .iter()
            .zip(&untraced.service_us)
            .map(|(rtt, service)| rtt - service)
            .collect();
        metrics.extend([
            Metric {
                name: "cache.l1_hit_ratio",
                value: hits as f64 / RATIO_REQUESTS as f64,
                unit: "ratio",
            },
            Metric {
                name: "cache.l1_entries",
                value: entries,
                unit: "count",
            },
            Metric {
                name: "server.ping_rtt_us",
                value: stats::median(&traced.ping_us),
                unit: "us",
            },
            Metric {
                name: "server.service_us",
                value: stats::mean(&untraced.service_us),
                unit: "us",
            },
            Metric {
                name: "server.outside_service_us",
                value: stats::mean(&outside),
                unit: "us",
            },
            Metric {
                name: "trace.overhead_us",
                value: Sorted::new(traced.rtt_us).median() - Sorted::new(untraced.rtt_us).median(),
                unit: "us",
            },
        ]);
        Ok(metrics)
    }
}

/// The L1 entry count from the daemon's `cache stats` op.
fn l1_entries(client: &mut ServiceClient) -> Result<f64, String> {
    let doc = client
        .cache_op("stats")
        .map_err(|e| format!("cache stats: {e}"))?;
    doc.get("cache")
        .and_then(|c| c.get("l1"))
        .and_then(|l1| l1.get("entries"))
        .and_then(pops_service::Json::as_u64)
        .map(|v| v as f64)
        .ok_or_else(|| "cache stats reply has no cache.l1.entries".into())
}

fn run(args: &Args) -> Result<RunResult, String> {
    let w = args.workload;
    let t = PopsTopology::new(w.d, w.g);
    let capacity = MIN_REQUESTS.max(w.pregenerate_rate * args.seconds as usize);
    let mut run = Run {
        args,
        t,
        inputs: Inputs::generate(args.seed, t.n(), w.mix, SEGMENTS, capacity),
        next: 0,
        digest: Digest::new(),
        failures: Failures::default(),
        attempted: 0,
        cpus: daemon::allowed_cpus()?,
    };
    // Client and daemon share one CPU at a time: the closed loop never needs
    // both at once, and on one CPU each hand-off is a local context switch
    // rather than a cross-CPU wake-up, whose cost varies widely on a shared
    // host. The untraced run moves both to the next allowed CPU for each
    // segment, so one CPU's slow spell weighs less on the run.
    daemon::pin(std::process::id(), run.cpus[0], false)?;
    println!(
        "popsbench {} seed {} seconds {} trace {}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "machine: cpus online {}, cpus used {:?}, commit {}, profile {}; \
         daemon: pops serve --d {} --g {} --port 0 {}; {capacity} requests pre-generated",
        std::fs::read_to_string("/sys/devices/system/cpu/online")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        run.cpus,
        std::env::var("POPSBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        w.d,
        w.g,
        args.daemon.args.join(" ")
    );

    // Page the binary in before anything is timed.
    let throwaway = Daemon::spawn(&args.pops, w.d, w.g, &args.daemon)?;
    let mut client = throwaway.connect(WireFormat::Json)?;
    client
        .ping()
        .map_err(|e| format!("throwaway daemon: {e}"))?;
    throwaway.shutdown(client)?;

    let (conn, setup_s) = run.launch(0)?;
    let metrics = if args.trace {
        run.traced(conn)?
    } else {
        run.end_to_end(conn, setup_s)?
    };
    println!(
        "stream: {} requests sent, {} of them generated during the run, outside the timed round trips",
        run.next,
        run.inputs.generated_late()
    );
    println!(
        "error_rate {} ({} of {} requests failed; every reply refereed)",
        run.failures.count as f64 / run.attempted as f64,
        run.failures.count,
        run.attempted
    );
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    Ok(RunResult {
        attempted: run.attempted,
        failed: run.failures.count,
        metrics,
    })
}
