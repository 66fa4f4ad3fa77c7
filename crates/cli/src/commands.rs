//! The CLI subcommands. Every command renders into a `String` so the unit
//! tests can assert on output without capturing stdout.

use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{TcpListener, ToSocketAddrs as _};
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pops_baselines::compare;
use pops_bipartite::ColorerKind;
use pops_core::bounds::{proposition1, proposition2, proposition3};
use pops_core::diagnostics::render_plan;
use pops_core::engine::RoutingEngine;
use pops_core::fault_routing::route_with_faults;
use pops_core::optimal::min_slots_two_hop;
use pops_core::route_batch_with;
use pops_core::{lower_bound, theorem2_slots};
use pops_network::{viz, FaultSet, PopsTopology, Simulator};
use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;
use pops_service::{
    read_trace, record_proxy, run_replay, serve_router, synth_trace, BatchItem, Counter, Json,
    ReplayOptions, ServerConfig, ServiceClient, ServiceConfig, SloGates, TopologyRouter,
    TopologyRouterConfig, TraceRecorder,
};

use crate::opts::{err, CliError, Opts};
use crate::spec;

/// Top-level help text.
pub const HELP: &str = "\
pops — Partitioned Optical Passive Stars permutation routing
       (Mei & Rizzi, IPPS 2002 — full reproduction)

USAGE: pops <command> [--option value]...

COMMANDS
  topology  --d D --g G                      render the wiring (Figure 2 style)
  route     --d D --g G [perm] [--engine E]  route a permutation (Theorem 2)
            [--schedule] [--compare] [--gantt]
  bounds    --d D --g G [perm]               Propositions 1-3 lower bounds
  optimal   --d D --g G [perm] [--budget B]  exact minimum slots (tiny n)
  faults    --d D --g G [perm] --fail a,b,c  route around failed couplers
  sweep     [--max-d D] [--max-g G]          Theorem-2 slot-count sweep
  batch     --d D --g G [--count N]          route a batch of random perms
            [--threads T] [--no-artefacts]   (engine-per-worker fast path)
  serve     --d D --g G [--port P]           start the TCP/JSON routing service
            [--topology DxG]...              pre-warm (and pin) more topologies; requests
                                             may select any shape up to --max-topologies
            [--max-topologies N]             topology registry bound (default 8, LRU)
            [--shards S] [--cache C] [--max-in-flight M]
            [--phase-cache C]                level-2 per-phase plan cache (default 1024)
            [--cache-shards N]               lock shards per cache level
            [--cache-dir DIR]                warm-start dir: load on boot, spill on shutdown
                                             (one file per topology; foreign files skipped)
            [--read-timeout-ms T] [--write-timeout-ms T]   (0 disables; defaults 30000)
            [--max-line-bytes B]             request-line cap (default 16 MiB)
            [--max-conns N] [--nodelay]      connection cap (default 256), TCP_NODELAY
            [--max-batch-items N]            wire-batch item cap (default 1024)
            [--max-batch-topologies N]       distinct shapes per batch (default 8)
            [--overload-watermark N]         shed route/batch work beyond N in flight
                                             (typed 'overloaded' error, retry-after-ms)
            [--quota-rps N] [--quota-burst B]  per-client-IP token-bucket quota
            [--slow-ms T]                    trace requests slower than T ms to stderr
                                             (rate-limited; ids echoed on responses)
            [--metrics-port P]               Prometheus sidecar listener; the main
                                             port answers GET /metrics regardless
            [--fault DxG:c1,c2,...]          baseline failed couplers for one topology,
                                             composed into every route for that shape
                                             (must leave every group pair routable)
            [--record FILE]                  tee every decoded route/batch/cache request
                                             to an append-only JSONL trace (see replay)
  request   --addr HOST:PORT [perm]          route one request via a server
            [--d D --g G]                    select a topology (multi-topology servers)
            [--kind K] [--stats] [--shutdown]
            [--fault c1,c2,...]              treat couplers as failed for this request;
                                             the schedule is refereed on a simulator
                                             with the same couplers down
            [--batch-file FILE]              send one wire batch op from a JSON-lines file
                                             (each line: perm with optional d/g fields)
            [--cache save|load|stats]        plan-cache op (save/load need --cache-dir serve)
            [--binary]                       negotiate the length-prefixed binary framing
            [--timeout-ms T]                 client timeout (default 30000, 0 disables)
  stats     --addr HOST:PORT                 one-line operational summary of a server
            [--watch N]                      resample every N seconds, printing deltas
                                             (plans/s, hit rate, sheds) until interrupted
            [--samples M]                    stop after M watch lines (default: forever)
            [--timeout-ms T]                 client timeout (default 30000, 0 disables)
  record    --addr HOST:PORT --out FILE      recording proxy: forward wire traffic to a
            [--port P]                       server, teeing decoded requests to a JSONL
                                             trace (stops when a shutdown op passes through)
  replay    --addr HOST:PORT                 drive a recorded trace back over real TCP,
            (--trace FILE | --synth SPEC)    re-refereeing every schedule on the simulator
            [--rate-multiplier R]            arrival-time speedup (default 1.0)
            [--clients M]                    concurrent client threads (default 4)
            [--duration SECS] [--loop]       wall-clock bound / repeat the trace
            [--count N] [--seed S]           synthetic-trace size (default 256) and seed
                                             (--synth mixed:DxG[,DxG...] when no recording)
            [--no-verify]                    skip the simulator referee (raw latency only)
            [--soak]                         loop with SLO gates; exits non-zero on breach
            [--slo-p99-ms MS]                gate: p99 latency of successful requests
            [--slo-shed-pct PCT]             gate: shed percentage of attempted requests
            [--slo-verify-failures N]        gate: verification failures (soak default 0)
            [--slo-failures N]               gate: hard failures (soak default 0)
            [--timeout-ms T]                 client timeout (default 10000, 0 disables)
  collectives --d D --g G                    slot costs vs lower bounds
  families                                   list the permutation families
  help                                       this message

PERMUTATION SELECTION ([perm] above)
  --perm 5,4,3,2,1,0       explicit image vector (length d*g)
  --family NAME            a named family (see `pops families`)
  --seed S                 seed for the random families (default 42)

ENGINES (--engine): koenig | alternating | euler (default)
";

/// Dispatches a parsed command line.
pub fn run(opts: &Opts) -> Result<String, CliError> {
    match opts.command.as_str() {
        "topology" => cmd_topology(opts),
        "route" => cmd_route(opts),
        "bounds" => cmd_bounds(opts),
        "optimal" => cmd_optimal(opts),
        "faults" => cmd_faults(opts),
        "sweep" => cmd_sweep(opts),
        "batch" => cmd_batch(opts),
        "serve" => cmd_serve(opts),
        "request" => cmd_request(opts),
        "stats" => cmd_stats(opts),
        "record" => cmd_record(opts),
        "replay" => cmd_replay(opts),
        "collectives" => cmd_collectives(opts),
        "families" => Ok(format!("families:\n{}\n", spec::FAMILY_HELP)),
        "" | "help" | "--help" | "-h" => Ok(HELP.to_string()),
        other => Err(err(format!("unknown command '{other}'; try `pops help`"))),
    }
}

fn shape(opts: &Opts) -> Result<PopsTopology, CliError> {
    let d = opts.usize_req("d")?;
    let g = opts.usize_req("g")?;
    if d == 0 || g == 0 {
        return Err(err("--d and --g must be positive"));
    }
    if d * g > 1 << 20 {
        return Err(err("network too large (n > 2^20)"));
    }
    Ok(PopsTopology::new(d, g))
}

fn engine(opts: &Opts) -> Result<ColorerKind, CliError> {
    match opts.get("engine").unwrap_or("euler") {
        "koenig" => Ok(ColorerKind::Koenig),
        "alternating" => Ok(ColorerKind::AlternatingPath),
        "euler" => Ok(ColorerKind::EulerSplit),
        other => Err(err(format!(
            "unknown engine '{other}' (koenig|alternating|euler)"
        ))),
    }
}

fn cmd_topology(opts: &Opts) -> Result<String, CliError> {
    let t = shape(opts)?;
    let mut out = viz::render_topology(&t);
    let _ = writeln!(
        out,
        "n = {} processors, {} couplers, diameter {}, theorem-2 permutation cost {} slot(s)",
        t.n(),
        t.coupler_count(),
        t.diameter(),
        theorem2_slots(t.d(), t.g())
    );
    Ok(out)
}

fn cmd_route(opts: &Opts) -> Result<String, CliError> {
    let t = shape(opts)?;
    let pi = spec::resolve(opts, t.d(), t.g())?;
    let kind = engine(opts)?;
    let plan = RoutingEngine::with_colorer(t, kind)
        .emit_artefacts(true)
        .plan_theorem2(&pi);
    let mut sim = Simulator::with_unit_packets(t);
    sim.execute_schedule(&plan.schedule)
        .map_err(|(slot, e)| err(format!("schedule illegal at slot {slot}: {e}")))?;
    sim.verify_delivery(pi.as_slice())
        .map_err(|e| err(format!("misdelivery: {e}")))?;

    let mut out = String::new();
    let _ = writeln!(out, "{t}: routed in {} slot(s)", plan.schedule.slot_count());
    let _ = writeln!(
        out,
        "theorem-2 bound: {}   lower bound: {}   engine: {}",
        theorem2_slots(t.d(), t.g()),
        lower_bound(&pi, t.d(), t.g()),
        kind.name()
    );
    let _ = writeln!(out, "delivery verified on the slot-level simulator");
    if opts.flag("compare") {
        let c = compare(&pi, t.d(), t.g());
        let _ = writeln!(
            out,
            "direct (single-hop) routing: {} slot(s){}",
            c.direct_slots,
            if c.single_slot_routable {
                " — single-slot routable"
            } else {
                ""
            }
        );
        if let Some(s) = c.structured_slots {
            let _ = writeln!(out, "structured (Sahni-style) routing: {s} slot(s)");
        }
    }
    if opts.flag("schedule") {
        let _ = writeln!(out, "\n{}", render_plan(&plan, &pi));
    }
    if opts.flag("gantt") {
        let _ = writeln!(
            out,
            "\n{}",
            pops_core::diagnostics::render_gantt(&plan.schedule, &t)
        );
    }
    Ok(out)
}

fn cmd_bounds(opts: &Opts) -> Result<String, CliError> {
    let t = shape(opts)?;
    let (d, g) = (t.d(), t.g());
    let pi = spec::resolve(opts, d, g)?;
    let fmt = |p: Option<usize>| p.map_or("n/a (hypothesis fails)".into(), |x| x.to_string());
    let mut out = String::new();
    let _ = writeln!(out, "{t}, n = {}", t.n());
    let _ = writeln!(
        out,
        "proposition 1 (derangement counting) : {}",
        fmt(proposition1(&pi, d, g))
    );
    let _ = writeln!(
        out,
        "proposition 2 (corrected, inter-group): {}",
        fmt(proposition2(&pi, d, g))
    );
    let _ = writeln!(
        out,
        "proposition 3 (two-hop counting)      : {}",
        fmt(proposition3(&pi, d, g))
    );
    let _ = writeln!(
        out,
        "combined lower bound                  : {}",
        lower_bound(&pi, d, g)
    );
    let _ = writeln!(
        out,
        "theorem-2 upper bound                 : {}",
        theorem2_slots(d, g)
    );
    Ok(out)
}

fn cmd_optimal(opts: &Opts) -> Result<String, CliError> {
    let t = shape(opts)?;
    if t.n() > 12 {
        return Err(err(format!(
            "exact search is exponential; n = {} > 12 (use --d/--g smaller)",
            t.n()
        )));
    }
    let pi = spec::resolve(opts, t.d(), t.g())?;
    let budget = opts.u64_or("budget", 50_000_000)?;
    let out = min_slots_two_hop(&pi, t, budget);
    let mut s = String::new();
    match out.slots {
        Some(opt) => {
            let _ = writeln!(
                s,
                "{t}: exact minimum (two-hop class) = {opt} slot(s)   [{} nodes searched]",
                out.nodes
            );
            let _ = writeln!(
                s,
                "theorem-2 spends {}; combined lower bound {}",
                theorem2_slots(t.d(), t.g()),
                lower_bound(&pi, t.d(), t.g())
            );
        }
        None => {
            let _ = writeln!(
                s,
                "budget exhausted after {} nodes — raise --budget",
                out.nodes
            );
        }
    }
    Ok(s)
}

fn cmd_faults(opts: &Opts) -> Result<String, CliError> {
    let t = shape(opts)?;
    let pi = spec::resolve(opts, t.d(), t.g())?;
    let failed = opts
        .usize_list("fail")?
        .ok_or_else(|| err("--fail a,b,c is required (coupler ids)"))?;
    let mut faults = FaultSet::none(&t);
    for c in failed {
        if c >= t.coupler_count() {
            return Err(err(format!(
                "coupler {c} out of range (couplers: 0..{})",
                t.coupler_count()
            )));
        }
        faults.fail_coupler(c);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{t} with {} failed coupler(s): {:?}",
        faults.failed_count(),
        faults.iter_failed().collect::<Vec<_>>()
    );
    match route_with_faults(&pi, t, &faults) {
        Ok(routing) => {
            let mut sim = Simulator::with_unit_packets_and_faults(t, faults.clone());
            sim.execute_schedule(&routing.schedule)
                .map_err(|(slot, e)| err(format!("schedule illegal at slot {slot}: {e}")))?;
            sim.verify_delivery(pi.as_slice())
                .map_err(|e| err(format!("misdelivery: {e}")))?;
            let _ = writeln!(
                out,
                "routed in {} slot(s), longest detour {} hop(s) (healthy theorem-2: {})",
                routing.slots(),
                routing.max_hops(),
                theorem2_slots(t.d(), t.g())
            );
            let _ = writeln!(out, "delivery verified with the faults injected");
        }
        Err(e) => {
            let _ = writeln!(out, "unroutable: {e}");
        }
    }
    Ok(out)
}

fn cmd_sweep(opts: &Opts) -> Result<String, CliError> {
    let max_d = opts.usize_or("max-d", 8)?;
    let max_g = opts.usize_or("max-g", 8)?;
    let seed = opts.u64_or("seed", 42)?;
    if max_d == 0 || max_g == 0 {
        return Err(err("--max-d and --max-g must be positive"));
    }
    if max_d * max_g > 4096 {
        return Err(err("sweep too large; keep max-d * max-g <= 4096"));
    }
    let mut rng = SplitMix64::new(seed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4} {:>4} {:>6} {:>7} {:>10} {:>9}",
        "d", "g", "n", "slots", "theorem2", "verified"
    );
    for d in 1..=max_d {
        for g in 1..=max_g {
            let t = PopsTopology::new(d, g);
            let pi = random_permutation(t.n(), &mut rng);
            let plan = RoutingEngine::with_colorer(t, ColorerKind::default()).plan_theorem2(&pi);
            let mut sim = Simulator::with_unit_packets(t);
            sim.execute_schedule(&plan.schedule)
                .map_err(|(slot, e)| err(format!("slot {slot}: {e}")))?;
            sim.verify_delivery(pi.as_slice())
                .map_err(|e| err(format!("misdelivery: {e}")))?;
            let slots = plan.schedule.slot_count();
            let _ = writeln!(
                out,
                "{:>4} {:>4} {:>6} {:>7} {:>10} {:>9}",
                d,
                g,
                t.n(),
                slots,
                theorem2_slots(d, g),
                if slots == theorem2_slots(d, g) {
                    "ok"
                } else {
                    "MISMATCH"
                }
            );
        }
    }
    Ok(out)
}

/// `pops batch`: the CLI fast path onto [`route_batch_with`] — routes a
/// batch of random permutations with explicit thread and artefact control,
/// so scripted throughput runs stop paying the per-plan artefact clones.
fn cmd_batch(opts: &Opts) -> Result<String, CliError> {
    let t = shape(opts)?;
    let kind = engine(opts)?;
    let count = opts.usize_or("count", 64)?;
    if count == 0 {
        return Err(err("--count must be positive"));
    }
    if count.checked_mul(t.n()).is_none_or(|total| total > 1 << 26) {
        return Err(err("batch too large; keep count * n <= 2^26"));
    }
    let seed = opts.u64_or("seed", 42)?;
    let threads = match opts.usize_or("threads", 0)? {
        0 => None, // auto: available parallelism
        n => NonZeroUsize::new(n),
    };
    let emit_artefacts = !opts.flag("no-artefacts");
    let mut rng = SplitMix64::new(seed);
    let perms: Vec<_> = (0..count)
        .map(|_| random_permutation(t.n(), &mut rng))
        .collect();

    let start = Instant::now();
    let plans = route_batch_with(&perms, t, kind, threads, emit_artefacts);
    let elapsed = start.elapsed();

    // Referee spot-check: first and last plan execute and deliver.
    for idx in [0, count.saturating_sub(1)] {
        let (Some(plan), Some(perm)) = (plans.get(idx), perms.get(idx)) else {
            continue;
        };
        let mut sim = Simulator::with_unit_packets(t);
        sim.execute_schedule(&plan.schedule)
            .map_err(|(slot, e)| err(format!("plan {idx} illegal at slot {slot}: {e}")))?;
        sim.verify_delivery(perm.as_slice())
            .map_err(|e| err(format!("plan {idx} misdelivery: {e}")))?;
    }

    let slots: usize = plans.iter().map(|p| p.schedule.slot_count()).sum();
    let secs = elapsed.as_secs_f64().max(1e-9);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "routed {count} random permutation(s) on {t} in {elapsed:.2?}"
    );
    let _ = writeln!(
        out,
        "threads: {}   artefacts: {}   engine: {}",
        threads.map_or("auto".to_string(), |n| n.to_string()),
        if emit_artefacts { "on" } else { "off" },
        kind.name()
    );
    let _ = writeln!(
        out,
        "throughput: {:.0} plans/s ({:.0} slots/s)",
        count as f64 / secs,
        slots as f64 / secs
    );
    let _ = writeln!(
        out,
        "spot-check: first and last schedules verified on the simulator"
    );
    Ok(out)
}

/// Parses a `--*-ms` option where 0 means "disabled".
fn timeout_ms(opts: &Opts, key: &str, default_ms: u64) -> Result<Option<Duration>, CliError> {
    Ok(match opts.u64_or(key, default_ms)? {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    })
}

/// Parses one `--topology DxG` value (e.g. `2x8`).
fn parse_topology_flag(value: &str) -> Result<(usize, usize), CliError> {
    let (d, g) = value
        .split_once(['x', 'X'])
        .ok_or_else(|| err(format!("--topology expects DxG (e.g. 4x4), got '{value}'")))?;
    let parse = |s: &str| {
        s.trim()
            .parse::<usize>()
            .map_err(|_| err(format!("--topology '{value}': '{s}' is not an integer")))
    };
    let (d, g) = (parse(d)?, parse(g)?);
    if d == 0 || g == 0 {
        return Err(err(format!(
            "--topology '{value}': dimensions must be positive"
        )));
    }
    Ok((d, g))
}

/// Parses one `--fault DxG:c1,c2,...` value (e.g. `4x4:1,5`): an
/// operator-declared baseline fault set for one topology. Ids are
/// sorted, deduped, and bounds-checked against the g^2 couplers.
fn parse_fault_flag(value: &str) -> Result<((usize, usize), Vec<usize>), CliError> {
    let (shape, list) = value.split_once(':').ok_or_else(|| {
        err(format!(
            "--fault expects DxG:c1,c2,... (e.g. 4x4:1,5), got '{value}'"
        ))
    })?;
    let (d, g) = shape
        .split_once(['x', 'X'])
        .ok_or_else(|| err(format!("--fault '{value}': expected a DxG topology prefix")))?;
    let parse = |s: &str| {
        s.trim()
            .parse::<usize>()
            .map_err(|_| err(format!("--fault '{value}': '{s}' is not an integer")))
    };
    let (d, g) = (parse(d)?, parse(g)?);
    if d == 0 || g == 0 {
        return Err(err(format!(
            "--fault '{value}': dimensions must be positive"
        )));
    }
    if d.checked_mul(g).is_none_or(|n| n > 1 << 20) {
        return Err(err(format!(
            "--fault '{value}': network too large (n > 2^20)"
        )));
    }
    let mut ids = list
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(parse)
        .collect::<Result<Vec<usize>, _>>()?;
    ids.sort_unstable();
    ids.dedup();
    if ids.is_empty() {
        return Err(err(format!(
            "--fault '{value}': give at least one coupler id"
        )));
    }
    let couplers = g * g;
    for &c in &ids {
        if c >= couplers {
            return Err(err(format!(
                "--fault '{value}': coupler {c} out of range \
                 (POPS({d}, {g}) has {couplers} couplers)"
            )));
        }
    }
    Ok(((d, g), ids))
}

/// Parses a `--fault c1,c2,...` request-side value against one topology.
fn parse_request_faults(opts: &Opts, t: &PopsTopology) -> Result<Vec<usize>, CliError> {
    let Some(list) = opts.get("fault") else {
        return Ok(Vec::new());
    };
    let mut ids = list
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| err(format!("--fault: '{s}' is not an integer")))
        })
        .collect::<Result<Vec<usize>, _>>()?;
    ids.sort_unstable();
    ids.dedup();
    if ids.is_empty() {
        return Err(err("--fault: give at least one coupler id"));
    }
    for &c in &ids {
        if c >= t.coupler_count() {
            return Err(err(format!(
                "--fault: coupler {c} out of range ({t} has {} couplers)",
                t.coupler_count()
            )));
        }
    }
    Ok(ids)
}

/// `pops serve`: the TCP/JSON-lines routing service. Prints the listening
/// address immediately (stdout, flushed) so scripts can scrape an
/// ephemeral port (`--port 0`), then blocks until a client sends a
/// shutdown op — at which point in-flight handlers are drained (joined),
/// so every accepted request gets its complete response before the
/// process exits; the returned string is the exit summary.
///
/// One process serves **many topologies**: `--d`/`--g` name the default
/// shape, repeated `--topology DxG` flags pre-warm (and pin) more, and
/// requests may select any shape up to the `--max-topologies` LRU bound.
fn cmd_serve(opts: &Opts) -> Result<String, CliError> {
    let t = shape(opts)?;
    // The service defaults to the alternating-path colourer — the one with
    // the zero-allocation warm-engine implementation — unlike the one-shot
    // commands, which keep the legacy euler default.
    let kind = match opts.get("engine") {
        None => ColorerKind::AlternatingPath,
        Some(_) => engine(opts)?,
    };
    let port = opts.usize_or("port", 0)?;
    if port > u16::MAX as usize {
        return Err(err("--port must be at most 65535"));
    }
    let defaults = ServiceConfig::default();
    let shards = opts.usize_or("shards", defaults.shards)?;
    if shards == 0 {
        return Err(err("--shards must be positive"));
    }
    let cache_capacity = opts.usize_or("cache", defaults.cache_capacity)?;
    let phase_cache_capacity = opts.usize_or("phase-cache", defaults.phase_cache_capacity)?;
    let cache_shards = opts.usize_or("cache-shards", defaults.cache_shards)?;
    if cache_shards == 0 {
        return Err(err("--cache-shards must be positive"));
    }
    let cache_dir = opts.get("cache-dir").map(std::path::PathBuf::from);
    let max_in_flight = opts.usize_or("max-in-flight", defaults.max_in_flight)?;
    let server_defaults = ServerConfig::default();
    // Baseline fault sets: operator-declared failed couplers the server
    // composes into every theorem2/faults route for their topology. A
    // baseline that disconnects a group pair is refused at boot — such a
    // server could never answer a route request for that shape.
    let mut baseline_faults: Vec<((usize, usize), Vec<usize>)> = Vec::new();
    for value in opts.get_all("fault") {
        let ((d, g), ids) = parse_fault_flag(value)?;
        match baseline_faults
            .iter_mut()
            .find(|((bd, bg), _)| (*bd, *bg) == (d, g))
        {
            Some((_, existing)) => {
                existing.extend(ids);
                existing.sort_unstable();
                existing.dedup();
            }
            None => baseline_faults.push(((d, g), ids)),
        }
    }
    // Repeated --fault flags for one shape union; the union is what must
    // stay routable, so validate after merging.
    for ((d, g), ids) in &baseline_faults {
        let topology = PopsTopology::new(*d, *g);
        let mut set = FaultSet::none(&topology);
        for &c in ids.iter().filter(|&&c| c < topology.coupler_count()) {
            set.fail_coupler(c);
        }
        if !set.fully_routable(&topology) {
            return Err(err(format!(
                "--fault {d}x{g}:... disconnects POPS({d}, {g}); a baseline \
                 fault set must leave every group pair routable"
            )));
        }
    }
    // Defaults come from ServerConfig::default() (one source of truth);
    // 0 on the command line disables a timeout.
    let as_ms = |t: Option<Duration>| t.map_or(0, |d| d.as_millis() as u64);
    let server_config = ServerConfig {
        baseline_faults,
        read_timeout: timeout_ms(opts, "read-timeout-ms", as_ms(server_defaults.read_timeout))?,
        write_timeout: timeout_ms(
            opts,
            "write-timeout-ms",
            as_ms(server_defaults.write_timeout),
        )?,
        max_line_bytes: opts.usize_or("max-line-bytes", server_defaults.max_line_bytes)?,
        max_connections: opts.usize_or("max-conns", server_defaults.max_connections)?,
        tcp_nodelay: opts.flag("nodelay"),
        cache_dir: cache_dir.clone(),
        max_batch_items: opts.usize_or("max-batch-items", server_defaults.max_batch_items)?,
        max_batch_topologies: opts
            .usize_or("max-batch-topologies", server_defaults.max_batch_topologies)?,
        // All four observability/overload knobs are presence-gated: absent
        // flags keep the ServerConfig defaults (everything off), so the
        // serving hot path is byte-identical to previous releases.
        overload_watermark: opts
            .get("overload-watermark")
            .map(|_| opts.usize_or("overload-watermark", 0))
            .transpose()?,
        quota_rps: opts
            .get("quota-rps")
            .map(|_| opts.u64_or("quota-rps", 0))
            .transpose()?,
        quota_burst: opts
            .get("quota-burst")
            .map(|_| opts.u64_or("quota-burst", 0))
            .transpose()?,
        slow_threshold: opts
            .get("slow-ms")
            .map(|_| opts.u64_or("slow-ms", 0).map(Duration::from_millis))
            .transpose()?,
        metrics_port: match opts.get("metrics-port") {
            None => None,
            Some(_) => {
                let port = opts.usize_or("metrics-port", 0)?;
                if port == 0 || port > u16::MAX as usize {
                    return Err(err(
                        "--metrics-port must be 1..=65535 (an ephemeral sidecar \
                         port would not be discoverable by scrapers)",
                    ));
                }
                Some(port as u16)
            }
        },
        record_path: opts.get("record").map(std::path::PathBuf::from),
    };
    if server_config.quota_rps == Some(0) {
        return Err(err("--quota-rps must be positive"));
    }
    if server_config.quota_burst.is_some() && server_config.quota_rps.is_none() {
        return Err(err("--quota-burst needs --quota-rps"));
    }
    if server_config.quota_burst == Some(0) {
        return Err(err("--quota-burst must be positive"));
    }
    if server_config.max_line_bytes == 0 {
        return Err(err("--max-line-bytes must be positive"));
    }
    if server_config.max_connections == 0 {
        return Err(err("--max-conns must be positive"));
    }
    if server_config.max_batch_items == 0 {
        return Err(err("--max-batch-items must be positive"));
    }
    if server_config.max_batch_topologies == 0 {
        return Err(err("--max-batch-topologies must be positive"));
    }
    let mut prewarm: Vec<(usize, usize)> = opts
        .get_all("topology")
        .iter()
        .map(|v| parse_topology_flag(v))
        .collect::<Result<_, _>>()?;
    prewarm.sort_unstable();
    prewarm.dedup();
    let router_defaults = TopologyRouterConfig::default();
    let max_topologies = opts.usize_or("max-topologies", router_defaults.max_topologies)?;
    // The default topology plus every distinct pre-warm must fit the
    // registry (repeated or default-equal --topology flags are harmless).
    let pinned = 1 + prewarm
        .iter()
        .filter(|&&(d, g)| (d, g) != (t.d(), t.g()))
        .count();
    if max_topologies < pinned {
        return Err(err(format!(
            "--max-topologies {max_topologies} is too small for {pinned} pinned \
             topolog{} (--d/--g plus every --topology)",
            if pinned == 1 { "y" } else { "ies" }
        )));
    }
    let listener = TcpListener::bind(("127.0.0.1", port as u16))
        .map_err(|e| err(format!("cannot bind 127.0.0.1:{port}: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| err(format!("cannot read bound address: {e}")))?;
    let router = Arc::new(TopologyRouter::new(
        t,
        TopologyRouterConfig {
            service: ServiceConfig {
                shards,
                cache_capacity,
                phase_cache_capacity,
                cache_shards,
                max_in_flight,
                colorer: kind,
            },
            max_topologies,
            ..router_defaults
        },
    ));
    for &(d, g) in &prewarm {
        router
            .pin(d, g)
            .map_err(|e| err(format!("cannot pre-warm --topology {d}x{g}: {e}")))?;
    }
    // Warm start: restore previous spills before accepting traffic. A
    // missing or empty directory is a cold start; files for topologies
    // this server does not pin, or corrupt files, are skipped with a
    // warning — a stale --cache-dir must not turn the warm-start
    // optimization into a startup outage.
    let mut warm_note = String::new();
    if let Some(dir) = &cache_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| err(format!("cannot create --cache-dir {}: {e}", dir.display())))?;
        let report = router
            .load_dir(dir)
            .map_err(|e| err(format!("cannot read --cache-dir {}: {e}", dir.display())))?;
        for (path, reason) in &report.skipped {
            eprintln!("warning: skipping cache file {}: {reason}", path.display());
        }
        if !report.loaded.is_empty() {
            warm_note = format!(
                ", warm-started: {} plan(s) + {} phase(s) across {} topolog{}",
                report.l1_entries(),
                report.l2_entries(),
                report.loaded.len(),
                if report.loaded.len() == 1 { "y" } else { "ies" },
            );
        } else if !report.skipped.is_empty() {
            warm_note = ", cache files skipped (see warnings), starting cold".into();
        }
    }
    let shapes: Vec<String> = router
        .services()
        .iter()
        .map(|(topology, _)| format!("{}x{}", topology.d(), topology.g()))
        .collect();
    let fmt_ms =
        |t: Option<Duration>| t.map_or("off".to_string(), |d| format!("{}ms", d.as_millis()));
    let mut obs_note = String::new();
    if let Some(w) = server_config.overload_watermark {
        let _ = write!(obs_note, ", watermark {w}");
    }
    if let Some(rps) = server_config.quota_rps {
        let burst = server_config.quota_burst.unwrap_or(rps).max(1);
        let _ = write!(obs_note, ", quota {rps}/s (burst {burst})");
    }
    if let Some(slow) = server_config.slow_threshold {
        let _ = write!(obs_note, ", slow log {}ms", slow.as_millis());
    }
    if let Some(port) = server_config.metrics_port {
        let _ = write!(obs_note, ", metrics sidecar on port {port}");
    }
    if let Some(path) = &server_config.record_path {
        let _ = write!(obs_note, ", recording to {}", path.display());
    }
    if !server_config.baseline_faults.is_empty() {
        let rendered: Vec<String> = server_config
            .baseline_faults
            .iter()
            .map(|((d, g), ids)| {
                let ids: Vec<String> = ids.iter().map(usize::to_string).collect();
                format!("{d}x{g}:{}", ids.join(","))
            })
            .collect();
        let _ = write!(obs_note, ", baseline faults [{}]", rendered.join(" "));
    }
    println!(
        "pops-service listening on {addr} ({t} default, topologies [{}] of max {max_topologies}, \
         {shards} shard(s), cache {cache_capacity}, \
         phase cache {phase_cache_capacity}, {cache_shards} cache shard(s), \
         max in-flight {max_in_flight}, engine {}, read timeout {}, write timeout {}, \
         line cap {} bytes, max conns {}, batch cap {} item(s){obs_note}{warm_note})",
        shapes.join(", "),
        kind.name(),
        fmt_ms(server_config.read_timeout),
        fmt_ms(server_config.write_timeout),
        server_config.max_line_bytes,
        server_config.max_connections,
        server_config.max_batch_items,
    );
    let _ = std::io::stdout().flush();
    let summary = serve_router(listener, router.clone(), server_config)
        .map_err(|e| err(format!("serve failed: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "shutdown after {} connection(s), {} request(s); all handlers drained",
        summary.connections, summary.requests
    );
    // Spill every topology on the way out so the next boot starts warm.
    if let Some(dir) = &cache_dir {
        match router.save_all(dir) {
            Ok(written) => {
                for (topology, saved) in &written {
                    let _ = writeln!(
                        out,
                        "spilled {} plan(s) + {} phase(s) to {}",
                        saved.l1_entries,
                        saved.l2_entries,
                        pops_service::persist::topology_file_path(dir, topology.d(), topology.g())
                            .display()
                    );
                }
            }
            Err(e) => {
                let _ = writeln!(out, "cache spill to {} failed: {e}", dir.display());
            }
        }
    }
    // Per-topology traffic lines, then the fleet-wide aggregate.
    for (topology, service) in router.services() {
        let snap = service.metrics();
        let _ = writeln!(
            out,
            "{topology}: {} request(s), {} hit(s), {} miss(es), {} error(s)",
            snap.requests(),
            snap.get(Counter::Hits),
            snap.get(Counter::Misses),
            snap.get(Counter::Errors)
        );
    }
    let _ = write!(out, "{}", summary.metrics);
    Ok(out)
}

/// `pops request`: a client for `pops serve`. Resolves the permutation
/// against the server's own topology (via the `info` op), routes it, and
/// re-verifies the returned schedule on the local simulator referee. A
/// client-side timeout (default 30 s, `--timeout-ms`, 0 disables) bounds
/// the connect and every read/write, so a hung server cannot hang us.
fn cmd_request(opts: &Opts) -> Result<String, CliError> {
    let addr = opts
        .get("addr")
        .ok_or_else(|| err("--addr HOST:PORT is required"))?;
    let timeout = timeout_ms(opts, "timeout-ms", 30_000)?;
    let mut client = ServiceClient::connect_with_timeout(addr, timeout)
        .map_err(|e| err(format!("cannot connect to {addr}: {e}")))?;
    // --binary upgrades the connection before the first real request;
    // every op below then rides the length-prefixed framing.
    if opts.flag("binary") {
        client
            .set_format(pops_service::WireFormat::Binary)
            .map_err(|e| err(format!("binary negotiation failed: {e}")))?;
    }

    if opts.flag("shutdown") {
        client
            .shutdown()
            .map_err(|e| err(format!("shutdown failed: {e}")))?;
        return Ok(format!("server at {addr} acknowledged shutdown\n"));
    }
    if opts.flag("stats") {
        let stats = client.stats().map_err(|e| err(e.to_string()))?;
        let count = |name: &str| stats.get(name).and_then(Json::as_u64).unwrap_or(0);
        let level = |name: &str, field: &str| {
            stats
                .get("cache")
                .and_then(|c| c.get(name))
                .and_then(|l| l.get(field))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "hits: {}   misses: {}   errors: {}   slots emitted: {}",
            count("hits"),
            count("misses"),
            count("errors"),
            count("slots_emitted")
        );
        let _ = writeln!(
            out,
            "L1 {}/{} entries   L2 (phases): {} hits, {} misses, {}/{} entries",
            level("l1", "entries"),
            level("l1", "capacity"),
            level("l2", "hits"),
            level("l2", "misses"),
            level("l2", "entries"),
            level("l2", "capacity"),
        );
        let _ = writeln!(out, "raw: {stats}");
        return Ok(out);
    }
    if let Some(action) = opts.get("cache") {
        let doc = client.cache_op(action).map_err(|e| err(e.to_string()))?;
        let mut out = String::new();
        match action {
            "save" | "load" => {
                let count = |name: &str| doc.get(name).and_then(Json::as_u64).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "cache {action}: {} plan(s) + {} phase(s) at {addr} \
                     ({} file(s) skipped)",
                    count("l1_entries"),
                    count("l2_entries"),
                    count("skipped_files"),
                );
            }
            _ => {
                let _ = writeln!(out, "cache stats from {addr}: {doc}");
            }
        }
        return Ok(out);
    }
    if let Some(path) = opts.get("batch-file") {
        return request_batch_file(&mut client, addr, path);
    }

    let info = client.info().map_err(|e| err(e.to_string()))?;
    // --d/--g select a topology on a multi-topology server; absent flags
    // fall back to the server's default shape, field by field.
    let d = opts.usize_or("d", info.d)?;
    let g = opts.usize_or("g", info.g)?;
    if d == 0 || g == 0 {
        return Err(err("--d and --g must be positive"));
    }
    // Same size cap as every other subcommand — without it, huge values
    // would overflow-panic in PopsTopology::new or try to build a
    // multi-GB permutation locally before the server could refuse.
    if d.checked_mul(g).is_none_or(|n| n > 1 << 20) {
        return Err(err("network too large (n > 2^20)"));
    }
    let t = PopsTopology::new(d, g);
    let pi = spec::resolve(opts, d, g)?;
    let kind = opts.get("kind").unwrap_or("theorem2");
    let faults = parse_request_faults(opts, &t)?;
    let reply = if faults.is_empty() {
        client.route_permutation_on(kind, &pi, Some((d, g)))
    } else {
        client.route_permutation_with_faults(kind, &pi, Some((d, g)), &faults)
    }
    .map_err(|e| err(e.to_string()))?;

    // Referee: the returned schedule must execute and deliver locally —
    // with the same couplers failed, so a degraded plan that leans on
    // dead hardware is caught right here.
    let mut sim = if faults.is_empty() {
        Simulator::with_unit_packets(t)
    } else {
        let mut set = FaultSet::none(&t);
        for &c in faults.iter().filter(|&&c| c < t.coupler_count()) {
            set.fail_coupler(c);
        }
        Simulator::with_unit_packets_and_faults(t, set)
    };
    sim.execute_schedule(&reply.schedule)
        .map_err(|(slot, e)| err(format!("returned schedule illegal at slot {slot}: {e}")))?;
    sim.verify_delivery(pi.as_slice())
        .map_err(|e| err(format!("returned schedule misdelivers: {e}")))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{t} served by {addr} ({} shard(s), cache {}, {} topolog{} resident)",
        info.shards,
        info.cache_capacity,
        info.topologies.len(),
        if info.topologies.len() == 1 {
            "y"
        } else {
            "ies"
        },
    );
    let _ = writeln!(
        out,
        "verified {}-slot schedule (kind {kind}, cache {}, {} µs server-side{})",
        reply.slots,
        if reply.cache_hit { "hit" } else { "miss" },
        reply.micros,
        if reply.degraded {
            ", degraded: planned around the fault set"
        } else {
            ""
        },
    );
    Ok(out)
}

/// Walks a dotted path into a stats document; absent fields read as 0 so
/// the watcher keeps working against older servers.
fn stats_field(doc: &Json, path: &[&str]) -> u64 {
    let mut node = Some(doc);
    for key in path {
        node = node.and_then(|n| n.get(key));
    }
    node.and_then(Json::as_u64).unwrap_or(0)
}

/// Renders one `pops stats` line. With a previous sample the line leads
/// with the deltas (plans/s over the elapsed window); without one it is a
/// point-in-time summary.
fn stats_watch_line(prev: Option<&Json>, cur: &Json, elapsed: Duration) -> String {
    let plans = |doc: &Json| stats_field(doc, &["hits"]) + stats_field(doc, &["misses"]);
    let rate = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            100.0 * hits as f64 / (hits + misses) as f64
        }
    };
    let (hits, misses) = (stats_field(cur, &["hits"]), stats_field(cur, &["misses"]));
    let errors = stats_field(cur, &["errors"]);
    let sheds = stats_field(cur, &["sheds", "total"]);
    let conns = stats_field(cur, &["connections", "active"]);
    match prev {
        None => format!(
            "plans {}   hit rate {:.1}%   errors {errors}   sheds {sheds}   conns {conns}",
            plans(cur),
            rate(hits, misses),
        ),
        Some(prev) => {
            let d_plans = plans(cur).saturating_sub(plans(prev));
            let d_hits = hits.saturating_sub(stats_field(prev, &["hits"]));
            let d_misses = misses.saturating_sub(stats_field(prev, &["misses"]));
            let d_errors = errors.saturating_sub(stats_field(prev, &["errors"]));
            let d_sheds = sheds.saturating_sub(stats_field(prev, &["sheds", "total"]));
            let secs = elapsed.as_secs_f64().max(1e-9);
            format!(
                "plans +{d_plans} ({:.1}/s)   hit rate {:.1}%   errors +{d_errors}   \
                 sheds +{d_sheds}   conns {conns}",
                d_plans as f64 / secs,
                rate(d_hits, d_misses),
            )
        }
    }
}

/// `pops stats`: a one-line operational summary of a running server.
/// Point-in-time by default; `--watch N` keeps the connection open and
/// prints a **delta** line every N seconds (plans/s, windowed hit rate,
/// shed and error increments) until interrupted — `--samples M` bounds
/// the line count for scripting.
fn cmd_stats(opts: &Opts) -> Result<String, CliError> {
    let addr = opts
        .get("addr")
        .ok_or_else(|| err("--addr HOST:PORT is required"))?;
    let timeout = timeout_ms(opts, "timeout-ms", 30_000)?;
    let mut client = ServiceClient::connect_with_timeout(addr, timeout)
        .map_err(|e| err(format!("cannot connect to {addr}: {e}")))?;
    let interval = match opts.get("watch") {
        None => None,
        Some(_) => Some(Duration::from_secs(opts.u64_or("watch", 2)?)),
    };
    let samples = opts.u64_or("samples", 0)?;
    let Some(interval) = interval else {
        let doc = client.stats().map_err(|e| err(e.to_string()))?;
        return Ok(format!(
            "{}\n",
            stats_watch_line(None, &doc, Duration::ZERO)
        ));
    };
    watch_stats(
        || client.stats().map_err(|e| err(e.to_string())),
        interval,
        samples,
        &mut std::io::stdout(),
    )
}

/// The `--watch` loop, factored over a `fetch` closure and an output sink
/// so it is unit-testable. All but the final sample line stream to `sink`
/// as they arrive (a watch can run for hours; the returned string only
/// surfaces after the loop ends); the **final** line is returned as the
/// command output — exactly one line with one trailing newline, never an
/// empty string for `main` to print as a stray blank line. With
/// `samples == 0` the loop runs until `fetch` fails (interrupt or server
/// shutdown).
fn watch_stats<F>(
    mut fetch: F,
    interval: Duration,
    samples: u64,
    sink: &mut dyn std::io::Write,
) -> Result<String, CliError>
where
    F: FnMut() -> Result<Json, CliError>,
{
    let mut prev: Option<Json> = None;
    let mut last = Instant::now();
    let mut taken = 0u64;
    loop {
        let doc = fetch()?;
        let now = Instant::now();
        let line = stats_watch_line(prev.as_ref(), &doc, now - last);
        last = now;
        prev = Some(doc);
        taken += 1;
        if samples != 0 && taken >= samples {
            return Ok(format!("{line}\n"));
        }
        let _ = writeln!(sink, "{line}");
        let _ = sink.flush();
        std::thread::sleep(interval);
    }
}

/// `pops record`: a recording proxy. Listens locally, forwards every
/// byte to the upstream server, and tees each decodable route/batch/cache
/// request to an append-only JSONL trace (see `pops replay`). Responses
/// are pumped back raw — the proxy never alters wire behavior. The proxy
/// stops when a shutdown op passes through it.
fn cmd_record(opts: &Opts) -> Result<String, CliError> {
    let addr = opts
        .get("addr")
        .ok_or_else(|| err("--addr HOST:PORT (the upstream server) is required"))?;
    let out_path = opts
        .get("out")
        .ok_or_else(|| err("--out FILE (the trace to append to) is required"))?;
    let port = opts.usize_or("port", 0)?;
    if port > u16::MAX as usize {
        return Err(err("--port must be at most 65535"));
    }
    let upstream = addr
        .to_socket_addrs()
        .map_err(|e| err(format!("cannot resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| err(format!("{addr} resolves to no address")))?;
    // Learn the upstream's default shape: dense binary batch items with
    // the (0, 0) "server default" shape are recorded against it.
    let timeout = timeout_ms(opts, "timeout-ms", 30_000)?;
    let mut probe = ServiceClient::connect_with_timeout(addr, timeout)
        .map_err(|e| err(format!("cannot connect to upstream {addr}: {e}")))?;
    let info = probe
        .info()
        .map_err(|e| err(format!("upstream info failed: {e}")))?;
    drop(probe);
    let default = PopsTopology::new(info.d, info.g);
    let recorder = Arc::new(
        TraceRecorder::create(std::path::Path::new(out_path))
            .map_err(|e| err(format!("cannot record to {out_path}: {e}")))?,
    );
    let listener = TcpListener::bind(("127.0.0.1", port as u16))
        .map_err(|e| err(format!("cannot bind 127.0.0.1:{port}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| err(format!("cannot read bound address: {e}")))?;
    println!(
        "pops-record listening on {local}, forwarding to {addr} ({default} default), \
         tracing to {out_path}"
    );
    let _ = std::io::stdout().flush();
    let summary = record_proxy(listener, upstream, default, recorder)
        .map_err(|e| err(format!("record proxy failed: {e}")))?;
    let dropped = if summary.dropped == 0 {
        String::new()
    } else {
        format!(" ({} dropped)", summary.dropped)
    };
    Ok(format!(
        "recorded {} request(s) across {} connection(s) to {out_path}{dropped}\n",
        summary.recorded, summary.connections,
    ))
}

/// Parses an optional floating-point flag.
fn f64_flag(opts: &Opts, key: &str) -> Result<Option<f64>, CliError> {
    match opts.get(key) {
        None => Ok(None),
        Some(value) => value
            .trim()
            .parse::<f64>()
            .map(Some)
            .map_err(|_| err(format!("--{key} must be a number, got '{value}'"))),
    }
}

/// `pops replay`: drives a recorded (`--trace`) or synthetic (`--synth`)
/// trace back at a live server from concurrent client threads, preserving
/// per-request topology, faults, and wire format, and re-refereeing every
/// returned schedule on the local simulator. `--soak` loops the trace
/// under a duration bound and applies SLO gates (verification failures
/// and hard failures default to zero tolerated); any breach prints the
/// report and exits non-zero.
fn cmd_replay(opts: &Opts) -> Result<String, CliError> {
    let addr = opts
        .get("addr")
        .ok_or_else(|| err("--addr HOST:PORT is required"))?;
    let soak = opts.flag("soak");
    let trace = match (opts.get("trace"), opts.get("synth")) {
        (Some(_), Some(_)) => return Err(err("give --trace or --synth, not both")),
        (Some(path), None) => read_trace(std::path::Path::new(path))
            .map_err(|e| err(format!("cannot load --trace {path}: {e}")))?,
        (None, Some(spec)) => {
            let count = opts.usize_or("count", 256)?;
            let seed = opts.u64_or("seed", 42)?;
            synth_trace(spec, count, seed).map_err(err)?
        }
        (None, None) => return Err(err("give --trace FILE or --synth mixed:DxG[,DxG...]")),
    };
    let rate = f64_flag(opts, "rate-multiplier")?.unwrap_or(1.0);
    let clients = opts.usize_or("clients", 4)?;
    let duration = match opts.get("duration") {
        Some(_) => {
            let secs = opts.u64_or("duration", 0)?;
            if secs == 0 {
                return Err(err("--duration must be positive"));
            }
            Some(Duration::from_secs(secs))
        }
        // Soak mode needs a bound to terminate; 20 s is the smoke default.
        None if soak => Some(Duration::from_secs(20)),
        None => None,
    };
    let loop_trace = opts.flag("loop") || soak;
    if loop_trace && duration.is_none() {
        return Err(err("--loop needs --duration SECS"));
    }
    let gates = SloGates {
        p99_ms: f64_flag(opts, "slo-p99-ms")?,
        max_shed_rate: f64_flag(opts, "slo-shed-pct")?.map(|pct| pct / 100.0),
        max_verify_failures: match opts.get("slo-verify-failures") {
            Some(_) => Some(opts.u64_or("slo-verify-failures", 0)?),
            None if soak => Some(0),
            None => None,
        },
        max_failures: match opts.get("slo-failures") {
            Some(_) => Some(opts.u64_or("slo-failures", 0)?),
            None if soak => Some(0),
            None => None,
        },
    };
    let gated = gates.p99_ms.is_some()
        || gates.max_shed_rate.is_some()
        || gates.max_verify_failures.is_some()
        || gates.max_failures.is_some();
    let replay_opts = ReplayOptions {
        clients,
        rate_multiplier: rate,
        duration,
        loop_trace,
        verify: !opts.flag("no-verify"),
        timeout: timeout_ms(opts, "timeout-ms", 10_000)?,
    };
    println!(
        "replaying {} record(s) against {addr} (x{rate} rate, {clients} client(s){})",
        trace.len(),
        if loop_trace { ", looping" } else { "" },
    );
    let _ = std::io::stdout().flush();
    let report = run_replay(addr, &trace, &replay_opts).map_err(err)?;
    let mut out = report.render();
    let breaches = gates.breaches(&report);
    if breaches.is_empty() {
        if gated {
            let _ = writeln!(out, "SLO gates: pass");
        }
        return Ok(out);
    }
    for breach in &breaches {
        let _ = writeln!(out, "SLO breach: {breach}");
    }
    // The report still belongs on stdout; the breach summary is the error.
    print!("{out}");
    let _ = std::io::stdout().flush();
    Err(err(format!("SLO gates breached: {}", breaches.join("; "))))
}

/// `pops request --batch-file FILE`: reads a JSON-lines file — each
/// non-empty line `{"perm":[...]}` with optional `"d"`/`"g"` shape fields
/// and an optional `"faults":[...]` coupler-id list — sends everything as
/// **one** `{"op":"batch"}` request (schedules included), re-verifies
/// every returned schedule on the local simulator referee for its own
/// topology (with that item's faults injected), and prints the summary.
///
/// ```text
/// $ cat batch.jsonl
/// {"perm":[15,14,13,12,11,10,9,8,7,6,5,4,3,2,1,0]}
/// {"d":2,"g":8,"perm":[15,14,13,12,11,10,9,8,7,6,5,4,3,2,1,0]}
/// $ pops request --addr 127.0.0.1:7077 --batch-file batch.jsonl
/// batch of 2 item(s) served by 127.0.0.1:7077: 2 routed, 0 failed, ...
/// ```
fn request_batch_file(
    client: &mut ServiceClient,
    addr: &str,
    path: &str,
) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read --batch-file {path}: {e}")))?;
    let mut items = Vec::new();
    for (line_no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| err(format!("{path}:{}: {e}", line_no + 1)))?;
        let perm = doc
            .get("perm")
            .and_then(Json::as_arr)
            .ok_or_else(|| {
                err(format!(
                    "{path}:{}: needs an array field 'perm'",
                    line_no + 1
                ))
            })?
            .iter()
            .map(|v| {
                v.as_usize().ok_or_else(|| {
                    err(format!(
                        "{path}:{}: 'perm' entries must be integers",
                        line_no + 1
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let pi = pops_permutation::Permutation::new(perm)
            .map_err(|e| err(format!("{path}:{}: {e}", line_no + 1)))?;
        let shape = match (
            doc.get("d").and_then(Json::as_usize),
            doc.get("g").and_then(Json::as_usize),
        ) {
            (None, None) => None,
            (Some(d), Some(g)) => Some((d, g)),
            _ => {
                return Err(err(format!(
                    "{path}:{}: give both 'd' and 'g', or neither",
                    line_no + 1
                )))
            }
        };
        let faults = match doc.get("faults") {
            None => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| {
                    err(format!(
                        "{path}:{}: 'faults' must be an array of coupler ids",
                        line_no + 1
                    ))
                })?
                .iter()
                .map(|v| {
                    v.as_usize().ok_or_else(|| {
                        err(format!(
                            "{path}:{}: 'faults' entries must be integers",
                            line_no + 1
                        ))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        items.push(BatchItem { pi, shape, faults });
    }
    if items.is_empty() {
        return Err(err(format!("--batch-file {path} holds no items")));
    }
    // Ask for schedule bodies so every item can be refereed locally.
    let reply = client.batch(&items, true).map_err(|e| err(e.to_string()))?;

    let mut out = String::new();
    let mut verified = 0usize;
    for (index, (item, result)) in items.iter().zip(&reply.items).enumerate() {
        match result {
            Err(e) => {
                let _ = writeln!(out, "item {index} failed ({}): {}", e.kind, e.message);
            }
            Ok(routed) => {
                let t = PopsTopology::new(routed.d, routed.g);
                // Degraded items are refereed with their own faults down.
                let mut sim = if item.faults.is_empty() {
                    Simulator::with_unit_packets(t)
                } else {
                    let mut set = FaultSet::none(&t);
                    for &c in item.faults.iter().filter(|&&c| c < t.coupler_count()) {
                        set.fail_coupler(c);
                    }
                    Simulator::with_unit_packets_and_faults(t, set)
                };
                sim.execute_schedule(&routed.schedule)
                    .map_err(|(slot, e)| {
                        err(format!(
                            "item {index}: returned schedule illegal at slot {slot}: {e}"
                        ))
                    })?;
                sim.verify_delivery(item.pi.as_slice()).map_err(|e| {
                    err(format!("item {index}: returned schedule misdelivers: {e}"))
                })?;
                verified += 1;
            }
        }
    }
    let s = &reply.summary;
    let _ = writeln!(
        out,
        "batch of {} item(s) served by {addr}: {} routed, {} failed, {} slot(s), \
         {} topolog{}, {} µs server-side",
        s.items,
        s.routed,
        s.failed,
        s.slots,
        s.topologies.len(),
        if s.topologies.len() == 1 { "y" } else { "ies" },
        s.micros,
    );
    let degraded = reply
        .items
        .iter()
        .filter(|r| r.as_ref().is_ok_and(|i| i.degraded))
        .count();
    let _ = writeln!(
        out,
        "verified {verified} returned schedule(s) on the simulator referee\
         {}",
        if degraded == 0 {
            String::new()
        } else {
            format!(" ({degraded} degraded, refereed with their faults down)")
        },
    );
    Ok(out)
}

fn cmd_collectives(opts: &Opts) -> Result<String, CliError> {
    use pops_collectives::cost;
    let t = shape(opts)?;
    let mut out = String::new();
    let _ = writeln!(out, "collective slot costs on {t} (n = {}):", t.n());
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>12} {:>8}",
        "collective", "slots", "lower bound", "slack"
    );
    let rows: [(&str, usize, usize); 7] = [
        (
            "broadcast",
            cost::broadcast_slots(&t),
            cost::broadcast_lower_bound(&t),
        ),
        (
            "scatter",
            cost::scatter_slots(&t),
            cost::scatter_lower_bound(&t),
        ),
        (
            "gather",
            cost::gather_slots(&t),
            cost::gather_lower_bound(&t),
        ),
        (
            "all-gather",
            cost::all_gather_slots(&t),
            cost::all_gather_lower_bound(&t),
        ),
        (
            "barrier",
            cost::barrier_slots(&t),
            cost::barrier_lower_bound(&t),
        ),
        ("circular shift", cost::shift_slots(&t), 1),
        (
            "all-to-all",
            cost::all_to_all_slots(&t),
            cost::all_to_all_lower_bound(&t),
        ),
    ];
    for (name, slots, bound) in rows {
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>12} {:>8}",
            name,
            slots,
            bound,
            if slots == bound {
                "0".to_string()
            } else {
                format!("+{}", slots - bound)
            }
        );
    }
    let _ = writeln!(
        out,
        "(costs are exact slot counts of the pops-collectives schedules;\n\
         bounds follow from the one-send/one-receive/g^2-couplers machine model)"
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_words(words: &[&str]) -> Result<String, CliError> {
        run(&Opts::parse(words.iter().map(|s| s.to_string())).unwrap())
    }

    #[test]
    fn help_lists_all_commands() {
        let out = run_words(&["help"]).unwrap();
        for cmd in [
            "topology", "route", "bounds", "optimal", "faults", "sweep", "batch", "serve",
            "request", "stats",
        ] {
            assert!(out.contains(cmd), "missing {cmd}");
        }
        for flag in [
            "--overload-watermark",
            "--quota-rps",
            "--slow-ms",
            "--metrics-port",
            "--watch",
            "--fault DxG:c1,c2,...",
            "--fault c1,c2,...",
        ] {
            assert!(out.contains(flag), "missing {flag}");
        }
    }

    #[test]
    fn empty_command_prints_help() {
        assert!(run_words(&[]).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_suggests_help() {
        assert!(run_words(&["frobnicate"])
            .unwrap_err()
            .0
            .contains("pops help"));
    }

    #[test]
    fn topology_renders() {
        let out = run_words(&["topology", "--d", "3", "--g", "2"]).unwrap();
        assert!(out.contains("c(1, 0)") || out.contains("c(1,0)"), "{out}");
        assert!(out.contains("n = 6"));
    }

    #[test]
    fn route_reversal_reports_slots() {
        let out = run_words(&[
            "route",
            "--d",
            "4",
            "--g",
            "2",
            "--family",
            "reversal",
            "--compare",
        ])
        .unwrap();
        assert!(out.contains("routed in 4 slot(s)"), "{out}");
        assert!(out.contains("delivery verified"));
        assert!(out.contains("direct (single-hop)"));
    }

    #[test]
    fn route_schedule_flag_prints_slots() {
        let out = run_words(&[
            "route",
            "--d",
            "2",
            "--g",
            "2",
            "--family",
            "reversal",
            "--schedule",
        ])
        .unwrap();
        assert!(out.contains("slot"), "{out}");
    }

    #[test]
    fn route_gantt_renders_grid() {
        let out = run_words(&[
            "route", "--d", "4", "--g", "4", "--family", "reversal", "--gantt",
        ])
        .unwrap();
        assert!(out.contains("coupler occupancy"), "{out}");
        assert!(out.contains("|##|"));
    }

    #[test]
    fn route_explicit_perm() {
        let out = run_words(&["route", "--d", "1", "--g", "4", "--perm", "1,2,3,0"]).unwrap();
        assert!(out.contains("routed in 1 slot(s)"));
    }

    #[test]
    fn bounds_reports_corrected_prop2() {
        let out = run_words(&[
            "bounds",
            "--d",
            "3",
            "--g",
            "2",
            "--family",
            "group-rotation",
        ])
        .unwrap();
        assert!(
            out.contains("proposition 2 (corrected, inter-group): 3"),
            "{out}"
        );
        assert!(out.contains("theorem-2 upper bound                 : 4"));
    }

    #[test]
    fn optimal_finds_the_prop2_counterexample() {
        let out = run_words(&[
            "optimal",
            "--d",
            "3",
            "--g",
            "2",
            "--family",
            "group-rotation",
        ])
        .unwrap();
        assert!(out.contains("exact minimum (two-hop class) = 3"), "{out}");
    }

    #[test]
    fn optimal_rejects_large_n() {
        let err = run_words(&["optimal", "--d", "8", "--g", "8"]).unwrap_err();
        assert!(err.0.contains("exponential"));
    }

    #[test]
    fn faults_route_with_detour() {
        let out = run_words(&[
            "faults", "--d", "2", "--g", "3", "--family", "reversal", "--fail", "6",
        ])
        .unwrap();
        assert!(
            out.contains("delivery verified with the faults injected"),
            "{out}"
        );
    }

    #[test]
    fn faults_report_disconnection() {
        // Fail every coupler into group 1 on POPS(2, 3): c(1,0)=3, c(1,1)=4, c(1,2)=5.
        let out = run_words(&[
            "faults", "--d", "2", "--g", "3", "--family", "reversal", "--fail", "3,4,5",
        ])
        .unwrap();
        assert!(out.contains("unroutable"), "{out}");
    }

    #[test]
    fn faults_validate_coupler_ids() {
        let err = run_words(&[
            "faults", "--d", "2", "--g", "2", "--family", "reversal", "--fail", "99",
        ])
        .unwrap_err();
        assert!(err.0.contains("out of range"));
    }

    #[test]
    fn sweep_covers_the_grid() {
        let out = run_words(&["sweep", "--max-d", "3", "--max-g", "3"]).unwrap();
        assert_eq!(out.matches(" ok").count(), 9, "{out}");
        assert!(!out.contains("MISMATCH"));
    }

    #[test]
    fn collectives_table_shows_optimal_single_root_patterns() {
        let out = run_words(&["collectives", "--d", "4", "--g", "4"]).unwrap();
        assert!(out.contains("scatter"), "{out}");
        assert!(out.contains("broadcast                     1            1        0"));
        assert!(out.contains("all-to-all"));
        // n = 16: scatter is 15/15 → slack 0.
        assert!(out.contains("scatter                      15           15        0"));
    }

    #[test]
    fn collectives_requires_shape() {
        assert!(run_words(&["collectives"]).is_err());
    }

    #[test]
    fn families_lists_them() {
        let out = run_words(&["families"]).unwrap();
        assert!(out.contains("reversal"));
        assert!(out.contains("group-deranged"));
    }

    #[test]
    fn batch_routes_and_reports_throughput() {
        let out = run_words(&[
            "batch",
            "--d",
            "4",
            "--g",
            "4",
            "--count",
            "12",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("routed 12 random permutation(s)"), "{out}");
        assert!(out.contains("threads: 2"), "{out}");
        assert!(out.contains("artefacts: on"), "{out}");
        assert!(out.contains("verified on the simulator"), "{out}");
    }

    #[test]
    fn batch_no_artefacts_fast_path() {
        let out = run_words(&[
            "batch",
            "--d",
            "3",
            "--g",
            "3",
            "--count",
            "5",
            "--no-artefacts",
        ])
        .unwrap();
        assert!(out.contains("artefacts: off"), "{out}");
        assert!(out.contains("throughput:"), "{out}");
    }

    #[test]
    fn batch_validates_options() {
        assert!(run_words(&["batch", "--d", "2", "--g", "2", "--count", "0"]).is_err());
        assert!(run_words(&["batch", "--g", "2"]).is_err());
    }

    #[test]
    fn request_round_trips_through_a_live_server() {
        use pops_service::{serve, RoutingService, ServiceConfig};
        use std::net::TcpListener;
        use std::sync::Arc;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let service = Arc::new(RoutingService::with_config(
            PopsTopology::new(4, 4),
            ServiceConfig {
                shards: 1,
                cache_capacity: 8,
                max_in_flight: 2,
                colorer: ColorerKind::AlternatingPath,
                ..ServiceConfig::default()
            },
        ));
        let server = std::thread::spawn(move || serve(listener, service).unwrap());

        let out = run_words(&["request", "--addr", &addr, "--family", "reversal"]).unwrap();
        assert!(out.contains("verified 2-slot schedule"), "{out}");
        assert!(out.contains("cache miss"), "{out}");

        // Same request again: now a cache hit.
        let out = run_words(&["request", "--addr", &addr, "--family", "reversal"]).unwrap();
        assert!(out.contains("cache hit"), "{out}");

        let out = run_words(&["request", "--addr", &addr, "--stats"]).unwrap();
        assert!(out.contains("hits: 1"), "{out}");

        let out = run_words(&["request", "--addr", &addr, "--shutdown"]).unwrap();
        assert!(out.contains("acknowledged shutdown"), "{out}");
        server.join().unwrap();
    }

    #[test]
    fn request_binary_round_trips_through_a_live_server() {
        use pops_service::{serve, RoutingService, ServiceConfig};
        use std::io::Write as _;
        use std::net::TcpListener;
        use std::sync::Arc;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let service = Arc::new(RoutingService::with_config(
            PopsTopology::new(4, 4),
            ServiceConfig {
                shards: 1,
                cache_capacity: 8,
                max_in_flight: 2,
                colorer: ColorerKind::AlternatingPath,
                ..ServiceConfig::default()
            },
        ));
        let server = std::thread::spawn(move || serve(listener, service).unwrap());

        // A --binary route is refereed locally like a JSON one.
        let out = run_words(&[
            "request", "--addr", &addr, "--family", "reversal", "--binary",
        ])
        .unwrap();
        assert!(out.contains("verified 2-slot schedule"), "{out}");

        // A --binary batch file streams item frames and is refereed too.
        let path = std::env::temp_dir().join(format!(
            "pops-cli-binary-batch-{}.jsonl",
            std::process::id()
        ));
        let mut file = std::fs::File::create(&path).unwrap();
        writeln!(file, "{{\"perm\":[15,14,13,12,11,10,9,8,7,6,5,4,3,2,1,0]}}").unwrap();
        drop(file);
        let out = run_words(&[
            "request",
            "--addr",
            &addr,
            "--batch-file",
            path.to_str().unwrap(),
            "--binary",
        ])
        .unwrap();
        assert!(out.contains("1 routed, 0 failed"), "{out}");
        let _ = std::fs::remove_file(&path);

        // Per-format counters surface in the raw stats document.
        let out = run_words(&["request", "--addr", &addr, "--stats"]).unwrap();
        assert!(out.contains("\"binary\""), "{out}");

        run_words(&["request", "--addr", &addr, "--shutdown"]).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn request_cache_ops_round_trip_through_a_live_server() {
        use pops_service::{serve_with_config, RoutingService, ServerConfig, ServiceConfig};
        use std::net::TcpListener;
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!(
            "pops-cli-cache-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let service = Arc::new(RoutingService::with_config(
            PopsTopology::new(4, 4),
            ServiceConfig {
                shards: 1,
                cache_capacity: 8,
                max_in_flight: 2,
                colorer: ColorerKind::AlternatingPath,
                ..ServiceConfig::default()
            },
        ));
        let config = ServerConfig {
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let server =
            std::thread::spawn(move || serve_with_config(listener, service, config).unwrap());

        run_words(&["request", "--addr", &addr, "--family", "reversal"]).unwrap();
        let out = run_words(&["request", "--addr", &addr, "--cache", "save"]).unwrap();
        assert!(out.contains("cache save: 1 plan(s)"), "{out}");
        let out = run_words(&["request", "--addr", &addr, "--cache", "load"]).unwrap();
        assert!(out.contains("cache load: 1 plan(s)"), "{out}");
        let out = run_words(&["request", "--addr", &addr, "--cache", "stats"]).unwrap();
        assert!(out.contains("\"l2\""), "{out}");
        let out = run_words(&["request", "--addr", &addr, "--stats"]).unwrap();
        assert!(out.contains("L2 (phases):"), "{out}");
        run_words(&["request", "--addr", &addr, "--shutdown"]).unwrap();
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_warm_restart_round_trip() {
        // Boot a --cache-dir server, route once, shut down (spills), boot
        // again (loads), and the first repeated request must be a hit.
        let dir = std::env::temp_dir().join(format!(
            "pops-cli-warm-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let dir_str = dir.to_str().unwrap().to_string();
        let round = |expect: &str| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let port = listener.local_addr().unwrap().port().to_string();
            let addr = format!("127.0.0.1:{port}");
            drop(listener); // free the port for `serve`
            let dir_str = dir_str.clone();
            let server = std::thread::spawn(move || {
                run_words(&[
                    "serve",
                    "--d",
                    "4",
                    "--g",
                    "4",
                    "--port",
                    &port,
                    "--cache-dir",
                    &dir_str,
                ])
                .unwrap()
            });
            // The server prints its address before accepting; retry the
            // connect until it is up.
            let mut out = None;
            for _ in 0..200 {
                match run_words(&["request", "--addr", &addr, "--family", "reversal"]) {
                    Ok(o) => {
                        out = Some(o);
                        break;
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(25)),
                }
            }
            let out = out.expect("server never came up");
            assert!(out.contains(expect), "expected {expect:?} in {out}");
            run_words(&["request", "--addr", &addr, "--shutdown"]).unwrap();
            server.join().unwrap()
        };
        let first = round("cache miss");
        assert!(first.contains("spilled"), "{first}");
        let second = round("cache hit"); // warm restart: first request hits
        assert!(second.contains("spilled"), "{second}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn request_requires_addr() {
        assert!(run_words(&["request"]).unwrap_err().0.contains("--addr"));
    }

    #[test]
    fn serve_validates_options() {
        assert!(run_words(&["serve", "--d", "2", "--g", "2", "--port", "70000"]).is_err());
        assert!(run_words(&["serve", "--d", "2", "--g", "2", "--shards", "0"]).is_err());
        assert!(run_words(&["serve", "--d", "2", "--g", "2", "--max-line-bytes", "0"]).is_err());
        assert!(run_words(&["serve", "--d", "2", "--g", "2", "--max-conns", "0"]).is_err());
        assert!(run_words(&["serve", "--d", "2", "--g", "2", "--read-timeout-ms", "x"]).is_err());
        assert!(run_words(&["serve", "--d", "2", "--g", "2", "--cache-shards", "0"]).is_err());
        assert!(run_words(&["serve", "--d", "2", "--g", "2", "--max-batch-items", "0"]).is_err());
        assert!(run_words(&[
            "serve",
            "--d",
            "2",
            "--g",
            "2",
            "--max-batch-topologies",
            "0"
        ])
        .is_err());
        assert!(run_words(&["serve", "--d", "2", "--g", "2", "--topology", "x"]).is_err());
        // The default + 2 distinct pre-warms cannot fit 2 slots; repeats
        // of the same pre-warm are deduped and do fit.
        assert!(run_words(&[
            "serve",
            "--d",
            "2",
            "--g",
            "2",
            "--topology",
            "2x4",
            "--topology",
            "4x2",
            "--max-topologies",
            "2",
        ])
        .unwrap_err()
        .0
        .contains("--max-topologies"));
    }

    #[test]
    fn serve_validates_fault_flags() {
        // Malformed values.
        for bad in ["4x4", "4x4:", "x4:1", "4x4:a", "0x4:1"] {
            assert!(
                run_words(&["serve", "--d", "4", "--g", "4", "--fault", bad]).is_err(),
                "accepted --fault {bad}"
            );
        }
        // Out-of-range coupler id: POPS(4, 4) has 16 couplers.
        let e = run_words(&["serve", "--d", "4", "--g", "4", "--fault", "4x4:16"]).unwrap_err();
        assert!(e.0.contains("out of range"), "{e}");
        // A baseline that disconnects a group pair is refused at boot:
        // c(1,0)=3, c(1,1)=4, c(1,2)=5 are every coupler into group 1.
        let e = run_words(&["serve", "--d", "2", "--g", "3", "--fault", "2x3:3,4,5"]).unwrap_err();
        assert!(e.0.contains("disconnects"), "{e}");
        // ...even when the disconnecting union arrives as separate flags.
        let e = run_words(&[
            "serve", "--d", "2", "--g", "3", "--fault", "2x3:3,4", "--fault", "2x3:5",
        ])
        .unwrap_err();
        assert!(e.0.contains("disconnects"), "{e}");
    }

    #[test]
    fn request_with_faults_round_trips_through_a_live_server() {
        use pops_service::{serve, RoutingService, ServiceConfig};
        use std::net::TcpListener;
        use std::sync::Arc;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let service = Arc::new(RoutingService::with_config(
            PopsTopology::new(4, 4),
            ServiceConfig {
                shards: 1,
                cache_capacity: 8,
                max_in_flight: 2,
                colorer: ColorerKind::AlternatingPath,
                ..ServiceConfig::default()
            },
        ));
        let server = std::thread::spawn(move || serve(listener, service).unwrap());

        // Degraded request: the schedule is refereed with coupler 1 down.
        let out = run_words(&[
            "request", "--addr", &addr, "--family", "reversal", "--fault", "1",
        ])
        .unwrap();
        assert!(out.contains("degraded"), "{out}");
        assert!(out.contains("cache miss"), "{out}");

        // Same degraded request again: its own (fault-keyed) cache entry.
        let out = run_words(&[
            "request", "--addr", &addr, "--family", "reversal", "--fault", "1",
        ])
        .unwrap();
        assert!(out.contains("cache hit"), "{out}");

        // The healthy twin does NOT alias the degraded plan: still a miss.
        let out = run_words(&["request", "--addr", &addr, "--family", "reversal"]).unwrap();
        assert!(out.contains("cache miss"), "{out}");
        assert!(!out.contains("degraded"), "{out}");

        // Out-of-range ids are refused client-side.
        let e = run_words(&[
            "request", "--addr", &addr, "--family", "reversal", "--fault", "16",
        ])
        .unwrap_err();
        assert!(e.0.contains("out of range"), "{e}");

        run_words(&["request", "--addr", &addr, "--shutdown"]).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn serve_validates_observability_options() {
        assert!(run_words(&["serve", "--d", "2", "--g", "2", "--metrics-port", "0"]).is_err());
        assert!(run_words(&["serve", "--d", "2", "--g", "2", "--metrics-port", "70000"]).is_err());
        assert!(run_words(&["serve", "--d", "2", "--g", "2", "--quota-rps", "0"]).is_err());
        assert!(run_words(&["serve", "--d", "2", "--g", "2", "--quota-burst", "4"]).is_err());
        assert!(run_words(&["serve", "--d", "2", "--g", "2", "--slow-ms", "x"]).is_err());
    }

    #[test]
    fn stats_requires_addr() {
        assert!(run_words(&["stats"]).unwrap_err().0.contains("--addr"));
    }

    #[test]
    fn stats_one_shot_and_watch_against_a_live_server() {
        use pops_service::{serve, RoutingService, ServiceConfig};
        use std::net::TcpListener;
        use std::sync::Arc;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let service = Arc::new(RoutingService::with_config(
            PopsTopology::new(4, 4),
            ServiceConfig {
                shards: 1,
                cache_capacity: 8,
                max_in_flight: 2,
                colorer: ColorerKind::AlternatingPath,
                ..ServiceConfig::default()
            },
        ));
        let server = std::thread::spawn(move || serve(listener, service).unwrap());

        run_words(&["request", "--addr", &addr, "--family", "reversal"]).unwrap();
        let out = run_words(&["stats", "--addr", &addr]).unwrap();
        assert!(out.contains("plans 1"), "{out}");
        assert!(out.contains("hit rate 0.0%"), "{out}");
        assert!(out.contains("sheds 0"), "{out}");

        // Watch mode streams all but the last sample to stdout and returns
        // the final delta line once --samples is hit — never an empty
        // string for main to print as a stray blank line.
        let out = run_words(&["stats", "--addr", &addr, "--watch", "0", "--samples", "2"]).unwrap();
        assert!(out.starts_with("plans +"), "{out}");
        assert!(out.ends_with('\n') && !out.ends_with("\n\n"), "{out:?}");
        assert_eq!(out.lines().count(), 1, "{out:?}");

        run_words(&["request", "--addr", &addr, "--shutdown"]).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn stats_watch_lines_render_absolutes_then_deltas() {
        let first = Json::parse(
            r#"{"hits":2,"misses":2,"errors":1,"sheds":{"total":3},"connections":{"active":2}}"#,
        )
        .unwrap();
        let line = stats_watch_line(None, &first, Duration::ZERO);
        assert_eq!(
            line,
            "plans 4   hit rate 50.0%   errors 1   sheds 3   conns 2"
        );
        let second = Json::parse(
            r#"{"hits":5,"misses":3,"errors":1,"sheds":{"total":4},"connections":{"active":1}}"#,
        )
        .unwrap();
        let line = stats_watch_line(Some(&first), &second, Duration::from_secs(2));
        assert_eq!(
            line,
            "plans +4 (2.0/s)   hit rate 75.0%   errors +0   sheds +1   conns 1"
        );
        // Fields an older server lacks read as zero instead of erroring.
        let sparse = Json::parse(r#"{"hits":1,"misses":0}"#).unwrap();
        let line = stats_watch_line(None, &sparse, Duration::ZERO);
        assert!(line.contains("sheds 0"), "{line}");
    }

    #[test]
    fn watch_stats_returns_the_final_line_not_an_empty_string() {
        // The regression this pins: the old watch loop returned
        // `Ok(String::new())` after its last sample, which main printed as
        // a stray blank line. Now all but the final sample stream to the
        // sink and the final line is the command output.
        let docs = [
            r#"{"hits":2,"misses":2,"errors":0,"sheds":{"total":0},"connections":{"active":1}}"#,
            r#"{"hits":4,"misses":2,"errors":0,"sheds":{"total":0},"connections":{"active":1}}"#,
            r#"{"hits":8,"misses":2,"errors":0,"sheds":{"total":1},"connections":{"active":1}}"#,
        ];
        let mut next = 0usize;
        let mut sink: Vec<u8> = Vec::new();
        let out = watch_stats(
            || {
                let doc = Json::parse(docs[next]).unwrap();
                next += 1;
                Ok(doc)
            },
            Duration::ZERO,
            3,
            &mut sink,
        )
        .unwrap();
        assert!(!out.is_empty(), "the final sample must be the output");
        assert!(out.ends_with('\n') && !out.ends_with("\n\n"), "{out:?}");
        assert_eq!(out.lines().count(), 1, "{out:?}");
        assert!(out.starts_with("plans +"), "{out:?}");
        let streamed = String::from_utf8(sink).unwrap();
        assert_eq!(streamed.lines().count(), 2, "{streamed:?}");
        assert!(
            streamed.lines().all(|l| !l.trim().is_empty()),
            "{streamed:?}"
        );

        // A fetch failure (server shut down mid-watch) surfaces as the
        // command error, not a panic or an empty success.
        let mut sink: Vec<u8> = Vec::new();
        let failed = watch_stats(
            || Err(err("connection reset")),
            Duration::ZERO,
            0,
            &mut sink,
        );
        assert!(failed.is_err());
    }

    #[test]
    fn request_timeout_bounds_a_hung_server() {
        // A listener that accepts but never answers: the client must give
        // up within its --timeout-ms budget instead of hanging forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let start = Instant::now();
        let err = run_words(&["request", "--addr", &addr, "--timeout-ms", "300"]).unwrap_err();
        assert!(err.0.contains("timed out"), "{err}");
        assert!(start.elapsed() < Duration::from_secs(10));
        drop(hold);
    }

    #[test]
    fn engine_selection() {
        for eng in ["koenig", "alternating", "euler"] {
            let out = run_words(&[
                "route", "--d", "3", "--g", "3", "--family", "random", "--engine", eng,
            ])
            .unwrap();
            assert!(out.contains("routed in 2 slot(s)"), "{eng}: {out}");
        }
        assert!(run_words(&["route", "--d", "2", "--g", "2", "--engine", "x"]).is_err());
    }
}
