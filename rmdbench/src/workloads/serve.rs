//! `serve_socket`: the real `rmd serve` binary with its default options
//! (certificate gate on, `certs/`), listening on a unix socket in a
//! private directory under `.bench_tmp/`. One client connection runs a
//! closed loop; the client and the daemon are pinned to one CPU.
//!
//! Set-up starts the daemon and admits the shipped machines (no more
//! than its machine cache holds). Timed traffic is mostly `schedule`
//! frames: the paper's suite against `cydra5_subset` (the same loops as
//! `schedule_suite`), plus chain and recurrence loops drawn from
//! `--seed` over every other admitted machine's operations, in an order
//! drawn from `--seed`.
//! One `machine` frame per admitted machine and round resubmits it, so
//! it hits the cache.
//!
//! Round 0's replies must equal the in-process schedule of the same
//! loop on the original description, which must also pass the
//! independent validator; later rounds must repeat round 0 byte for
//! byte. The final `metrics` frame's counters must equal the client's
//! own counts.

use super::{first_setup, machine_files, setup_step, timed_rounds, Report};
use crate::layers::{self, SchedCtx};
use crate::rng::Rng;
use crate::{checks, graphs, stats, trace, Config, Scale};
use rmd_machine::MachineDescription;
use rmd_sched::{DepGraph, Representation};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A reply that does not arrive within this long fails the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// The daemon must open its socket, and later exit, within this long.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(20);
/// Chain and recurrence loops per admitted machine other than the suite's.
const LOOPS_PER_MACHINE: usize = 16;
/// The machine whose suite loops make up most of the traffic.
const SUITE_MACHINE: &str = "cydra5_subset";

const OK_PREFIX: &str = "{\"ok\":true,";

/// A running daemon; dropping it kills the process if it is still
/// alive, waits for it and removes its directory.
struct Daemon {
    child: Child,
    dir: PathBuf,
}

impl Daemon {
    fn start(rmd: &Path, n: usize) -> Result<(Daemon, Client), String> {
        let dir = PathBuf::from(format!(".bench_tmp/serve-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let socket = dir.join("rmd.sock");
        let err = std::fs::File::create(dir.join("daemon.err")).map_err(|e| format!("create daemon log: {e}"))?;
        let child = Command::new(rmd)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("start {}: {e}", rmd.display()))?;
        let mut d = Daemon { child, dir };
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        loop {
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("daemon exited during start-up ({status}): {}", d.log()));
            }
            if let Ok(stream) = UnixStream::connect(&socket) {
                let client = Client::new(stream)?;
                return Ok((d, client));
            }
            if Instant::now() > deadline {
                return Err(format!("daemon did not open its socket within {PROCESS_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn log(&self) -> String {
        std::fs::read_to_string(self.dir.join("daemon.err")).unwrap_or_default()
    }

    /// Sends `shutdown` and waits for a clean exit.
    fn stop(mut self, client: &mut Client) -> Result<(), String> {
        let reply = client.call("{\"type\":\"shutdown\",\"id\":\"shutdown\"}\n")?;
        if !reply.starts_with(OK_PREFIX) {
            return Err(format!("shutdown refused: {reply}"));
        }
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}: {}", self.log())),
                Ok(None) if Instant::now() > deadline => {
                    return Err(format!("daemon still running {PROCESS_TIMEOUT:?} after shutdown"))
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One connection, one request in flight, and the client's own counts.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    reply: String,
    sent: u64,
    ok: u64,
    errors: u64,
    shed: u64,
}

impl Client {
    fn new(stream: UnixStream) -> Result<Client, String> {
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("socket timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("socket clone: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            reply: String::new(),
            sent: 0,
            ok: 0,
            errors: 0,
            shed: 0,
        })
    }

    /// Sends one newline-terminated frame and returns its reply line.
    fn call(&mut self, frame: &str) -> Result<&str, String> {
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send to daemon: {e}"))?;
        self.sent += 1;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("no reply from daemon: {e}")),
        }
        let reply = self.reply.trim_end();
        if reply.starts_with(OK_PREFIX) {
            self.ok += 1;
        } else {
            self.errors += 1;
            if reply.contains("\"kind\":\"overloaded\"") {
                self.shed += 1;
            }
        }
        Ok(reply)
    }
}

/// One frame of a round.
struct Item {
    machine: usize,
    /// The loop of a `schedule` frame; `None` for a `machine` frame.
    graph: Option<DepGraph>,
    frame: String,
    traced_frame: String,
}

struct Admitted {
    name: String,
    text: String,
    original: MachineDescription,
    fingerprint: String,
    reduced_resources: u64,
}

struct Setup {
    daemon: Daemon,
    client: Client,
    machines: Vec<Admitted>,
    items: Vec<Item>,
}

fn json(reply: &str) -> Result<Value, String> {
    serde_json::from_str(reply).map_err(|e| format!("unparsable reply {reply:?}: {e:?}"))
}

fn setup(cfg: &Config, scale: Scale, n: usize) -> Result<Setup, String> {
    let mut files = machine_files()?;
    if scale == Scale::Probe {
        files.retain(|(name, _)| name == SUITE_MACHINE || name == "example");
    }
    let (daemon, mut client) = setup_step("setup.daemon_start", || -> Result<_, String> {
        let (d, mut c) = Daemon::start(&cfg.rmd, n)?;
        let reply = c.call("{\"type\":\"status\",\"id\":\"status\"}\n")?;
        if !reply.starts_with(OK_PREFIX) {
            return Err(format!("status refused: {reply}"));
        }
        Ok((d, c))
    })?;

    let originals = setup_step("setup.parse", || -> Result<Vec<_>, String> {
        files.iter().map(|(_, text)| layers::parse_mdl(text)).collect()
    })?;
    let mut machines = Vec::new();
    for (((name, text), original), id) in files.into_iter().zip(originals).zip(0u64..) {
        let mut frame = graphs::machine_frame(id, &text, false);
        frame.push('\n');
        let reply = json(client.call(&frame)?)?;
        if reply.get("ok").and_then(Value::as_bool) != Some(true) || reply.get("cached").and_then(Value::as_bool) != Some(false) {
            return Err(format!("{name}: admission refused or not fresh: {reply:?}"));
        }
        let fingerprint = reply.get("fingerprint").and_then(Value::as_str).unwrap_or_default().to_string();
        let reduced_resources = reply.get("reduced_resources").and_then(Value::as_u64).unwrap_or(0);
        machines.push(Admitted {
            name,
            text,
            original,
            fingerprint,
            reduced_resources,
        });
    }
    if machines.len() > layers::serve_machine_cap() {
        return Err("more machines than the daemon's cache holds".into());
    }
    let suite_index = machines
        .iter()
        .position(|m| m.name == SUITE_MACHINE)
        .ok_or_else(|| format!("machines/{SUITE_MACHINE}.mdl is missing"))?;

    let loops: Vec<(usize, DepGraph)> = setup_step("setup.generate", || {
        let suite_loops = if scale == Scale::Full { super::schedule::SUITE_LOOPS } else { 128 };
        let per_machine = if scale == Scale::Full { LOOPS_PER_MACHINE } else { 4 };
        let suite_machine = &machines[suite_index].original;
        let mut out: Vec<(usize, DepGraph)> = layers::paper_suite(&layers::opset(suite_machine), suite_loops, super::schedule::SUITE_SEED)
            .into_iter()
            .map(|l| (suite_index, l.graph))
            .collect();
        for (j, m) in machines.iter().enumerate().filter(|&(j, _)| j != suite_index) {
            let mut rng = Rng::new(cfg.seed, 10 + j as u64);
            out.extend(graphs::chains_and_recurrences(&m.original, &mut rng, per_machine).into_iter().map(|g| (j, g)));
        }
        out
    });
    let mut order: Vec<Option<(usize, DepGraph)>> = loops.into_iter().map(Some).collect();
    order.extend((0..machines.len()).map(|_| None));
    Rng::new(cfg.seed, 3).shuffle(&mut order);
    let mut machine_frames = 0..machines.len();
    let items = order
        .into_iter()
        .enumerate()
        .map(|(id, entry)| {
            let id = 1000 + id as u64;
            let (machine, graph) = match entry {
                Some((j, g)) => (j, Some(g)),
                None => (machine_frames.next().expect("one machine frame per machine"), None),
            };
            let m = &machines[machine];
            let build = |traced: bool| {
                let mut f = match &graph {
                    Some(g) => graphs::schedule_frame(id, &m.fingerprint, &m.original, g, traced),
                    None => graphs::machine_frame(id, &m.text, traced),
                };
                f.push('\n');
                f
            };
            let (frame, traced_frame) = (build(false), build(true));
            Item {
                machine,
                graph,
                frame,
                traced_frame,
            }
        })
        .collect();
    Ok(Setup {
        daemon,
        client,
        machines,
        items,
    })
}

/// Sums of round-trip time per frame kind in untraced rounds.
#[derive(Default)]
struct Rtt {
    schedule: (u64, u64),
    machine: (u64, u64),
}

pub fn run(cfg: &Config, scale: Scale) -> Result<Report, String> {
    if scale == Scale::Probe {
        return run_pinned(cfg, scale);
    }
    let (cpu, all) = pin_to_one_cpu()?;
    let out = run_pinned(cfg, scale);
    set_affinity(&all)?;
    let mut report = out?;
    report.notes.push(format!("client and daemon pinned to CPU {cpu}"));
    Ok(report)
}

fn run_pinned(cfg: &Config, scale: Scale) -> Result<Report, String> {
    let mut report = Report::default();
    let s = first_setup(&mut report, || setup(cfg, scale, 0))?;
    let Setup {
        daemon,
        mut client,
        machines,
        items,
    } = s;

    let mut first: Vec<String> = Vec::with_capacity(items.len());
    let mut rtt = Rtt::default();
    // Each repeated set-up starts a daemon of its own next to the one
    // under test, whose memory is its own, and stops it untimed.
    let mut n = 0;
    let again = |r: &mut Report, _: &mut Client| {
        n += 1;
        let mut s = first_setup(r, || setup(cfg, scale, n))?;
        s.daemon.stop(&mut s.client)
    };
    timed_rounds(cfg, scale, items.len(), &mut report, &mut client, again, |client, round, i, traced| {
        let item = &items[i];
        let frame = if traced { &item.traced_frame } else { &item.frame };
        let t = Instant::now();
        let reply = client.call(frame)?;
        let d = t.elapsed();
        let ok = reply.starts_with(OK_PREFIX);
        if round == 0 {
            first.push(reply.to_string());
        } else if ok && !traced && reply != first[i] {
            return Err(format!("frame {i}: round {round} reply differs from round 0:\n{reply}\n{}", first[i]));
        } else if ok && traced {
            // The traced reply is the untraced one plus a `trace` member.
            let base = &first[i][..first[i].len() - 1];
            if !reply.starts_with(base) || !reply[base.len()..].starts_with(",\"trace\":") {
                return Err(format!("frame {i}: traced reply differs from round 0:\n{reply}\n{}", first[i]));
            }
            fold_reply_trace(reply)?;
        }
        if !ok {
            return Ok(None);
        }
        if !traced {
            let slot = if item.graph.is_some() { &mut rtt.schedule } else { &mut rtt.machine };
            slot.0 += 1;
            slot.1 += d.as_nanos() as u64;
        }
        Ok(Some(d))
    })?;

    // The daemon's own counters must match what the client saw.
    let reply = json(client.call("{\"type\":\"metrics\",\"id\":\"metrics\"}\n")?)?;
    let counter = |name: &str| {
        reply
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let (requests, ok, errors, shed) = (
        counter("serve.requests"),
        counter("serve.ok"),
        counter("serve.errors"),
        counter("serve.shed"),
    );
    // The metrics frame itself is counted as a request but not yet as ok;
    // shed frames never reach the engine.
    let expect = (client.sent - client.shed, client.ok - 1, client.errors - client.shed, client.shed);
    if (requests, ok, errors, shed) != expect {
        return Err(format!(
            "daemon counted requests/ok/errors/shed {:?}, client {:?}",
            (requests, ok, errors, shed),
            expect
        ));
    }
    for (name, v) in [("serve.requests", requests), ("serve.ok", ok), ("serve.errors", errors), ("serve.shed", shed)] {
        trace::count(name, v as f64);
    }
    report.peak_rss_mb = stats::peak_rss_mb(Some(daemon.child.id()))?;
    daemon.stop(&mut client)?;

    check_replies(&machines, &items, &first, &mut report)?;
    if trace::on() {
        trace::observe_n("serve.rtt.schedule", rtt.schedule.0, rtt.schedule.1);
        trace::observe_n("serve.rtt.machine", rtt.machine.0, rtt.machine.1);
        trace::observe_n("serve.rtt", rtt.schedule.0 + rtt.machine.0, rtt.schedule.1 + rtt.machine.1);
        in_process_engine(&machines, &items, &first)?;
    }
    Ok(report)
}

/// Round 0 against the in-process scheduler and the independent checks.
fn check_replies(machines: &[Admitted], items: &[Item], first: &[String], report: &mut Report) -> Result<(), String> {
    let mut ctxs: Vec<SchedCtx> = machines
        .iter()
        .map(|m| SchedCtx::new(&m.original, Representation::Discrete))
        .collect();
    for (i, (item, reply)) in items.iter().zip(first).enumerate() {
        let m = &machines[item.machine];
        let v = json(reply)?;
        if v.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("frame {i} on {}: refused in round 0: {reply}", m.name));
        }
        let Some(g) = &item.graph else {
            if v.get("cached").and_then(Value::as_bool) != Some(true)
                || v.get("fingerprint").and_then(Value::as_str) != Some(m.fingerprint.as_str())
            {
                return Err(format!("{}: resubmission missed the cache: {reply}", m.name));
            }
            continue;
        };
        let ii = v.get("ii").and_then(Value::as_u64).unwrap_or(0) as u32;
        let times: Vec<u32> = v
            .get("times")
            .and_then(Value::as_array)
            .map(|ts| ts.iter().filter_map(Value::as_u64).map(|t| t as u32).collect())
            .unwrap_or_default();
        let mii = layers::mii(g, &m.original);
        let local = layers::schedule(&mut ctxs[item.machine], g, &m.original, mii)?;
        checks::same_schedule(&format!("frame {i} on {}: daemon vs in-process", m.name), ii, &times, local.ii, &local.times)?;
        checks::valid_modulo_schedule(&m.original, g, &times, ii).map_err(|e| format!("frame {i}: {e}"))?;
        report.sum_ii += u64::from(ii);
    }
    // The reductions the daemon schedules against.
    for m in machines {
        let red = layers::reduce(&m.original, layers::serve_objective(&m.original))?;
        if red.reduced.num_resources() as u64 != m.reduced_resources {
            return Err(format!(
                "{}: daemon reported {} reduced resources, in-process reduction has {}",
                m.name,
                m.reduced_resources,
                red.reduced.num_resources()
            ));
        }
        report.reduced_usages += red.reduced.total_usages() as u64;
    }
    report.notes.push(format!(
        "checked {} frames: replies equal the in-process schedules, valid on the original; daemon counters equal the client's",
        items.len()
    ));
    Ok(())
}

/// Folds the `cache_lookup` and `schedule` spans of a traced reply.
fn fold_reply_trace(reply: &str) -> Result<(), String> {
    let v = json(reply)?;
    let events = v
        .get("trace")
        .and_then(|t| t.get("traceEvents"))
        .and_then(Value::as_array)
        .ok_or_else(|| format!("traced reply without a trace: {reply}"))?;
    for e in events {
        let name = e.get("name").and_then(Value::as_str);
        let dur_us = e.get("dur").and_then(Value::as_f64);
        if let (Some(name @ ("cache_lookup" | "schedule")), Some(dur)) = (name, dur_us) {
            trace::observe(&format!("serve.{name}"), (dur * 1e3) as u64);
        }
    }
    Ok(())
}

/// The same frames through the protocol parser and the engine in
/// process: the engine's replies must equal the daemon's.
fn in_process_engine(machines: &[Admitted], items: &[Item], first: &[String]) -> Result<(), String> {
    let mut engine = layers::serve_engine();
    trace::set(false);
    for (id, m) in machines.iter().enumerate() {
        let reply = layers::engine_handle(&mut engine, &graphs::machine_frame(id as u64, &m.text, false));
        if !reply.starts_with(OK_PREFIX) {
            return Err(format!("{}: in-process admission refused: {reply}", m.name));
        }
    }
    // The engine is timed with its own spans off, as the daemon ran in the
    // untraced rounds whose round trips it is subtracted from.
    trace::set(true);
    trace::set_program_spans(false);
    for (i, item) in items.iter().enumerate() {
        let line = item.frame.trim_end();
        if !layers::parse_frame(line) {
            return Err(format!("frame {i}: the protocol parser rejected it"));
        }
        let reply = layers::engine_handle(&mut engine, line);
        if reply != first[i] {
            return Err(format!("frame {i}: in-process engine reply differs from the daemon's:\n{reply}\n{}", first[i]));
        }
    }
    trace::set_program_spans(true);
    Ok(())
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

type CpuMask = [u64; 16];

fn set_affinity(mask: &CpuMask) -> Result<(), String> {
    // SAFETY: `mask` is a valid, initialised mask of the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// Pins the calling thread, and so every thread and process it starts
/// later, to the highest-numbered CPU it may run on. Returns that CPU
/// and the mask to restore afterwards.
fn pin_to_one_cpu() -> Result<(usize, CpuMask), String> {
    let mut all: CpuMask = [0; 16];
    // SAFETY: the kernel writes at most `size_of_val(&all)` bytes into `all`.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&all), all.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..all.len() * 64)
        .rev()
        .find(|&c| all[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    set_affinity(&one)?;
    Ok((cpu, all))
}
