//! The three serving workloads: two open loops on `InferenceServer`
//! and one closed loop on a durable `Fleet`.
//!
//! Open loop: one generator thread submits on a Poisson schedule
//! whether or not earlier requests have been answered; one collector
//! thread per priority class waits for replies in submission order.
//! Latency runs from the time a request was *due*, so a stall of the
//! generator or the server is charged to the requests it delayed.

use crate::report::metric;
use crate::stats::{
    percentile, sort, summarize, PoissonSchedule, Rng, Summary, Windows, P99_MIN_SAMPLES,
};
use crate::sut::{self, Class, Front, Lanes, Pending, Reply, ServerParams};
use crate::trace::{Span, Tracer};
use crate::workload::{same, timed_setups, Opts, Outcome};
use condor::MetricsSnapshot;
use condor_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Images every serving workload cycles through.
const POOL: usize = 64;

fn pool_size(opts: &Opts) -> usize {
    if opts.smoke {
        8
    } else {
        POOL
    }
}

struct Setup {
    front: Front,
    pool: Vec<Tensor>,
    /// The bit-exact reply expected for each pool image.
    want: Vec<Tensor>,
    lanes: usize,
}

/// How one request of the measured loop ended.
enum End {
    Ok,
    Refused,
    Failed(String),
}

struct Done {
    class: Class,
    due_ns: u64,
    done_ns: u64,
    end: End,
}

fn end_of(reply: Reply, want: &Tensor) -> End {
    match reply {
        Reply::Ok(out) if same(&out, want) => End::Ok,
        Reply::Ok(_) => End::Failed("reply differs from the reference output".to_string()),
        Reply::Refused => End::Refused,
        Reply::TimedOut => End::Failed("request timed out".to_string()),
        Reply::Failed(why) => End::Failed(why),
    }
}

struct Sent {
    seq: u64,
    idx: usize,
    class: Class,
    due_ns: u64,
    pending: Result<Pending, Reply>,
    /// Id reserved for this request's span, when tracing.
    span: Option<u64>,
}

struct OpenLoop {
    rate_per_s: f64,
    /// Cumulative class shares: Interactive, Standard, Batch.
    class_cdf: [f64; 3],
}

struct Generated {
    submit_us: Vec<f64>,
    lag_us: Vec<f64>,
}

/// Sleeps until `due_ns`. Plain sleeps overshoot by the timer slack
/// (~60 µs) but leave the cores to the system under test; spinning or
/// yielding here cost milliseconds of lag whenever the server's
/// threads were runnable.
fn wait_until(tracer: &Tracer, due_ns: u64) {
    loop {
        let now = tracer.now_ns();
        if now >= due_ns {
            return;
        }
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

fn generate(
    setup: &Setup,
    spec: &OpenLoop,
    opts: &Opts,
    tracer: &Tracer,
    origin_ns: u64,
    lanes: &[Sender<Sent>; 3],
) -> Generated {
    let measure_from = origin_ns + opts.warmup_ns();
    let until = measure_from + opts.measure_ns();
    let mut picks = Rng::new(opts.seed ^ 0x5EED_C1A5);
    let mut out = Generated {
        submit_us: Vec::new(),
        lag_us: Vec::new(),
    };
    for (seq, offset) in PoissonSchedule::new(opts.seed, spec.rate_per_s).enumerate() {
        let due_ns = origin_ns + offset;
        if due_ns >= until {
            break;
        }
        let idx = picks.below(setup.pool.len());
        let u = picks.unit();
        let class = Class::ALL[spec.class_cdf.iter().position(|&c| u < c).unwrap_or(2)];
        let image = setup.pool[idx].clone();
        wait_until(tracer, due_ns);
        let span = tracer.enabled().then(|| tracer.alloc_id());
        let start_ns = tracer.now_ns();
        let (pending, submit_ns) = tracer.span("serve.submit", "serve", span, 1, || {
            setup.front.submit(image, class)
        });
        if due_ns >= measure_from {
            out.submit_us.push(submit_ns as f64 / 1e3);
            out.lag_us
                .push(start_ns.saturating_sub(due_ns) as f64 / 1e3);
        }
        let sent = Sent {
            seq: seq as u64,
            idx,
            class,
            due_ns,
            pending,
            span,
        };
        lanes[class.index()]
            .send(sent)
            .expect("collectors outlive the generator");
    }
    out
}

fn collect(rx: Receiver<Sent>, want: &[Tensor], tracer: &Tracer) -> Vec<Done> {
    let mut done = Vec::new();
    for sent in rx {
        let reply = match sent.pending {
            Ok(pending) => pending.wait(),
            Err(reply) => reply,
        };
        let done_ns = tracer.now_ns();
        if let Some(id) = sent.span {
            tracer.record(Span {
                id,
                name: "serve.request",
                layer: "serve",
                start_ns: sent.due_ns,
                end_ns: done_ns,
                parent: None,
                request: Some(sent.seq),
                items: 1,
            });
        }
        done.push(Done {
            class: sent.class,
            due_ns: sent.due_ns,
            done_ns,
            end: end_of(reply, &want[sent.idx]),
        });
    }
    done
}

/// Runs the open loop to completion and returns every request of the
/// run (warm-up included), the generator's own timings, and the
/// server's shutdown snapshot.
fn open_loop(
    setup: Setup,
    spec: &OpenLoop,
    opts: &Opts,
    tracer: &Arc<Tracer>,
) -> (Vec<Done>, Generated, MetricsSnapshot, u64) {
    let origin_ns = tracer.now_ns();
    let (done, generated) = std::thread::scope(|scope| {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| channel::<Sent>()).unzip();
        let collectors: Vec<_> = rxs
            .into_iter()
            .map(|rx| {
                let want = &setup.want;
                scope.spawn(move || collect(rx, want, tracer))
            })
            .collect();
        let txs: [Sender<Sent>; 3] = txs.try_into().expect("three classes");
        let generated = generate(&setup, spec, opts, tracer, origin_ns, &txs);
        drop(txs);
        let done: Vec<Done> = collectors
            .into_iter()
            .flat_map(|c| c.join().expect("collector thread panicked"))
            .collect();
        (done, generated)
    });
    let snapshot = setup.front.shutdown();
    (done, generated, snapshot, origin_ns)
}

/// The measured phase of one priority class.
struct ClassTally {
    attempted: u64,
    windows: Windows,
}

/// Tallies the measured phase of an open loop into `out` and returns
/// the windows of all classes together and of each class.
fn tally_open(
    done: &[Done],
    opts: &Opts,
    measure_from: u64,
    out: &mut Outcome,
) -> (Windows, [ClassTally; 3]) {
    let mk = || Windows::new(opts.window_ns(), opts.window_count());
    let mut all = mk();
    let mut by_class = Class::ALL.map(|_| ClassTally {
        attempted: 0,
        windows: mk(),
    });
    let until = measure_from + opts.measure_ns();
    for d in done {
        if d.due_ns < measure_from || d.due_ns >= until {
            continue;
        }
        out.attempted += 1;
        by_class[d.class.index()].attempted += 1;
        match &d.end {
            End::Ok => {
                out.ok += 1;
                let t = d.due_ns - measure_from;
                let latency_us = d.done_ns.saturating_sub(d.due_ns) as f64 / 1e3;
                all.record_ok(t, latency_us);
                by_class[d.class.index()].windows.record_ok(t, latency_us);
            }
            End::Refused => out.refused += 1,
            End::Failed(why) => out.fail(format!("request failed: {why}")),
        }
    }
    (all, by_class)
}

fn hist_p50(snap: &MetricsSnapshot, name: &str) -> Summary {
    snap.histogram(name)
        .map_or(Summary::default(), |h| Summary {
            value: h.p50,
            n: h.count as usize,
            q1: h.p50,
            q3: h.p50,
        })
}

fn count(snap: &MetricsSnapshot, name: &str) -> Summary {
    Summary::exact(snap.counter(name) as f64)
}

fn pooled(samples: &mut [f64], p: f64) -> Summary {
    sort(samples);
    Summary {
        value: percentile(samples, p),
        n: samples.len(),
        ..Summary::default()
    }
}

/// The ledger every serving workload must balance, from the snapshot
/// taken at shutdown: nothing accepted may vanish.
fn check_ledger(snap: &MetricsSnapshot, out: &mut Outcome) {
    let accepted = snap.counter("requests_accepted");
    let resolved = snap.counter("requests_completed")
        + snap.counter("requests_failed")
        + snap.counter("requests_timed_out")
        + snap.counter("requests_shed");
    out.require(accepted == resolved, || {
        format!("ledger: accepted {accepted} != completed + failed + timed_out + shed {resolved}")
    });
}

/// Per-layer numbers common to the serving workloads: the server's own
/// counters, and what the spans around submit and backend calls show.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    out: &mut Outcome,
    snap: &MetricsSnapshot,
    tracer: &Tracer,
    submit_us: &mut [f64],
    lag_us: &mut [f64],
    lanes: usize,
    measure_from: u64,
    measure_ns: u64,
) {
    let until = measure_from + measure_ns;
    let calls: Vec<Span> = tracer
        .spans()
        .into_iter()
        .filter(|s| s.name == sut::BACKEND_SPAN && s.start_ns >= measure_from && s.end_ns < until)
        .collect();
    let call_us: Vec<f64> = calls.iter().map(Span::duration_us).collect();
    let backend_p50 = summarize(&call_us);
    let busy_ns: u64 = calls.iter().map(|s| s.end_ns - s.start_ns).sum();
    let images: u64 = calls.iter().map(|s| s.items).sum();
    let stack_self = out.latency_p50_us.shifted(-backend_p50.value);
    out.layers.extend([
        metric("serve.submit_us_p50", pooled(submit_us, 0.50)),
        metric("serve.submit_us_p99", pooled(submit_us, 0.99)),
        metric("serve.gen_lag_us_p99", pooled(lag_us, 0.99)),
        metric("serve.backend_call_us_p50", backend_p50),
        metric(
            "serve.mean_batch",
            Summary::exact(images as f64 / calls.len().max(1) as f64),
        ),
        metric(
            "serve.backend_busy_share",
            Summary::exact(busy_ns as f64 / (measure_ns * lanes as u64) as f64),
        ),
        metric("serve.stack_self_us_p50", stack_self),
        metric(
            "serve.queue_sojourn_us_p50",
            hist_p50(snap, "queue_sojourn_us"),
        ),
        metric("serve.accepted", count(snap, "requests_accepted")),
        metric("serve.completed", count(snap, "requests_completed")),
        metric(
            "serve.rejected_queue_full",
            count(snap, "requests_rejected_overloaded"),
        ),
        metric("serve.shed_codel", count(snap, "requests_shed")),
        metric("serve.timed_out", count(snap, "requests_timed_out")),
        metric("serve.fleet_migrated", count(snap, "requests_migrated")),
    ]);
}

/// Set-up ends when the system has answered its first request
/// correctly: lazy initialisation behind the first reply is set-up
/// work too.
fn ready(setup: Setup) -> Setup {
    let first = match setup.front.submit(setup.pool[0].clone(), Class::Standard) {
        Ok(pending) => pending.wait(),
        Err(reply) => reply,
    };
    assert!(
        matches!(end_of(first, &setup.want[0]), End::Ok),
        "the first request after set-up was not answered correctly"
    );
    setup
}

fn lenet_setup(opts: &Opts) -> (condor_nn::Network, Vec<Tensor>, Vec<Tensor>) {
    let net = sut::lenet(opts.seed);
    let pool = sut::lenet_images(pool_size(opts), opts.seed);
    let want = sut::fast_infer_batch(&mut sut::fast_engine(&net), &pool);
    (net, pool, want)
}

fn run_open(
    opts: &Opts,
    tracer: &Arc<Tracer>,
    spec: &OpenLoop,
    make: impl FnMut(usize) -> Setup,
) -> (Outcome, [ClassTally; 3]) {
    let (setup, setup_s) = timed_setups(opts.setup_reps, make);
    let lanes = setup.lanes;
    let (done, mut generated, snap, origin_ns) = open_loop(setup, spec, opts, tracer);
    let measure_from = origin_ns + opts.warmup_ns();
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let (all, by_class) = tally_open(&done, opts, measure_from, &mut out);
    out.goodput_rps = all.goodput_rps();
    check_ledger(&snap, &mut out);
    // Every request of the run — the one that ended set-up and the
    // warm-up included — must be in the server's books exactly once.
    let replied = 1 + done.iter().filter(|d| matches!(d.end, End::Ok)).count() as u64;
    out.require(snap.counter("requests_completed") == replied, || {
        format!(
            "server counted {} completions, callers saw {replied} correct replies",
            snap.counter("requests_completed")
        )
    });
    // Latency is reported for the class that has a latency expectation
    // under load; with a single class that is all of it.
    let headline = if spec.class_cdf[0] > 0.0 {
        &by_class[Class::Interactive.index()].windows
    } else {
        &by_class[Class::Standard.index()].windows
    };
    out.latency_p50_us = headline.latency_us(0.50, 1);
    out.latency_p99_us = headline.latency_us(0.99, P99_MIN_SAMPLES);
    if tracer.enabled() {
        serve_layers(
            &mut out,
            &snap,
            tracer,
            &mut generated.submit_us,
            &mut generated.lag_us,
            lanes,
            measure_from,
            opts.measure_ns(),
        );
    }
    (out, by_class)
}

pub fn serve_open(opts: &Opts, tracer: &Arc<Tracer>) -> Outcome {
    let spec = OpenLoop {
        rate_per_s: if opts.smoke { 50.0 } else { 800.0 },
        class_cdf: [0.0, 1.0, 1.0],
    };
    let params = ServerParams {
        max_batch: 8,
        batch_window: Duration::from_millis(1),
        queue_capacity: 256,
        codel: None,
        disk_queue: None,
    };
    let (out, _) = run_open(opts, tracer, &spec, |_| {
        let (net, pool, want) = lenet_setup(opts);
        ready(Setup {
            front: sut::server(sut::traced(sut::cpu_lanes(&net, 1), tracer), &params),
            pool,
            want,
            lanes: 1,
        })
    });
    out
}

fn fixed_latency_lane(output: &Tensor) -> Lanes {
    vec![Box::new(sut::SleepBackend {
        base: Duration::from_millis(2),
        per_item: Duration::from_micros(250),
        output: output.clone(),
    })]
}

pub fn serve_overload(opts: &Opts, tracer: &Arc<Tracer>) -> Outcome {
    let spec = OpenLoop {
        rate_per_s: 3000.0,
        class_cdf: [0.2, 0.5, 1.0],
    };
    let params = ServerParams {
        max_batch: 8,
        batch_window: Duration::from_millis(1),
        queue_capacity: 256,
        codel: Some((Duration::from_millis(5), Duration::from_millis(100))),
        disk_queue: None,
    };
    let (mut out, by_class) = run_open(opts, tracer, &spec, |_| {
        let pool = sut::lenet_images(pool_size(opts), opts.seed);
        let answer = condor_tensor::constant(condor_tensor::Shape::vector(10), 0.1);
        ready(Setup {
            front: sut::server(sut::traced(fixed_latency_lane(&answer), tracer), &params),
            want: vec![answer; pool_size(opts)],
            pool,
            lanes: 1,
        })
    });
    // The classes apart, in untraced runs too: `perf compare` bounds
    // the Interactive tail and refusal share, which is what this
    // workload exists to watch.
    let [interactive, standard, batch] = &by_class;
    let refused =
        1.0 - interactive.windows.total_items() as f64 / interactive.attempted.max(1) as f64;
    out.layers.extend([
        metric(
            "serve.interactive_p50_us",
            interactive.windows.latency_us(0.50, 1),
        ),
        metric(
            "serve.interactive_p99_us",
            interactive.windows.latency_us(0.99, 1),
        ),
        metric("serve.interactive_fail_share", Summary::exact(refused)),
        metric(
            "serve.standard_p99_us",
            standard.windows.latency_us(0.99, 1),
        ),
        metric("serve.batch_p99_us", batch.windows.latency_us(0.99, 1)),
    ]);
    out
}

/// Bytes this process has passed to write calls so far.
fn written_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("wchar: "))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Requests the closed loop keeps outstanding.
const FLEET_WINDOW: usize = 8;

/// One submitted, not yet collected request of the closed loop.
struct InFlight {
    start_ns: u64,
    idx: usize,
    pending: Result<Pending, Reply>,
    span: Option<u64>,
}

pub fn fleet_durable(opts: &Opts, tracer: &Arc<Tracer>) -> Outcome {
    let (setup, setup_s) = timed_setups(opts.setup_reps, |rep| {
        let (net, pool, want) = lenet_setup(opts);
        let params = ServerParams {
            max_batch: 8,
            batch_window: Duration::from_millis(1),
            queue_capacity: 256,
            codel: None,
            disk_queue: Some(opts.scratch.join(format!("fleet-queue-{rep}"))),
        };
        let lane_tracer = Arc::clone(tracer);
        ready(Setup {
            front: sut::fleet(
                move || sut::traced(sut::cpu_lanes(&net, 1), &lane_tracer),
                2,
                2,
                &params,
            ),
            pool,
            want,
            lanes: 2,
        })
    });
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let origin_ns = tracer.now_ns();
    let measure_from = origin_ns + opts.warmup_ns();
    let measure_ns = opts.measure_ns();
    let until = measure_from + measure_ns;
    let mut windows = Windows::new(opts.window_ns(), opts.window_count());
    let mut picks = Rng::new(opts.seed);
    let mut submit_us = Vec::new();
    let mut outstanding: VecDeque<InFlight> = VecDeque::new();
    let (mut seq, mut wrote_from, mut wrote_until) = (0u64, None, None);
    loop {
        let now = tracer.now_ns();
        if now >= measure_from && wrote_from.is_none() {
            wrote_from = Some(written_bytes());
        }
        if now < until {
            while outstanding.len() < FLEET_WINDOW {
                let idx = picks.below(setup.pool.len());
                let image = setup.pool[idx].clone();
                let span = tracer.enabled().then(|| tracer.alloc_id());
                let start_ns = tracer.now_ns();
                let (pending, submit_ns) =
                    tracer.span("serve.fleet_submit", "serve", span, 1, || {
                        setup.front.submit(image, Class::Standard)
                    });
                if start_ns >= measure_from {
                    submit_us.push(submit_ns as f64 / 1e3);
                }
                outstanding.push_back(InFlight {
                    start_ns,
                    idx,
                    pending,
                    span,
                });
            }
        } else if wrote_until.is_none() {
            wrote_until = Some(written_bytes());
        }
        let Some(InFlight {
            start_ns,
            idx,
            pending,
            span,
        }) = outstanding.pop_front()
        else {
            break;
        };
        let reply = match pending {
            Ok(pending) => pending.wait(),
            Err(reply) => reply,
        };
        let done_ns = tracer.now_ns();
        if let Some(id) = span {
            tracer.record(Span {
                id,
                name: "serve.request",
                layer: "serve",
                start_ns,
                end_ns: done_ns,
                parent: None,
                request: Some(seq),
                items: 1,
            });
        }
        seq += 1;
        if done_ns < measure_from || done_ns >= until {
            continue;
        }
        out.attempted += 1;
        match end_of(reply, &setup.want[idx]) {
            End::Ok => {
                out.ok += 1;
                windows.record_ok(done_ns - measure_from, (done_ns - start_ns) as f64 / 1e3);
            }
            End::Refused => out.refused += 1,
            End::Failed(why) => out.fail(format!("request failed: {why}")),
        }
    }
    let lanes = setup.lanes;
    let snap = setup.front.shutdown();
    out.goodput_rps = windows.goodput_rps();
    out.latency_p50_us = windows.latency_us(0.50, 1);
    out.latency_p99_us = windows.latency_us(0.99, P99_MIN_SAMPLES);
    check_ledger(&snap, &mut out);
    let depth = snap.gauge("disk_queue_depth");
    out.require(depth == Some(0.0), || {
        format!("disk queue did not drain: depth at shutdown {depth:?}")
    });
    if tracer.enabled() {
        serve_layers(
            &mut out,
            &snap,
            tracer,
            &mut submit_us,
            &mut [],
            lanes,
            measure_from,
            measure_ns,
        );
        let wrote = wrote_until
            .unwrap_or_else(written_bytes)
            .saturating_sub(wrote_from.unwrap_or(0));
        out.layers.extend([
            metric(
                "queue.ack_latency_us_p50",
                hist_p50(&snap, "ack_latency_us"),
            ),
            metric(
                "queue.bytes_per_request",
                Summary::exact(wrote as f64 / out.ok.max(1) as f64),
            ),
            metric(
                "queue.depth_at_drain",
                Summary::exact(depth.unwrap_or(-1.0)),
            ),
        ]);
    }
    out
}

/// Submit-call p50 through a durable queue minus through the in-memory
/// queue, same server configuration, on a lane that answers at once:
/// what `QueueBackend::Disk` adds to accepting one request.
pub fn durable_submit_extra_us(opts: &Opts, requests: usize) -> Summary {
    let answer = condor_tensor::constant(condor_tensor::Shape::vector(10), 0.1);
    let image = sut::lenet_images(1, opts.seed).remove(0);
    let submit_p50 = |disk_queue: Option<std::path::PathBuf>| -> Summary {
        let params = ServerParams {
            max_batch: 1,
            batch_window: Duration::ZERO,
            queue_capacity: 256,
            codel: None,
            disk_queue,
        };
        let lane: Lanes = vec![Box::new(sut::SleepBackend {
            base: Duration::ZERO,
            per_item: Duration::ZERO,
            output: answer.clone(),
        })];
        let front = sut::server(lane, &params);
        let times: Vec<f64> = (0..requests)
            .map(|_| {
                let input = image.clone();
                let t = Instant::now();
                let pending = front.submit(input, Class::Standard);
                let us = t.elapsed().as_nanos() as f64 / 1e3;
                if let Ok(pending) = pending {
                    pending.wait();
                }
                us
            })
            .collect();
        front.shutdown();
        summarize(&times)
    };
    let memory = submit_p50(None);
    let disk = submit_p50(Some(opts.scratch.join("probe-queue")));
    disk.shifted(-memory.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use condor_tensor::{constant, Shape};

    fn done(end: End) -> Done {
        Done {
            class: Class::Standard,
            due_ns: 10,
            done_ns: 20,
            end,
        }
    }

    /// One wrong reply is a failed operation and a failed check — which
    /// is what makes `perf` exit non-zero.
    #[test]
    fn one_wrong_reply_fails_the_run() {
        let want = constant(Shape::vector(10), 0.1);
        let wrong = constant(Shape::vector(10), 0.2);
        assert!(matches!(end_of(Reply::Ok(want.clone()), &want), End::Ok));
        assert!(matches!(end_of(Reply::Refused, &want), End::Refused));
        let opts = Opts {
            seed: 1,
            warmup: Duration::ZERO,
            measure: Duration::from_secs(1),
            window: Duration::from_secs(1),
            setup_reps: 1,
            smoke: true,
            scratch: std::path::PathBuf::new(),
        };
        let replies = [
            done(end_of(Reply::Ok(want.clone()), &want)),
            done(end_of(Reply::Ok(wrong), &want)),
            done(end_of(Reply::Refused, &want)),
        ];
        let mut out = Outcome::default();
        tally_open(&replies, &opts, 0, &mut out);
        assert_eq!(
            (out.attempted, out.ok, out.refused, out.failed),
            (3, 1, 1, 1)
        );
        assert_eq!(out.errors.len(), 1, "{:?}", out.errors);
        assert!(out.errors[0].contains("differs from the reference"));
    }
}
