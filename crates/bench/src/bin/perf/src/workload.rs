//! What every workload shares: its options, what it hands back, and
//! the table of the five workloads with the reason each exists.

use crate::report::Metric;
use crate::stats::{summarize, Summary, Windows};
use crate::trace::Tracer;
use crate::{offline, serving, toolflow};
use condor_tensor::Tensor;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name and one-line reason of every workload, in run order. The names
/// are fixed: later issues cite them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "serve_open",
        "open-loop Poisson 800 req/s on one CPU LeNet lane, a third of capacity: the request path below saturation, where the serving stack and not the kernels sets latency",
    ),
    (
        "serve_overload",
        "open-loop 3000 req/s in three classes on a fixed-latency lane of 2000 req/s: admission control rejecting and prioritising, with compute removed",
    ),
    (
        "fleet_durable",
        "closed loop of 8 outstanding on a 2-replica Fleet over the fsync'd disk queue: the other request pipeline, bound by condor-queue writes",
    ),
    (
        "offline_batch",
        "no server: FastEngine and QuantizedEngine on a VGG-16 prefix at 3x56x56 and on LeNet, where kernel and engine work must show",
    ),
    (
        "toolflow",
        "Caffe files to a deployed cloud accelerator, a 1800-point DSE and the cycle-level conv2 simulation: the paper's product, no serving and no f32 kernels",
    ),
];

#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Discarded lead-in of the measured loop.
    pub warmup: Duration,
    pub measure: Duration,
    pub window: Duration,
    /// How often set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
    /// Shrinks inputs and rates so an unoptimised build finishes in a
    /// second; numbers from a smoke run mean nothing.
    pub smoke: bool,
    /// Scratch directory of this process (disk queues live here).
    pub scratch: PathBuf,
}

impl Opts {
    pub fn window_count(&self) -> usize {
        (self.measure.as_nanos() / self.window.as_nanos().max(1)).max(1) as usize
    }

    pub fn window_ns(&self) -> u64 {
        self.window.as_nanos() as u64
    }

    pub fn warmup_ns(&self) -> u64 {
        self.warmup.as_nanos() as u64
    }

    /// Length of the measured phase: whole windows only.
    pub fn measure_ns(&self) -> u64 {
        self.window_ns() * self.window_count() as u64
    }
}

/// Bit-for-bit equality of two outputs.
pub fn same(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape() && a.as_slice() == b.as_slice()
}

/// What a workload reports for its headline stream, plus everything it
/// learnt about its layers on the way.
#[derive(Debug, Default)]
pub struct Outcome {
    pub goodput_rps: Summary,
    pub latency_p50_us: Summary,
    pub latency_p99_us: Summary,
    /// Operations of the measured phase, and how they ended. `refused`
    /// (typed overload answers) lower `ok_share` but are not failures;
    /// `failed` counts wrong outputs, time-outs and errors.
    pub attempted: u64,
    pub ok: u64,
    pub refused: u64,
    pub failed: u64,
    pub setup_s: Summary,
    /// Per-layer numbers the workload derived from its own run.
    pub layers: Vec<Metric>,
    /// Output checks that did not hold; any entry fails the run.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn ok_share(&self) -> f64 {
        self.ok as f64 / self.attempted.max(1) as f64
    }

    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.errors.push(what());
        }
    }

    /// Counts one failed operation; the first few reasons are kept.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

/// Sets up `reps` times, keeps the last result, and reports the median
/// time of one set-up.
pub fn timed_setups<T>(reps: usize, mut make: impl FnMut(usize) -> T) -> (T, Summary) {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(make(rep));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), summarize(&times))
}

/// One stream of a back-to-back workload: `call` performs one
/// operation, checks its output, and returns the work items it
/// produced — or why the output is wrong.
pub struct Stream<'a> {
    /// Name of the stream's rate among the per-layer metrics.
    pub name: &'static str,
    pub span: &'static str,
    pub layer: &'static str,
    /// Share of the warm-up and of the measured phase, in eighths.
    pub eighths: u64,
    pub call: Box<dyn FnMut() -> Result<u64, String> + 'a>,
}

/// The order in which streams take turns: smooth weighted round-robin
/// over one rotation of eight slots, so a stream with four eighths
/// runs every other slot instead of four in a row.
fn rotation(streams: &[Stream<'_>]) -> Vec<usize> {
    let total: i64 = streams.iter().map(|s| s.eighths as i64).sum();
    let mut credit = vec![0i64; streams.len()];
    (0..total)
        .map(|_| {
            for (c, s) in credit.iter_mut().zip(streams) {
                *c += s.eighths as i64;
            }
            let pick = (0..credit.len())
                .max_by_key(|&i| (credit[i], std::cmp::Reverse(i)))
                .expect("a workload has streams");
            credit[pick] -= total;
            pick
        })
        .collect()
}

/// Runs the streams in rotating slots of a quarter window, so every
/// stream samples the whole run and a slow episode of the machine
/// costs each of them a few slots, not one of them everything. The
/// first rotation is warm-up. Returns each stream's windows (one per
/// slot it ran in); a slot always completes at least one call.
pub fn run_streams(
    streams: &mut [Stream<'_>],
    opts: &Opts,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Vec<Windows> {
    let order = rotation(streams);
    let slot_ns = (opts.window_ns() / 4).max(1);
    let slots = (opts.measure_ns() / slot_ns).max(order.len() as u64) as usize;
    let turns = |stream: usize| {
        (0..slots)
            .filter(|k| order[k % order.len()] == stream)
            .count()
    };
    let mut windows: Vec<Windows> = (0..streams.len())
        .map(|i| Windows::new(slot_ns, turns(i)))
        .collect();
    let mut turn = vec![0u64; streams.len()];
    let warmup_slot_ns = opts.warmup_ns() / order.len() as u64;
    for k in 0..order.len() + slots {
        let measured = k >= order.len();
        let i = order[k % order.len()];
        let stream = &mut streams[i];
        let slot_from = tracer.now_ns();
        let slot_len = if measured { slot_ns } else { warmup_slot_ns };
        let mut calls = 0;
        loop {
            let started = tracer.now_ns();
            if started >= slot_from + slot_len && calls > 0 {
                break;
            }
            calls += 1;
            let (result, busy_ns) =
                tracer.span(stream.span, stream.layer, None, 1, &mut stream.call);
            if !measured {
                continue;
            }
            out.attempted += 1;
            match result {
                Ok(items) => {
                    out.ok += 1;
                    let in_slot = (started + busy_ns - slot_from).min(slot_ns - 1);
                    windows[i].record_call(turn[i] * slot_ns + in_slot, busy_ns, items);
                }
                Err(why) => out.fail(format!("{}: {why}", stream.name)),
            }
        }
        if measured {
            turn[i] += 1;
        }
    }
    windows
}

pub fn run(name: &str, opts: &Opts, tracer: &Arc<Tracer>) -> Option<Outcome> {
    Some(match name {
        "serve_open" => serving::serve_open(opts, tracer),
        "serve_overload" => serving::serve_overload(opts, tracer),
        "fleet_durable" => serving::fleet_durable(opts, tracer),
        "offline_batch" => offline::run(opts, tracer),
        "toolflow" => toolflow::run(opts, tracer),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(eighths: u64) -> Stream<'static> {
        Stream {
            name: "s",
            span: "s",
            layer: "l",
            eighths,
            call: Box::new(|| Ok(1)),
        }
    }

    #[test]
    fn rotation_interleaves_by_share() {
        let streams = [stream(4), stream(2), stream(1), stream(1)];
        assert_eq!(rotation(&streams), [0, 1, 0, 2, 3, 0, 1, 0]);
        let order = rotation(&[stream(4), stream(2), stream(2)]);
        let turns = |i: usize| order.iter().filter(|&&s| s == i).count();
        assert_eq!((turns(0), turns(1), turns(2)), (4, 2, 2));
    }
}
