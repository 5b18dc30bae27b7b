//! Load generation: seeded pre-signed requests, reply sinks, and the
//! closed-loop and open-loop drivers. The same code drives a `RemoteNode`,
//! an in-process `OffchainNode` and the cluster's router.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use wedge_chain::Encoder;
use wedge_cluster::ClusterClient;
use wedge_core::node::ReplyFn;
use wedge_core::{AppendRequest, CoreError, EntryId, LogService, SignedResponse};
use wedge_crypto::hash::{keccak256, Hash32};
use wedge_crypto::sign_prehashed_batch;
use wedge_crypto::signer::Identity;

use crate::batches::Op;
use crate::fixed;
use crate::trace::{Span, Tracer};

/// Where a generator sends appends: any `LogService` (a `RemoteNode`
/// connection, an in-process node) or the cluster's router.
pub trait Target: Sync {
    fn submit(&self, request: AppendRequest, reply: ReplyFn) -> Result<(), CoreError>;
    fn flush(&self);
}

impl Target for Arc<dyn LogService> {
    fn submit(&self, request: AppendRequest, reply: ReplyFn) -> Result<(), CoreError> {
        self.submit_request(request, reply)
    }
    fn flush(&self) {
        LogService::flush(self.as_ref())
    }
}

impl Target for ClusterClient {
    fn submit(&self, request: AppendRequest, reply: ReplyFn) -> Result<(), CoreError> {
        ClusterClient::submit(self, request, reply).map(|_shard| ())
    }
    fn flush(&self) {
        ClusterClient::flush(self)
    }
}

/// SplitMix64: seeds payload bytes and read-key choice. Written out here so
/// that inputs depend on `--seed` alone and not on a vendored crate.
#[derive(Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`; the modulo bias is far below anything a
    /// benchmark key choice can see.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The payload of operation `(generator, sequence)` under `seed`: a pure
/// function, so checks regenerate it instead of trusting a stored copy.
pub fn payload(seed: u64, generator: usize, sequence: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix::new(mix(seed ^ mix(generator as u64 + 1)) ^ mix(sequence));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Whether the reply to this operation is kept whole for signature and
/// proof verification after the run (a seeded 1-in-`one_in` sample).
pub fn sampled(seed: u64, generator: usize, op: usize, one_in: u64) -> bool {
    mix(seed ^ mix((generator as u64) << 40 | op as u64)).is_multiple_of(one_in)
}

/// Pre-signs `count` requests with sequences from `first_sequence`. Signing
/// goes through `sign_prehashed_batch` over the digest `AppendRequest::new`
/// signs; the first request is checked byte for byte against it.
pub fn presign(
    identity: &Identity,
    seed: u64,
    generator: usize,
    first_sequence: u64,
    count: usize,
    entry_bytes: usize,
) -> Vec<AppendRequest> {
    let publisher = identity.address();
    let mut requests = Vec::with_capacity(count);
    let sequences: Vec<u64> = (first_sequence..first_sequence + count as u64).collect();
    for chunk in sequences.chunks(512) {
        let payloads: Vec<Vec<u8>> = chunk
            .iter()
            .map(|&sequence| payload(seed, generator, sequence, entry_bytes))
            .collect();
        let digests: Vec<[u8; 32]> = chunk
            .iter()
            .zip(&payloads)
            .map(|(&sequence, payload)| {
                let mut enc = Encoder::with_capacity(12 + payload.len());
                enc.u64(sequence).bytes(payload);
                keccak256(&enc.finish())
            })
            .collect();
        let signatures = sign_prehashed_batch(identity.secret_key(), &digests);
        for ((&sequence, payload), signature) in chunk.iter().zip(payloads).zip(signatures) {
            requests.push(AppendRequest {
                publisher,
                sequence,
                payload,
                signature,
            });
        }
    }
    if let Some(first) = requests.first() {
        let reference =
            AppendRequest::new(identity.secret_key(), first.sequence, first.payload.clone());
        assert_eq!(
            first.leaf_bytes(),
            reference.leaf_bytes(),
            "batch-signed request differs from AppendRequest::new"
        );
    }
    requests
}

/// One acknowledged append, as seen by the reply callback.
#[derive(Clone, Copy, Debug)]
pub struct Ack {
    pub op: usize,
    pub at: Instant,
    pub id: EntryId,
    pub root: Hash32,
}

#[derive(Default)]
pub struct SinkState {
    pub acks: Vec<Ack>,
    /// Whole replies of the seeded sample.
    pub samples: Vec<(usize, SignedResponse)>,
    /// Replies that were not `Ok`, and submissions that failed.
    pub errors: Vec<(usize, String)>,
    pub spans: Vec<Span>,
    replied: usize,
    newest_acked: Option<usize>,
    /// The reply count the generator is waiting for; callbacks before it
    /// do not wake the generator, which shares two cores with the node.
    wake_at: usize,
}

impl SinkState {
    /// Moves everything `other` recorded into `self`.
    pub fn absorb(&mut self, other: &mut SinkState) {
        self.acks.append(&mut other.acks);
        self.samples.append(&mut other.samples);
        self.errors.append(&mut other.errors);
        self.spans.append(&mut other.spans);
    }
}

/// Where one generator's reply callbacks land. The callback runs on the
/// transport's reader thread (or the node's deliver thread in process), so
/// it only timestamps and stores.
pub struct Sink {
    generator: usize,
    seed: u64,
    sample_one_in: u64,
    tracer: Arc<Tracer>,
    state: Mutex<SinkState>,
    progressed: Condvar,
}

impl Sink {
    pub fn new(generator: usize, seed: u64, sample_one_in: u64, tracer: Arc<Tracer>) -> Arc<Sink> {
        Arc::new(Sink {
            generator,
            seed,
            sample_one_in,
            tracer,
            state: Mutex::new(SinkState::default()),
            progressed: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkState> {
        self.state.lock().expect("a reply callback panicked")
    }

    fn on_reply(&self, op: usize, result: Result<SignedResponse, String>) {
        let at = Instant::now();
        let mut state = self.lock();
        match result {
            Ok(response) => {
                state.acks.push(Ack {
                    op,
                    at,
                    id: response.entry_id,
                    root: response.merkle_root,
                });
                state.newest_acked = state.newest_acked.max(Some(op));
                if sampled(self.seed, self.generator, op, self.sample_one_in) {
                    state.samples.push((op, response));
                }
            }
            Err(error) => state.errors.push((op, error)),
        }
        state.replied += 1;
        if self.tracer.on() {
            let span = self
                .tracer
                .span("reply", self.generator, op, at, Instant::now());
            state.spans.push(span);
        }
        let wake = state.replied >= state.wake_at;
        drop(state);
        if wake {
            self.progressed.notify_all();
        }
    }

    fn reject(&self, op: usize, error: String) {
        self.lock().errors.push((op, error));
    }

    /// Blocks until `threshold` replies are in; `Err` after
    /// [`fixed::PATIENCE`] without a single new reply.
    fn wait(&self, threshold: usize) -> Result<usize, String> {
        let mut state = self.lock();
        loop {
            if state.replied >= threshold {
                return Ok(state.replied);
            }
            state.wake_at = threshold;
            let before = state.replied;
            let (next, timeout) = self
                .progressed
                .wait_timeout(state, fixed::PATIENCE)
                .expect("a reply callback panicked");
            state = next;
            if timeout.timed_out() && state.replied == before {
                return Err(format!(
                    "generator {}: no reply for {:?} with {} replies in",
                    self.generator,
                    fixed::PATIENCE,
                    before
                ));
            }
        }
    }

    /// The highest operation acknowledged so far (read-your-write key).
    pub fn newest_acked(&self) -> Option<usize> {
        self.lock().newest_acked
    }

    /// Takes everything recorded so far.
    pub fn drain(&self) -> SinkState {
        let mut state = self.lock();
        let taken = std::mem::take(&mut *state);
        state.replied = taken.replied;
        state.newest_acked = taken.newest_acked;
        taken
    }
}

/// One generator: an identity, its pre-signed requests (sequence = index)
/// and the submit or due time of each.
pub struct Generator {
    pub index: usize,
    pub identity: Identity,
    pub requests: Vec<AppendRequest>,
    /// When each operation's latency clock started: its submit call in a
    /// closed loop, its due time in an open loop.
    pub started: Vec<Option<Instant>>,
    pub sink: Arc<Sink>,
    /// How late each open-loop operation was sent, in ms.
    pub lateness_ms: Vec<f64>,
    pub spans: Vec<Span>,
    sent: usize,
}

impl Generator {
    pub fn new(index: usize, identity: Identity, sink: Arc<Sink>) -> Generator {
        Generator {
            index,
            started: Vec::new(),
            identity,
            requests: Vec::new(),
            sink,
            lateness_ms: Vec::new(),
            spans: Vec::new(),
            sent: 0,
        }
    }

    /// Pre-signs `count` more requests, continuing the sequence.
    pub fn extend(&mut self, seed: u64, count: usize, entry_bytes: usize) {
        let first = self.requests.len() as u64;
        let more = presign(&self.identity, seed, self.index, first, count, entry_bytes);
        self.requests.extend(more);
        self.started.resize(self.requests.len(), None);
    }

    /// `acks` of this generator as timed operations on log `shard`.
    pub fn ops<'a>(&'a self, shard: usize, acks: &'a [Ack]) -> impl Iterator<Item = Op> + 'a {
        acks.iter().map(move |ack| Op {
            shard,
            id: ack.id,
            started: self.started[ack.op].expect("acknowledged op was submitted"),
            replied: ack.at,
        })
    }

    /// Operations submitted so far (the next sequence to send).
    pub fn sent(&self) -> usize {
        self.sent
    }

    fn submit(&mut self, service: &dyn Target, tracer: &Tracer, started: Instant) {
        let op = self.sent;
        self.sent += 1;
        self.started[op] = Some(started);
        let sink = Arc::clone(&self.sink);
        let begin = Instant::now();
        let outcome = service.submit(
            self.requests[op].clone(),
            Box::new(move |result| sink.on_reply(op, result)),
        );
        if tracer.on() {
            self.spans
                .push(tracer.span("submit", self.index, op, begin, Instant::now()));
        }
        // A failed submission has already fired the callback with an error
        // on every transport; the reason is kept beside it.
        if let Err(error) = outcome {
            self.sink.reject(op, format!("submit failed: {error}"));
        }
    }

    fn flush(&mut self, service: &dyn Target, tracer: &Tracer) {
        let begin = Instant::now();
        service.flush();
        if tracer.on() && self.sent > 0 {
            self.spans
                .push(tracer.span("flush", self.index, self.sent - 1, begin, Instant::now()));
        }
    }

    /// Closed loop over the next `count` requests: keeps up to `window`
    /// appends in flight, topping up (one flush per top-up) whenever
    /// [`fixed::TOP_UP`] slots are free, and returns once all are replied.
    pub fn closed_loop(
        &mut self,
        service: &dyn Target,
        tracer: &Tracer,
        count: usize,
        window: usize,
    ) -> Result<(), String> {
        let end = self.sent + count;
        assert!(end <= self.requests.len(), "not enough pre-signed requests");
        let top_up = fixed::TOP_UP.min(window);
        while self.sent < end {
            // In flight + top-up ≤ window ⇔ replied ≥ sent + top-up − window.
            let replied = self
                .sink
                .wait((self.sent + top_up).saturating_sub(window))?;
            let room = (window - (self.sent - replied)).min(end - self.sent);
            for _ in 0..room {
                self.submit(service, tracer, Instant::now());
            }
            self.flush(service, tracer);
        }
        self.sink.wait(end).map(|_| ())
    }

    /// Open loop over the next `count` requests at `rate` per second from
    /// `start`: operation `i` is due at [`due`]`(start, rate, i)` whatever
    /// the system does, and its latency clock starts then. Does not wait
    /// for replies; see [`Generator::drain`].
    pub fn open_loop(
        &mut self,
        service: &dyn Target,
        tracer: &Tracer,
        count: usize,
        start: Instant,
        rate: f64,
    ) {
        let end = self.sent + count;
        assert!(end <= self.requests.len(), "not enough pre-signed requests");
        let first = self.sent;
        while self.sent < end {
            let next_due = due(start, rate, self.sent - first);
            let now = Instant::now();
            if next_due > now {
                std::thread::sleep(next_due - now);
            }
            // Send everything that has come due, then flush once.
            let now = Instant::now();
            while self.sent < end {
                let this_due = due(start, rate, self.sent - first);
                if this_due > now {
                    break;
                }
                self.lateness_ms
                    .push(Instant::now().duration_since(this_due).as_secs_f64() * 1e3);
                self.submit(service, tracer, this_due);
            }
            self.flush(service, tracer);
        }
    }

    /// Waits until every submitted operation has been replied to, so that
    /// no connection is dropped with appends in flight.
    pub fn drain(&self) -> Result<(), String> {
        self.sink.wait(self.sent).map(|_| ())
    }
}

/// A light background load on every core for the whole of an
/// `append_paced` run, from before the node's threads are created.
///
/// An open-loop generator at a quarter of saturation leaves both cores idle
/// between batches. On the 2-vCPU reference VM the guest scheduler then
/// tends to start the node's short-lived worker threads on one core and
/// leave the other idle — for a whole run or for a few seconds of it — so
/// a batch's service time flips between two values 60% apart (measured:
/// 215 ms and 350 ms, with all runnable threads on one core in the slow
/// state). A thread pinned to each core that is busy for a fifth of every
/// millisecond keeps the scheduler spreading work; with it the service
/// time has one mode. The cost is a fifth of each core, the same on every
/// commit. Saturating workloads keep the cores busy themselves and run
/// without it.
pub struct KeepBusy {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepBusy {
    pub fn start() -> KeepBusy {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cores)
            .map(|core| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    pin_to_core(core);
                    let mut x = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let until = Instant::now() + fixed::KEEP_BUSY;
                        while Instant::now() < until {
                            for i in 0..256u64 {
                                x = std::hint::black_box(x.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ i);
                            }
                        }
                        std::thread::sleep(fixed::KEEP_BUSY_PERIOD - fixed::KEEP_BUSY);
                    }
                })
            })
            .collect();
        KeepBusy { stop, threads }
    }
}

impl Drop for KeepBusy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Pins the calling thread to one core with `taskset` (std has no call for
/// it). Without `taskset` the thread stays unpinned and the fixture is
/// weaker, not wrong.
fn pin_to_core(core: usize) {
    let Ok(me) = std::fs::read_link("/proc/thread-self") else {
        return;
    };
    let Some(tid) = me.file_name().and_then(|tid| tid.to_str()) else {
        return;
    };
    let _ = std::process::Command::new("taskset")
        .args(["-cp", &core.to_string(), tid])
        .output();
}

/// Ends a round: takes what every generator's sink recorded since the last
/// call, merges it into `taken`, and returns the round's acknowledgements
/// per generator.
pub fn drain_round(gens: &[Generator], taken: &mut [SinkState]) -> Vec<Vec<Ack>> {
    gens.iter()
        .zip(taken)
        .map(|(gen, merged)| {
            let mut state = gen.sink.drain();
            let acks = state.acks.clone();
            merged.absorb(&mut state);
            acks
        })
        .collect()
}

/// The due time of open-loop operation `index`: a pure function of the
/// schedule, never of how the previous operation went.
pub fn due(start: Instant, rate: f64, index: usize) -> Instant {
    start + Duration::from_secs_f64(index as f64 / rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_schedule_is_a_pure_function_of_rate_and_index() {
        let start = Instant::now();
        assert_eq!(due(start, 1000.0, 0), start);
        assert_eq!(
            due(start, 1000.0, 1500) - start,
            Duration::from_millis(1500)
        );
        assert_eq!(due(start, 2000.0, 1) - start, Duration::from_micros(500));
        // Evenly spaced: no drift accumulates over a long schedule.
        let step = due(start, 2000.0, 40_001) - due(start, 2000.0, 40_000);
        assert!(step >= Duration::from_micros(499) && step <= Duration::from_micros(501));
    }

    #[test]
    fn payloads_depend_on_seed_generator_and_sequence_only() {
        let a = payload(1, 0, 7, fixed::ENTRY_BYTES);
        assert_eq!(a.len(), fixed::ENTRY_BYTES);
        assert_eq!(a, payload(1, 0, 7, fixed::ENTRY_BYTES));
        assert_ne!(a, payload(2, 0, 7, fixed::ENTRY_BYTES));
        assert_ne!(a, payload(1, 1, 7, fixed::ENTRY_BYTES));
        assert_ne!(a, payload(1, 0, 8, fixed::ENTRY_BYTES));
        assert_eq!(payload(1, 0, 7, 3).len(), 3);
    }

    #[test]
    fn sample_is_seeded_and_about_one_in_n() {
        let picked = (0..16_000).filter(|&op| sampled(9, 1, op, 16)).count();
        assert!((800..1200).contains(&picked), "picked {picked}");
        assert_eq!(sampled(9, 1, 5, 16), sampled(9, 1, 5, 16));
    }

    #[test]
    fn presigned_requests_verify_and_match_the_reference_signer() {
        let identity = Identity::from_seed(b"wedgebench-test");
        let requests = presign(&identity, 3, 0, 10, 5, 64);
        assert_eq!(requests.len(), 5);
        assert_eq!(requests[0].sequence, 10);
        for request in &requests {
            request.verify().expect("signature verifies");
        }
    }
}
