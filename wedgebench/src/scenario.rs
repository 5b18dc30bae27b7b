//! The three single-node workloads (`append_sat`, `append_paced`,
//! `read_beside_write`), over TCP or as the in-process twin.
//!
//! One run: set the system up (several times, for `setup_s`), pre-sign the
//! inputs, preload if the workload reads a cold set, run the rounds (a timed
//! window of appends, then verified reads of what it wrote), check every
//! output, then restart the node on the same directory and read again.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wedge_chain::{Address, Chain};
use wedge_contracts::RootRecord;
use wedge_core::{CommitPhase, LogService, Reader};
use wedge_crypto::hash::Hash32;
use wedge_crypto::signer::Identity;
use wedge_crypto::PublicKey;
use wedge_sim::Clock;
use wedge_storage::LogStore;

use crate::batches::{self, Op};
use crate::fixed;
use crate::load::{self, Generator, KeepBusy, Sink, SinkState, SplitMix, Target};
use crate::outcome::{round_metrics, Metrics, Outcome, Plan};
use crate::spec::Workload;
use crate::stats;
use crate::summary;
use crate::trace::{self, Span, Tracer};
use crate::world::{dir_bytes, Link, World};

/// Replies kept whole for `verify_for_request`: a seeded 1 in 16.
const SAMPLE_ONE_IN: u64 = 16;
/// Entries read back after the restart, beside each publisher's last.
const RESTART_SAMPLE: usize = 64;
/// Calls timed for each in-process read-path layer metric.
const READ_PATH_CALLS: usize = 200;
/// Simulated patience for stage 2 to settle (36 s real).
const SETTLE: Duration = Duration::from_secs(3600);

/// Links, generators and world of one set-up, dropped in that order: the
/// node can only shut down once no connection holds it.
struct Rig {
    links: Vec<Link>,
    gens: Vec<Generator>,
    world: World,
}

pub fn publisher(generator: usize) -> Identity {
    Identity::from_seed(format!("wedgebench-publisher-{generator}").as_bytes())
}

/// Runs `f` for every generator on its own thread and link.
fn drive<F>(gens: &mut [Generator], services: &[Arc<dyn LogService>], f: F) -> Result<(), String>
where
    F: Fn(&mut Generator, &dyn Target) -> Result<(), String> + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .iter_mut()
            .zip(services)
            .map(|(gen, service)| {
                let f = &f;
                scope.spawn(move || f(gen, service))
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .map_err(|_| "generator thread panicked".to_string())?
        })
    })
}

/// Polls the Root Record every simulated second, as a publisher checking
/// its stage-2 commitment does, and notes when each position's root is
/// first seen buried under the chain's confirmation depth: the first view
/// alone lands anywhere in a 13 s block interval, which with a dozen
/// positions a run makes the median a lottery.
struct Stage2Watch {
    target: Arc<AtomicU64>,
    handle: JoinHandle<Vec<(u64, Instant)>>,
}

impl Stage2Watch {
    fn spawn(chain: Arc<Chain>, clock: Clock, root_record: Address, first: u64) -> Stage2Watch {
        let target = Arc::new(AtomicU64::new(u64::MAX));
        let goal = Arc::clone(&target);
        let handle = std::thread::spawn(move || {
            let depth = chain.config().confirmations;
            // (position, head block when its root first showed)
            let mut visible: Vec<(u64, u64)> = Vec::new();
            let mut confirmed = Vec::new();
            let mut known_since: Option<Instant> = None;
            loop {
                let head = chain.block_number();
                while onchain_root(&chain, root_record, first + visible.len() as u64).is_some() {
                    visible.push((first + visible.len() as u64, head));
                }
                while let Some(&(log_id, block)) = visible.get(confirmed.len()) {
                    if head < block + depth {
                        break;
                    }
                    confirmed.push((log_id, Instant::now()));
                }
                let goal = goal.load(Ordering::Acquire);
                if first + confirmed.len() as u64 >= goal {
                    break;
                }
                if goal != u64::MAX {
                    let since = *known_since.get_or_insert_with(Instant::now);
                    if since.elapsed() > fixed::PATIENCE {
                        break;
                    }
                }
                clock.sleep(Duration::from_secs(1));
            }
            confirmed
        });
        Stage2Watch { target, handle }
    }

    /// Stops once every position below `positions` has been confirmed.
    fn finish(self, positions: u64) -> Result<Vec<(u64, Instant)>, String> {
        self.target.store(positions, Ordering::Release);
        self.handle
            .join()
            .map_err(|_| "stage-2 watcher panicked".to_string())
    }
}

pub fn onchain_root(chain: &Chain, root_record: Address, log_id: u64) -> Option<Hash32> {
    let out = chain
        .view(root_record, &RootRecord::get_root_calldata(log_id))
        .ok()?;
    RootRecord::decode_root(&out)
}

/// Resident set size in MB, from `/proc/self/status`.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// One verified read through `reader`: full verification including the
/// on-chain root, the payload compared with what was sent. Returns the
/// latency in ms, or what was wrong.
fn verified_read(
    reader: &Reader,
    plan: &Plan,
    identities: &[Identity],
    generator: usize,
    op: usize,
    want_committed: bool,
) -> Result<f64, String> {
    let began = Instant::now();
    let entry = reader
        .read_by_sequence(identities[generator].address(), op as u64)
        .map_err(|e| format!("read {generator}/{op}: {e}"))?;
    let took = began.elapsed().as_secs_f64() * 1e3;
    if entry.request.payload != load::payload(plan.seed, generator, op as u64, plan.entry_bytes) {
        return Err(format!(
            "read {generator}/{op}: payload differs from what was sent"
        ));
    }
    if want_committed && entry.phase != CommitPhase::BlockchainCommitted {
        return Err(format!(
            "read {generator}/{op}: settled entry verified only as {:?}",
            entry.phase
        ));
    }
    Ok(took)
}

/// Sets the system up `plan.setup_reps` times, timing each whole: world,
/// connections, the warm-up block pre-signed, acknowledged and settled on
/// chain. Returns the last set-up, which the run measures on, and the times.
fn set_up(
    plan: &Plan,
    scratch: &Path,
    tracer: &Arc<Tracer>,
    identities: &[Identity],
) -> Result<(Rig, Vec<f64>), String> {
    let warm_each = plan.warmup_ops / fixed::GENERATORS;
    let mut setups = Vec::new();
    let mut rig = None;
    for rep in 0..plan.setup_reps.max(1) {
        drop(rig.take());
        let began = Instant::now();
        let mut gens: Vec<Generator> = identities
            .iter()
            .enumerate()
            .map(|(g, identity)| {
                let sink = Sink::new(g, plan.seed, SAMPLE_ONE_IN, Arc::clone(tracer));
                let mut gen = Generator::new(g, identity.clone(), sink);
                gen.extend(plan.seed, warm_each, plan.entry_bytes);
                gen
            })
            .collect();
        let tag = format!("{}-{}-{rep}", plan.workload.name(), plan.seed);
        let world = World::start(scratch, &tag, plan.transport)?;
        let links = (0..fixed::GENERATORS)
            .map(|_| world.connect())
            .collect::<Result<Vec<_>, _>>()?;
        let services: Vec<_> = links.iter().map(Link::service).collect();
        drive(&mut gens, &services, |gen, service| {
            gen.closed_loop(service, tracer, warm_each, fixed::WINDOW)
        })?;
        world
            .node()
            .wait_stage2_idle(SETTLE)
            .map_err(|e| format!("warm-up never settled on chain: {e}"))?;
        setups.push(began.elapsed().as_secs_f64());
        rig = Some(Rig { links, gens, world });
    }
    Ok((rig.expect("at least one set-up"), setups))
}

pub fn run(plan: &Plan, scratch: &Path) -> Result<Outcome, String> {
    assert_ne!(plan.workload, Workload::ClusterInproc);
    let tracer = Arc::new(Tracer::new(plan.trace));
    let identities: Vec<Identity> = (0..fixed::GENERATORS).map(publisher).collect();
    let warm_each = plan.warmup_ops / fixed::GENERATORS;
    let preload_each = plan.preload_ops / fixed::GENERATORS;
    let beside = plan.workload == Workload::ReadBesideWrite;
    let mut outcome = Outcome::default();
    // From before the node's threads exist until the run ends.
    let _busy = (plan.workload == Workload::AppendPaced).then(KeepBusy::start);

    let (rig, mut setups) = set_up(plan, scratch, &tracer, &identities)?;
    let Rig {
        links,
        mut gens,
        mut world,
    } = rig;
    let services: Vec<_> = links.iter().map(Link::service).collect();
    summary::sort(&mut setups);
    outcome.metrics.put(
        "setup_s",
        summary::median(&setups).expect("one set-up"),
        setups.len(),
    );

    // Inputs: every generator's whole request stream, pre-signed now so the
    // window spends no generator CPU on signing.
    let rounds = plan.rounds.max(1);
    let round_each: Vec<usize> = if beside {
        vec![0, plan.timed_ops / rounds]
    } else {
        vec![plan.timed_ops / rounds / fixed::GENERATORS; fixed::GENERATORS]
    };
    std::thread::scope(|scope| {
        for (gen, &each) in gens.iter_mut().zip(&round_each) {
            scope.spawn(move || {
                gen.extend(plan.seed, preload_each + each * rounds, plan.entry_bytes)
            });
        }
    });

    if preload_each > 0 {
        drive(&mut gens, &services, |gen, service| {
            gen.closed_loop(service, &tracer, preload_each, fixed::WINDOW)
        })?;
        world
            .node()
            .wait_stage2_idle(SETTLE)
            .map_err(|e| format!("preload never settled on chain: {e}"))?;
    }
    let timed_first = warm_each + preload_each;

    // Baselines, taken with the chain quiet.
    let gas_before = world.chain.total_gas_used().0;
    let blocks_before = world.chain.block_number();
    let node_before = stats::node(world.node());
    let net_before = world.server().map(stats::net).unwrap_or_default();
    let process_before = stats::process();
    let rss_before = rss_mb();
    let watch = Stage2Watch::spawn(
        Arc::clone(&world.chain),
        world.clock.clone(),
        world.root_record,
        world.node().log_positions(),
    );

    // The timed rounds: a window of appends, then (once it has settled on
    // chain) a chunk of verified reads of what the window wrote.
    let reader = links[0].reader(&world.chain, world.root_record);
    let mut taken: Vec<SinkState> = gens.iter().map(|gen| gen.sink.drain()).collect();
    let mut ops: Vec<Op> = Vec::new();
    let mut reads = 0usize;
    let mut read_problems: Vec<String> = Vec::new();
    let mut reader_spans: Vec<Span> = Vec::new();
    let mut rng = SplitMix::new(plan.seed ^ 0x5EAD);
    let mut rss_after = rss_before;
    for _ in 0..rounds {
        let round_first: Vec<usize> = gens.iter().map(Generator::sent).collect();
        let late_first: Vec<usize> = gens.iter().map(|gen| gen.lateness_ms.len()).collect();
        let mut read_ms: Vec<f64> = Vec::new();
        let mut read_elapsed = 0.0;
        let mut timed_read = |g: usize, op: usize, read_ms: &mut Vec<f64>| {
            let call = Instant::now();
            match verified_read(
                &reader,
                plan,
                &identities,
                g,
                op,
                op < timed_first || !beside,
            ) {
                Ok(took) => read_ms.push(took),
                Err(problem) => read_problems.push(problem),
            }
            if tracer.on() {
                reader_spans.push(tracer.span("read", g, op, call, Instant::now()));
            }
        };
        // Every window starts just after a block, so each batch closes at
        // the same phase of the block interval on every run.
        wait_for_block(&world.chain);
        let window_start;
        match plan.workload {
            Workload::AppendSat => {
                window_start = Instant::now();
                drive(&mut gens, &services, |gen, service| {
                    gen.closed_loop(service, &tracer, round_each[gen.index], fixed::WINDOW)
                })?;
            }
            Workload::AppendPaced => {
                window_start = Instant::now() + Duration::from_millis(5);
                drive(&mut gens, &services, |gen, service| {
                    let count = round_each[gen.index];
                    gen.open_loop(service, &tracer, count, window_start, fixed::PACED_OPS_S);
                    gen.drain()
                })?;
            }
            Workload::ReadBesideWrite => {
                // Connection B appends on a schedule; connection A reads,
                // one outstanding, until the writer's schedule ends: 4 of 5
                // keys uniform over the preloaded (settled, sealed) set,
                // every 5th the writer's newest acknowledged sequence.
                window_start = Instant::now() + Duration::from_millis(5);
                let writer_done = AtomicBool::new(false);
                let writer = &mut gens[1];
                let writer_sink = Arc::clone(&writer.sink);
                std::thread::scope(|scope| {
                    let write = scope.spawn(|| {
                        writer.open_loop(
                            &services[1],
                            &tracer,
                            round_each[1],
                            window_start,
                            fixed::BESIDE_WRITE_OPS_S,
                        );
                        let drained = writer.drain();
                        writer_done.store(true, Ordering::Release);
                        drained
                    });
                    std::thread::sleep(window_start.saturating_duration_since(Instant::now()));
                    let began = Instant::now();
                    let mut n = 0usize;
                    while !writer_done.load(Ordering::Acquire) {
                        n += 1;
                        let (g, op) = match writer_sink.newest_acked() {
                            Some(newest) if n.is_multiple_of(5) => (1, newest),
                            _ => (
                                rng.below(fixed::GENERATORS as u64) as usize,
                                warm_each + rng.below(preload_each as u64) as usize,
                            ),
                        };
                        timed_read(g, op, &mut read_ms);
                    }
                    read_elapsed = began.elapsed().as_secs_f64();
                    write
                        .join()
                        .map_err(|_| "writer thread panicked".to_string())?
                })?;
            }
            Workload::ClusterInproc => unreachable!("the cluster has its own scenario"),
        }
        rss_after = rss_after.max(rss_mb());

        let round_acks = load::drain_round(&gens, &mut taken);
        let mut round_ops: Vec<Op> = gens
            .iter()
            .zip(&round_acks)
            .flat_map(|(gen, acks)| gen.ops(0, acks))
            .collect();
        world
            .node()
            .wait_stage2_idle(SETTLE)
            .map_err(|e| format!("stage 2 never settled: {e}"))?;
        if !beside {
            let began = Instant::now();
            for _ in 0..plan.readback_reads / rounds {
                let g = rng.below(fixed::GENERATORS as u64) as usize;
                let op = round_first[g] + rng.below(round_each[g] as u64) as usize;
                timed_read(g, op, &mut read_ms);
            }
            read_elapsed = began.elapsed().as_secs_f64();
        }
        reads += read_ms.len();
        let mut round = round_metrics(&round_ops, window_start, &mut read_ms, read_elapsed)?;
        let mut late: Vec<f64> = gens
            .iter()
            .zip(&late_first)
            .flat_map(|(gen, &first)| gen.lateness_ms[first..].iter().copied())
            .collect();
        summary::sort(&mut late);
        round.put(
            "gen.late_p99_ms",
            summary::percentile(&late, 0.99).unwrap_or(0.0),
            late.len(),
        );
        outcome.rounds.push(round);
        ops.append(&mut round_ops);
    }
    reads += read_problems.len();
    outcome.report_median_round();
    // The reader holds the node (in process) or a connection to it.
    drop(reader);

    // The watcher sees every position; nothing is left uncommitted.
    let all_ids = taken.iter().flat_map(|t| t.acks.iter().map(|ack| ack.id));
    let positions = match batches::check_dense(all_ids) {
        Ok(positions) => positions,
        Err(problem) => {
            outcome.problems.push(problem);
            world.node().log_positions()
        }
    };
    let seen = watch.finish(positions)?;
    let gas_used = world.chain.total_gas_used().0 - gas_before;

    put_stage2_lag(
        &ops,
        |p| {
            let (_, at) = seen.iter().find(|(log_id, _)| *log_id == p.log_id)?;
            Some(*at)
        },
        &mut outcome.metrics,
    );
    outcome
        .metrics
        .put("gas_per_op", gas_used as f64 / ops.len() as f64, 1);

    // Bytes on disk per payload byte, with everything acknowledged counted.
    let acked: usize = taken.iter().map(|t| t.acks.len()).sum();
    let disk = dir_bytes(&world.store_dir());
    outcome.metrics.put(
        "disk_bytes_per_payload_byte",
        disk as f64 / (acked * plan.entry_bytes) as f64,
        1,
    );

    // Checks.
    let submitted: usize = gens.iter().map(Generator::sent).sum();
    outcome.attempted = (submitted + reads) as u64;
    outcome.failed += read_problems.len() as u64;
    outcome.problems.extend(read_problems.into_iter().take(3));
    let node_key = services[0].node_public_key();
    for (gen, state) in gens.iter().zip(&taken) {
        check_answers(gen, state, &node_key, &mut outcome);
    }
    check_chain(&world, positions, &taken, &mut outcome);

    put_window_layers(
        &ops,
        rss_after - rss_before,
        world.chain.block_number() - blocks_before,
        &mut outcome.metrics,
    );

    if plan.trace {
        let m = &mut outcome.metrics;
        let node_delta = stats::node(world.node()).since(&node_before);
        stats::put_node_layers(&node_delta, gas_used as f64, m);
        stats::put_process_layers(&stats::process().since(&process_before), ops.len(), m);
        if let Some(server) = world.server() {
            let net_delta = stats::net(server).since(&net_before);
            stats::put_net_layers(&net_delta, ops.len() + reads, m);
        }
        read_path_layers(
            &world,
            &links[0],
            plan,
            &identities,
            timed_first,
            &mut outcome,
        );
        outcome.spans.append(&mut reader_spans);
        collect_spans(&mut gens, taken, &tracer, &mut outcome);
        let m = &mut outcome.metrics;
        m.put(
            "net.submit_call_us",
            trace::mean_micros(&outcome.spans, "submit"),
            1,
        );
        m.put(
            "net.flush_call_us",
            trace::mean_micros(&outcome.spans, "flush"),
            1,
        );
    }

    // Restart on the same directory and read back. The operating system's
    // page cache is not discarded, so this checks recovery after a clean
    // stop, not durability across power loss.
    drop(services);
    drop(links);
    world.stop_node()?;
    world.start_node()?;
    let link = world.connect()?;
    let reader = link.reader(&world.chain, world.root_record);
    let mut rng = SplitMix::new(plan.seed ^ 0xAF7E);
    let mut keys: Vec<(usize, usize)> = gens
        .iter()
        .filter(|gen| gen.sent() > 0)
        .map(|gen| (gen.index, gen.sent() - 1))
        .collect();
    for _ in 0..RESTART_SAMPLE {
        let g = rng.below(fixed::GENERATORS as u64) as usize;
        if gens[g].sent() > 0 {
            keys.push((g, rng.below(gens[g].sent() as u64) as usize));
        }
    }
    outcome.attempted += keys.len() as u64;
    for (g, op) in keys {
        if let Err(problem) = verified_read(&reader, plan, &identities, g, op, true) {
            outcome.failed += 1;
            outcome.problems.push(format!("after restart: {problem}"));
        }
    }
    let replayed = stats::node(world.node()).get("restart_replayed_records");
    drop(reader);
    drop(link);
    world.stop_node()?;
    if plan.trace {
        outcome.metrics.put("storage.replayed_records", replayed, 1);
        store_layers(&world, &mut outcome)?;
    }
    Ok(outcome)
}

/// Every operation a generator sent is answered exactly once and with
/// `Ok`, and the seeded sample of whole replies verifies (node signature,
/// proof, position) against the request that was sent.
pub fn check_answers(
    gen: &Generator,
    state: &SinkState,
    node_key: &PublicKey,
    outcome: &mut Outcome,
) {
    for (op, error) in state.errors.iter().take(3) {
        outcome.problems.push(format!(
            "append {}/{op} not acknowledged: {error}",
            gen.index
        ));
    }
    outcome.failed += state.errors.len() as u64;
    if state.acks.len() + state.errors.len() != gen.sent() {
        outcome.problems.push(format!(
            "generator {}: {} sent but {} answered",
            gen.index,
            gen.sent(),
            state.acks.len() + state.errors.len()
        ));
    }
    for (op, response) in &state.samples {
        if let Err(e) = response.verify_for_request(node_key, &gen.requests[*op]) {
            outcome.failed += 1;
            outcome
                .problems
                .push(format!("reply {}/{op} fails verification: {e}", gen.index));
        }
    }
}

/// Gathers the generators' and callbacks' spans, and adds one `op` span
/// per acknowledged operation as their parent.
pub fn collect_spans(
    gens: &mut [Generator],
    taken: Vec<SinkState>,
    tracer: &Tracer,
    outcome: &mut Outcome,
) {
    for (gen, mut state) in gens.iter_mut().zip(taken) {
        outcome.spans.append(&mut gen.spans);
        outcome.spans.append(&mut state.spans);
        for ack in &state.acks {
            if let Some(started) = gen.started[ack.op] {
                outcome
                    .spans
                    .push(tracer.span("op", gen.index, ack.op, started, ack.at));
            }
        }
    }
}

/// Returns just after the chain's next block, so that every run's window
/// starts at the same phase of the 13 s block interval: stage-2 lag depends
/// on where in the interval a batch closes.
pub fn wait_for_block(chain: &Chain) {
    let head = chain.block_number();
    while chain.block_number() == head {
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// On-chain checks: the Root Record holds exactly the replies' root for
/// every position, its tail is the position count (none abandoned), and no
/// transaction of the run reverted (a second commit of a position would).
fn check_chain(world: &World, positions: u64, taken: &[SinkState], outcome: &mut Outcome) {
    let mut roots: Vec<Option<Hash32>> = vec![None; positions as usize];
    for ack in taken.iter().flat_map(|t| &t.acks) {
        if let Some(slot) = roots.get_mut(ack.id.log_id as usize) {
            match slot {
                Some(root) if *root != ack.root => outcome.problems.push(format!(
                    "position {}: replies disagree on the merkle root",
                    ack.id.log_id
                )),
                _ => *slot = Some(ack.root),
            }
        }
    }
    for (log_id, replied) in roots.iter().enumerate() {
        let onchain = onchain_root(&world.chain, world.root_record, log_id as u64);
        if onchain.is_none() || onchain != *replied {
            outcome.problems.push(format!(
                "position {log_id}: on-chain root {onchain:?} is not the replies' root {replied:?}"
            ));
        }
    }
    let tail = world
        .chain
        .view(world.root_record, &RootRecord::get_tail_calldata())
        .ok()
        .and_then(|out| RootRecord::decode_tail(&out));
    if tail != Some(positions) {
        outcome.problems.push(format!(
            "Root Record tail is {tail:?} with {positions} positions acknowledged"
        ));
    }
    check_no_revert(&world.chain, outcome);
}

/// No transaction of the run reverted: a second commit of a position (or of
/// an epoch) would.
pub fn check_no_revert(chain: &Chain, outcome: &mut Outcome) {
    let reverted = (0..=chain.block_number())
        .flat_map(|block| chain.block_receipts(block))
        .filter(|receipt| !receipt.status.is_success())
        .count();
    if reverted > 0 {
        outcome
            .problems
            .push(format!("{reverted} transactions reverted on chain"));
    }
}

/// `stage2_lag_p50_sim_s` (and its tail, a per-layer metric): per position
/// of `ops`, simulated seconds from its last reply to `committed_at`. The
/// lag is set by where in the block interval a batch closes, not by how busy
/// the host is, so it is taken over every position of the run and not per
/// round.
pub fn put_stage2_lag(
    ops: &[Op],
    committed_at: impl Fn(&batches::Position) -> Option<Instant>,
    metrics: &mut Metrics,
) {
    let mut lag_sim_s: Vec<f64> = batches::positions(ops)
        .iter()
        .filter_map(|p| Some(ms(p.last_replied, committed_at(p)?) / 1e3 * fixed::COMPRESSION))
        .collect();
    summary::sort(&mut lag_sim_s);
    if let Some(p50) = summary::percentile(&lag_sim_s, 0.5) {
        metrics.put("stage2_lag_p50_sim_s", p50, lag_sim_s.len());
    }
    // Below 1,000 positions there is no p99 to speak of: the maximum.
    let tail = summary::tail_percentile(&lag_sim_s, 0.99).or(lag_sim_s.last().copied());
    metrics.put(
        "core.stage2.lag_p99_sim_s",
        tail.unwrap_or(0.0),
        lag_sim_s.len(),
    );
}

/// Layer metrics that need nothing but a run's own observations: batching
/// as rebuilt from the replies, memory growth, blocks mined.
pub fn put_window_layers(ops: &[Op], rss_growth_mb: f64, blocks: u64, m: &mut Metrics) {
    let shape = batches::shape(ops);
    m.put("core.batch_fill_ms", shape.fill_ms, shape.positions);
    m.put("core.queue_wait_p50_ms", shape.queue_wait_p50_ms, ops.len());
    m.put("core.batch_service_ms", shape.service_ms, shape.positions);
    m.put("core.ops_per_batch", shape.ops_per_batch, shape.positions);
    m.put("proc.rss_growth_mb", rss_growth_mb, 1);
    m.put("chain.blocks_mined", blocks as f64, 1);
}

/// `core.read_node_us` and `core.client.*`: the node's own read path and
/// the client's verification, each timed by direct calls.
fn read_path_layers(
    world: &World,
    link: &Link,
    plan: &Plan,
    identities: &[Identity],
    timed_first: usize,
    outcome: &mut Outcome,
) {
    let reader = link.reader(&world.chain, world.root_record);
    let mut rng = SplitMix::new(plan.seed ^ 0x1A7E);
    let mut node_us = Vec::new();
    let mut verify_us = Vec::new();
    for _ in 0..READ_PATH_CALLS {
        let op = rng.below(timed_first.max(1) as u64);
        let began = Instant::now();
        let Ok(response) = world.node().read_by_sequence(identities[0].address(), op) else {
            continue;
        };
        node_us.push(began.elapsed().as_secs_f64() * 1e6);
        let began = Instant::now();
        if reader.verify_response(&response).is_ok() {
            verify_us.push(began.elapsed().as_secs_f64() * 1e6);
        }
    }
    let m = &mut outcome.metrics;
    m.put(
        "core.read_node_us",
        summary::mean(&node_us).unwrap_or(0.0),
        node_us.len(),
    );
    m.put(
        "core.client.verify_response_us",
        summary::mean(&verify_us).unwrap_or(0.0),
        verify_us.len(),
    );
    m.put(
        "core.client.chain_lookups",
        reader.chain_lookups() as f64,
        1,
    );
}

/// `storage.reopen_ms`, `storage.read_hot_us`, `storage.read_cold_us`:
/// the run's own store directory, reopened after the node has stopped.
fn store_layers(world: &World, outcome: &mut Outcome) -> Result<(), String> {
    let began = Instant::now();
    let store = LogStore::open(world.store_dir(), fixed::node_config().store)
        .map_err(|e| format!("reopen store: {e}"))?;
    outcome
        .metrics
        .put("storage.reopen_ms", began.elapsed().as_secs_f64() * 1e3, 1);
    let len = store.len();
    let mut cold_us = Vec::new();
    let mut hot_us = Vec::new();
    // Oldest records are sealed first, newest are hot: probe both ends and
    // let the store's own cold-read counter say which tier served each.
    let probes = (0..READ_PATH_CALLS as u64)
        .map(|i| i * 7 % len.max(1))
        .chain((0..READ_PATH_CALLS as u64).map(|i| len.saturating_sub(1 + i * 7 % len.max(1))));
    for id in probes {
        let cold_before = stats::store(&store).get("cold_reads");
        let began = Instant::now();
        if store.read(id).is_err() {
            continue;
        }
        let took = began.elapsed().as_secs_f64() * 1e6;
        if stats::store(&store).get("cold_reads") > cold_before {
            cold_us.push(took);
        } else {
            hot_us.push(took);
        }
    }
    let m = &mut outcome.metrics;
    m.put(
        "storage.read_hot_us",
        summary::mean(&hot_us).unwrap_or(0.0),
        hot_us.len(),
    );
    m.put(
        "storage.read_cold_us",
        summary::mean(&cold_us).unwrap_or(0.0),
        cold_us.len(),
    );
    Ok(())
}
