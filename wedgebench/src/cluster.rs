//! `cluster_inproc`: a 2-shard `LocalCluster` with no `wedge-net` in the
//! path. Generators submit through the `ClusterClient` router, one
//! publisher pinned to each shard, while this thread drives the epoch
//! coordinator once per block interval.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wedge_cluster::{
    identity_on_shard, ClusterClient, ClusterConfig, EpochCoordinator, LocalCluster,
};
use wedge_core::EntryId;

use crate::batches::{self, Op};
use crate::fixed;
use crate::load::{self, Generator, Sink, SinkState, SplitMix};
use crate::outcome::{round_metrics, Outcome, Plan};
use crate::scenario::{self, ms, rss_mb, wait_for_block};
use crate::stats;
use crate::summary;
use crate::trace::{Span, Tracer};
use crate::world::dir_bytes;

/// Replies kept whole for `verify_for_request`: a seeded 1 in 64.
const SAMPLE_ONE_IN: u64 = 64;
const RESTART_SAMPLE: usize = 64;

/// When a `run_epoch` that covered `(shard, log_id)` returned, with the
/// epoch it was committed under and the batch root it was committed with.
struct Covered {
    shard: usize,
    log_id: u64,
    at: Instant,
    root: wedge_crypto::hash::Hash32,
}

/// Drives the coordinator and keeps what an outside observer learns from
/// each call.
struct EpochDriver<'a> {
    tracer: &'a Tracer,
    covered: Vec<Covered>,
    run_epoch_ms: Vec<f64>,
    spans: Vec<Span>,
}

impl EpochDriver<'_> {
    fn run(
        &mut self,
        coordinator: &mut EpochCoordinator,
        router: &ClusterClient,
    ) -> Result<(), String> {
        let began = Instant::now();
        let record = coordinator
            .run_epoch(router)
            .map_err(|e| format!("run_epoch: {e}"))?
            .cloned();
        let at = Instant::now();
        let Some(record) = record else {
            return Ok(());
        };
        self.run_epoch_ms.push(ms(began, at));
        if self.tracer.on() {
            self.spans.push(
                self.tracer
                    .span("run_epoch", 0, record.epoch as usize, began, at),
            );
        }
        for (shard, slice) in record.shards.iter().enumerate() {
            for (i, root) in slice.roots.iter().enumerate() {
                self.covered.push(Covered {
                    shard,
                    log_id: slice.start + i as u64,
                    at,
                    root: *root,
                });
            }
        }
        Ok(())
    }

    /// Runs epochs, one per block interval, until every shard has nothing
    /// flushed but uncommitted.
    fn settle(&mut self, cluster: &mut LocalCluster) -> Result<(), String> {
        let began = Instant::now();
        loop {
            self.run(&mut cluster.coordinator, &cluster.router)?;
            let idle = (0..cluster.shards()).all(|shard| {
                cluster
                    .node(shard)
                    .is_some_and(|node| node.wait_stage2_idle(Duration::ZERO).is_ok())
            });
            if idle {
                return Ok(());
            }
            if began.elapsed() > fixed::PATIENCE {
                return Err("cluster never settled on chain".into());
            }
            cluster
                .clock
                .sleep(Duration::from_secs(fixed::EPOCH_EVERY_SIM_S));
        }
    }
}

fn start_cluster(tag: &str) -> Result<LocalCluster, String> {
    LocalCluster::start(
        tag,
        ClusterConfig {
            shards: fixed::GENERATORS,
            node: fixed::node_config(),
            compression: fixed::COMPRESSION,
            chain: fixed::chain_config(),
            ..ClusterConfig::default()
        },
    )
    .map_err(|e| format!("start cluster: {e}"))
}

/// One read with the cluster's full verification: the two-level proof
/// against the on-chain root-of-roots, the publisher's signature, and the
/// payload compared with what was sent.
fn verified_read(
    cluster: &LocalCluster,
    plan: &Plan,
    generator: usize,
    op: usize,
    id: EntryId,
) -> Result<f64, String> {
    let coordinator: &EpochCoordinator = &cluster.coordinator;
    let began = Instant::now();
    let fail = |e: &dyn std::fmt::Display| format!("cluster read {generator}/{op}: {e}");
    let proof = coordinator
        .prove(&cluster.router, generator, id)
        .map_err(|e| fail(&e))?;
    let root = coordinator
        .on_chain_root(proof.epoch)
        .map_err(|e| fail(&e))?;
    proof
        .verify(&cluster.router.node_public_key(generator), &root)
        .map_err(|e| fail(&e))?;
    let request = proof.response.request().map_err(|e| fail(&e))?;
    request.verify().map_err(|e| fail(&e))?;
    let took = began.elapsed().as_secs_f64() * 1e3;
    if request.sequence != op as u64
        || request.payload != load::payload(plan.seed, generator, op as u64, plan.entry_bytes)
    {
        return Err(fail(&"entry differs from what was sent"));
    }
    Ok(took)
}

pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let tracer = Arc::new(Tracer::new(plan.trace));
    let warm_each = plan.warmup_ops / fixed::GENERATORS;
    let mut outcome = Outcome::default();
    let mut driver = EpochDriver {
        tracer: &tracer,
        covered: Vec::new(),
        run_epoch_ms: Vec::new(),
        spans: Vec::new(),
    };

    // Set-up, timed whole, several times over; the last one is kept.
    let mut setups = Vec::new();
    let mut rig: Option<(Vec<Generator>, LocalCluster)> = None;
    for rep in 0..plan.setup_reps.max(1) {
        drop(rig.take());
        driver.covered.clear();
        let began = Instant::now();
        let mut cluster = start_cluster(&format!("wedgebench-{}-{rep}", plan.seed))?;
        let mut gens: Vec<Generator> = (0..fixed::GENERATORS)
            .map(|g| {
                let identity =
                    identity_on_shard(cluster.router.shard_map(), g, "wedgebench-publisher");
                let sink = Sink::new(g, plan.seed, SAMPLE_ONE_IN, Arc::clone(&tracer));
                let mut gen = Generator::new(g, identity, sink);
                gen.extend(plan.seed, warm_each, plan.entry_bytes);
                gen
            })
            .collect();
        append_phase(&mut gens, &mut cluster, &mut driver, &tracer, warm_each)?;
        driver.settle(&mut cluster)?;
        setups.push(began.elapsed().as_secs_f64());
        rig = Some((gens, cluster));
    }
    let (mut gens, mut cluster) = rig.expect("at least one set-up");
    summary::sort(&mut setups);
    outcome.metrics.put(
        "setup_s",
        summary::median(&setups).expect("one set-up"),
        setups.len(),
    );

    let rounds = plan.rounds.max(1);
    let round_each = plan.timed_ops / rounds / fixed::GENERATORS;
    std::thread::scope(|scope| {
        for gen in gens.iter_mut() {
            scope.spawn(move || gen.extend(plan.seed, round_each * rounds, plan.entry_bytes));
        }
    });

    let gas_before = cluster.chain.total_gas_used().0;
    let blocks_before = cluster.chain.block_number();
    let coordinator_before = stats::coordinator(&cluster.coordinator);
    let nodes_before = node_counters(&cluster);
    let process_before = stats::process();
    let rss_before = rss_mb();
    driver.run_epoch_ms.clear();

    // The timed rounds: a window of appends, then (once an epoch covers it
    // on chain) a chunk of reads with full two-level verification.
    let mut taken: Vec<SinkState> = gens.iter().map(|gen| gen.sink.drain()).collect();
    // Entry id of every acknowledged op, for the reads.
    let mut ids: Vec<Vec<Option<EntryId>>> =
        gens.iter().map(|g| vec![None; g.requests.len()]).collect();
    for (gen, state) in gens.iter().zip(&taken) {
        for ack in &state.acks {
            ids[gen.index][ack.op] = Some(ack.id);
        }
    }
    let mut ops: Vec<Op> = Vec::new();
    let mut reads = 0usize;
    let mut read_problems = Vec::new();
    let mut rng = SplitMix::new(plan.seed ^ 0x5EAD);
    let mut rss_after = rss_before;
    for _ in 0..rounds {
        let round_first: Vec<usize> = gens.iter().map(Generator::sent).collect();
        wait_for_block(&cluster.chain);
        let window_start = Instant::now();
        append_phase(&mut gens, &mut cluster, &mut driver, &tracer, round_each)?;
        rss_after = rss_after.max(rss_mb());

        let round_acks = load::drain_round(&gens, &mut taken);
        let mut round_ops: Vec<Op> = Vec::new();
        for (gen, acks) in gens.iter().zip(&round_acks) {
            for ack in acks {
                ids[gen.index][ack.op] = Some(ack.id);
            }
            round_ops.extend(gen.ops(gen.index, acks));
        }
        driver.settle(&mut cluster)?;

        let mut read_ms = Vec::new();
        let began = Instant::now();
        for _ in 0..plan.readback_reads / rounds {
            let g = rng.below(fixed::GENERATORS as u64) as usize;
            let op = round_first[g] + rng.below(round_each as u64) as usize;
            let call = Instant::now();
            let result = match ids[g][op] {
                Some(id) => verified_read(&cluster, plan, g, op, id),
                None => Err(format!(
                    "cluster read {g}/{op}: append was never acknowledged"
                )),
            };
            match result {
                Ok(took) => read_ms.push(took),
                Err(problem) => read_problems.push(problem),
            }
            if tracer.on() {
                driver
                    .spans
                    .push(tracer.span("read", g, op, call, Instant::now()));
            }
        }
        let read_elapsed = began.elapsed().as_secs_f64();
        reads += read_ms.len();
        outcome.rounds.push(round_metrics(
            &round_ops,
            window_start,
            &mut read_ms,
            read_elapsed,
        )?);
        ops.append(&mut round_ops);
    }
    reads += read_problems.len();
    outcome.report_median_round();
    let gas_used = cluster.chain.total_gas_used().0 - gas_before;

    // Stage-2 lag: to the return of the run_epoch that covered the position.
    scenario::put_stage2_lag(
        &ops,
        |p| {
            let covered = driver
                .covered
                .iter()
                .find(|c| c.shard == p.shard && c.log_id == p.log_id)?;
            Some(covered.at)
        },
        &mut outcome.metrics,
    );
    outcome
        .metrics
        .put("gas_per_op", gas_used as f64 / ops.len() as f64, 1);

    // LocalCluster keeps its shards under the temp dir, which `main` has
    // pointed into the benchmark's scratch directory.
    let base = std::env::temp_dir().join(format!(
        "wedge-cluster-wedgebench-{}-{}-{}",
        plan.seed,
        plan.setup_reps.max(1) - 1,
        std::process::id()
    ));
    let disk: u64 = (0..cluster.shards())
        .map(|shard| dir_bytes(&base.join(format!("shard-{shard}")).join("log")))
        .sum();
    let acked: usize = taken.iter().map(|t| t.acks.len()).sum();
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
    for (gen, state) in gens.iter().zip(&taken) {
        scenario::check_answers(
            gen,
            state,
            &cluster.router.node_public_key(gen.index),
            &mut outcome,
        );
        match batches::check_dense(state.acks.iter().map(|ack| ack.id)) {
            Ok(positions) => {
                // Every position is covered by exactly one epoch, under the
                // root its replies carry.
                for log_id in 0..positions {
                    let covering: Vec<&Covered> = driver
                        .covered
                        .iter()
                        .filter(|c| c.shard == gen.index && c.log_id == log_id)
                        .collect();
                    let replied = state
                        .acks
                        .iter()
                        .find(|a| a.id.log_id == log_id)
                        .map(|a| a.root);
                    if covering.len() != 1 || Some(covering[0].root) != replied {
                        outcome.problems.push(format!(
                            "shard {} position {log_id}: covered by {} epochs, root matches: {}",
                            gen.index,
                            covering.len(),
                            covering.first().map(|c| c.root) == replied
                        ));
                    }
                }
            }
            Err(problem) => outcome
                .problems
                .push(format!("shard {}: {problem}", gen.index)),
        }
    }
    for record in cluster.coordinator.records() {
        match cluster.coordinator.on_chain_root(record.epoch) {
            Ok(root) if root == record.cluster_root => {}
            other => outcome.problems.push(format!(
                "epoch {}: on-chain root {other:?} is not the coordinator's",
                record.epoch
            )),
        }
    }
    scenario::check_no_revert(&cluster.chain, &mut outcome);

    let m = &mut outcome.metrics;
    scenario::put_window_layers(
        &ops,
        rss_after - rss_before,
        cluster.chain.block_number() - blocks_before,
        m,
    );

    if plan.trace {
        let coordinator = stats::coordinator(&cluster.coordinator).since(&coordinator_before);
        let nodes = node_counters(&cluster).since(&nodes_before);
        let process = stats::process().since(&process_before);
        let epochs = coordinator.get("epochs_committed").max(1.0);
        let per_shard: Vec<f64> = (0..cluster.shards())
            .map(|shard| cluster.router.backend(shard).entries() as f64)
            .collect();
        let total: f64 = per_shard.iter().sum();
        let spread = per_shard.iter().cloned().fold(f64::MIN, f64::max)
            - per_shard.iter().cloned().fold(f64::MAX, f64::min);
        m.put(
            "cluster.epochs_committed",
            coordinator.get("epochs_committed"),
            1,
        );
        m.put(
            "cluster.txs_per_epoch",
            coordinator.get("txs_submitted") / epochs,
            1,
        );
        m.put(
            "cluster.groups_per_epoch",
            coordinator.get("groups_folded") / epochs,
            1,
        );
        m.put("cluster.retries", coordinator.get("retries"), 1);
        m.put(
            "cluster.run_epoch_ms",
            summary::mean(&driver.run_epoch_ms).unwrap_or(0.0),
            driver.run_epoch_ms.len(),
        );
        m.put("cluster.shard_imbalance", spread / total.max(1.0), 1);
        m.put(
            "chain.gas_per_tx",
            gas_used as f64 / coordinator.get("txs_submitted").max(1.0),
            1,
        );
        stats::put_node_layers(&nodes, gas_used as f64, m);
        stats::put_process_layers(&process, ops.len(), m);
    }

    // Restart every shard on its directory and read back. The page cache
    // is not discarded: this checks recovery, not power-loss durability.
    for shard in 0..cluster.shards() {
        cluster
            .restart_shard(shard)
            .map_err(|e| format!("restart shard {shard}: {e}"))?;
    }
    let mut rng = SplitMix::new(plan.seed ^ 0xAF7E);
    let mut keys: Vec<(usize, usize)> = gens.iter().map(|g| (g.index, g.sent() - 1)).collect();
    for _ in 0..RESTART_SAMPLE {
        let g = rng.below(fixed::GENERATORS as u64) as usize;
        keys.push((g, rng.below(gens[g].sent() as u64) as usize));
    }
    outcome.attempted += keys.len() as u64;
    for (g, op) in keys {
        let result = match ids[g][op] {
            Some(id) => verified_read(&cluster, plan, g, op, id),
            None => Err(format!(
                "cluster read {g}/{op}: append was never acknowledged"
            )),
        };
        if let Err(problem) = result {
            outcome.failed += 1;
            outcome.problems.push(format!("after restart: {problem}"));
        }
    }
    if plan.trace {
        let replayed = node_counters(&cluster).get("restart_replayed_records");
        outcome.metrics.put("storage.replayed_records", replayed, 1);
        scenario::collect_spans(&mut gens, taken, &tracer, &mut outcome);
        outcome.spans.append(&mut driver.spans);
    }
    Ok(outcome)
}

/// Both generators run closed-loop through the router while this thread
/// drives one epoch per block interval.
fn append_phase(
    gens: &mut [Generator],
    cluster: &mut LocalCluster,
    driver: &mut EpochDriver<'_>,
    tracer: &Tracer,
    count: usize,
) -> Result<(), String> {
    let running = AtomicBool::new(true);
    // The router is shared with the generator threads; the coordinator is
    // driven from here.
    let router = &cluster.router;
    let coordinator = &mut cluster.coordinator;
    let clock = cluster.clock.clone();
    std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .iter_mut()
            .map(|gen| {
                let running = &running;
                scope.spawn(move || {
                    let result = gen.closed_loop(router, tracer, count, fixed::WINDOW);
                    running.store(false, Ordering::Release);
                    result
                })
            })
            .collect();
        let mut epochs = Ok(());
        while running.load(Ordering::Acquire) && epochs.is_ok() {
            clock.sleep(Duration::from_secs(fixed::EPOCH_EVERY_SIM_S));
            epochs = driver.run(coordinator, router);
        }
        // `running` drops on the first generator to finish; the joins wait
        // for the rest.
        let joined: Result<(), String> = handles.into_iter().try_for_each(|h| {
            h.join()
                .map_err(|_| "generator thread panicked".to_string())?
        });
        joined.and(epochs)
    })
}

fn node_counters(cluster: &LocalCluster) -> stats::Counters {
    let mut total = stats::Counters::default();
    for shard in 0..cluster.shards() {
        if let Some(node) = cluster.node(shard) {
            total.absorb(&stats::node(node));
        }
    }
    total
}
