//! Experiment implementations — one function per paper table/figure.
//!
//! Every function returns a [`Table`] whose rows mirror the series the paper
//! plots, and prints nothing itself; the `repro` binary handles output.
//! See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.
//!
//! lint: allow-file(panic) — measurement harness: a failed experiment setup must abort loudly, not limp on and publish skewed numbers

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use wedge_baselines::{OclConfig, OclSystem, RhlConfig, RhlSystem, SoclSystem};
use wedge_chain::Wei;
use wedge_core::AppendRequest;
use wedge_core::{Auditor, NodeConfig, Reader};
use wedge_crypto::signer::Identity;
use wedge_crypto::Hash32;

use crate::workload::{kv_payloads, Profile, World, KEY_SIZE, VALUE_SIZE};

/// A printable result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id, e.g. "Figure 3".
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Renders as GitHub markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

fn fmt_dur(d: Duration) -> String {
    if d >= Duration::from_secs(1) {
        format!("{:.2} s", d.as_secs_f64())
    } else {
        format!("{:.1} ms", d.as_secs_f64() * 1e3)
    }
}

fn fmt_eth(wei: Wei) -> String {
    format!("{:.3e}", wei.as_eth_f64())
}

/// Formats a throughput with sensible precision across magnitudes.
fn fmt_rate(v: f64) -> String {
    if v >= 0.01 {
        format!("{v:.2}")
    } else {
        format!("{v:.2e}")
    }
}

/// The batch sizes swept by Figures 3/4 (paper values).
pub const BATCH_SIZES: [usize; 6] = [500, 1000, 2000, 4000, 8000, 10_000];
/// The value sizes swept by Figures 5/6 and Table 1.
pub const VALUE_SIZES: [usize; 4] = [512, 1024, 2048, 4096];

/// One throughput/cost run: appends `n` entries of `value_size` through a
/// node batching at `batch_size` with `replicas`, returning
/// (ops/s, MB/s, cost-per-op, publisher latencies, stage-2 mean).
struct RunResult {
    ops_per_sec: f64,
    mb_per_sec: f64,
    cost_per_op: Wei,
    first_response: Duration,
    last_response: Duration,
    stage1_commit: Duration,
    stage2_mean: Duration,
}

fn run_append(
    tag: &str,
    batch_size: usize,
    value_size: usize,
    n: usize,
    replicas: usize,
) -> RunResult {
    let config = NodeConfig {
        batch_size,
        batch_linger: Duration::from_millis(30),
        replicas,
        ..Default::default()
    };
    let mut world = World::new(tag, config, 2000.0);
    let payloads = kv_payloads(n, KEY_SIZE, value_size, 42);
    let bytes: usize = payloads.iter().map(|p| p.len()).sum();
    let outcome = world.publisher.append_batch(payloads).expect("append");
    world.settle();
    let stats = world.node.stats();
    // Node-side ingestion throughput: ops over the time the node was
    // actively serving (submission to last response).
    let elapsed = outcome.last_response.as_secs_f64().max(1e-9);
    RunResult {
        ops_per_sec: n as f64 / elapsed,
        mb_per_sec: bytes as f64 / 1e6 / elapsed,
        cost_per_op: stats.cost_per_op(),
        first_response: outcome.first_response,
        last_response: outcome.last_response,
        stage1_commit: outcome.stage1_commit,
        stage2_mean: stats.mean_stage2_latency().unwrap_or_default(),
    }
}

/// Figure 3: Offchain Node throughput (with and without replication) and
/// monetary cost per operation, varying the batch size.
pub fn fig3(profile: Profile) -> Table {
    let mut table = Table {
        title: "Figure 3 — throughput and cost per op vs batch size (1088 B entries)".into(),
        headers: vec![
            "batch size".into(),
            "throughput (ops/s)".into(),
            "throughput, 2 replicas (ops/s)".into(),
            "cost per op (ETH)".into(),
            "stage-2 mean (sim)".into(),
        ],
        rows: Vec::new(),
    };
    for &batch_size in &BATCH_SIZES {
        let n = profile.scale(batch_size * 10, (batch_size * 2).max(4000));
        let solo = run_append(&format!("fig3-{batch_size}"), batch_size, VALUE_SIZE, n, 0);
        let repl = run_append(&format!("fig3r-{batch_size}"), batch_size, VALUE_SIZE, n, 2);
        table.rows.push(vec![
            batch_size.to_string(),
            format!("{:.0}", solo.ops_per_sec),
            format!("{:.0}", repl.ops_per_sec),
            fmt_eth(solo.cost_per_op),
            fmt_dur(solo.stage2_mean),
        ]);
    }
    table
}

/// Figure 4: publisher latency vs batch size (first / last / stage-1
/// commitment delay).
pub fn fig4(profile: Profile) -> Table {
    let mut table = Table {
        title: "Figure 4 — publisher latency vs batch size".into(),
        headers: vec![
            "batch size".into(),
            "first op delay".into(),
            "last op delay".into(),
            "stage-1 commitment delay".into(),
            "stage-2 mean (sim)".into(),
        ],
        rows: Vec::new(),
    };
    for &batch_size in &BATCH_SIZES {
        // The paper's publisher sends 10 000 operations regardless of the
        // node's batch size.
        let n = 10_000;
        let _ = profile;
        let run = run_append(&format!("fig4-{batch_size}"), batch_size, VALUE_SIZE, n, 0);
        table.rows.push(vec![
            batch_size.to_string(),
            fmt_dur(run.first_response),
            fmt_dur(run.last_response),
            fmt_dur(run.stage1_commit),
            fmt_dur(run.stage2_mean),
        ]);
    }
    table
}

/// Figure 5: throughput (MB/s, ± replication) and cost per op vs value
/// size, batch size fixed at 2000.
pub fn fig5(profile: Profile) -> Table {
    let mut table = Table {
        title: "Figure 5 — throughput and cost per op vs value size (batch = 2000)".into(),
        headers: vec![
            "value size (B)".into(),
            "throughput (MB/s)".into(),
            "throughput, 2 replicas (MB/s)".into(),
            "cost per op (ETH)".into(),
        ],
        rows: Vec::new(),
    };
    for &value_size in &VALUE_SIZES {
        let n = profile.scale(20_000, 4000);
        let solo = run_append(&format!("fig5-{value_size}"), 2000, value_size, n, 0);
        let repl = run_append(&format!("fig5r-{value_size}"), 2000, value_size, n, 2);
        table.rows.push(vec![
            value_size.to_string(),
            fmt_rate(solo.mb_per_sec),
            fmt_rate(repl.mb_per_sec),
            fmt_eth(solo.cost_per_op),
        ]);
    }
    table
}

/// Figure 6: publisher latency vs value size, batch size fixed at 2000.
pub fn fig6(profile: Profile) -> Table {
    let mut table = Table {
        title: "Figure 6 — publisher latency vs value size (batch = 2000)".into(),
        headers: vec![
            "value size (B)".into(),
            "first op delay".into(),
            "last op delay".into(),
            "stage-1 commitment delay".into(),
        ],
        rows: Vec::new(),
    };
    for &value_size in &VALUE_SIZES {
        let n = profile.scale(10_000, 4000);
        let run = run_append(&format!("fig6-{value_size}"), 2000, value_size, n, 0);
        table.rows.push(vec![
            value_size.to_string(),
            fmt_dur(run.first_response),
            fmt_dur(run.last_response),
            fmt_dur(run.stage1_commit),
        ]);
    }
    table
}

/// Figure 7: stage-1 commit throughput vs offered request frequency
/// (open-loop load).
pub fn fig7(profile: Profile) -> Table {
    // First estimate the node's capacity with a closed-loop burst.
    let burst_n = profile.scale(20_000, 4000);
    let capacity = run_append("fig7-cap", 2000, VALUE_SIZE, burst_n, 0).ops_per_sec;

    let mut table = Table {
        title: "Figure 7 — stage-1 throughput vs offered request frequency".into(),
        headers: vec![
            "offered rate (req/s)".into(),
            "stage-1 throughput (ops/s)".into(),
            "of capacity".into(),
        ],
        rows: Vec::new(),
    };
    // A longer window amortizes the final batch's drain tail, so the
    // sub-capacity points track the offered rate closely.
    let window = Duration::from_secs(profile.scale(20, 8) as u64);
    for fraction in [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4] {
        let rate = (capacity * fraction).max(1.0);
        let n = (rate * window.as_secs_f64()) as usize;
        let config = NodeConfig {
            batch_size: 2000,
            batch_linger: Duration::from_millis(30),
            ..Default::default()
        };
        let world = World::new(&format!("fig7-{fraction}"), config, 2000.0);
        // Pre-sign requests so client-side signing doesn't gate the offered
        // rate.
        let publisher_id = Identity::from_seed(b"fig7-publisher");
        let payloads = kv_payloads(n, KEY_SIZE, VALUE_SIZE, 7);
        let requests: Vec<AppendRequest> = {
            let items: Vec<(u64, Vec<u8>)> = (0..).zip(payloads).collect();
            wedge_pool::WorkPool::new(16).map(&items, |(seq, payload)| {
                AppendRequest::new(publisher_id.secret_key(), *seq, payload.clone())
            })
        };
        let (reply_tx, reply_rx) = unbounded();
        let started = Instant::now();
        // Paced submission: 100 ticks/s.
        let tick = Duration::from_millis(10);
        let per_tick = (rate * tick.as_secs_f64()).max(1.0) as usize;
        let node = Arc::clone(&world.node);
        let submitter = std::thread::spawn(move || {
            let mut sent = 0usize;
            let mut next_tick = Instant::now();
            for request in requests {
                node.submit(request, reply_tx.clone()).expect("submit");
                sent += 1;
                if sent.is_multiple_of(per_tick) {
                    next_tick += tick;
                    let now = Instant::now();
                    if next_tick > now {
                        std::thread::sleep(next_tick - now);
                    }
                }
            }
        });
        let mut received = 0usize;
        while received < n {
            match reply_rx.recv_timeout(Duration::from_secs(60)) {
                Ok(_) => received += 1,
                Err(_) => break,
            }
        }
        submitter.join().unwrap();
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
        let throughput = received as f64 / elapsed;
        table.rows.push(vec![
            format!("{rate:.0}"),
            format!("{throughput:.0}"),
            format!("{:.0}%", fraction * 100.0),
        ]);
    }
    table
}

/// Table 1: commitment throughput and cost per operation of OCL, SOCL, RHL
/// and WedgeBlock at 1024 B and 2048 B values.
pub fn table1(profile: Profile) -> Table {
    let mut table = Table {
        title: "Table 1 — commitment throughput and cost vs prior approaches".into(),
        headers: vec![
            "value size / system".into(),
            "throughput (MB/s)".into(),
            "cost per op (ETH)".into(),
            "commit latency".into(),
        ],
        rows: Vec::new(),
    };
    for &value_size in &[1024usize, 2048] {
        // --- OCL: raw entries on-chain; commit = confirmed receipt.
        {
            let world = World::new(
                &format!("t1-ocl-{value_size}"),
                NodeConfig::default(),
                2000.0,
            );
            let ocl = OclSystem::deploy(
                Arc::clone(&world.chain),
                world.node_identity.clone(),
                OclConfig::default(),
            )
            .expect("deploy ocl");
            let n = profile.scale(200, 40);
            let payloads = kv_payloads(n, KEY_SIZE, value_size, 1);
            let out = ocl.append_and_commit(&payloads).expect("ocl commit");
            table.rows.push(vec![
                format!("{value_size} (OCL)"),
                fmt_rate(out.throughput_mb_s()),
                fmt_eth(out.costs.cost_per_op()),
                format!("{} (sim)", fmt_dur(out.commit_latency)),
            ]);
        }
        // --- SOCL: off-chain + digest, but commit waits for the chain.
        {
            let config = NodeConfig {
                batch_size: 2000,
                batch_linger: Duration::from_millis(30),
                ..Default::default()
            };
            let world = World::new(&format!("t1-socl-{value_size}"), config, 2000.0);
            let client = Identity::from_seed(b"t1-socl-client");
            world.chain.fund(client.address(), Wei::from_eth(1000));
            let mut socl = SoclSystem::new(
                Arc::clone(&world.chain),
                Arc::clone(&world.node),
                client,
                world.root_record,
            );
            let n = profile.scale(10_000, 2000);
            let payloads = kv_payloads(n, KEY_SIZE, value_size, 2);
            let out = socl.append_and_commit(payloads).expect("socl commit");
            table.rows.push(vec![
                format!("{value_size} (SOCL)"),
                fmt_rate(out.throughput_mb_s()),
                fmt_eth(out.costs.cost_per_op()),
                format!("{} (sim)", fmt_dur(out.commit_latency)),
            ]);
        }
        // --- RHL: fast stage-1 ack; ops posted on-chain; day-long finality.
        {
            let world = World::new(
                &format!("t1-rhl-{value_size}"),
                NodeConfig::default(),
                2000.0,
            );
            let rhl = RhlSystem::deploy(
                Arc::clone(&world.chain),
                world.node_identity.clone(),
                RhlConfig::default(),
            )
            .expect("deploy rhl");
            let n = profile.scale(200, 40);
            let payloads = kv_payloads(n, KEY_SIZE, value_size, 3);
            let out = rhl.append_and_commit(&payloads).expect("rhl commit");
            table.rows.push(vec![
                format!("{value_size} (RHL)"),
                fmt_rate(out.stage1_throughput_mb_s()),
                fmt_eth(out.costs.cost_per_op()),
                format!(
                    "{} stage-1; finality {} (sim)",
                    fmt_dur(out.stage1_wall),
                    fmt_dur(out.finality_latency)
                ),
            ]);
        }
        // --- WB: stage-1 commit is the receipt (lazy trust).
        {
            let n = profile.scale(10_000, 2000);
            let run = run_append(&format!("t1-wb-{value_size}"), 2000, value_size, n, 0);
            table.rows.push(vec![
                format!("{value_size} (WB)"),
                fmt_rate(run.mb_per_sec),
                fmt_eth(run.cost_per_op),
                format!("{} stage-1 (real)", fmt_dur(run.stage1_commit)),
            ]);
        }
    }
    table
}

/// Builds a preloaded world for the read experiments. Request verification
/// is disabled during preload (all requests are self-generated); reads still
/// verify everything.
fn preloaded_world(tag: &str, batch_size: usize, entries: usize) -> (World, Identity) {
    let config = NodeConfig {
        batch_size,
        batch_linger: Duration::from_millis(30),
        verify_requests: false,
        ..Default::default()
    };
    let mut world = World::new(tag, config, 2000.0);
    let mut remaining = entries;
    while remaining > 0 {
        let chunk = remaining.min(20_000);
        let payloads = kv_payloads(chunk, KEY_SIZE, VALUE_SIZE, remaining as u64);
        world.publisher.append_batch(payloads).expect("preload");
        remaining -= chunk;
    }
    world.settle();
    let publisher_id = Identity::from_seed(format!("bench-client-{tag}").as_bytes());
    (world, publisher_id)
}

/// Figure 8: random-key read throughput vs the batch size the log was
/// stored with.
pub fn fig8(profile: Profile) -> Table {
    use rand::{Rng, SeedableRng};
    let entries = profile.scale(10_000_000, 40_000);
    let reads = profile.scale(50_000, 4_000);
    let mut table = Table {
        title: format!(
            "Figure 8 — random read throughput vs store batch size \
             ({entries} entries preloaded, {reads} reads incl. verification)"
        ),
        headers: vec!["store batch size".into(), "read throughput (ops/s)".into()],
        rows: Vec::new(),
    };
    for &batch_size in &BATCH_SIZES {
        let (world, publisher_id) =
            preloaded_world(&format!("fig8-{batch_size}"), batch_size, entries);
        let reader = Reader::new(
            Arc::clone(&world.node),
            Arc::clone(&world.chain),
            world.root_record,
        );
        let mut rng = rand::rngs::SmallRng::seed_from_u64(88);
        let sequences: Vec<u64> = (0..reads)
            .map(|_| rng.gen_range(0..entries as u64))
            .collect();
        let started = Instant::now();
        for &seq in &sequences {
            let entry = reader
                .read_by_sequence(publisher_id.address(), seq)
                .expect("read");
            std::hint::black_box(&entry);
        }
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
        table.rows.push(vec![
            batch_size.to_string(),
            format!("{:.0}", reads as f64 / elapsed),
        ]);
    }
    table
}

/// Figure 9: audit latency (total vs verification share) for growing
/// numbers of audited operations; plus the range-proof extension.
pub fn fig9(profile: Profile) -> Table {
    let budgets_full = [10_000usize, 50_000, 100_000, 200_000];
    let budgets_quick = [2_000usize, 5_000, 10_000, 20_000];
    let budgets = match profile {
        Profile::Full => budgets_full,
        Profile::Quick => budgets_quick,
    };
    let entries = *budgets.last().expect("non-empty");
    let (world, _publisher) = preloaded_world("fig9", 2000, entries);
    let auditor = Auditor::new(
        Arc::clone(&world.node),
        Arc::clone(&world.chain),
        world.root_record,
    );
    let mut table = Table {
        title: "Figure 9 — audit latency vs number of operations".into(),
        headers: vec![
            "operations".into(),
            "total latency".into(),
            "verification time".into(),
            "verify share".into(),
            "range-proof audit (ext.)".into(),
        ],
        rows: Vec::new(),
    };
    for &budget in &budgets {
        let report = auditor.audit(0, budget).expect("audit");
        assert!(report.is_clean(), "audit must be clean");
        let range = auditor
            .audit_with_range_proofs(0, budget)
            .expect("range audit");
        assert!(range.is_clean());
        table.rows.push(vec![
            budget.to_string(),
            fmt_dur(report.total_time),
            fmt_dur(report.verify_time),
            format!("{:.0}%", report.verify_fraction() * 100.0),
            fmt_dur(range.total_time),
        ]);
    }
    table
}

/// Extra (not in the paper): stage-2 resilience under chain fault bursts —
/// how many retries/re-queues a burst of dropped submissions and forced
/// reverts costs, and how far the stage-2 commit latency degrades, with no
/// commitment ever lost.
pub fn fault_tolerance(profile: Profile) -> Table {
    let n = profile.scale(10_000, 2000);
    let mut table = Table {
        title: "Stage-2 fault tolerance (extension) — injected chain fault bursts".into(),
        headers: vec![
            "fault burst (drops + reverts)".into(),
            "retries".into(),
            "re-queued groups".into(),
            "backoff histogram".into(),
            "stage-2 mean (sim)".into(),
            "committed / failed".into(),
        ],
        rows: Vec::new(),
    };
    for &(drops, reverts) in &[(0u64, 0u64), (2, 1), (4, 2), (8, 4)] {
        let config = NodeConfig {
            batch_size: 2000,
            batch_linger: Duration::from_millis(30),
            // A retry budget that outlasts the longest burst swept here
            // (12 consecutive failures), so no row abandons its group.
            stage2_retry: wedge_core::Stage2RetryPolicy {
                max_attempts: 20,
                base_backoff: Duration::from_secs(1),
                max_backoff: Duration::from_secs(10),
                jitter: 0.2,
            },
            ..Default::default()
        };
        let mut world = World::new(&format!("faults-{drops}-{reverts}"), config, 2000.0);
        world.chain.faults().drop_next_submissions(drops);
        world.chain.faults().revert_next_calls(reverts);
        world
            .publisher
            .append_batch(kv_payloads(n, KEY_SIZE, VALUE_SIZE, 11))
            .expect("append");
        world.settle();
        let stats = world.node.stats();
        table.rows.push(vec![
            format!("{drops} + {reverts}"),
            stats.stage2_retries.to_string(),
            stats.stage2_requeued.to_string(),
            format!("{:?}", stats.stage2_backoff_hist),
            fmt_dur(stats.mean_stage2_latency().unwrap_or_default()),
            format!("{} / {}", stats.stage2_committed, stats.stage2_failed),
        ]);
    }
    table
}

/// Extra (not in the paper): the "signing wall" micro-benchmark — ECDSA
/// throughput of the shipped paths (8-bit comb fixed-base table, Montgomery
/// batch inversion shared per chunk, Strauss–Shamir/GLV double
/// multiplication over a cached per-key table), single thread.
///
/// A row that times one path reports one rate. A row labelled "A vs. B"
/// times two paths the node still runs on the same input: `ops/s` is B,
/// `vs. (ops/s)` is A and `speedup` is B / A. The `request verify` row
/// compares full public-key recovery with one batched check under the
/// remembered key. The two `… vs. nonce-y hint` rows check the same
/// signatures without and with the nonce point's y the signer hands over
/// (an append frame carries it; a stored leaf does not). The `cached batch`
/// rows compare the per-item check with the combined equation by how
/// hostile and how long a run is. The `request mix` rows put whole requests
/// through per-item `AppendRequest::verify` and through
/// `wedge_core::PublisherKeys`, for traffic with and without the property
/// the cache depends on — publishers that come back.
pub fn signing(profile: Profile) -> Table {
    use wedge_core::{EntryId, PublisherKeys, SignedResponse};
    use wedge_crypto::ecdsa::{
        recover_prehashed, sign_prehashed, sign_prehashed_batch, verify_prehashed,
        verify_recoverable_batch, Signature,
    };
    use wedge_crypto::keys::Keypair;
    use wedge_crypto::secp256k1::AffineTable;

    let n = profile.scale(2048, 512);
    let repeats = profile.scale(5, 3);
    let kp = Keypair::from_seed(b"signing-wall");
    let hashes: Vec<[u8; 32]> = (0..n)
        .map(|i| wedge_crypto::keccak256(&(i as u64).to_be_bytes()))
        .collect();

    // Warm the generator table outside the timed regions: its build is a
    // one-time cost a long-running node never sees again.
    let _ = sign_prehashed(&kp.secret, &hashes[0]);

    // Best-of-N ops/s for a closure processing `count` items.
    let rate_of = |count: usize, work: &mut dyn FnMut()| -> f64 {
        let mut best = 0.0f64;
        for _ in 0..repeats {
            let started = Instant::now();
            work();
            let r = count as f64 / started.elapsed().as_secs_f64().max(1e-9);
            best = best.max(r);
        }
        best
    };
    let rate = |work: &mut dyn FnMut()| rate_of(n, work);

    let mut rows = Vec::new();
    // `ops` is the rate of the row's path, or of B in an "A vs. B" row;
    // `against` is A's.
    let mut row = |op: &str, count: usize, ops: f64, against: Option<f64>| {
        rows.push(vec![
            op.into(),
            count.to_string(),
            format!("{ops:.0}"),
            against.map_or("—".into(), |a| format!("{a:.0}")),
            against.map_or("—".into(), |a| format!("{:.2}×", ops / a.max(1e-9))),
        ]);
    };

    let sign_batch = rate(&mut || {
        std::hint::black_box(sign_prehashed_batch(&kp.secret, &hashes));
    });
    let sign_item = rate(&mut || {
        for h in &hashes {
            std::hint::black_box(sign_prehashed(&kp.secret, h));
        }
    });
    row("sign — batch API (shared inversions)", n, sign_batch, None);
    row("sign — per-item API (comb table only)", n, sign_item, None);

    let sigs: Vec<Signature> = sign_prehashed_batch(&kp.secret, &hashes);
    // Signatures as a log stores them, with no nonce-y hint; only the two
    // "… vs. nonce-y hint" rows check them as the signer hands them over.
    let hinted: Vec<([u8; 32], Signature)> = hashes.iter().copied().zip(sigs.clone()).collect();
    let items: Vec<([u8; 32], Signature)> = hinted
        .iter()
        .map(|(h, sig)| {
            (
                *h,
                Signature {
                    nonce_y: None,
                    ..*sig
                },
            )
        })
        .collect();
    let verify_batch = rate(&mut || {
        // The per-key table build is charged to the batch (it is what a
        // verifier pays once per key, not per signature).
        let table = AffineTable::new(kp.public.point());
        assert!(verify_recoverable_batch(&table, &items)
            .iter()
            .all(|ok| *ok));
    });
    let verify_item = rate(&mut || {
        for (h, sig) in hashes.iter().zip(&sigs) {
            verify_prehashed(&kp.public, h, sig).expect("valid");
        }
    });
    row(
        "verify — batch, cached per-key table",
        n,
        verify_batch,
        None,
    );
    row(
        "verify — per-item API (table rebuilt per call)",
        n,
        verify_item,
        None,
    );

    // The node's request path: what a request costs when the collect stage
    // re-derives its publisher's key, against the same signatures checked
    // in one batch under the remembered key (the table is built once per
    // publisher, so it is outside the timed region here).
    let request_recover = rate(&mut || {
        for (h, sig) in &items {
            assert_eq!(recover_prehashed(h, sig), Ok(kp.public));
        }
    });
    let remembered = AffineTable::new(kp.public.point());
    let request_cached = rate(&mut || {
        assert!(verify_recoverable_batch(&remembered, &items)
            .iter()
            .all(|ok| *ok));
    });
    row(
        "request verify — recovery vs. cached batch",
        n,
        request_cached,
        Some(request_recover),
    );
    // What a publisher that is not remembered pays, with the nonce point's
    // y checked on the curve instead of recomputed by a square root.
    let request_recover_hinted = rate(&mut || {
        for (h, sig) in &hinted {
            assert_eq!(recover_prehashed(h, sig), Ok(kp.public));
        }
    });
    row(
        "recovery — square root vs. nonce-y hint",
        n,
        request_recover_hinted,
        Some(request_recover),
    );

    // The node's reply path for one batch of 1,088 B entries:
    // `SignedResponse::sign_batch` — the response digests, one tree over
    // them, one signature, one path per response.
    let leaves: Vec<Vec<u8>> = (0..n as u64)
        .map(|i| [&i.to_be_bytes()[..], &[7u8; 1190]].concat())
        .collect();
    let tree = wedge_merkle::MerkleTree::from_leaves(&leaves).expect("non-empty");
    let prepared: Vec<_> = (0u32..)
        .zip(&leaves)
        .map(|(offset, leaf)| {
            let proof = tree.prove(offset as usize).expect("in range");
            let id = EntryId { log_id: 0, offset };
            (id, tree.root(), proof, leaf.clone())
        })
        .collect();
    let merkle_batched = rate(&mut || {
        std::hint::black_box(SignedResponse::sign_batch(&kp.secret, prepared.clone(), 1));
    });
    row(
        "response signing — one Merkle-batched signature",
        n,
        merkle_batched,
        None,
    );

    // The cached check by how hostile a 1,000-item run is and by run length
    // (a run is what one worker checks for one publisher in one batch: ~1,000
    // requests on the node, one for a `Reader` verifying a single read).
    // The combined path is one call per run; the per-item path is the same
    // call in chunks of at most 15, under the equation's cutoff. Verdicts
    // are asserted equal to recovery's.
    let long: Vec<([u8; 32], Signature)> = (0..1000).map(|i| items[i % n]).collect();
    let damaged = |at: &[usize]| {
        let mut run = long.clone();
        for &i in at {
            run[i].0[0] ^= 1;
        }
        run
    };
    let mut runs = vec![
        ("all good".to_string(), long.clone(), 1000),
        ("1 bad in 1,000".to_string(), damaged(&[617]), 1000),
        (
            "a bad item in every leaf".to_string(),
            damaged(&[100, 400, 600, 900]),
            1000,
        ),
    ];
    runs.extend([1, 8, 16, 32, 128, 1000].map(|len| (format!("runs of {len}"), long.clone(), len)));
    for (label, run, len) in runs {
        let expect: Vec<bool> = run
            .iter()
            .map(|(h, sig)| recover_prehashed(h, sig) == Ok(kp.public))
            .collect();
        let [per_item, combined] = [len.min(15), len].map(|chunk| {
            rate_of(run.len(), &mut || {
                let parts = run.chunks(chunk);
                let verdicts: Vec<bool> = parts
                    .flat_map(|part| verify_recoverable_batch(&remembered, part))
                    .collect();
                assert_eq!(verdicts, expect);
            })
        });
        let label = format!("cached batch — {label}: per-item vs. combined");
        row(&label, run.len(), combined, Some(per_item));
    }
    // One equation over the same 1,000 signatures, each nonce point lifted
    // by a square root or taken from its checked hint.
    let long_hinted: Vec<([u8; 32], Signature)> = (0..1000).map(|i| hinted[i % n]).collect();
    let [bare_run, hinted_run] = [&long, &long_hinted].map(|run| {
        rate_of(run.len(), &mut || {
            let verdicts = verify_recoverable_batch(&remembered, run);
            assert!(verdicts.iter().all(|ok| *ok));
        })
    });
    row(
        "cached batch — one equation, square root vs. nonce-y hint",
        1000,
        hinted_run,
        Some(bare_run),
    );

    // Whole requests through the collect stage's verifier, by how often
    // publishers come back — the one traffic property the rows above depend
    // on: per-item `AppendRequest::verify`, against a new `PublisherKeys`
    // fed the mix in batches of 2,000 (cold start included) on one worker.
    // The label carries the share the cache accepted.
    let m = profile.scale(8192, 4096);
    let keypairs: Vec<Keypair> = (0..m)
        .map(|i| Keypair::from_seed(format!("request-mix-{i}").as_bytes()))
        .collect();
    let one_worker = wedge_pool::WorkPool::new(1);
    // `publisher_of(i)` names the keypair that signs request `i`.
    let mut mix = |label: &str, publisher_of: &dyn Fn(usize) -> usize| {
        let requests: Vec<AppendRequest> = (0..m)
            .map(|i| AppendRequest::new(&keypairs[publisher_of(i)].secret, i as u64, vec![7; 1088]))
            .collect();
        let refs: Vec<&AppendRequest> = requests.iter().collect();
        let per_item = rate_of(m, &mut || {
            assert!(requests.iter().all(|r| r.verify().is_ok()));
        });
        let mut recovered = 0;
        let keyed = rate_of(m, &mut || {
            let keys = PublisherKeys::default();
            recovered = 0;
            for batch in refs.chunks(2000) {
                let verified = keys.verify_batch(batch, &one_worker);
                assert!(verified.verdicts.iter().all(|ok| *ok));
                recovered += verified.recovered;
            }
        });
        let cached = 100.0 * (m as f64 - recovered as f64) / m as f64;
        let label =
            format!("request mix — {label}: per-item vs. PublisherKeys ({cached:.1} % cached)");
        row(&label, m, keyed, Some(per_item));
    };
    let capacity = PublisherKeys::CAPACITY;
    mix("2 repeat publishers", &|i| i % 2);
    mix("single-use publishers only", &|i| i);
    mix("2 × CAPACITY publishers in turn", &|i| i % (2 * capacity));
    mix("8 repeat publishers + 1 in 5 single-use", &|i| {
        if i % 5 == 0 {
            i
        } else {
            i % 8
        }
    });

    Table {
        title: "Signing wall (extension) — comb fixed-base table, shared batch \
                inversion, Strauss–Shamir/GLV verification (single thread)"
            .into(),
        headers: vec![
            "operation".into(),
            "items".into(),
            "ops/s".into(),
            "vs. (ops/s)".into(),
            "speedup".into(),
        ],
        rows,
    }
}

/// Extra (not in the paper): the "hashing wall" micro-benchmark — Keccak-256
/// throughput of the shipped paths on the exact shapes the persist path
/// hashes: the fused single-permutation digest for sub-rate inputs, the ×4
/// lane-interleaved permutation (four digests per pass), and the unrolled
/// streaming sponge for bulk input. Every row times one path;
/// `crates/crypto/tests/hash_differential.rs` proves they all produce the
/// digests of a naive loop-based sponge.
pub fn hashing(profile: Profile) -> Table {
    use wedge_crypto::{keccak256_batch, keccak256_fixed, keccak256_fixed_x4};
    use wedge_merkle::{hash_leaf, hash_leaves, hash_node, hash_node_x4, MerkleTree};

    let n = profile.scale(32_768, 8_192); // digests per timed pass
    let repeats = profile.scale(7, 4);

    // Best-of-N MB/s for a closure hashing `bytes` per pass.
    let rate = |bytes: usize, work: &mut dyn FnMut()| -> f64 {
        let mut best = 0.0f64;
        for _ in 0..repeats {
            let started = Instant::now();
            work();
            let mbps = bytes as f64 / 1e6 / started.elapsed().as_secs_f64().max(1e-9);
            best = best.max(mbps);
        }
        best
    };

    let mut table = Table {
        title: "Hashing wall (extension) — fused single-permutation fast path and \
                ×4 lane-interleaved Keccak-f[1600] (single thread, byte-identical \
                digests)"
            .into(),
        headers: vec![
            "shape".into(),
            "path".into(),
            "digests".into(),
            "MB/s".into(),
        ],
        rows: Vec::new(),
    };
    let mut row = |shape: &str, path: &str, items: usize, mbps: f64| {
        table.rows.push(vec![
            shape.into(),
            path.into(),
            items.to_string(),
            format!("{mbps:.1}"),
        ]);
    };

    // --- hash_node's 64-byte two-child input (65-byte tagged preimage),
    // the digest that dominates tree folding.
    let children: Vec<Hash32> = (0..n)
        .map(|i| Hash32(wedge_crypto::keccak256(&(i as u64).to_be_bytes())))
        .collect();
    let pairs = n / 2;
    let node_bytes = pairs * 65;
    let node_fixed = rate(node_bytes, &mut || {
        for pair in children.chunks_exact(2) {
            std::hint::black_box(hash_node(&pair[0], &pair[1]));
        }
    });
    let node_x4 = rate(node_bytes, &mut || {
        for oct in children.chunks_exact(8) {
            std::hint::black_box(hash_node_x4(oct));
        }
    });
    row(
        "node (65-B preimage)",
        "fused fixed path",
        pairs,
        node_fixed,
    );
    row("node (65-B preimage)", "×4 interleaved", pairs, node_x4);

    // --- Leaf shape: the tagged kv payload stage-1 hashes once per entry.
    let payloads = kv_payloads(n, KEY_SIZE, VALUE_SIZE, 0x4a5c);
    let leaf_bytes: usize = payloads.iter().map(|p| p.len() + 1).sum();
    let leaf_fixed = rate(leaf_bytes, &mut || {
        for p in &payloads {
            std::hint::black_box(hash_leaf(p));
        }
    });
    let leaf_x4 = rate(leaf_bytes, &mut || {
        std::hint::black_box(hash_leaves(&payloads));
    });
    let shape = format!("leaf ({}-B payload)", KEY_SIZE + VALUE_SIZE);
    row(&shape, "fused fixed path", n, leaf_fixed);
    row(&shape, "×4 batch (hash_leaves)", n, leaf_x4);

    // --- Mixed-length batch: entry-id/tx digests of varying size driven
    // through the bucketing batch API (ragged tails included).
    let mixed: Vec<Vec<u8>> = (0..n)
        .map(|i| vec![(i % 251) as u8; 24 + (i * 37) % 200])
        .collect();
    let mixed_refs: Vec<&[u8]> = mixed.iter().map(|v| v.as_slice()).collect();
    let mixed_bytes: usize = mixed.iter().map(|v| v.len()).sum();
    let mixed_batch = rate(mixed_bytes, &mut || {
        std::hint::black_box(keccak256_batch(&mixed_refs));
    });
    row("mixed 24–223 B", "×4 bucketed batch", n, mixed_batch);

    // --- Bulk streaming: the unrolled sponge on a 64 KiB blob.
    let blob = vec![0xC3u8; 64 * 1024];
    let passes = profile.scale(64, 16);
    let stream = rate(blob.len() * passes, &mut || {
        for _ in 0..passes {
            std::hint::black_box(wedge_crypto::keccak256(&blob));
        }
    });
    row("64 KiB stream", "unrolled sponge", passes, stream);

    // --- Whole-tree build: serial Merkle construction end to end (leaves
    // + every interior level) through the ×4 builder.
    let tree_leaves = kv_payloads(profile.scale(8_192, 2_048), KEY_SIZE, VALUE_SIZE, 0x4a5d);
    let tree_bytes: usize = tree_leaves.iter().map(|p| p.len() + 1).sum();
    let tree = rate(tree_bytes, &mut || {
        std::hint::black_box(
            MerkleTree::from_leaves(&tree_leaves)
                .expect("non-empty")
                .root(),
        );
    });
    row(
        "merkle build (serial)",
        "×4 + fixed builder",
        tree_leaves.len(),
        tree,
    );

    // Sanity: the ×4 fixed path really ran interleaved (counter moved).
    let before = wedge_crypto::hash::hash_batches_x4();
    let _ = keccak256_fixed_x4([b"a", b"b", b"c", b"d"]);
    let _ = keccak256_fixed(b"warm");
    assert!(wedge_crypto::hash::hash_batches_x4() > before);
    table
}

/// Extra (not in the paper): end-to-end punishment cost — what a client pays
/// in gas to prove a lie, and what it recovers.
pub fn punishment_economics() -> Table {
    use wedge_core::NodeBehavior;
    let config = NodeConfig {
        batch_size: 100,
        batch_linger: Duration::from_millis(10),
        behavior: NodeBehavior::CommitWrongRoot { from_log: 0 },
        ..Default::default()
    };
    let mut world = World::new("punish-econ", config, 2000.0);
    let outcome = world
        .publisher
        .append_batch(kv_payloads(100, KEY_SIZE, VALUE_SIZE, 9))
        .expect("append");
    world.settle();
    let receipt = world
        .publisher
        .verify_all_and_punish(&outcome.responses)
        .expect("punish path")
        .expect("mismatch found");
    let evidence = &outcome.responses[0];
    Table {
        title: "Punishment economics (extension)".into(),
        headers: vec!["metric".into(), "value".into()],
        rows: vec![
            vec![
                "gas to prove the lie".into(),
                format!("{}", receipt.gas_used),
            ],
            vec!["fee paid by client".into(), format!("{}", receipt.fee)],
            vec!["escrow recovered".into(), "32 ETH".into()],
            vec![
                "evidence size (bytes)".into(),
                format!(
                    "{}",
                    evidence.proof.encoded_len()
                        + evidence.leaf.len()
                        + 65
                        + 40
                        + evidence.attestation.encoded_len()
                ),
            ],
            vec![
                "of which attestation path (bytes, nodes)".into(),
                format!(
                    "{}, {}",
                    evidence.attestation.encoded_len(),
                    evidence.attestation.path.len()
                ),
            ],
        ],
    }
}

/// Per-entry payload for the tiered-storage experiment: large enough that
/// per-byte work (hashing, I/O) dominates per-entry fixed costs.
const TIER_PAYLOAD: usize = 64 * 1024;

/// Tiered storage & two-plane checkpoints: restart time and replayed
/// records with a checkpoint vs a full log replay as the log grows.
/// (Read and reopen cost per tier are `wedgebench`'s
/// `storage.read_hot_us` / `read_cold_us` / `reopen_ms`.)
pub fn tiers(profile: Profile) -> Table {
    use wedge_chain::{Chain, ChainConfig};
    use wedge_core::{deploy_service, OffchainNode, Publisher, ServiceConfig, TierConfig};
    use wedge_sim::Clock;
    use wedge_storage::{StoreConfig, SyncPolicy};

    let sizes_mb: &[u64] = match profile {
        Profile::Quick => &[8, 16, 32],
        Profile::Full => &[64, 128, 256],
    };
    let mut table = Table {
        title: "Tiered storage: O(tail) restart".into(),
        headers: vec![
            "log MB".into(),
            "records".into(),
            "restart (ckpt)".into(),
            "replayed (ckpt)".into(),
            "restart (full replay)".into(),
            "replayed (full)".into(),
            "sealed segments".into(),
        ],
        rows: Vec::new(),
    };

    for &mb in sizes_mb {
        let total_bytes = mb * 1024 * 1024;
        let tag = format!("tiers-{mb}");

        // Node-level restart measurement over a persistent directory.
        let clock = Clock::compressed(2000.0);
        let chain = Chain::new(clock, ChainConfig::default());
        let node_identity = Identity::from_seed(format!("tiers-node-{mb}").as_bytes());
        let client_identity = Identity::from_seed(format!("tiers-client-{mb}").as_bytes());
        chain.fund(node_identity.address(), Wei::from_eth(1_000_000));
        chain.fund(client_identity.address(), Wei::from_eth(1_000_000));
        let miner = chain.start_miner();
        let deployment = deploy_service(
            &chain,
            &node_identity,
            client_identity.address(),
            &ServiceConfig {
                escrow: Wei::from_eth(32),
                payment_terms: None,
            },
        )
        .expect("deploy service");
        let dir = std::env::temp_dir().join(format!("wedge-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = NodeConfig {
            batch_size: 16,
            batch_linger: Duration::from_millis(5),
            verify_requests: false,
            stage2_max_group: 4,
            tier: TierConfig {
                checkpoint_every_groups: 2,
                ..Default::default()
            },
            store: StoreConfig {
                max_segment_bytes: 4 * 1024 * 1024,
                sync: SyncPolicy::GroupCommit {
                    max_batches: 4,
                    max_delay: Duration::from_millis(2),
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let start_node = |chain: &Arc<Chain>| {
            Arc::new(
                OffchainNode::start(
                    node_identity.clone(),
                    config.clone(),
                    Arc::clone(chain),
                    deployment.root_record,
                    &dir,
                )
                .expect("start node"),
            )
        };

        let node = start_node(&chain);
        {
            let mut publisher = Publisher::new(
                client_identity.clone(),
                Arc::clone(&node),
                Arc::clone(&chain),
                deployment.root_record,
                None,
            );
            let entries = (total_bytes as usize).div_ceil(TIER_PAYLOAD);
            let payloads: Vec<Vec<u8>> = (0..entries).map(|_| vec![0x5Au8; TIER_PAYLOAD]).collect();
            publisher.append_batch(payloads).expect("append");
            node.wait_stage2_idle(Duration::from_secs(3600))
                .expect("settle");
        }
        let records = node.entry_count() + node.log_positions();
        let sealed_segments = node.stats().segments_sealed;
        drop(node); // clean shutdown: final checkpoint + store sync

        // Restart with the checkpoint in place: O(tail).
        let started = Instant::now();
        let node = start_node(&chain);
        let restart_ckpt = started.elapsed();
        let replayed_ckpt = node.stats().restart_replayed_records;
        drop(node);

        // Delete the checkpoints and restart again: full O(log) replay.
        let _ = std::fs::remove_dir_all(dir.join("checkpoints"));
        let started = Instant::now();
        let node = start_node(&chain);
        let restart_full = started.elapsed();
        let replayed_full = node.stats().restart_replayed_records;
        drop(node);
        drop(miner);
        let _ = std::fs::remove_dir_all(&dir);

        table.rows.push(vec![
            mb.to_string(),
            records.to_string(),
            fmt_dur(restart_ckpt),
            replayed_ckpt.to_string(),
            fmt_dur(restart_full),
            replayed_full.to_string(),
            sealed_segments.to_string(),
        ]);
    }
    table
}

/// Entry payload bytes for the `cluster` experiment (1 KB values, as in
/// the paper's workload).
const CLUSTER_VALUE_SIZE: usize = VALUE_SIZE;

/// Extension (not in the paper): sharded cluster scaling with a
/// root-of-roots commit. Sweeps the shard count with the *total* workload
/// held constant and reports aggregate stage-1 append throughput, the
/// epoch/transaction economics (one on-chain tx per epoch regardless of
/// N), and an end-to-end two-level proof check against the on-chain
/// cluster root.
///
/// The run is latency-bound by design: every shard replicates each flushed
/// batch to one replica over a 15 ms link before it replies, so the
/// single-shard row serializes those hops while an N-shard cluster pays
/// them in parallel — the same reason a real multi-node deployment scales
/// before it saturates CPU.
pub fn cluster(profile: Profile) -> Table {
    use wedge_cluster::{identity_on_shard, ClusterConfig, LocalCluster};

    let total = profile.scale(16_384, 4_096);
    let batch = 64;
    let mut table = Table {
        title: format!(
            "Cluster scaling (extension) — {total} appends total, root-of-roots commit per epoch"
        ),
        headers: vec![
            "shards".into(),
            "per-shard appends".into(),
            "append wall".into(),
            "aggregate ops/s".into(),
            "speedup vs 1".into(),
            "epochs".into(),
            "on-chain txs".into(),
            "txs / epoch".into(),
            "groups folded".into(),
            "gas / entry".into(),
            "two-level proof".into(),
        ],
        rows: Vec::new(),
    };
    let mut base_rate: Option<f64> = None;
    for shards in [1usize, 2, 4, 8] {
        let per_shard = (total / shards).max(batch);
        let config = ClusterConfig {
            shards,
            node: NodeConfig {
                batch_size: batch,
                batch_linger: Duration::from_millis(10),
                verify_requests: false,
                // The per-batch network hop every shard pays; batches on
                // different shards pay it concurrently.
                replicas: 1,
                replica_link_delay: Duration::from_millis(15),
                ..Default::default()
            },
            epoch_max_group: 32,
            ..Default::default()
        };
        let mut cluster =
            LocalCluster::start(&format!("bench-{shards}"), config).expect("cluster start");

        // Pre-sign every request outside the timed region: one publisher
        // pinned per shard, sequences contiguous within its shard log.
        let payloads = kv_payloads(per_shard, KEY_SIZE, CLUSTER_VALUE_SIZE, 77);
        let publishers: Vec<Identity> = (0..shards)
            .map(|shard| {
                identity_on_shard(
                    cluster.router.shard_map(),
                    shard,
                    &format!("cluster-bench-{shards}"),
                )
            })
            .collect();
        let requests: Vec<Vec<AppendRequest>> = publishers
            .iter()
            .map(|publisher| {
                payloads
                    .iter()
                    .enumerate()
                    .map(|(seq, payload)| {
                        AppendRequest::new(publisher.secret_key(), seq as u64, payload.clone())
                    })
                    .collect()
            })
            .collect();

        let (reply_tx, reply_rx) = unbounded();
        let sent = shards * per_shard;
        let started = Instant::now();
        for shard_requests in requests {
            for request in shard_requests {
                let reply_tx = reply_tx.clone();
                cluster
                    .router
                    .submit(
                        request,
                        Box::new(move |result| {
                            let _ = reply_tx.send(result.map(|_| ()));
                        }),
                    )
                    .expect("route append");
            }
        }
        cluster.router.flush();
        for _ in 0..sent {
            reply_rx
                .recv_timeout(Duration::from_secs(600))
                .expect("stage-1 reply")
                .expect("stage-1 response");
        }
        let elapsed = started.elapsed();

        // Epoch commits run on the compressed simulated chain and are not
        // part of the stage-1 measurement.
        cluster.settle(Duration::from_secs(36_000)).expect("settle");
        let stats = cluster.coordinator.stats();
        let groups: usize = cluster
            .coordinator
            .records()
            .iter()
            .map(|record| {
                record
                    .shards
                    .iter()
                    .map(|slice| slice.roots.len())
                    .sum::<usize>()
            })
            .sum();

        // End-to-end: one entry proven against the *on-chain* cluster root.
        let sample = cluster
            .router
            .read_by_sequence(publishers[0].address(), 0)
            .expect("read sample entry");
        let proof = cluster
            .coordinator
            .prove(&cluster.router, 0, sample.entry_id)
            .expect("assemble cluster proof");
        let on_chain = cluster
            .coordinator
            .on_chain_root(proof.epoch)
            .expect("on-chain cluster root");
        proof
            .verify(&cluster.router.node_public_key(0), &on_chain)
            .expect("two-level proof verifies against chain");

        let rate = sent as f64 / elapsed.as_secs_f64().max(1e-9);
        let speedup = rate / base_rate.unwrap_or(rate);
        if base_rate.is_none() {
            base_rate = Some(rate);
        }
        table.rows.push(vec![
            shards.to_string(),
            per_shard.to_string(),
            fmt_dur(elapsed),
            fmt_rate(rate),
            format!("{speedup:.2}×"),
            stats.epochs_committed.to_string(),
            stats.txs_submitted.to_string(),
            format!(
                "{:.2}",
                stats.txs_submitted as f64 / stats.epochs_committed.max(1) as f64
            ),
            groups.to_string(),
            format!(
                "{:.1}",
                stats.gas_total as f64 / (shards as f64 * per_shard as f64)
            ),
            "verified ✓".into(),
        ]);
    }
    table
}
