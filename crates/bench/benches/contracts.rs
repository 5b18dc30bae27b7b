//! Criterion benches for contract execution: the `Update-Records` call at
//! different digest-group sizes (the minimum-writing / batching ablation
//! behind Figure 3 right) and the punishment verification path.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wedge_chain::{Chain, Gas, Wei};
use wedge_contracts::{attestation_digest, response_digest, Punishment, RootRecord};
use wedge_crypto::ecdsa::sign_prehashed;
use wedge_crypto::hash::Hash32;
use wedge_crypto::Keypair;
use wedge_merkle::MerkleTree;
use wedge_sim::Clock;

fn world() -> (Arc<Chain>, Keypair) {
    let chain = Chain::with_defaults(Clock::manual());
    let node = Keypair::from_seed(b"contract-bench");
    chain.fund(node.address, Wei::from_eth(1_000_000));
    (chain, node)
}

fn bench_update_records(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_records_submit_and_mine");
    group.sample_size(20);
    for group_size in [1usize, 4, 16, 64] {
        group.bench_with_input(
            BenchmarkId::from_parameter(group_size),
            &group_size,
            |b, &group_size| {
                b.iter_batched(
                    || {
                        let (chain, node) = world();
                        let (addr, _) = chain
                            .deploy(
                                &node.secret,
                                Box::new(RootRecord::new(node.address)),
                                Wei::ZERO,
                                RootRecord::CODE_LEN,
                            )
                            .unwrap();
                        chain.mine_block();
                        let roots: Vec<Hash32> =
                            (0..group_size).map(|i| Hash32([i as u8 + 1; 32])).collect();
                        (chain, node, addr, roots)
                    },
                    |(chain, node, addr, roots)| {
                        chain
                            .call_contract(
                                &node.secret,
                                addr,
                                Wei::ZERO,
                                RootRecord::update_records_calldata(0, &roots),
                                Gas(10_000_000),
                            )
                            .unwrap();
                        chain.mine_block()
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_invoke_punishment(c: &mut Criterion) {
    // The full on-chain fraud-verification path: ecrecover + cross-contract
    // root lookup + Merkle reconstruction.
    let mut group = c.benchmark_group("invoke_punishment");
    group.sample_size(20);
    group.bench_function("honest_response_no_payout", |b| {
        b.iter_batched(
            || {
                let (chain, node) = world();
                let client = Keypair::from_seed(b"pb-client");
                chain.fund(client.address, Wei::from_eth(100));
                let (rr, _) = chain
                    .deploy(
                        &node.secret,
                        Box::new(RootRecord::new(node.address)),
                        Wei::ZERO,
                        RootRecord::CODE_LEN,
                    )
                    .unwrap();
                let (pun, _) = chain
                    .deploy(
                        &node.secret,
                        Box::new(Punishment::new(client.address, node.address, rr)),
                        Wei::from_eth(10),
                        Punishment::CODE_LEN,
                    )
                    .unwrap();
                chain.mine_block();
                let batch: Vec<Vec<u8>> =
                    (0..64).map(|i| format!("entry-{i}").into_bytes()).collect();
                let tree = MerkleTree::from_leaves(&batch).unwrap();
                chain
                    .call_contract(
                        &node.secret,
                        rr,
                        Wei::ZERO,
                        RootRecord::update_records_calldata(0, &[tree.root()]),
                        Gas(1_000_000),
                    )
                    .unwrap();
                chain.mine_block();
                let proof = tree.prove(3).unwrap().to_bytes();
                // Signed on its own: a single-leaf attestation.
                let digest = response_digest(0, &tree.root(), &proof, &batch[3]);
                let attestation = MerkleTree::from_leaves(&[digest])
                    .unwrap()
                    .prove(0)
                    .unwrap();
                let sig = sign_prehashed(
                    &node.secret,
                    &attestation_digest(&attestation.compute_root(&digest)),
                );
                let calldata = Punishment::invoke_calldata(
                    0,
                    &tree.root(),
                    &proof,
                    &batch[3],
                    &sig,
                    &attestation.to_bytes(),
                );
                (chain, client, pun, calldata)
            },
            |(chain, client, pun, calldata)| {
                chain
                    .call_contract(&client.secret, pun, Wei::ZERO, calldata, Gas(5_000_000))
                    .unwrap();
                chain.mine_block()
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_update_records, bench_invoke_punishment);
criterion_main!(benches);
