//! Criterion benches for the cryptographic hot path: hashing, signing,
//! verification, recovery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use wedge_crypto::ecdsa::{recover_prehashed, sign_prehashed, verify_prehashed};
use wedge_crypto::hash::{keccak256, sha256};
use wedge_crypto::Keypair;

fn bench_hashes(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash");
    for size in [32usize, 1088, 16 * 1024] {
        let data = vec![0xABu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("keccak256", size), &data, |b, d| {
            b.iter(|| keccak256(d))
        });
        group.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| sha256(d))
        });
    }
    group.finish();
}

fn bench_ecdsa(c: &mut Criterion) {
    let kp = Keypair::from_seed(b"bench");
    let hash = keccak256(b"bench message");
    let sig = sign_prehashed(&kp.secret, &hash);
    let mut group = c.benchmark_group("ecdsa");
    group.bench_function("sign", |b| b.iter(|| sign_prehashed(&kp.secret, &hash)));
    group.bench_function("verify", |b| {
        b.iter(|| verify_prehashed(&kp.public, &hash, &sig).unwrap())
    });
    group.bench_function("recover", |b| {
        b.iter(|| recover_prehashed(&hash, &sig).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_hashes, bench_ecdsa);
criterion_main!(benches);
