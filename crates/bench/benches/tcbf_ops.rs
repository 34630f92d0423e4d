//! Microbenchmarks of the TCBF's primitive operations — the paper's
//! "simple and fast" claims (Sections IV-B and V-A): insertion,
//! existential and preferential queries, the two merges, decay, and
//! the compressed wire codec, with classic Bloom filter operations for
//! scale. Runs on the in-tree [`bsub_bench::microbench`] harness
//! (`cargo bench -p bsub-bench --bench tcbf_ops`).

use bsub_bench::microbench::Harness;
use bsub_bloom::wire::{self, CounterMode};
use bsub_bloom::{BloomFilter, Tcbf};
use bsub_workload::keys::trend_keys;
use std::hint::black_box;

const M: usize = 256;
const K: usize = 4;
const C: u32 = 50;

fn loaded_tcbf(n: usize) -> Tcbf {
    Tcbf::from_keys(M, K, C, trend_keys().iter().take(n).map(|k| k.name))
}

fn bench_inserts(h: &mut Harness) {
    let mut bloom = BloomFilter::new(M, K);
    h.bench("insert", "bloom", || bloom.insert(black_box("NewMoon")));
    // The TCBF rejects duplicate inserts, so each iteration needs a
    // fresh filter; the clone cost is part of the measured loop.
    let empty = Tcbf::new(M, K, C);
    h.bench("insert", "tcbf_clone_and_insert", || {
        let mut f = empty.clone();
        f.insert(black_box("NewMoon")).expect("fresh");
        f
    });
}

fn bench_queries(h: &mut Harness) {
    let tcbf = loaded_tcbf(38);
    let bloom = tcbf.to_bloom();
    h.bench("query", "bloom_hit", || {
        bloom.contains(black_box("NewMoon"))
    });
    h.bench("query", "tcbf_existential_hit", || {
        tcbf.contains(black_box("NewMoon"))
    });
    h.bench("query", "tcbf_existential_miss", || {
        tcbf.contains(black_box("definitely-absent"))
    });
    h.bench("query", "tcbf_min_counter", || {
        tcbf.min_counter(black_box("NewMoon"))
    });
    let other = loaded_tcbf(20);
    h.bench("query", "tcbf_preferential", || {
        tcbf.preference(&other, black_box("NewMoon"))
            .expect("params")
    });
}

fn bench_merges(h: &mut Harness) {
    let left = loaded_tcbf(20);
    let right = loaded_tcbf(38);
    h.bench("merge", "a_merge", || {
        let mut f = left.clone();
        f.a_merge(black_box(&right)).expect("params");
        f
    });
    h.bench("merge", "m_merge", || {
        let mut f = left.clone();
        f.m_merge(black_box(&right)).expect("params");
        f
    });
    h.bench("merge", "decay", || {
        let mut f = right.clone();
        f.decay(black_box(3));
        f
    });
}

fn bench_wire(h: &mut Harness) {
    let filter = loaded_tcbf(38);
    let full = wire::encode(&filter, CounterMode::Full).expect("encodes");
    let ripped = wire::encode(&filter, CounterMode::Ripped).expect("encodes");
    h.bench("wire", "encode_full", || {
        wire::encode(black_box(&filter), CounterMode::Full).expect("encodes")
    });
    h.bench("wire", "encode_ripped", || {
        wire::encode(black_box(&filter), CounterMode::Ripped).expect("encodes")
    });
    h.bench("wire", "decode_full", || {
        wire::decode(black_box(&full)).expect("decodes")
    });
    h.bench("wire", "decode_ripped", || {
        wire::decode(black_box(&ripped)).expect("decodes")
    });
}

fn main() {
    let mut h = Harness::new();
    bench_inserts(&mut h);
    bench_queries(&mut h);
    bench_merges(&mut h);
    bench_wire(&mut h);
    h.report("tcbf_ops — TCBF primitive operations");
}
