//! Bench: the scalar f64 scoring tier vs the vectorized f32 batch tier
//! on the same columnar scan, across store sizes. Both sides set their
//! `ScoringMode` explicitly; `Batched` is what every search runs by
//! default, `Scalar` is the reference tier kept for this comparison and
//! the equivalence tests.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tsm_bench::{build_bundle, BundleConfig};
use tsm_core::batch::ScoringMode;
use tsm_core::matcher::{Matcher, QuerySubseq, SearchOptions};
use tsm_core::Params;
use tsm_db::SubseqRef;
use tsm_model::SegmenterConfig;
use tsm_signal::CohortConfig;

fn bench_scoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("scoring");
    group.sample_size(20);

    for n_patients in [6usize, 12, 24, 60] {
        let bundle = build_bundle(&BundleConfig {
            cohort: CohortConfig {
                n_patients,
                sessions_per_patient: 2,
                streams_per_session: 2,
                stream_duration_s: 120.0,
                dim: 1,
                seed: 7,
            },
            segmenter: SegmenterConfig::default(),
        });
        let matcher = Matcher::new(bundle.store.clone(), Params::default());
        let first = bundle.store.streams()[0].meta.id;
        let view = bundle
            .store
            .resolve(SubseqRef::new(first, 3, 9))
            .expect("stream long enough");
        let query = QuerySubseq::from_view(&view);

        for (name, scoring) in [
            ("scalar", ScoringMode::Scalar),
            ("batched", ScoringMode::Batched),
        ] {
            let options = SearchOptions {
                scoring,
                ..Default::default()
            };
            group.bench_with_input(
                BenchmarkId::new(name, format!("{n_patients}p")),
                &query,
                |b, q| b.iter(|| black_box(matcher.find_matches_with(black_box(q), &options))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scoring);
criterion_main!(benches);
