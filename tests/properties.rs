//! Cross-crate property tests: pipeline invariants over generated inputs.

use cbvr::core::KeyframeConfig;
use cbvr::keyframe::extract_keyframes;
use cbvr::prelude::*;
use proptest::prelude::*;

fn generator(w: u32, h: u32) -> VideoGenerator {
    VideoGenerator::new(GeneratorConfig {
        width: w,
        height: h,
        shots_per_video: 2,
        min_shot_frames: 3,
        max_shot_frames: 5,
        ..GeneratorConfig::default()
    })
    .unwrap()
}

fn arb_category() -> impl Strategy<Value = Category> {
    prop_oneof![
        Just(Category::ELearning),
        Just(Category::Sports),
        Just(Category::Cartoon),
        Just(Category::Movie),
        Just(Category::News),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn vsc_round_trips_every_codec_and_category(
        category in arb_category(),
        seed in 0u64..1000,
        codec in prop_oneof![Just(FrameCodec::Raw), Just(FrameCodec::Rle), Just(FrameCodec::Delta)],
    ) {
        let clip = generator(40, 30).generate(category, seed).unwrap();
        let bytes = encode_vsc(&clip, codec);
        let back = decode_vsc(&bytes).unwrap();
        prop_assert_eq!(back, clip);
    }

    #[test]
    fn keyframes_are_strictly_increasing_and_bounded(
        category in arb_category(),
        seed in 0u64..1000,
        threshold in 0.0f64..3000.0,
    ) {
        let clip = generator(40, 30).generate(category, seed).unwrap();
        let config = KeyframeConfig { threshold };
        let kfs = extract_keyframes(&clip, &config);
        prop_assert!(!kfs.is_empty(), "at least one key frame always survives");
        prop_assert!(kfs.len() <= clip.frame_count());
        prop_assert_eq!(kfs[0].index, 0, "the first frame anchors the first run");
        for pair in kfs.windows(2) {
            prop_assert!(pair[0].index < pair[1].index);
        }
    }

    #[test]
    fn feature_strings_round_trip_for_generated_frames(
        category in arb_category(),
        seed in 0u64..1000,
    ) {
        let clip = generator(40, 30).generate(category, seed).unwrap();
        let set = FeatureSet::extract(clip.frame(0).unwrap());
        let strings = set.to_feature_strings();
        let back = FeatureSet::from_feature_strings(
            strings.iter().map(|(k, s)| (*k, s.as_str())),
        ).unwrap();
        for kind in FeatureKind::ALL {
            prop_assert!(set.distance(&back, kind) < 1e-9, "{} drifted", kind);
        }
    }

    #[test]
    fn query_scores_are_sorted_and_bounded(
        category in arb_category(),
        probe_category in arb_category(),
        seed in 0u64..100,
    ) {
        let g = generator(40, 30);
        let mut db = CbvrDatabase::in_memory().unwrap();
        let clip = g.generate(category, seed).unwrap();
        ingest_video(&mut db, "v", &clip, &IngestConfig::default()).unwrap();
        let engine = QueryEngine::from_database(&mut db).unwrap();

        let probe = g.generate(probe_category, seed + 5000).unwrap();
        let results = engine.query_frame(
            probe.frame(0).unwrap(),
            &QueryOptions { k: 50, use_index: false, ..Default::default() },
        );
        prop_assert!(!results.is_empty());
        for m in &results {
            prop_assert!((0.0..=1.0).contains(&m.score), "score {}", m.score);
        }
        for pair in results.windows(2) {
            prop_assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn index_pruning_never_invents_results(
        category in arb_category(),
        seed in 0u64..100,
    ) {
        let g = generator(40, 30);
        let mut db = CbvrDatabase::in_memory().unwrap();
        for s in 0..2u64 {
            let clip = g.generate(category, seed + s).unwrap();
            ingest_video(&mut db, &format!("v{s}"), &clip, &IngestConfig::default()).unwrap();
        }
        let engine = QueryEngine::from_database(&mut db).unwrap();
        let probe = g.generate(category, seed + 900).unwrap();
        let frame = probe.frame(0).unwrap();

        let pruned: Vec<u64> = engine
            .query_frame(frame, &QueryOptions { k: 100, use_index: true, ..Default::default() })
            .into_iter()
            .map(|m| m.i_id)
            .collect();
        let full: std::collections::HashSet<u64> = engine
            .query_frame(frame, &QueryOptions { k: 100, use_index: false, ..Default::default() })
            .into_iter()
            .map(|m| m.i_id)
            .collect();
        for i_id in &pruned {
            prop_assert!(full.contains(i_id), "pruned result {i_id} not in the full ranking");
        }
    }

    #[test]
    fn ingest_is_deterministic(
        category in arb_category(),
        seed in 0u64..100,
    ) {
        let g = generator(40, 30);
        let clip = g.generate(category, seed).unwrap();
        let mut db1 = CbvrDatabase::in_memory().unwrap();
        let mut db2 = CbvrDatabase::in_memory().unwrap();
        let r1 = ingest_video(&mut db1, "v", &clip, &IngestConfig::default()).unwrap();
        let r2 = ingest_video(&mut db2, "v", &clip, &IngestConfig::default()).unwrap();
        prop_assert_eq!(&r1.keyframe_indices, &r2.keyframe_indices);
        prop_assert_eq!(&r1.ranges, &r2.ranges);
        // Stored rows are byte-identical.
        let row1 = db1.get_key_frame(r1.keyframe_ids[0]).unwrap();
        let row2 = db2.get_key_frame(r2.keyframe_ids[0]).unwrap();
        prop_assert_eq!(row1.sch, row2.sch);
        prop_assert_eq!(row1.gabor, row2.gabor);
        prop_assert_eq!(row1.min, row2.min);
        prop_assert_eq!(row1.max, row2.max);
    }
}

// ---- pure-kernel properties (no corpus generation) ---------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dtw_is_symmetric_and_nonnegative(
        a in proptest::collection::vec(-100.0f64..100.0, 1..20),
        b in proptest::collection::vec(-100.0f64..100.0, 1..20),
    ) {
        use cbvr::core::dtw::dtw_distance;
        let d_ab = dtw_distance(&a, &b, |x, y| (x - y).abs());
        let d_ba = dtw_distance(&b, &a, |x, y| (x - y).abs());
        prop_assert!((d_ab - d_ba).abs() < 1e-9, "{d_ab} vs {d_ba}");
        prop_assert!(d_ab >= 0.0);
        // Identity.
        prop_assert!(dtw_distance(&a, &a, |x, y| (x - y).abs()) < 1e-12);
    }

    #[test]
    fn combined_weights_stay_in_unit_interval(
        sims in proptest::collection::vec(0.0f64..1.0, 7),
        raw_weights in proptest::collection::vec(0.0f64..10.0, 7),
    ) {
        let pairs: Vec<(FeatureKind, f64)> = FeatureKind::ALL
            .iter()
            .zip(&raw_weights)
            .map(|(&k, &w)| (k, w))
            .collect();
        let weights = FeatureWeights::from_pairs(&pairs);
        let sim_of = |kind: FeatureKind| {
            let idx = FeatureKind::ALL.iter().position(|&k| k == kind).unwrap();
            sims[idx]
        };
        let combined = weights.combine(sim_of);
        prop_assert!((0.0..=1.0).contains(&combined), "combined {combined}");
        // Bounded by the extreme similarities when any weight is active.
        if weights.total() > 0.0 {
            let lo = sims.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = sims.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(combined >= lo - 1e-9 && combined <= hi + 1e-9);
        }
    }

    #[test]
    fn range_keys_partition_under_paper_finder(
        intensities in proptest::collection::vec(any::<u8>(), 1..200),
    ) {
        use cbvr::imgproc::Histogram256;
        use cbvr::index::paper_range;
        let mut h = Histogram256::new();
        for v in &intensities {
            h.record(*v);
        }
        let r = paper_range(&h);
        // The produced range is one of Fig. 7's dyadic nodes.
        prop_assert!(matches!(r.width(), 32 | 64 | 128), "width {}", r.width());
        prop_assert_eq!(r.min as u16 % r.width(), 0, "alignment");
        // And it always overlaps itself and the full axis.
        prop_assert!(r.overlaps(r));
        prop_assert!(cbvr::index::RangeKey::new(0, 255).contains(r));
    }

    #[test]
    fn vjp_quality_ladder_is_monotone_in_size(
        seed in any::<u64>(),
    ) {
        use cbvr::imgproc::codec::vjp;
        // A deterministic photo-like frame from the seed.
        let img = RgbImage::from_fn(40, 32, |x, y| {
            let s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Rgb::new(
                (128.0 + 80.0 * ((x as f64) * 0.3 + s as f64 % 7.0).sin()) as u8,
                (128.0 + 60.0 * ((y as f64) * 0.2 + s as f64 % 5.0).cos()) as u8,
                ((x * y) as u8).wrapping_add(s as u8),
            )
        })
        .unwrap();
        let lo = vjp::encode(&img, 10);
        let hi = vjp::encode(&img, 95);
        prop_assert!(lo.len() <= hi.len(), "lo {} hi {}", lo.len(), hi.len());
        // Both decode to the right dimensions.
        prop_assert_eq!(vjp::decode(&lo).unwrap().dimensions(), (40, 32));
        prop_assert_eq!(vjp::decode(&hi).unwrap().dimensions(), (40, 32));
    }
}
