//! Property-based tests over the core data structures and invariants.
//!
//! Hand-rolled randomized properties (the build is offline, so no
//! proptest): each property runs a few hundred seeded-deterministic
//! random cases and asserts the invariant with the failing case in the
//! panic message.

use afex::core::queues::{PrioEntry, PriorityQueue};
use afex::core::{
    cluster_traces, cluster_traces_naive, levenshtein, levenshtein_bounded, levenshtein_reference,
    ClusterIndex, DiscreteGaussian,
};
use afex::space::{manhattan, Axis, FaultSpace, Point, PointCodec, Vicinity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `cases` deterministic random cases of a property.
fn check(cases: usize, seed: u64, mut prop: impl FnMut(&mut StdRng, usize)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        prop(&mut rng, case);
    }
}

/// A small random fault space (1–4 axes, 1–8 values each) and one valid
/// point inside it.
fn space_and_point(rng: &mut StdRng) -> (FaultSpace, Point) {
    let arity = rng.gen_range(1..4usize);
    let lens: Vec<usize> = (0..arity).map(|_| rng.gen_range(1..8usize)).collect();
    let axes: Vec<Axis> = lens
        .iter()
        .enumerate()
        .map(|(i, &n)| Axis::int_range(format!("a{i}"), 0, n as i64 - 1))
        .collect();
    let attrs: Vec<usize> = lens.iter().map(|&n| rng.gen_range(0..n)).collect();
    (FaultSpace::new(axes).unwrap(), Point::new(attrs))
}

/// A random string over `alphabet`, up to `max_len` scalars.
fn rand_string(rng: &mut StdRng, alphabet: &[char], max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

const ASCII: &[char] = &['a', 'b', 'c', 'd', '>', '_', 'x', '0'];
const UNICODE: &[char] = &['a', 'é', '→', '日', '本', '😀', '>', 'ß'];

#[test]
fn linear_index_roundtrips() {
    check(300, 1, |rng, _| {
        let (space, point) = space_and_point(rng);
        let idx = space.linear_index(&point).unwrap();
        assert!(idx < space.len());
        assert_eq!(space.point_at(idx).unwrap(), point);
    });
}

#[test]
fn point_codec_matches_linear_index() {
    check(300, 2, |rng, _| {
        let (space, point) = space_and_point(rng);
        let codec = PointCodec::for_space(&space).expect("small spaces always fit u64");
        let code = codec.encode(&point);
        assert_eq!(code, space.linear_index(&point).unwrap());
        assert_eq!(codec.decode(code), point);
    });
}

#[test]
fn manhattan_is_a_metric() {
    check(500, 3, |rng, _| {
        let v = |rng: &mut StdRng| -> Point {
            Point::new((0..3).map(|_| rng.gen_range(0..50usize)).collect())
        };
        let (pa, pb, pc) = (v(rng), v(rng), v(rng));
        // Identity.
        assert_eq!(manhattan(&pa, &pa), 0);
        // Symmetry.
        assert_eq!(manhattan(&pa, &pb), manhattan(&pb, &pa));
        // Triangle inequality.
        assert!(manhattan(&pa, &pc) <= manhattan(&pa, &pb) + manhattan(&pb, &pc));
        // Zero distance implies equality.
        if manhattan(&pa, &pb) == 0 {
            assert_eq!(pa, pb);
        }
    });
}

#[test]
fn vicinity_matches_brute_force() {
    check(150, 4, |rng, _| {
        let (space, point) = space_and_point(rng);
        let d = rng.gen_range(0..6u64);
        let via_iter: std::collections::HashSet<Point> =
            Vicinity::new(&space, &point, d).collect();
        let brute: std::collections::HashSet<Point> = space
            .iter_points()
            .filter(|p| manhattan(p, &point) <= d)
            .collect();
        assert_eq!(via_iter, brute);
    });
}

#[test]
fn levenshtein_is_a_metric() {
    check(400, 5, |rng, _| {
        let alphabet = if rng.gen_bool(0.5) { ASCII } else { UNICODE };
        let a = rand_string(rng, alphabet, 12);
        let b = rand_string(rng, alphabet, 12);
        let c = rand_string(rng, alphabet, 12);
        assert_eq!(levenshtein(&a, &a), 0);
        assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        // Bounds: |len(a) - len(b)| <= d <= max(len).
        let (la, lb) = (a.chars().count(), b.chars().count());
        let d = levenshtein(&a, &b);
        assert!(d >= la.abs_diff(lb));
        assert!(d <= la.max(lb));
    });
}

#[test]
fn bit_parallel_levenshtein_matches_reference_dp() {
    // ASCII and multi-byte Unicode, short and past the 64-scalar block
    // boundary (the multi-block carry path).
    check(400, 6, |rng, case| {
        let alphabet = if case % 2 == 0 { ASCII } else { UNICODE };
        let max = if case % 5 == 0 { 150 } else { 40 };
        let a = rand_string(rng, alphabet, max);
        let b = rand_string(rng, alphabet, max);
        assert_eq!(
            levenshtein(&a, &b),
            levenshtein_reference(&a, &b),
            "a={a:?} b={b:?}"
        );
    });
}

#[test]
fn bounded_levenshtein_honors_the_k_contract() {
    // Some(d) with d == reference iff reference <= k; None otherwise.
    check(400, 7, |rng, case| {
        let alphabet = if case % 2 == 0 { ASCII } else { UNICODE };
        let a = rand_string(rng, alphabet, 30);
        let b = rand_string(rng, alphabet, 30);
        let d = levenshtein_reference(&a, &b);
        let k = rng.gen_range(0..=32usize);
        let got = levenshtein_bounded(&a, &b, k);
        if d <= k {
            assert_eq!(got, Some(d), "a={a:?} b={b:?} k={k}");
        } else {
            assert_eq!(got, None, "a={a:?} b={b:?} d={d} k={k}");
        }
    });
}

/// Random trace corpus mixing duplicates, near-duplicates, and unrelated
/// paths — the shapes redundancy clustering actually sees.
fn rand_traces(rng: &mut StdRng) -> Vec<String> {
    let n = rng.gen_range(0..40usize);
    let stems = ["main>f>g", "main>net>recv", "boot>init", "a>b"];
    (0..n)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => stems[rng.gen_range(0..stems.len())].to_string(),
            1 => {
                let mut s = stems[rng.gen_range(0..stems.len())].to_string();
                for _ in 0..rng.gen_range(1..4usize) {
                    s.push(['x', 'y', 'z'][rng.gen_range(0..3usize)]);
                }
                s
            }
            _ => rand_string(rng, ASCII, 16),
        })
        .collect()
}

#[test]
fn indexed_max_similarity_matches_naive_bitwise() {
    // The best-first band traversal must produce weights bit-for-bit
    // identical to the retained linear scan, on ASCII and multi-byte
    // corpora, probes drawn from the store and novel, and empty traces.
    use afex::core::RedundancyFeedback;
    check(250, 21, |rng, case| {
        let alphabet = if case % 2 == 0 { ASCII } else { UNICODE };
        let mut fb = RedundancyFeedback::new();
        let corpus: Vec<String> = rand_traces(rng)
            .into_iter()
            .chain((0..rng.gen_range(0..10usize)).map(|_| rand_string(rng, alphabet, 24)))
            .collect();
        for t in &corpus {
            fb.record(t);
        }
        let mut probes: Vec<String> = (0..8).map(|_| rand_string(rng, alphabet, 24)).collect();
        probes.push(String::new());
        if let Some(t) = corpus.first() {
            probes.push(t.clone()); // Exact-duplicate path.
        }
        for probe in &probes {
            let fast = fb.max_similarity(probe);
            let slow = fb.max_similarity_naive(probe);
            assert_eq!(
                fast.to_bits(),
                slow.to_bits(),
                "probe={probe:?} corpus={corpus:?}"
            );
            assert_eq!(fb.weight(probe).to_bits(), fb.weight_naive(probe).to_bits());
        }
    });
}

#[test]
fn indexed_max_similarity_matches_naive_on_large_seeded_stores() {
    // The campaign regime: a store pre-seeded with thousands of traces
    // (mixed length clusters plus all-distinct tails), probed by near
    // duplicates and novel traces. Bit-for-bit against the linear scan.
    use afex::core::{RedundancyFeedback, TraceStore};
    let mut rng = StdRng::seed_from_u64(22);
    let mut store = TraceStore::new();
    for i in 0..3_000usize {
        let t = match i % 3 {
            0 => format!("main>mod_{:02}>fn_{:03}", i % 23, i % 151),
            1 => format!("boot>init>{}{}", "x".repeat(i % 37), i % 11),
            _ => rand_string(&mut rng, if i % 6 == 2 { UNICODE } else { ASCII }, 40),
        };
        store.intern(&t);
    }
    let fb = RedundancyFeedback::from_store(store);
    for case in 0..300 {
        let probe = match case % 4 {
            // Near-duplicate of a stored shape.
            0 => format!("main>mod_{:02}>fn_{:03}x", case % 23, case % 151),
            // Exactly a stored shape.
            1 => format!("boot>init>{}{}", "x".repeat(case % 37), case % 11),
            2 => rand_string(&mut rng, UNICODE, 60),
            _ => rand_string(&mut rng, ASCII, 60),
        };
        assert_eq!(
            fb.max_similarity(&probe).to_bits(),
            fb.max_similarity_naive(&probe).to_bits(),
            "probe={probe:?}"
        );
    }
    // Empty-probe edge against the large store.
    assert_eq!(
        fb.max_similarity("").to_bits(),
        fb.max_similarity_naive("").to_bits()
    );
}

/// A length-uniform corpus: every trace has exactly `len` scalars, so
/// the store's length bands prune nothing and only the signature
/// prefilter separates candidates — the adversarial regime for the
/// skip bound. Includes near-threshold pairs (a base trace with 1–3
/// substitutions) in both ASCII and multibyte alphabets.
fn length_uniform_corpus(rng: &mut StdRng, alphabet: &[char], len: usize, n: usize) -> Vec<String> {
    let fresh = |rng: &mut StdRng| -> Vec<char> {
        (0..len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect()
    };
    let mut corpus: Vec<Vec<char>> = vec![fresh(rng)];
    while corpus.len() < n {
        let mut t = if rng.gen_bool(0.6) {
            // Substitution-mutant of an existing trace: its true edit
            // distance to the base sits right at the skip threshold.
            corpus[rng.gen_range(0..corpus.len())].clone()
        } else {
            fresh(rng)
        };
        for _ in 0..rng.gen_range(1..4usize) {
            if len > 0 {
                t[rng.gen_range(0..len)] = alphabet[rng.gen_range(0..alphabet.len())];
            }
        }
        corpus.push(t);
    }
    corpus.into_iter().map(|t| t.into_iter().collect()).collect()
}

#[test]
fn prefiltered_similarity_matches_naive_on_length_uniform_corpora() {
    // Banding cannot separate a length-uniform corpus, so every skip in
    // this test is the signature bound's doing — weights must still be
    // bit-for-bit identical to the linear scan, for stored, mutated,
    // novel, and empty probes.
    use afex::core::RedundancyFeedback;
    check(120, 31, |rng, case| {
        let alphabet = if case % 2 == 0 { ASCII } else { UNICODE };
        let len = rng.gen_range(0..24usize);
        let n = rng.gen_range(2..40usize);
        let corpus = length_uniform_corpus(rng, alphabet, len, n);
        let mut fb = RedundancyFeedback::new();
        for t in &corpus {
            fb.record(t);
        }
        let mut probes: Vec<String> = Vec::new();
        probes.push(corpus[0].clone()); // Exact duplicate.
        probes.push(String::new()); // Empty probe vs uniform band.
        for _ in 0..6 {
            // Same-length mutants and novel strings, the near-threshold
            // cases where an unsound bound would skip the true best.
            let mut t: Vec<char> = corpus[rng.gen_range(0..corpus.len())].chars().collect();
            if !t.is_empty() {
                let at = rng.gen_range(0..t.len());
                t[at] = alphabet[rng.gen_range(0..alphabet.len())];
            }
            probes.push(t.into_iter().collect());
            probes.push(rand_string(rng, alphabet, len.max(1)));
        }
        for probe in &probes {
            assert_eq!(
                fb.max_similarity(probe).to_bits(),
                fb.max_similarity_naive(probe).to_bits(),
                "probe={probe:?} corpus={corpus:?}"
            );
        }
    });
}

#[test]
fn prefiltered_clustering_matches_naive_on_length_uniform_corpora() {
    // Same adversarial regime for the cluster index's band probe: the
    // signature skip may only drop candidates the bounded Levenshtein
    // would reject anyway, so cluster assignments never move.
    check(120, 32, |rng, case| {
        let alphabet = if case % 2 == 0 { ASCII } else { UNICODE };
        let len = rng.gen_range(0..16usize);
        let n = rng.gen_range(2..30usize);
        let traces = length_uniform_corpus(rng, alphabet, len, n);
        // Thresholds straddling the 1–3 substitutions the corpus plants.
        let threshold = rng.gen_range(0..6usize);
        assert_eq!(
            cluster_traces(&traces, threshold),
            cluster_traces_naive(&traces, threshold),
            "traces={traces:?} threshold={threshold}"
        );
        let mut idx = ClusterIndex::new(threshold);
        for t in &traces {
            idx.insert(t);
        }
        assert_eq!(
            idx.clusters(),
            cluster_traces_naive(&traces, threshold),
            "online insertion, traces={traces:?} threshold={threshold}"
        );
    });
}

#[test]
fn snapshot_reload_preserves_signatures_byte_identically() {
    // The persisted trace index must reload with signatures equal to
    // recomputing them from the texts — and without recomputing them
    // (zero decode passes on an intact index).
    use afex::core::{CampaignSnapshot, TraceSig};
    check(60, 33, |rng, _| {
        let snap = rand_snapshot(rng);
        let mut back = CampaignSnapshot::from_json(&snap.to_json()).expect("snapshot parses");
        back.ensure_trace_index();
        assert_eq!(back.trace_index().decodes(), 0, "reload must be decode-free");
        for (target, store) in back.trace_index().stores() {
            for (id, text) in store.texts().enumerate() {
                let (expect, expect_len) = TraceSig::of_text(text);
                assert_eq!(
                    store.sig(id).to_hex(),
                    expect.to_hex(),
                    "target={target} trace={text:?}"
                );
                assert_eq!(store.scalar_len(id), expect_len);
            }
        }
        assert_eq!(back.to_json(), snap.to_json());
    });
}

#[test]
fn chain_store_extension_is_incremental() {
    // A chain's TraceSeeds store extended outcome-by-outcome must equal
    // the store rebuilt from scratch over the same prefix — same texts,
    // same first-seen order — and interning must share the records'
    // allocations instead of copying bytes.
    use afex::campaign::TraceSeeds;
    use afex::core::{CellOutcome, FailureRecord};
    check(150, 23, |rng, _| {
        let outcomes: Vec<CellOutcome> = (0..rng.gen_range(1..5usize))
            .map(|cell| {
                let records: Vec<FailureRecord> = (0..rng.gen_range(0..8usize))
                    .map(|k| FailureRecord {
                        code: k as u64,
                        point: Point::new(vec![k]),
                        impact: 1.0,
                        crashed: false,
                        hung: false,
                        trace: if rng.gen_bool(0.8) {
                            Some(rand_string(rng, ASCII, 10).into())
                        } else {
                            None
                        },
                        cell,
                    })
                    .collect();
                CellOutcome {
                    tests: records.len(),
                    failures: records.len(),
                    crashes: 0,
                    hangs: 0,
                    records,
                }
            })
            .collect();
        // The chain path: each cell extends a clone of its predecessor's
        // store (clones share interned texts by refcount).
        let mut incremental = TraceSeeds::new();
        for o in &outcomes {
            incremental = incremental.clone();
            incremental.absorb(o);
        }
        // The resume path: one fresh store absorbs the whole prefix.
        let mut batch = TraceSeeds::new();
        for o in &outcomes {
            batch.absorb(o);
        }
        assert_eq!(
            incremental.traces().collect::<Vec<_>>(),
            batch.traces().collect::<Vec<_>>()
        );
        // Shared allocations: every interned text is pointer-equal to
        // some record's Arc handle.
        for text in incremental.store().texts() {
            let shared = outcomes.iter().flat_map(|o| &o.records).any(|r| {
                r.trace
                    .as_ref()
                    .is_some_and(|t| std::sync::Arc::ptr_eq(t, text))
            });
            assert!(shared, "trace {text:?} was copied, not shared");
        }
    });
}

#[test]
fn indexed_clustering_matches_naive_all_pairs() {
    check(250, 8, |rng, _| {
        let traces = rand_traces(rng);
        let threshold = rng.gen_range(0..7usize);
        assert_eq!(
            cluster_traces(&traces, threshold),
            cluster_traces_naive(&traces, threshold),
            "traces={traces:?} threshold={threshold}"
        );
    });
}

#[test]
fn online_insertion_matches_batch_clustering() {
    check(250, 9, |rng, _| {
        let traces = rand_traces(rng);
        let threshold = rng.gen_range(0..7usize);
        let mut idx = ClusterIndex::new(threshold);
        for t in &traces {
            idx.insert(t);
        }
        assert_eq!(
            idx.clusters(),
            cluster_traces_naive(&traces, threshold),
            "traces={traces:?} threshold={threshold}"
        );
    });
}

#[test]
fn gaussian_samples_stay_in_range() {
    check(300, 10, |rng, _| {
        let n = rng.gen_range(1..200usize);
        let center = rng.gen_range(0..n);
        let g = DiscreteGaussian::paper(n);
        for _ in 0..32 {
            assert!(g.sample(center, rng) < n);
        }
        let distinct = g.sample_distinct(center, rng);
        assert!(distinct < n);
        if n > 1 {
            assert_ne!(distinct, center);
        }
    });
}

#[test]
fn parser_accepts_generated_descriptors() {
    check(200, 11, |rng, _| {
        let nsets = rng.gen_range(1..4usize);
        let lo = rng.gen_range(1..50i64);
        let span = rng.gen_range(0..50i64);
        let mut text = String::new();
        for i in 0..nsets {
            text.push_str(&format!(
                "function : {{ f{i}, g{i} }}\ncallNumber : [ {lo} , {} ] ;\n",
                lo + span
            ));
        }
        let desc = afex::space::parse(&text).unwrap();
        assert_eq!(desc.subspaces().len(), nsets);
        assert_eq!(desc.total_points(), nsets as u64 * 2 * (span as u64 + 1));
    });
}

#[test]
fn shuffle_is_a_bijection() {
    use afex::space::AxisShuffle;
    check(300, 12, |rng, _| {
        let n = rng.gen_range(2..30usize);
        let space = FaultSpace::new(vec![Axis::int_range("x", 0, n as i64 - 1)]).unwrap();
        let sh = AxisShuffle::random(&space, 0, rng);
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            let q = sh.apply(&Point::new(vec![i]));
            assert!(q[0] < n);
            assert!(seen.insert(q[0]));
            assert_eq!(sh.unapply(&q), Point::new(vec![i]));
        }
    });
}

/// A random synthetic impact surface: a ridge along a random column plus
/// a sprinkling of isolated spikes — enough structure for the fitness
/// search to engage, deterministic in the case's parameters.
fn rand_surface(rng: &mut StdRng) -> impl Fn(&Point) -> f64 + Clone + Send + Sync {
    let ridge_axis = rng.gen_range(0..2usize);
    let ridge_val = rng.gen_range(0..6usize);
    let spike = rng.gen_range(0..36usize);
    move |p: &Point| {
        if p[ridge_axis] == ridge_val {
            10.0
        } else if (p[0] * 7 + p[1]) % 36 == spike {
            3.0
        } else {
            0.0
        }
    }
}

#[test]
fn engine_matches_the_legacy_sequential_drivers() {
    // The unified engine must be bit-identical to the retained
    // per-strategy sequential drivers, for all four strategies, across
    // randomized spaces, seeds, and budgets. (The legacy GA driver is
    // the self-driving generational loop; the other three step their
    // explorers directly.)
    use afex::core::legacy::LegacyGeneticExplorer;
    use afex::core::{
        ExhaustiveExplorer, ExplorerConfig, FitnessExplorer, FnEvaluator, GeneticConfig,
        RandomExplorer, SearchStrategy, Session, StopCondition,
    };
    check(24, 27, |rng, _| {
        let w = rng.gen_range(6..12usize);
        let h = rng.gen_range(6..12usize);
        // Strictly below the space size: the legacy GA driver spins
        // forever on an exhausted space (one of the reasons it is an
        // oracle, not the production path).
        let budget = rng.gen_range(1..w * h * 2 / 3);
        let seed = rng.gen_range(0..1000u64);
        let space = FaultSpace::new(vec![
            Axis::int_range("x", 0, w as i64 - 1),
            Axis::int_range("y", 0, h as i64 - 1),
        ])
        .unwrap();
        let surface = rand_surface(rng);
        let eval = FnEvaluator::new(surface);
        let engine_run = |strategy: SearchStrategy| {
            Session::new(space.clone(), strategy, seed)
                .run(&eval, StopCondition::Iterations(budget))
        };
        let fit = FitnessExplorer::new(space.clone(), ExplorerConfig::default(), seed)
            .run(&eval, budget);
        assert_eq!(
            engine_run(SearchStrategy::Fitness(ExplorerConfig::default())),
            fit,
            "fitness diverged (w={w} h={h} seed={seed} budget={budget})"
        );
        assert_eq!(
            engine_run(SearchStrategy::Random),
            RandomExplorer::new(space.clone(), seed).run(&eval, budget),
            "random diverged (w={w} h={h} seed={seed} budget={budget})"
        );
        assert_eq!(
            engine_run(SearchStrategy::Exhaustive),
            ExhaustiveExplorer::new(space.clone()).run(&eval, budget),
            "exhaustive diverged (w={w} h={h} seed={seed} budget={budget})"
        );
        assert_eq!(
            engine_run(SearchStrategy::Genetic(GeneticConfig::default())),
            LegacyGeneticExplorer::new(space.clone(), GeneticConfig::default(), seed)
                .run(&eval, budget),
            "genetic diverged (w={w} h={h} seed={seed} budget={budget})"
        );
    });
}

#[test]
fn parallel_engine_with_one_worker_equals_sequential_byte_for_byte() {
    // A 1-worker pool has a 1-wide in-flight window: the generate /
    // complete call sequence is exactly the sequential engine's, so the
    // session logs must serialize to identical bytes — whichever
    // strategy is driven.
    use afex::cluster::ParallelSession;
    use afex::core::{
        ExplorerConfig, FnEvaluator, GeneticConfig, SearchStrategy, Session, StopCondition,
        TraceStore,
    };
    check(12, 29, |rng, case| {
        let n = rng.gen_range(6..12i64);
        let budget = rng.gen_range(1..50usize);
        let seed = rng.gen_range(0..1000u64);
        let space = FaultSpace::new(vec![
            Axis::int_range("x", 0, n - 1),
            Axis::int_range("y", 0, n - 1),
        ])
        .unwrap();
        let strategy = match case % 4 {
            0 => SearchStrategy::Fitness(ExplorerConfig::default()),
            1 => SearchStrategy::Random,
            2 => SearchStrategy::Exhaustive,
            _ => SearchStrategy::Genetic(GeneticConfig::default()),
        };
        let surface = rand_surface(rng);
        let sequential = Session::new(space.clone(), strategy.clone(), seed)
            .run(&FnEvaluator::new(surface.clone()), StopCondition::Iterations(budget));
        let mut explorer = strategy.build(space, seed, TraceStore::new());
        let surface2 = surface.clone();
        let parallel = ParallelSession::new(1).run_with_stop(
            explorer.as_mut(),
            move |_| FnEvaluator::new(surface2.clone()),
            StopCondition::Iterations(budget),
        );
        assert_eq!(
            serde_json::to_string(&parallel).unwrap(),
            serde_json::to_string(&sequential).unwrap(),
            "workers=1 must equal sequential byte-for-byte ({strategy:?} seed={seed})"
        );
    });
}

#[test]
fn explorers_never_repeat_and_respect_budget() {
    use afex::core::{ExplorerConfig, FitnessExplorer, FnEvaluator};
    check(32, 13, |rng, _| {
        let w = rng.gen_range(2..12usize);
        let h = rng.gen_range(2..12usize);
        let budget = rng.gen_range(1..80usize);
        let seed = rng.gen_range(0..100u64);
        let space = FaultSpace::new(vec![
            Axis::int_range("x", 0, w as i64 - 1),
            Axis::int_range("y", 0, h as i64 - 1),
        ])
        .unwrap();
        let eval = FnEvaluator::new(|p: &Point| (p[0] % 3) as f64);
        let mut ex = FitnessExplorer::new(space, ExplorerConfig::default(), seed);
        let r = ex.run(&eval, budget);
        assert!(r.len() <= budget);
        assert_eq!(r.len(), budget.min(w * h));
        let distinct: std::collections::HashSet<_> =
            r.executed.iter().map(|t| t.point.clone()).collect();
        assert_eq!(distinct.len(), r.len());
    });
}

/// A randomized campaign snapshot: random matrix shape, a random subset
/// of cells completed with synthetic outcomes (codes, impacts, traces).
fn rand_snapshot(rng: &mut StdRng) -> afex::core::CampaignSnapshot {
    use afex::core::{CampaignSnapshot, CampaignSpec, CellOutcome, FailureRecord, StopPolicy};
    let names = ["coreutils", "minidb", "httpd", "docstore-0.8", "docstore-2.0"];
    let strategies = ["fitness", "random", "exhaustive", "genetic"];
    let spec = CampaignSpec {
        targets: (0..rng.gen_range(1..4usize))
            .map(|i| names[(i * 2 + rng.gen_range(0..2usize)) % names.len()].to_owned())
            .collect(),
        strategies: (0..rng.gen_range(1..3usize))
            .map(|i| strategies[i].to_owned())
            .collect(),
        seeds: rng.gen_range(1..3usize),
        base_seed: rng.gen_range(0..1000u64),
        iterations: rng.gen_range(1..500usize),
        stop: match rng.gen_range(0..3u32) {
            0 => StopPolicy::Iterations,
            1 => StopPolicy::Failures(rng.gen_range(1..9usize)),
            _ => StopPolicy::Crashes(rng.gen_range(1..9usize)),
        },
        cell_workers: rng.gen_range(1..5usize).into(),
        timeout: afex::core::TestTimeout(std::time::Duration::from_millis(
            rng.gen_range(1..30_000u64),
        )),
        metric: if rng.gen_bool(0.5) {
            Some(["default", "paper", "crash"][rng.gen_range(0..3usize)].to_owned())
        } else {
            None
        },
    };
    let mut snap = CampaignSnapshot::new(spec);
    for i in 0..snap.cells.len() {
        if rng.gen_bool(0.6) {
            let records: Vec<FailureRecord> = (0..rng.gen_range(0..6usize))
                .map(|_| {
                    let code = rng.gen_range(0..40u64);
                    FailureRecord {
                        code,
                        point: Point::new(vec![code as usize, rng.gen_range(0..19usize)]),
                        impact: rng.gen_range(0.0..30.0f64),
                        crashed: rng.gen_bool(0.3),
                        hung: rng.gen_bool(0.1),
                        trace: if rng.gen_bool(0.8) {
                            Some(rand_string(rng, ASCII, 12).into())
                        } else {
                            None
                        },
                        cell: i,
                    }
                })
                .collect();
            let outcome = CellOutcome {
                tests: rng.gen_range(0..500usize),
                failures: records.len(),
                crashes: records.iter().filter(|r| r.crashed).count(),
                hangs: records.iter().filter(|r| r.hung).count(),
                records,
            };
            snap.record(i, outcome);
        }
    }
    snap
}

#[test]
fn campaign_snapshot_roundtrips_to_identical_bytes() {
    // serialize -> deserialize -> re-serialize must be byte-identical:
    // the resume-equals-uninterrupted guarantee is checked as bytes, so
    // the snapshot encoding itself has to be canonical.
    use afex::core::CampaignSnapshot;
    check(150, 17, |rng, _| {
        let snap = rand_snapshot(rng);
        let json = snap.to_json();
        let back = CampaignSnapshot::from_json(&json).expect("snapshot parses");
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), json, "re-serialization must be identical");
    });
}

#[test]
fn campaign_store_rebuild_is_completion_order_independent() {
    // Recording the same outcomes in any wall-clock order must converge
    // to the same store (dedup ties break in cell order, not arrival
    // order) — the property that makes parallel campaigns deterministic.
    use afex::core::CampaignSnapshot;
    check(100, 18, |rng, _| {
        let snap = rand_snapshot(rng);
        let outcomes: Vec<(usize, afex::core::CellOutcome)> = snap
            .cells
            .iter()
            .filter_map(|s| Some((s.cell.index, s.outcome.clone()?)))
            .collect();
        let mut shuffled = CampaignSnapshot::new(snap.spec.clone());
        // A seeded Fisher–Yates over the replay order.
        let mut order: Vec<usize> = (0..outcomes.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &k in &order {
            let (index, outcome) = &outcomes[k];
            shuffled.record(*index, outcome.clone());
        }
        assert_eq!(shuffled, snap);
    });
}

#[test]
fn chained_feedback_is_completion_order_independent() {
    // The chain contract at the pool level: outcomes depend only on each
    // chain's initial state and cell order, never on how chains
    // interleave on the wall clock. Random chain shapes, random delays,
    // random pool widths — the folded state every cell observes must be
    // identical run to run.
    use afex::cluster::{CellChain, CellResult, MultiplexPool};
    check(40, 19, |rng, _| {
        let num_chains = rng.gen_range(1..4usize);
        let shapes: Vec<(u64, Vec<u64>)> = (0..num_chains)
            .map(|k| {
                let init = rng.gen_range(0..100u64);
                let cells: Vec<u64> = (0..rng.gen_range(1..5usize))
                    .map(|i| (k as u64) * 1000 + i as u64)
                    .collect();
                (init, cells)
            })
            .collect();
        let delays: Vec<u64> = (0..16).map(|_| rng.gen_range(0..3u64)).collect();
        let run = |workers: usize| {
            let chains: Vec<CellChain<Vec<u64>, u64>> = shapes
                .iter()
                .map(|(init, cells)| CellChain {
                    state: vec![*init],
                    cells: cells.clone(),
                })
                .collect();
            let delays = delays.clone();
            let pool = MultiplexPool::new(
                workers,
                move |&cell: &u64, state: &Vec<u64>| {
                    std::thread::sleep(std::time::Duration::from_millis(
                        delays[cell as usize % delays.len()],
                    ));
                    (cell, state.clone())
                },
                |state, &cell, _| state.push(cell),
            );
            let (tx, rx) = std::sync::mpsc::channel();
            pool.submit(chains, move |res| tx.send(res).unwrap());
            // The pool drops the callback, and with it the sender, once
            // the stream's last cell has landed.
            let mut seen: Vec<(u64, Vec<u64>)> = rx
                .iter()
                .map(|res| match res {
                    CellResult::Done(out) => out,
                    CellResult::Quarantined { cell, reason, .. } => {
                        panic!("cell {cell} quarantined: {reason}")
                    }
                })
                .collect();
            // Wall-clock arrival order is nondeterministic; the per-cell
            // observation is not.
            seen.sort_unstable();
            seen
        };
        let narrow = run(1);
        let wide = run(4);
        assert_eq!(narrow, wide, "shapes={shapes:?}");
    });
}

#[test]
fn chained_campaigns_are_pool_width_independent() {
    // End to end over real targets: random small matrices with
    // nontrivial same-target chains produce byte-identical snapshots on
    // pools of different widths.
    use afex::core::{CampaignSnapshot, CampaignSpec, StopPolicy};
    check(6, 20, |rng, _| {
        let all_targets = ["coreutils", "httpd", "docstore-0.8"];
        let spec = CampaignSpec {
            targets: all_targets[..rng.gen_range(1..3usize)]
                .iter()
                .map(|t| (*t).to_owned())
                .collect(),
            strategies: vec!["fitness".into(), "random".into()],
            seeds: rng.gen_range(1..3usize),
            base_seed: rng.gen_range(0..50u64),
            iterations: rng.gen_range(10..40usize),
            stop: match rng.gen_range(0..3u32) {
                0 => StopPolicy::Iterations,
                1 => StopPolicy::Failures(rng.gen_range(1..4usize)),
                _ => StopPolicy::Crashes(1),
            },
            // Pool-width independence must hold for parallel cells too:
            // the window is part of the spec, the pool width is not.
            cell_workers: rng.gen_range(1..3usize).into(),
            timeout: Default::default(),
            metric: None,
        };
        let run = |workers: usize| {
            let mut snap = CampaignSnapshot::new(spec.clone());
            afex::campaign::run_pending(&mut snap, workers, |_| {});
            snap.to_json()
        };
        let narrow = run(1);
        let wide = run(3 + rng.gen_range(0..3usize));
        assert_eq!(narrow, wide, "spec={spec:?}");
    });
}

#[test]
fn priority_queue_never_exceeds_capacity() {
    check(100, 14, |rng, _| {
        let cap = rng.gen_range(1..20usize);
        let count = rng.gen_range(1..100usize);
        let mut q = PriorityQueue::new(cap);
        for i in 0..count {
            let f = rng.gen_range(0.0..100.0f64);
            q.insert(
                PrioEntry {
                    point: Point::new(vec![i]),
                    impact: f,
                    fitness: f,
                },
                rng,
            );
            assert!(q.len() <= cap);
        }
    });
}

#[test]
fn priority_queue_membership_tracks_entries_under_churn() {
    // The O(1) contains-set must agree with a linear scan through every
    // insert/evict/retire/decay sequence.
    check(60, 15, |rng, _| {
        let cap = rng.gen_range(1..12usize);
        let mut q = PriorityQueue::new(cap);
        for i in 0..rng.gen_range(1..60usize) {
            let f = rng.gen_range(0.0..10.0f64);
            q.insert(
                PrioEntry {
                    point: Point::new(vec![i]),
                    impact: f,
                    fitness: f,
                },
                rng,
            );
            if rng.gen_bool(0.2) {
                q.scale_fitness(0.5);
                q.retire_below(0.3);
            }
            for j in 0..=i {
                let p = Point::new(vec![j]);
                let scanned = q.entries().iter().any(|e| e.point == p);
                assert_eq!(q.contains(&p), scanned, "point {j} after insert {i}");
            }
            let total: f64 = q.entries().iter().map(|e| e.fitness.max(0.0)).sum();
            assert!(
                (q.total_fitness() - total).abs() < 1e-6,
                "tree total {} vs scan {total}",
                q.total_fitness()
            );
        }
    });
}

#[test]
fn fenwick_sampling_matches_fitness_proportions() {
    // Statistical identity with the seed's linear-scan sampler: the
    // sampled-parent distribution must be proportional to fitness.
    let mut rng = StdRng::seed_from_u64(16);
    let weights = [0.5, 4.0, 0.0, 2.5, 8.0, 1.0];
    let mut q = PriorityQueue::new(weights.len());
    for (i, &w) in weights.iter().enumerate() {
        q.insert(
            PrioEntry {
                point: Point::new(vec![i]),
                impact: w,
                fitness: w,
            },
            &mut rng,
        );
    }
    let total: f64 = weights.iter().sum();
    let mut counts = vec![0usize; weights.len()];
    const N: usize = 60_000;
    for _ in 0..N {
        counts[q.sample_parent(&mut rng).unwrap().point[0]] += 1;
    }
    assert_eq!(counts[2], 0, "zero-fitness entries are never sampled");
    for (i, &w) in weights.iter().enumerate() {
        let expect = N as f64 * w / total;
        assert!(
            (counts[i] as f64 - expect).abs() < expect * 0.1 + 40.0,
            "entry {i}: got {}, expected {expect:.0}",
            counts[i]
        );
    }
}
