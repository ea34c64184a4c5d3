//! Property-based tests over the core invariants.
//!
//! The central property is hardware/software co-verification: the
//! gate-level engine (the generated circuit, simulated cycle by cycle)
//! and the fast functional engine must produce identical event streams
//! on arbitrary inputs — conforming or not.

use proptest::prelude::*;

use cfg_token_tagger::grammar::{builtin, Grammar};
use cfg_token_tagger::regex::{ByteSet, MatchSemantics, Pattern};
use cfg_token_tagger::tagger::{EngineKind, StartMode, TaggerOptions, TokenTagger};

// ---------------------------------------------------------------- regex

/// Strategy: a non-nullable pattern string over a tiny alphabet.
fn pattern_strategy() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("[ab]".to_string()),
        Just("[bc]".to_string()),
        Just("[0-9]".to_string()),
        Just("!a".to_string()),
    ];
    let elem = (atom, prop_oneof![Just(""), Just("+"), Just("?"), Just("*")])
        .prop_map(|(a, p)| format!("{a}{p}"));
    // A head literal keeps the whole pattern non-nullable.
    (prop_oneof![Just("a"), Just("b"), Just("c")], prop::collection::vec(elem, 0..4))
        .prop_map(|(head, tail)| format!("{head}{}", tail.join("")))
}

/// Strategy: one byte of the test alphabet.
fn byte_strategy() -> impl Strategy<Value = u8> {
    prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b'0'), Just(b'7'), Just(b' '),]
}

fn input_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(byte_strategy(), 0..24)
}

/// Strategy: nothing, or a tail of at least 200 bytes — long enough
/// that a machine which dies in the head crosses the rest of every
/// feed through the dead-run skip, mid-slice and at chunk edges.
fn tail_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![Just(Vec::new()), prop::collection::vec(byte_strategy(), 200..320)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GlobalLongest is an upper bound on every hardware-asserted end.
    #[test]
    fn hardware_ends_bounded_by_global_longest(
        pat in pattern_strategy(),
        input in input_strategy(),
    ) {
        let p = Pattern::parse(&pat).unwrap();
        let global = p.find_longest_at(&input, 0, MatchSemantics::GlobalLongest);
        let ends = p.nfa().hardware_ends(&input, 0);
        for &e in &ends {
            prop_assert!(e <= input.len());
            prop_assert!(global.is_some());
            prop_assert!(e <= global.unwrap());
        }
        // The longest hardware end equals the global longest whenever
        // any end is asserted at all.
        if let Some(&max) = ends.iter().max() {
            prop_assert_eq!(max, global.unwrap());
        }
    }

    /// Full match agrees with "longest-at-0 spans the input".
    #[test]
    fn full_match_consistency(pat in pattern_strategy(), input in input_strategy()) {
        let p = Pattern::parse(&pat).unwrap();
        let full = p.is_full_match(&input);
        let longest = p.find_longest_at(&input, 0, MatchSemantics::GlobalLongest);
        if full {
            prop_assert_eq!(longest, Some(input.len()));
        }
        if longest == Some(input.len()) && !input.is_empty() {
            prop_assert!(full);
        }
    }

    /// Reversed template recognises exactly the mirror language.
    #[test]
    fn reverse_template_mirror(pat in pattern_strategy(), input in input_strategy()) {
        let p = Pattern::parse(&pat).unwrap();
        let rev = cfg_token_tagger::regex::Nfa::from_template(&p.template().reversed());
        let mirrored: Vec<u8> = input.iter().rev().copied().collect();
        prop_assert_eq!(p.is_full_match(&input), rev.is_full_match(&mirrored));
    }
}

// -------------------------------------------------------------- bytesets

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn byteset_algebra_laws(a in prop::collection::vec(any::<u8>(), 0..16),
                            b in prop::collection::vec(any::<u8>(), 0..16)) {
        let sa: ByteSet = a.iter().copied().collect();
        let sb: ByteSet = b.iter().copied().collect();
        // De Morgan.
        prop_assert_eq!(
            sa.union(sb).complement(),
            sa.complement().intersect(sb.complement())
        );
        // Difference via complement.
        prop_assert_eq!(sa.difference(sb), sa.intersect(sb.complement()));
        // Cardinality of disjoint union.
        prop_assert_eq!(
            sa.union(sb).len() + sa.intersect(sb).len(),
            sa.len() + sb.len()
        );
        // Membership matches construction.
        for &x in &a {
            prop_assert!(sa.contains(x));
        }
    }
}

// ------------------------------------------------------ engines agree

/// Build a one-token grammar in Always mode; any byte stream is legal
/// input, so this fuzzes the whole generate→simulate pipeline.
fn single_token_tagger(pat: &str) -> Option<TokenTagger> {
    let text = format!("TOK {pat}\n%%\ns: TOK;\n%%\n");
    let g = Grammar::parse(&text).ok()?;
    TokenTagger::compile(&g, TaggerOptions { start_mode: StartMode::Always, ..Default::default() })
        .ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The generated circuit and the functional mirror agree
    /// event-for-event on arbitrary inputs.
    #[test]
    fn gate_equals_fast_on_random_patterns(
        pat in pattern_strategy(),
        input in input_strategy(),
    ) {
        // Patterns whose first byte class overlaps the delimiter set are
        // rejected by the generator; skip those cases.
        let Some(tagger) = single_token_tagger(&pat) else {
            return Ok(());
        };
        let fast = tagger.tag(&input);
        let gate = engine_run(&tagger, EngineKind::Gate, &input, input.len()).0;
        prop_assert_eq!(fast, gate, "pattern {} input {:?}", pat, input);
    }

    /// Same property on grammar-driven sequences: random conforming and
    /// non-conforming if-then-else streams.
    #[test]
    fn gate_equals_fast_on_random_ite_streams(
        words in prop::collection::vec(
            prop_oneof![
                Just("if"), Just("then"), Just("else"), Just("go"),
                Just("stop"), Just("true"), Just("false"), Just("xx"),
            ],
            0..8,
        ),
        seps in prop::collection::vec(prop_oneof![Just(" "), Just("  "), Just("\t")], 8),
    ) {
        let g = builtin::if_then_else();
        let tagger = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let mut input = String::new();
        for (w, s) in words.iter().zip(seps.iter()) {
            input.push_str(w);
            input.push_str(s);
        }
        let fast = tagger.tag(input.as_bytes());
        let gate = engine_run(&tagger, EngineKind::Gate, input.as_bytes(), input.len()).0;
        prop_assert_eq!(fast, gate, "input {:?}", input);
    }
}

// ------------------------------------- three engines, one event stream

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The bit-parallel kernel, the scalar reference and the simulated
    /// circuit produce byte-identical event streams on random patterns,
    /// random inputs (half of them with a long tail), every
    /// start-mode/recovery combination, and every chunk split of the
    /// stream — the full hardware/software co-verification square.
    /// Every engine is built through the unified [`EngineKind`]
    /// constructor and driven through the slice-first [`Engine`] trait,
    /// so this also pins the trait path to the bespoke constructors'
    /// behaviour. The 1-byte chunk split is the dribble case: the bit
    /// engine then carries its lookahead and dead state across every
    /// feed boundary.
    #[test]
    fn bitset_equals_scalar_and_gate(
        pat in pattern_strategy(),
        head in input_strategy(),
        tail in tail_strategy(),
    ) {
        let text = format!("TOK {pat}\n%%\ns: TOK;\n%%\n");
        let Ok(g) = Grammar::parse(&text) else { return Ok(()) };
        let input = [head, tail].concat();
        for (always, recover) in [(false, false), (true, false), (false, true), (true, true)] {
            let opts = TaggerOptions {
                start_mode: if always { StartMode::Always } else { StartMode::AtStart },
                error_recovery: recover,
                ..Default::default()
            };
            // Patterns the generator rejects (e.g. first byte class
            // overlaps the delimiters) are skipped, as in the gate test
            // above.
            let Ok(tagger) = TokenTagger::compile(&g, opts) else { continue };
            let mode = format!("always={always} recover={recover} pattern {pat} input {input:?}");

            let mut scalar = tagger.engine(EngineKind::Scalar).unwrap();
            let mut expect = Vec::new();
            scalar.feed_slice(&input, &mut expect).unwrap();
            scalar.finish_into(&mut expect).unwrap();

            // Bit kernel: batch, then every chunk split (1/2/3/7) — the
            // lookahead carry across feed() boundaries must be seamless,
            // and a dead tail is skipped from wherever each feed starts.
            let batch = tagger.tag(&input);
            prop_assert_eq!(&batch, &expect, "batch: {}", mode);
            for chunk in [1usize, 2, 3, 7, input.len().max(1)] {
                let mut e = tagger.engine(EngineKind::Bit).unwrap();
                let mut got = Vec::new();
                for c in input.chunks(chunk) {
                    e.feed_slice(c, &mut got).unwrap();
                }
                e.finish_into(&mut got).unwrap();
                prop_assert_eq!(&got, &expect, "bit chunk {}: {}", chunk, mode);
            }

            let mut e = tagger.engine(EngineKind::Gate).unwrap();
            let mut gate = Vec::new();
            e.feed_slice(&input, &mut gate).unwrap();
            e.finish_into(&mut gate).unwrap();
            prop_assert_eq!(&gate, &expect, "gate: {}", mode);
        }
    }
}

// ------------------------------------- random multi-token grammars

/// One engine run over a generated grammar: events, `is_dead()` after
/// finish, the stats sink's byte, event, resync and dead-entry
/// counters, and its fire count per token.
type Run = (Vec<cfg_token_tagger::tagger::TagEvent>, bool, [u64; 4], Vec<u64>);

fn engine_run(
    tagger: &TokenTagger,
    kind: cfg_token_tagger::tagger::EngineKind,
    input: &[u8],
    chunk: usize,
) -> Run {
    use cfg_token_tagger::obs::{Metrics, Stat, StatsSink};
    use std::sync::Arc;

    let tokens = tagger.grammar().tokens().len();
    let sink = Arc::new(StatsSink::with_tokens(tokens));
    let mut e = tagger.clone().with_metrics(Metrics::new(sink.clone())).engine(kind).unwrap();
    let mut events = Vec::new();
    for c in input.chunks(chunk.max(1)) {
        e.feed_slice(c, &mut events).unwrap();
    }
    e.finish_into(&mut events).unwrap();
    let counters =
        [Stat::BytesIn, Stat::EventsOut, Stat::Resyncs, Stat::DeadEntries].map(|s| sink.get(s));
    let fires = (0..tokens as u32).map(|t| sink.token_fires(t)).collect();
    (events, e.is_dead(), counters, fires)
}

/// Table budget of a few states: engines leave the table mid-stream.
const FEW_STATES: usize = 512;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On generated multi-token grammars (FOLLOW wiring, arm registers,
    /// context duplication, tokens that fire together, longest match
    /// across token boundaries) five runs agree: the bit engine on its
    /// table, on a zero-budget table (the bit step throughout) and on a
    /// table of a few states (leaving it mid-stream), the scalar
    /// reference, and the simulated circuit. They agree on events, on
    /// `is_dead()` after finish, on the four engine counters and on the
    /// fire count per token, for every start mode × recovery and every
    /// chunk split. The input is three rounds of a conforming sentence,
    /// a one-word mutant of it, and junk.
    #[test]
    fn random_grammars_agree_across_engines(seed in any::<u64>()) {
        use cfg_token_tagger::grammar::random::{join, mutate, RandomGrammar, Rng};

        let rg = RandomGrammar::generate(seed);
        let mut rng = Rng::new(seed);
        let mut input = Vec::new();
        for _ in 0..3 {
            let words = rg.sentence(&mut rng);
            input.extend(join(&words, &mut rng));
            input.extend(join(&mutate(&words, &mut rng), &mut rng));
            input.extend_from_slice(b"?? ");
        }

        for (always, recover) in [(false, false), (true, false), (false, true), (true, true)] {
            let opts = TaggerOptions {
                start_mode: if always { StartMode::Always } else { StartMode::AtStart },
                error_recovery: recover,
                ..Default::default()
            };
            let Ok(tagger) = TokenTagger::compile(&rg.grammar, opts) else { continue };
            let mode = format!("always={always} recover={recover}\n{}input {:?}",
                rg.text, String::from_utf8_lossy(&input));

            let expect = engine_run(&tagger, EngineKind::Scalar, &input, input.len());
            let gate = engine_run(&tagger, EngineKind::Gate, &input, input.len());
            prop_assert_eq!(&gate, &expect, "gate: {}", mode);
            for chunk in [1usize, 2, 3, 7, input.len()] {
                let table = engine_run(&tagger, EngineKind::Bit, &input, chunk);
                prop_assert_eq!(&table, &expect, "bit, chunk {}: {}", chunk, mode);
                for budget in [0, FEW_STATES] {
                    let capped = tagger.with_table_budget(budget);
                    let got = engine_run(&capped, EngineKind::Bit, &input, chunk);
                    prop_assert_eq!(&got, &expect, "bit, budget {} chunk {}: {}", budget, chunk, mode);
                }
            }
        }
    }
}

/// Most generated grammars compile in every mode, so the property above
/// cannot pass by skipping them.
#[test]
fn random_grammars_mostly_compile() {
    use cfg_token_tagger::grammar::random::RandomGrammar;
    let n = 200;
    let compiled = (0..n)
        .filter(|&seed| {
            let rg = RandomGrammar::generate(seed);
            TokenTagger::compile(&rg.grammar, TaggerOptions::default()).is_ok()
        })
        .count();
    assert!(compiled * 10 >= n as usize * 9, "only {compiled} of {n} generated grammars compile");
}

// -------------------------------------------------- tagger vs LL(1)

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On *conforming* sentences, the tagger's spans equal the classical
    /// lexer+LL(1) pipeline's tokens (arithmetic grammar).
    #[test]
    fn tagger_matches_ll1_on_conforming_arithmetic(depth in 0usize..3, seed in any::<u64>()) {
        use cfg_token_tagger::baseline::Ll1Parser;
        use rand::prelude::*;

        let g = builtin::arithmetic();
        let tagger = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let parser = Ll1Parser::new(&g).unwrap();

        // Random expression via the grammar itself.
        fn expr(rng: &mut StdRng, depth: usize, out: &mut String) {
            term(rng, depth, out);
            while depth > 0 && rng.random_bool(0.4) {
                out.push_str([" + ", " - "].choose(rng).unwrap());
                term(rng, depth - 1, out);
            }
        }
        fn term(rng: &mut StdRng, depth: usize, out: &mut String) {
            factor(rng, depth, out);
            while depth > 0 && rng.random_bool(0.3) {
                out.push_str([" * ", " / "].choose(rng).unwrap());
                factor(rng, depth - 1, out);
            }
        }
        fn factor(rng: &mut StdRng, depth: usize, out: &mut String) {
            if depth > 0 && rng.random_bool(0.3) {
                out.push_str("( ");
                expr(rng, depth - 1, out);
                out.push_str(" )");
            } else if rng.random_bool(0.5) {
                out.push_str(&format!("{}", rng.random_range(0..1000)));
            } else {
                out.push_str(["x", "y", "count", "a1"].choose(rng).unwrap());
            }
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let mut sentence = String::new();
        expr(&mut rng, depth, &mut sentence);

        let truth = parser.parse(sentence.as_bytes()).expect("conforming by construction");
        let tagged = tagger.tag(sentence.as_bytes());
        let truth_spans: Vec<(usize, usize)> = truth.iter().map(|t| (t.start, t.end)).collect();
        let tag_spans: Vec<(usize, usize)> = tagged.iter().map(|e| (e.start, e.end)).collect();
        prop_assert_eq!(tag_spans, truth_spans, "sentence {}", sentence);
    }
}

// ------------------------------------------------------------- encoder

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Slot assignment: codes are unique, nonzero, within width, and
    /// chained groups satisfy equation 5.
    #[test]
    fn slot_assignment_invariants(n in 1usize..40, group_seed in any::<u64>()) {
        use cfg_token_tagger::hwgen::encoder::assign_slots;
        use rand::prelude::*;

        // Random disjoint groups over 0..n.
        let mut rng = StdRng::seed_from_u64(group_seed);
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut rng);
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut it = ids.into_iter();
        while let Some(first) = it.next() {
            let extra = rng.random_range(0..3usize);
            let mut g = vec![first];
            for _ in 0..extra {
                if let Some(x) = it.next() {
                    g.push(x);
                }
            }
            if g.len() > 1 {
                groups.push(g);
            }
        }

        let a = assign_slots(n, &groups);
        let mut seen = std::collections::HashSet::new();
        for &c in &a.codes {
            prop_assert!(c > 0);
            prop_assert!(c < 1 << a.width);
            prop_assert!(seen.insert(c));
        }
        // Equation 5 within every chained group: prefix ORs equal the
        // member codes. Groups the budget skipped get plain codes, so
        // only check groups whose codes form a chain.
        for g in &groups {
            let codes: Vec<usize> = g.iter().map(|&t| a.codes[t]).collect();
            let chained = codes.windows(2).all(|w| w[0] & w[1] == w[0]);
            if chained {
                for i in 0..codes.len() {
                    let or = codes[..=i].iter().fold(0, |x, &y| x | y);
                    prop_assert_eq!(or, codes[i]);
                }
            }
        }
    }
}

// ------------------------------------------------------- robustness

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pattern parser never panics, whatever bytes arrive.
    #[test]
    fn pattern_parser_never_panics(src in "\\PC{0,24}") {
        let _ = Pattern::parse(&src);
    }

    /// The grammar parser never panics either.
    #[test]
    fn grammar_parser_never_panics(src in "\\PC{0,64}") {
        let _ = Grammar::parse(&src);
        // Also with section markers sprinkled in.
        let _ = Grammar::parse(&format!("%%\n{src}\n%%\n"));
    }
}

/// Grammar metacharacters and digits: what an insertion edit draws from.
const GRAMMAR_META: &[u8] = b"%:|;\"'[]()*+?{},\\-^.$/=0123456789 \n";

/// One to four seeded byte edits of `text`: delete, duplicate, swap
/// with the next byte, or insert a grammar metacharacter or digit.
fn grammar_mutant(text: &str, rng: &mut cfg_token_tagger::grammar::random::Rng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(4) {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 if at < bytes.len() => bytes.insert(at, bytes[at]),
            2 if at + 1 < bytes.len() => bytes.swap(at, at + 1),
            _ => bytes.insert(at, GRAMMAR_META[rng.below(GRAMMAR_META.len())]),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Fuzz `cases` grammar-text mutants from `first_seed` on: every one
/// goes through `Grammar::parse`, and every one that parses through
/// `TokenTagger::compile` in all four start-mode × recovery modes and
/// `tag()` of one generated sentence. Panics name the mutant; every
/// compiled grammar must stay within `MAX_POSITIONS`. Returns how many
/// parsed, and the slowest case with its time.
fn fuzz_grammar_texts(first_seed: u64, cases: u64) -> (u64, std::time::Duration, String) {
    use cfg_token_tagger::grammar::random::{join, RandomGrammar, Rng};
    use cfg_token_tagger::regex::MAX_POSITIONS;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let mut builtins: Vec<String> = [
        builtin::balanced_parens(),
        builtin::if_then_else(),
        builtin::arithmetic(),
        builtin::key_value(),
        builtin::http_request_line(),
        builtin::json(),
    ]
    .iter()
    .map(Grammar::render)
    .collect();
    builtins.push(cfg_token_tagger::xmlrpc::grammar::XMLRPC_GRAMMAR_TEXT.to_owned());
    let (mut parsed, mut slowest) = (0u64, (std::time::Duration::ZERO, String::new()));
    for seed in first_seed..first_seed + cases {
        let mut rng = Rng::new(seed);
        let generated = RandomGrammar::generate(seed);
        let base = if seed % 4 == 0 {
            &builtins[(seed / 4) as usize % builtins.len()]
        } else {
            &generated.text
        };
        let text = grammar_mutant(base, &mut rng);
        let input = join(&generated.sentence(&mut rng), &mut rng);
        let started = std::time::Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(g) = Grammar::parse(&text) else { return false };
            for (always, recover) in [(false, false), (true, false), (false, true), (true, true)] {
                let opts = TaggerOptions {
                    start_mode: if always { StartMode::Always } else { StartMode::AtStart },
                    error_recovery: recover,
                    ..Default::default()
                };
                if let Ok(tagger) = TokenTagger::compile(&g, opts) {
                    let positions = tagger.grammar().pattern_bytes();
                    assert!(positions <= MAX_POSITIONS, "{positions} positions compiled");
                    tagger.tag(&input);
                }
            }
            true
        }));
        match outcome {
            Ok(ok) => parsed += u64::from(ok),
            Err(_) => panic!("seed {seed}: grammar text mutant panicked:\n{text}"),
        }
        if started.elapsed() > slowest.0 {
            slowest = (started.elapsed(), format!("seed {seed}:\n{text}"));
        }
    }
    (parsed, slowest.0, slowest.1)
}

/// Grammar text never panics the parser, the compile pipeline or the
/// tagger, and no compiled grammar exceeds the position bound: seeded
/// byte edits of generated and built-in grammar texts.
#[test]
fn grammar_text_mutants_never_panic() {
    let (parsed, _, _) = fuzz_grammar_texts(0, 2_000);
    assert!(parsed >= 200, "only {parsed} of 2000 mutants parsed: the fuzzer reaches too little");
}

/// The long run: `cargo test --release --test properties -- --ignored`.
#[test]
#[ignore]
fn grammar_text_mutants_never_panic_long() {
    let (parsed, slowest, case) = fuzz_grammar_texts(1 << 32, 200_000);
    println!("{parsed} of 200000 mutants parsed; slowest {slowest:?}, {case}");
}

/// Pattern metacharacters and digits: what a pattern insertion draws from.
const PATTERN_META: &[u8] = b"[]()*+?{},|\\-^.!0123456789";

/// One to four seeded edits of a token pattern: delete, duplicate, swap
/// with the next byte, insert a metacharacter or digit, or repeat. A
/// repeat raises the first counted repetition's count, or wraps the
/// whole pattern in a group under a count; counts are drawn across
/// thirteen octaves, so some mutants land near the position bound.
fn pattern_mutant(src: &str, rng: &mut cfg_token_tagger::grammar::random::Rng) -> String {
    let mut bytes = src.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(5) {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 if at < bytes.len() => bytes.insert(at, bytes[at]),
            2 if at + 1 < bytes.len() => bytes.swap(at, at + 1),
            3 => {
                let octaves = 1 + rng.below(13);
                let count = 1 + rng.below(1 << octaves);
                let open = bytes.windows(2).position(|w| w[0] == b'{' && w[1].is_ascii_digit());
                bytes = match open {
                    // `{k` becomes `{k·count`.
                    Some(i) if rng.chance(50) => {
                        let k = bytes[i + 1..].iter().take_while(|b| b.is_ascii_digit()).count();
                        let raised = String::from_utf8_lossy(&bytes[i + 1..i + 1 + k])
                            .parse::<usize>()
                            .map_or(usize::MAX, |k| k.saturating_mul(count));
                        [&bytes[..=i], raised.to_string().as_bytes(), &bytes[i + 1 + k..]].concat()
                    }
                    _ => [b"(", &bytes[..], format!("){{{count}}}").as_bytes()].concat(),
                };
            }
            _ => bytes.insert(at, PATTERN_META[rng.below(PATTERN_META.len())]),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// What a run of the pattern fuzzer saw.
#[derive(Debug, Default)]
struct PatternFuzz {
    parsed: u64,
    /// Parsed with more than half the position bound.
    large: u64,
    /// Refused with `ParseError::TooManyPositions`.
    too_many: u64,
    /// Refused with `ParseError::TooManyFollowEdges`.
    too_many_edges: u64,
    slowest_parse: (std::time::Duration, String),
    slowest_refusal: (std::time::Duration, String),
}

/// Fuzz `cases` token-pattern mutants from `first_seed` on: seeded edits
/// of the token patterns of the built-in grammars, XML-RPC and generated
/// grammars. Every mutant goes through `Pattern::parse`; one that parses
/// has its template and NFA read and is matched from offset 0 of a short
/// input, under both match semantics, and must stay within
/// `MAX_POSITIONS`. Panics name the mutant.
fn fuzz_patterns(first_seed: u64, cases: u64) -> PatternFuzz {
    use cfg_token_tagger::grammar::random::{RandomGrammar, Rng};
    use cfg_token_tagger::regex::{ParseError, MAX_POSITIONS};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let sources = |g: &Grammar| -> Vec<String> {
        g.tokens().iter().map(|t| t.pattern.source().to_owned()).collect()
    };
    let builtins: Vec<String> = [
        builtin::balanced_parens(),
        builtin::if_then_else(),
        builtin::arithmetic(),
        builtin::key_value(),
        builtin::http_request_line(),
        builtin::json(),
        cfg_token_tagger::xmlrpc::xmlrpc_grammar(),
    ]
    .iter()
    .flat_map(sources)
    .collect();
    let mut fuzz = PatternFuzz::default();
    for seed in first_seed..first_seed + cases {
        let mut rng = Rng::new(seed);
        let src = if seed % 4 == 0 {
            builtins[(seed / 4) as usize % builtins.len()].clone()
        } else {
            let generated = sources(&RandomGrammar::generate(seed).grammar);
            generated[rng.below(generated.len())].clone()
        };
        let text = pattern_mutant(&src, &mut rng);
        // The unedited pattern's own text: a literal matches it.
        let input = &src.as_bytes()[..src.len().min(32)];
        let started = std::time::Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let parsed = Pattern::parse(&text);
            if let Ok(p) = &parsed {
                let positions = p.template().positions.len();
                assert!(positions <= MAX_POSITIONS, "{positions} positions parsed");
                assert_eq!(p.nfa().len(), positions);
                for semantics in [MatchSemantics::GlobalLongest, MatchSemantics::HardwareLookahead]
                {
                    p.find_longest_at(input, 0, semantics);
                }
            }
            parsed.map(|p| p.pattern_bytes())
        }));
        let elapsed = started.elapsed();
        let case = || format!("seed {seed}: {text:.80} ({} bytes)", text.len());
        match outcome {
            Ok(Ok(positions)) => {
                fuzz.parsed += 1;
                fuzz.large += u64::from(positions > MAX_POSITIONS / 2);
                if elapsed > fuzz.slowest_parse.0 {
                    fuzz.slowest_parse = (elapsed, format!("{}, {positions} positions", case()));
                }
            }
            Ok(Err(e)) => {
                fuzz.too_many += u64::from(matches!(e, ParseError::TooManyPositions { .. }));
                fuzz.too_many_edges +=
                    u64::from(matches!(e, ParseError::TooManyFollowEdges { .. }));
                if elapsed > fuzz.slowest_refusal.0 {
                    fuzz.slowest_refusal = (elapsed, format!("{}: {e}", case()));
                }
            }
            Err(_) => panic!("seed {seed}: pattern mutant panicked: {text:?}"),
        }
    }
    fuzz
}

/// Token patterns never panic the pattern parser, the template or the
/// NFA, and none that parses exceeds the position bound: seeded byte
/// edits of real patterns, some repeated up to and past the bound.
#[test]
fn regex_pattern_mutants_never_panic() {
    let fuzz = fuzz_patterns(0, 2_000);
    assert!(fuzz.parsed >= 500, "only {} of 2000 mutants parsed: {fuzz:?}", fuzz.parsed);
    assert!(fuzz.large >= 1, "no mutant parsed past half the position bound: {fuzz:?}");
    assert!(fuzz.too_many >= 1, "no mutant reached the position bound: {fuzz:?}");
}

/// The long run: `cargo test --release --test properties -- --ignored`.
#[test]
#[ignore]
fn regex_pattern_mutants_never_panic_long() {
    let fuzz = fuzz_patterns(1 << 32, 200_000);
    println!(
        "{} of 200000 mutants parsed, {} past half the position bound, {} refused at it, \
         {} refused at the FOLLOW-edge bound",
        fuzz.parsed, fuzz.large, fuzz.too_many, fuzz.too_many_edges
    );
    println!("slowest parse {:?}, {}", fuzz.slowest_parse.0, fuzz.slowest_parse.1);
    println!("slowest refusal {:?}, {}", fuzz.slowest_refusal.0, fuzz.slowest_refusal.1);
}

// ------------------------------------------- netlist sim cross-check

/// A tiny reference evaluator for random combinational DAGs, checked
/// against the production simulator.
mod netlist_fuzz {
    use super::*;
    use cfg_token_tagger::netlist::{NetlistBuilder, Simulator};

    #[derive(Debug, Clone)]
    pub enum GateKind {
        And,
        Or,
        Xor,
        Not,
    }

    pub fn gate_strategy() -> impl Strategy<Value = GateKind> {
        prop_oneof![
            Just(GateKind::And),
            Just(GateKind::Or),
            Just(GateKind::Xor),
            Just(GateKind::Not),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Build a random DAG of gates over 4 inputs; evaluate with the
        /// simulator and with direct recursive evaluation — they must
        /// agree on all 16 input combinations (checked in parallel via
        /// the 64-stream values).
        #[test]
        fn simulator_matches_reference_eval(
            gates in prop::collection::vec((gate_strategy(), any::<u16>(), any::<u16>()), 1..24),
        ) {
            let mut b = NetlistBuilder::new();
            let inputs: Vec<_> = (0..4).map(|i| b.input(&format!("i{i}"))).collect();
            let mut nets = inputs.clone();
            for (kind, a_sel, b_sel) in &gates {
                let ai = (*a_sel as usize) % nets.len();
                let bi = (*b_sel as usize) % nets.len();
                let (na, nb) = (nets[ai], nets[bi]);
                let net = match kind {
                    GateKind::And => b.and2(na, nb),
                    GateKind::Or => b.or2(na, nb),
                    GateKind::Xor => b.xor2(na, nb),
                    GateKind::Not => b.not(na),
                };
                nets.push(net);
            }
            // Reference evaluation bottom-up over the same structure
            // (the value index space grows exactly like `nets` above).
            let eval_all = |v: &[u64; 4]| -> Vec<u64> {
                let mut vals: Vec<u64> = v.to_vec();
                for (kind, a_sel, b_sel) in &gates {
                    let ai = (*a_sel as usize) % vals.len();
                    let bi = (*b_sel as usize) % vals.len();
                    let (x, y) = (vals[ai], vals[bi]);
                    vals.push(match kind {
                        GateKind::And => x & y,
                        GateKind::Or => x | y,
                        GateKind::Xor => x ^ y,
                        GateKind::Not => !x,
                    });
                }
                vals
            };

            let last = *nets.last().unwrap();
            b.output("out", last);
            let nl = b.finish();
            let mut sim = Simulator::new(&nl).unwrap();

            // All 16 combinations of 4 inputs packed into one word each.
            let mut vin = [0u64; 4];
            for combo in 0..16u64 {
                for (i, slot) in vin.iter_mut().enumerate() {
                    if combo & (1 << i) != 0 {
                        *slot |= 1 << combo;
                    }
                }
            }
            sim.step(&vin).unwrap();
            let reference = eval_all(&vin);
            let got = sim.output("out").unwrap();
            let mask = (1u64 << 16) - 1;
            prop_assert_eq!(got & mask, reference.last().unwrap() & mask);
        }
    }
}

// --------------------------------------------------- wide datapath

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The W-lane circuit is a retiming, not a semantic change: its
    /// events equal the byte-serial fast engine's on random streams for
    /// random lane counts.
    #[test]
    fn wide_equals_fast_on_random_streams(
        lanes in 2usize..6,
        words in prop::collection::vec(
            prop_oneof![
                Just("if"), Just("go"), Just("stop"), Just("true"),
                Just("then"), Just("else"), Just("??"),
            ],
            0..6,
        ),
    ) {
        use cfg_token_tagger::tagger::WideTagger;
        let g = builtin::if_then_else();
        let tagger = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let wide = WideTagger::compile(&g, lanes, TaggerOptions::default()).unwrap();
        let input = words.join(" ");
        let fast = tagger.tag(input.as_bytes());
        let w = wide.tag(input.as_bytes()).unwrap();
        prop_assert_eq!(fast, w, "W={} input {:?}", lanes, input);
    }
}

// --------------------------------------------------------- observability

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The metrics layer never disagrees with the event stream: on
    /// arbitrary XML-RPC workloads the [`StatsSink`] aggregate
    /// token-fire counter equals the number of events the engine
    /// returned, the per-token fire counts sum to the same total, and
    /// `bytes_in` equals the stream length.
    #[test]
    fn event_count_equals_token_fire_counter(
        seed in any::<u64>(),
        messages in 1usize..5,
        adversarial in any::<bool>(),
    ) {
        use cfg_token_tagger::obs::{Metrics, Stat, StatsSink};
        use cfg_token_tagger::xmlrpc::{xmlrpc_grammar, MessageKind, WorkloadGenerator};
        use std::sync::Arc;

        let tagger = TokenTagger::compile(&xmlrpc_grammar(), TaggerOptions::default()).unwrap();
        let mut gen = WorkloadGenerator::new(seed);
        let kind = if adversarial { MessageKind::Adversarial } else { MessageKind::Honest };
        let mut input = Vec::new();
        for _ in 0..messages {
            input.extend_from_slice(&gen.message(kind).bytes);
            input.push(b'\n');
        }

        let sink = Arc::new(StatsSink::with_tokens(tagger.grammar().tokens().len()));
        let mut engine =
            tagger.clone().with_metrics(Metrics::new(sink.clone())).engine(EngineKind::Bit).unwrap();
        let mut events = engine.feed(&input).unwrap();
        events.extend(engine.finish().unwrap());

        prop_assert_eq!(sink.get(Stat::EventsOut), events.len() as u64);
        let per_token: u64 = (0..tagger.grammar().tokens().len())
            .map(|i| sink.token_fires(i as u32))
            .sum();
        prop_assert_eq!(per_token, events.len() as u64);
        prop_assert_eq!(sink.get(Stat::BytesIn), input.len() as u64);
    }
}

/// A [`NoopSink`] must be observationally free: the tagged event stream
/// is byte-for-byte identical to the un-instrumented engine's, on
/// conforming and junk streams alike.
#[test]
fn noop_sink_output_is_byte_identical() {
    use cfg_token_tagger::obs::{Metrics, NoopSink};
    use std::sync::Arc;

    let g = builtin::if_then_else();
    for recover in [false, true] {
        let tagger = TokenTagger::compile(
            &g,
            TaggerOptions { error_recovery: recover, ..Default::default() },
        )
        .unwrap();
        for input in [&b"if true then go else stop"[..], &b"zzz go ?? stop if"[..], &b""[..]] {
            let plain = tagger.tag(input);
            let mut noop = tagger
                .clone()
                .with_metrics(Metrics::new(Arc::new(NoopSink)))
                .engine(EngineKind::Bit)
                .unwrap();
            let mut traced = noop.feed(input).unwrap();
            traced.extend(noop.finish().unwrap());
            assert_eq!(plain, traced, "recover={recover} input={input:?}");
        }
    }
}
