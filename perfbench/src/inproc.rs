//! In-process tagging: the library path a caller of `cfg-tagger` takes.
//!
//! Every frame gets a fresh production engine (`EngineKind::default()`),
//! exactly as the ingest server's workers tag one frame each, so the
//! per-frame engine setup and finish are part of the measured cost.
//! Frames are taken round-robin across the corpora and the whole corpus
//! is cycled until the time budget runs out; every frame's events are
//! compared against the scalar reference.

use crate::corpus::Corpus;
use cfg_tagger::{EngineKind, TagEvent, TokenTagger};
use std::time::{Duration, Instant};

/// What in-process passes measured.
#[derive(Default)]
pub struct InprocRun {
    pub frames: u64,
    pub failed: u64,
    pub bytes: u64,
    /// Per-frame wall time: engine setup, feed, finish and drop.
    pub frame_ns: Vec<u64>,
    /// Per-frame engine construction (traced passes only).
    pub setup_ns: Vec<u64>,
    /// Per-frame `finish_into` and engine drop (traced passes only).
    pub finish_ns: Vec<u64>,
    /// Total `feed_slice` time (traced passes only).
    pub feed_ns: u64,
}

/// Tag frames with `taggers[c]` for corpus `c` until `budget` has
/// passed, adding to `run`. With `trace`, each layer call is timed on
/// its own.
pub fn run(
    corpora: &[Corpus],
    taggers: &[TokenTagger],
    budget: Duration,
    trace: bool,
    run: &mut InprocRun,
) {
    // Round-robin across corpora, so every grammar is in the working
    // set at once, as on a host tagging several protocols.
    let longest = corpora.iter().map(|c| c.frames.len()).max().unwrap_or(0);
    let order: Vec<(usize, usize)> = (0..longest)
        .flat_map(|i| {
            (0..corpora.len()).filter(move |&c| i < corpora[c].frames.len()).map(move |c| (c, i))
        })
        .collect();
    let kind = EngineKind::default();
    let mut out: Vec<TagEvent> = Vec::new();
    let deadline = Instant::now() + budget;
    'outer: loop {
        for &(c, i) in &order {
            let t0 = Instant::now();
            if t0 >= deadline {
                break 'outer;
            }
            let frame = &corpora[c].frames[i];
            run.frames += 1;
            out.clear();
            let Ok(mut engine) = taggers[c].engine(kind) else {
                run.failed += 1;
                continue;
            };
            let t1 = Instant::now();
            let fed = engine.feed_slice(frame, &mut out).is_ok();
            let t2 = Instant::now();
            let ok = fed && engine.finish_into(&mut out).is_ok();
            drop(engine);
            let t3 = Instant::now();
            run.bytes += frame.len() as u64;
            run.frame_ns.push((t3 - t0).as_nanos() as u64);
            if trace {
                run.setup_ns.push((t1 - t0).as_nanos() as u64);
                run.feed_ns += (t2 - t1).as_nanos() as u64;
                run.finish_ns.push((t3 - t2).as_nanos() as u64);
            }
            if !ok || out != corpora[c].expected[i] {
                run.failed += 1;
            }
        }
    }
}

/// Share of input bytes on which the production engine is live (not
/// dead), in percent: fed one byte at a time, untimed.
pub fn live_byte_pct(corpora: &[Corpus], taggers: &[TokenTagger]) -> f64 {
    let (mut live, mut total) = (0u64, 0u64);
    let mut out = Vec::new();
    for (corpus, tagger) in corpora.iter().zip(taggers) {
        for frame in &corpus.frames {
            let mut engine = tagger.engine(EngineKind::default()).expect("engine builds");
            for &b in frame {
                engine.feed_slice(&[b], &mut out).expect("engine feeds");
                out.clear();
                live += u64::from(!engine.is_dead());
                total += 1;
            }
        }
    }
    100.0 * live as f64 / total.max(1) as f64
}
