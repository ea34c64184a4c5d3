//! The bit-parallel tagging kernel — every Glushkov position of every
//! token packed into dense `u64` bitset words.
//!
//! [`BitTables`] lays all tokens' positions out in one global position
//! space (token `t` owns the contiguous bit span `offset[t]..offset[t+1]`)
//! and precomputes:
//!
//! * a 256-entry **byte→bitmask decode ROM** (`class_rom`) — the software
//!   analogue of the paper's §3.2 character decoders: one row lookup per
//!   input byte yields the candidate mask for *all* positions of *all*
//!   tokens at once (built from [`cfg_regex::Template::decode_rom`]),
//! * a matching **continuation ROM** for the Figure 7 longest-match
//!   lookahead (`cont_rom`),
//! * per-position FOLLOW/predecessor masks, per-token FIRST masks, and a
//!   global LAST mask,
//! * token-level bitsets for enables, arms and the FOLLOW relation.
//!
//! [`BitEngine`] then replaces the scalar per-position inner loop with
//! word-wide ops: `next = (follow_union(active) | first_of(enabled)) &
//! class_rom[byte]`, match detection is `next & last_mask &
//! !cont_rom[lookahead]`, and `active_any` / `is_dead` are a few word
//! compares. Only *set bits* are ever iterated (lexeme-start bookkeeping
//! and event emission), so cost tracks live positions, not table size.
//! A dead machine with no wake-up source is clock-gated, and a feed
//! skips the rest of its slice in O(1) once the gate holds.
//!
//! Events are byte-identical to [`crate::ScalarEngine`] and the gate
//! engine (property-tested), and the observability contract is the same:
//! metrics/probe recording hides behind cached `live_*` flags so the
//! dark path pays nothing.

use crate::event::TagEvent;
use crate::probes::TaggerProbes;
use crate::tagger::TaggerOptions;
use cfg_grammar::{Grammar, TokenId};
use cfg_hwgen::StartMode;
use cfg_obs::{Metrics, Stat, TraceEvent};
use cfg_regex::ByteSet;
use std::sync::Arc;

/// Shared bit-parallel tables for one compiled grammar.
#[derive(Debug, Clone)]
pub struct BitTables {
    /// Words per global position mask (`ceil(positions/64)`).
    words: usize,
    /// Words per token mask (`ceil(tokens/64)`).
    twords: usize,
    /// Total global positions.
    positions: usize,
    /// Global bit offset per token (length `tokens + 1`).
    offset: Vec<usize>,
    /// Owning token of each global position.
    pos_token: Vec<u32>,
    /// Byte→candidate-positions decode ROM: 256 rows × `words`.
    class_rom: Vec<u64>,
    /// Byte→continuation-positions ROM: 256 rows × `words`.
    cont_rom: Vec<u64>,
    /// FOLLOW mask per global position (`positions` rows × `words`).
    follow: Vec<u64>,
    /// Predecessor mask per global position (inverted FOLLOW).
    pred: Vec<u64>,
    /// FIRST-position mask per token (`tokens` rows × `words`).
    first_masks: Vec<u64>,
    /// OR of `first_masks` over the start set (the §3.3 start pulse).
    start_first_mask: Vec<u64>,
    /// LAST positions, globally.
    last_mask: Vec<u64>,
    /// Tokens in FIRST(start), as a token bitset.
    start_tokens: Vec<u64>,
    /// FOLLOW(token) as token bitsets (`tokens` rows × `twords`).
    follower_words: Vec<u64>,
    /// FOLLOW(token) as ascending index lists — the gated probe/trace
    /// path iterates these so edge attribution matches the scalar engine.
    follower_lists: Vec<Vec<usize>>,
    delim: ByteSet,
    always: bool,
    longest: bool,
    error_recovery: bool,
}

impl BitTables {
    /// Build the packed tables from a compiled grammar.
    pub fn build(g: &Grammar, opts: &TaggerOptions) -> BitTables {
        let analysis = g.analyze();
        let token_count = g.tokens().len();
        let mut offset = Vec::with_capacity(token_count + 1);
        offset.push(0usize);
        for tok in g.tokens() {
            offset.push(offset.last().unwrap() + tok.pattern.template().positions.len());
        }
        let positions = *offset.last().unwrap();
        let words = positions.div_ceil(64);
        let twords = token_count.div_ceil(64).max(1);

        let mut pos_token = vec![0u32; positions];
        let mut class_rom = vec![0u64; 256 * words];
        let mut cont_rom = vec![0u64; 256 * words];
        let mut follow = vec![0u64; positions * words];
        let mut pred = vec![0u64; positions * words];
        let mut first_masks = vec![0u64; token_count * words];
        let mut last_mask = vec![0u64; words];

        let set = |mask: &mut [u64], bit: usize| mask[bit >> 6] |= 1u64 << (bit & 63);
        for (t, tok) in g.tokens().iter().enumerate() {
            let tpl = tok.pattern.template();
            let off = offset[t];
            for p in 0..tpl.positions.len() {
                pos_token[off + p] = t as u32;
            }
            // Splice the token-local ROMs (exported by cfg-regex) into
            // the global rows at this token's bit offset.
            let lw = tpl.mask_words();
            for (rom, local) in
                [(&mut class_rom, tpl.decode_rom()), (&mut cont_rom, tpl.continuation_rom())]
            {
                for b in 0..256usize {
                    for j in 0..lw {
                        let word = local[b * lw + j];
                        if word == 0 {
                            continue;
                        }
                        let base = off + (j << 6);
                        let (gw, sh) = (base >> 6, base & 63);
                        rom[b * words + gw] |= word << sh;
                        if sh != 0 && gw + 1 < words {
                            rom[b * words + gw + 1] |= word >> (64 - sh);
                        }
                    }
                }
            }
            for (p, fs) in tpl.follow.iter().enumerate() {
                for &q in fs {
                    set(&mut follow[(off + p) * words..][..words], off + q);
                    set(&mut pred[(off + q) * words..][..words], off + p);
                }
            }
            for &p in &tpl.first {
                set(&mut first_masks[t * words..][..words], off + p);
            }
            for &p in &tpl.last {
                set(&mut last_mask, off + p);
            }
        }

        let mut start_tokens = vec![0u64; twords];
        let mut start_first_mask = vec![0u64; words];
        let mut follower_words = vec![0u64; token_count * twords];
        let mut follower_lists = Vec::with_capacity(token_count);
        for t in 0..token_count {
            if analysis.start_set.contains(TokenId(t as u32)) {
                set(&mut start_tokens, t);
                for (m, &f) in start_first_mask.iter_mut().zip(&first_masks[t * words..][..words]) {
                    *m |= f;
                }
            }
            let list: Vec<usize> =
                analysis.follow_of(TokenId(t as u32)).iter().map(|f| f.index()).collect();
            for &f in &list {
                set(&mut follower_words[t * twords..][..twords], f);
            }
            follower_lists.push(list);
        }

        BitTables {
            words,
            twords,
            positions,
            offset,
            pos_token,
            class_rom,
            cont_rom,
            follow,
            pred,
            first_masks,
            start_first_mask,
            last_mask,
            start_tokens,
            follower_words,
            follower_lists,
            delim: g.delimiters(),
            always: opts.start_mode == StartMode::Always,
            longest: !opts.disable_longest_match,
            error_recovery: opts.error_recovery,
        }
    }

    /// Number of tokens.
    pub fn token_count(&self) -> usize {
        self.offset.len() - 1
    }

    /// Total Glushkov positions across all tokens.
    pub fn position_count(&self) -> usize {
        self.positions
    }

    /// Words per global position bitmask.
    pub fn mask_words(&self) -> usize {
        self.words
    }

    /// Fault-injection hook for the shadow-audit tests: a copy of the
    /// tables with the decode-ROM row for `byte` cleared, as if that
    /// one character decoder were stuck at zero. Clearing (rather than
    /// setting) guarantees an observable divergence — `next` is ANDed
    /// with the row, so every candidacy through `byte` dies. Never used
    /// on a production path.
    #[doc(hidden)]
    pub fn with_corrupted_rom_row(&self, byte: u8) -> BitTables {
        let mut t = self.clone();
        let row = byte as usize * t.words;
        t.class_rom[row..row + t.words].fill(0);
        t
    }
}

/// Streaming bit-parallel engine. Create via
/// [`crate::TokenTagger::fast_engine`]; feed byte slices, then call
/// [`BitEngine::finish`] to drain the final lookahead byte.
#[derive(Debug)]
pub struct BitEngine {
    tables: Arc<BitTables>,
    /// Active position bitset (valid after the last committed step).
    active: Vec<u64>,
    /// Scratch: next active bitset (double-buffered per byte).
    next: Vec<u64>,
    /// Scratch: first-position enables for this byte.
    first_en: Vec<u64>,
    /// Scratch: enabled-token bitset for this byte.
    enabled: Vec<u64>,
    /// Lexeme start per global position; valid where `active` is set.
    starts: Vec<usize>,
    next_starts: Vec<usize>,
    /// Token bitset: enables pulsed by matches on the previous byte.
    set_now: Vec<u64>,
    /// Token bitset: arm registers (enables held across delimiters).
    arm: Vec<u64>,
    /// Scratch: `(token, lexeme start)` per match this byte.
    fired: Vec<(usize, usize)>,
    /// Cached [`BitEngine::is_dead`] — lets a dead machine with no
    /// wake-up source be clock-gated (see `clock_gated`).
    dead: bool,
    prev_was_delim: bool,
    pending: Option<u8>,
    cursor: usize,
    finished: bool,
    metrics: Metrics,
    /// Cached `metrics.is_enabled()` — same contract as the scalar
    /// engine: a dark sink costs nothing per byte.
    live_stats: bool,
    was_dead: bool,
    probes: Option<Arc<TaggerProbes>>,
}

impl BitEngine {
    /// New engine over shared tables.
    pub fn new(tables: Arc<BitTables>) -> BitEngine {
        let (w, tw, p) = (tables.words, tables.twords, tables.positions);
        let mut e = BitEngine {
            active: vec![0; w],
            next: vec![0; w],
            first_en: vec![0; w],
            enabled: vec![0; tw],
            starts: vec![0; p],
            next_starts: vec![0; p],
            set_now: vec![0; tw],
            arm: vec![0; tw],
            fired: Vec::new(),
            dead: false,
            prev_was_delim: false,
            pending: None,
            cursor: 0,
            finished: false,
            metrics: Metrics::off(),
            live_stats: false,
            was_dead: false,
            probes: None,
            tables,
        };
        e.reset();
        e
    }

    /// Attach an observability handle (builder style).
    pub fn with_metrics(mut self, metrics: Metrics) -> BitEngine {
        self.live_stats = metrics.is_enabled();
        self.metrics = metrics;
        self
    }

    /// Attach circuit probes (builder style). Without them the per-byte
    /// probe scans are skipped entirely.
    pub fn with_probes(mut self, probes: Arc<TaggerProbes>) -> BitEngine {
        self.probes = Some(probes);
        self
    }

    /// Reset to the start-of-stream state.
    pub fn reset(&mut self) {
        self.active.iter_mut().for_each(|x| *x = 0);
        self.arm.iter_mut().for_each(|x| *x = 0);
        // The start pulse: FIRST(start) tokens are enabled for byte 0.
        self.set_now.copy_from_slice(&self.tables.start_tokens);
        self.prev_was_delim = false;
        self.pending = None;
        self.cursor = 0;
        self.finished = false;
        self.was_dead = false;
        self.dead = self.is_dead();
    }

    /// Is the machine dead — no live positions, no armed enables, and no
    /// enables set for the next byte?
    pub fn is_dead(&self) -> bool {
        self.active.iter().all(|&x| x == 0)
            && self.arm.iter().all(|&x| x == 0)
            && self.set_now.iter().all(|&x| x == 0)
    }

    /// Feed bytes; returns the events completed so far (an event is only
    /// emitted once its lookahead byte has been seen).
    pub fn feed(&mut self, bytes: &[u8]) -> Vec<TagEvent> {
        let mut events = Vec::new();
        self.feed_into(bytes, &mut events);
        events
    }

    /// Slice-first feed: append completed events to `events` without
    /// allocating a fresh vector per call.
    pub fn feed_into(&mut self, bytes: &[u8], events: &mut Vec<TagEvent>) {
        assert!(!self.finished, "feed after finish; call reset first");
        // One refcount bump per feed() call, not per byte; the window
        // walk keeps the lookahead pairing out of the per-byte path.
        let tables = Arc::clone(&self.tables);
        if let (Some(prev), Some(&first)) = (self.pending, bytes.first()) {
            self.step(&tables, prev, Some(first), events);
        }
        for (i, pair) in bytes.windows(2).enumerate() {
            // Dead-run skip: once the clock gate holds it holds for every
            // remaining byte (a gated step changes nothing it reads), and
            // each gated step only latches the delimiter flip-flop — so
            // the rest of the slice collapses to its last paired byte.
            if self.clock_gated(&tables) {
                let paired = bytes.len() - 1;
                self.cursor += paired - i;
                self.prev_was_delim = tables.delim.contains(bytes[paired - 1]);
                break;
            }
            self.step(&tables, pair[0], Some(pair[1]), events);
        }
        if let Some(&last) = bytes.last() {
            self.pending = Some(last);
        }
        self.metrics.add(Stat::BytesIn, bytes.len() as u64);
    }

    /// Drain the final byte against a delimiter flush, exactly like the
    /// scalar engine (see [`crate::ScalarEngine::finish`]).
    pub fn finish(&mut self) -> Vec<TagEvent> {
        let mut events = Vec::new();
        self.finish_into(&mut events);
        events
    }

    /// Slice-first variant of [`BitEngine::finish`]: append the drained
    /// events to `events`.
    pub fn finish_into(&mut self, events: &mut Vec<TagEvent>) {
        let tables = Arc::clone(&self.tables);
        if let Some(prev) = self.pending.take() {
            let flush = tables.delim.iter().next().unwrap_or(b' ');
            self.step(&tables, prev, Some(flush), events);
        }
        self.finished = true;
    }

    /// Bytes processed so far (excluding the pending lookahead byte).
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Number of currently live Glushkov positions (one popcount pass —
    /// the software reading of the circuit's stage-register activity).
    pub fn active_positions(&self) -> usize {
        self.active.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Process one byte with its lookahead; `self.cursor` indexes it.
    /// Dispatches to a monomorphic kernel for the common word counts so
    /// the compiler unrolls every word loop and keeps the masks in
    /// registers; wider grammars take [`BitEngine::step_dyn`].
    fn step(&mut self, t: &BitTables, byte: u8, next_byte: Option<u8>, events: &mut Vec<TagEvent>) {
        match t.words {
            1 => self.step_w::<1>(t, byte, next_byte, events),
            2 => self.step_w::<2>(t, byte, next_byte, events),
            3 => self.step_w::<3>(t, byte, next_byte, events),
            4 => self.step_w::<4>(t, byte, next_byte, events),
            5 => self.step_w::<5>(t, byte, next_byte, events),
            6 => self.step_w::<6>(t, byte, next_byte, events),
            7 => self.step_w::<7>(t, byte, next_byte, events),
            8 => self.step_w::<8>(t, byte, next_byte, events),
            _ => self.step_dyn(t, byte, next_byte, events),
        }
    }

    /// Clock gating: a dead machine with no wake-up source — no
    /// Always-mode scanning, no §5.2 recovery, no lit probe bank
    /// sampling decoders — cannot change state or emit an event, so a
    /// byte only advances the delimiter flip-flop. This is the software
    /// mirror of the circuit's zero switching activity when every stage
    /// register holds 0. The one predicate gates each step and lets
    /// [`BitEngine::feed_into`] skip the rest of a slice in O(1).
    fn clock_gated(&self, t: &BitTables) -> bool {
        self.dead && !t.always && !t.error_recovery && self.probes.is_none()
    }

    /// Monomorphic step for a grammar whose position masks are exactly
    /// `W` words (≤ `64 * W` positions): the per-byte bitsets live in
    /// stack arrays, so nothing round-trips through the heap scratch
    /// vectors and every word loop unrolls. Must stay semantically
    /// identical to [`BitEngine::step_dyn`] — the wide-grammar test and
    /// the three-engine property tests hold both to one event stream.
    fn step_w<const W: usize>(
        &mut self,
        t: &BitTables,
        byte: u8,
        next_byte: Option<u8>,
        events: &mut Vec<TagEvent>,
    ) {
        debug_assert_eq!(t.words, W);
        let i = self.cursor;
        self.cursor += 1;
        let is_delim = t.delim.contains(byte);

        if self.clock_gated(t) {
            self.prev_was_delim = is_delim;
            return;
        }

        if let Some(pr) = &self.probes {
            decoder_probes(pr, byte);
        }

        let mut active = [0u64; W];
        active.copy_from_slice(&self.active[..W]);
        let active_any = active.iter().any(|&x| x != 0);
        // §5.2 error recovery: dead machine at a token boundary
        // re-enables the start tokens.
        let recover = t.error_recovery
            && self.prev_was_delim
            && !active_any
            && self.arm.iter().all(|&x| x == 0);
        let start_enabled = t.always || recover;
        let enabled_any = self.compute_enabled(t, start_enabled);

        // next = follow_union(active): OR the FOLLOW row of every live
        // position (cost tracks live positions, not table size).
        let mut next = [0u64; W];
        if active_any {
            for (k, &aw) in active.iter().enumerate() {
                let mut word = aw;
                while word != 0 {
                    let p = (k << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let row = &t.follow[p * W..][..W];
                    for j in 0..W {
                        next[j] |= row[j];
                    }
                }
            }
        }

        // First-position enables for this byte's enabled tokens.
        let mut first_en = [0u64; W];
        if start_enabled {
            first_en.copy_from_slice(&t.start_first_mask[..W]);
        }
        if enabled_any {
            for k in 0..t.twords {
                let mut word =
                    self.enabled[k] & if start_enabled { !t.start_tokens[k] } else { !0u64 };
                while word != 0 {
                    let tok = (k << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let row = &t.first_masks[tok * W..][..W];
                    for j in 0..W {
                        first_en[j] |= row[j];
                    }
                }
            }
        }

        // Gate both through this byte's decode-ROM row.
        let rom = &t.class_rom[byte as usize * W..][..W];
        let mut new_any = 0u64;
        for k in 0..W {
            first_en[k] &= rom[k];
            next[k] = (next[k] & rom[k]) | first_en[k];
            new_any |= next[k];
        }

        self.fired.clear();
        if new_any != 0 {
            // Lexeme starts for every newly live position: min over its
            // active predecessors, or this byte for a FIRST enable.
            for (k, &nw) in next.iter().enumerate() {
                let mut word = nw;
                while word != 0 {
                    let q = (k << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let mut s = if first_en[q >> 6] >> (q & 63) & 1 == 1 { i } else { usize::MAX };
                    let prow = &t.pred[q * W..][..W];
                    for k2 in 0..W {
                        let mut pw = prow[k2] & active[k2];
                        while pw != 0 {
                            let p = (k2 << 6) + pw.trailing_zeros() as usize;
                            pw &= pw - 1;
                            s = s.min(self.starts[p]);
                        }
                    }
                    self.next_starts[q] = s;
                }
            }
            if let Some(pr) = &self.probes {
                stage_probes(pr, t, &next);
            }

            // Match detection: LAST positions whose continuation class
            // does not contain the lookahead byte (Figure 7).
            let cont =
                next_byte.filter(|_| t.longest).map(|nb| &t.cont_rom[nb as usize * W..][..W]);
            let mut cur_token = usize::MAX;
            let mut cur_start = usize::MAX;
            for k in 0..W {
                let mut word = next[k] & t.last_mask[k];
                if let Some(c) = cont {
                    word &= !c[k];
                }
                while word != 0 {
                    let q = (k << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    // Positions of one token are contiguous, so ascending
                    // bit order visits tokens in index order — the same
                    // event order the scalar engine produces.
                    let tok = t.pos_token[q] as usize;
                    if tok != cur_token {
                        if cur_token != usize::MAX {
                            self.fired.push((cur_token, cur_start));
                        }
                        cur_token = tok;
                        cur_start = self.next_starts[q];
                    } else {
                        cur_start = cur_start.min(self.next_starts[q]);
                    }
                }
            }
            if cur_token != usize::MAX {
                self.fired.push((cur_token, cur_start));
            }
            self.emit_fired(i, events);
        }

        // Commit position state.
        self.active[..W].copy_from_slice(&next);
        std::mem::swap(&mut self.starts, &mut self.next_starts);

        let (set_any, arm_any) = self.rebuild_enables(t, is_delim);
        self.prev_was_delim = is_delim;
        // Liveness without rescanning: dead iff no position survived the
        // ROM gate and no enable carries into the next byte.
        self.dead = new_any == 0 && set_any == 0 && arm_any == 0;

        if self.live_stats {
            self.liveness_stats(recover, i);
        }
    }

    /// General-width step — any number of position words, heap scratch.
    fn step_dyn(
        &mut self,
        t: &BitTables,
        byte: u8,
        next_byte: Option<u8>,
        events: &mut Vec<TagEvent>,
    ) {
        let i = self.cursor;
        self.cursor += 1;
        let (w, tw) = (t.words, t.twords);
        let is_delim = t.delim.contains(byte);

        if self.clock_gated(t) {
            self.prev_was_delim = is_delim;
            return;
        }

        // Decoder-hit probes (gated; mirrors the Figure 4/5 decode wires).
        if let Some(pr) = &self.probes {
            decoder_probes(pr, byte);
        }

        let active_any = self.active.iter().any(|&x| x != 0);
        // §5.2 error recovery: dead machine at a token boundary re-enables
        // the start tokens.
        let recover = t.error_recovery
            && self.prev_was_delim
            && !active_any
            && self.arm.iter().all(|&x| x == 0);
        let start_enabled = t.always || recover;
        let enabled_any = self.compute_enabled(t, start_enabled);

        // next = follow_union(active): OR the FOLLOW row of every live
        // position (cost tracks live positions, not table size).
        self.next.iter_mut().for_each(|x| *x = 0);
        if active_any {
            for k in 0..w {
                let mut word = self.active[k];
                while word != 0 {
                    let p = (k << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let row = &t.follow[p * w..][..w];
                    for (n, &r) in self.next.iter_mut().zip(row) {
                        *n |= r;
                    }
                }
            }
        }

        // First-position enables for this byte's enabled tokens. The
        // start set's OR is precomputed; only match-pulsed/armed tokens
        // outside it are folded in bit by bit.
        self.first_en.iter_mut().for_each(|x| *x = 0);
        if start_enabled {
            self.first_en.copy_from_slice(&t.start_first_mask);
        }
        if enabled_any {
            for k in 0..tw {
                let mut word =
                    self.enabled[k] & if start_enabled { !t.start_tokens[k] } else { !0u64 };
                while word != 0 {
                    let tok = (k << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let row = &t.first_masks[tok * w..][..w];
                    for (f, &r) in self.first_en.iter_mut().zip(row) {
                        *f |= r;
                    }
                }
            }
        }

        // Gate both through this byte's decode-ROM row.
        let rom = &t.class_rom[byte as usize * w..][..w];
        let mut new_any = 0u64;
        for ((f, n), &r) in self.first_en.iter_mut().zip(self.next.iter_mut()).zip(rom) {
            *f &= r;
            *n = (*n & r) | *f;
            new_any |= *n;
        }

        self.fired.clear();
        if new_any != 0 {
            // Lexeme starts for every newly live position: min over its
            // active predecessors, or this byte for a FIRST enable.
            for k in 0..w {
                let mut word = self.next[k];
                while word != 0 {
                    let q = (k << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let mut s =
                        if self.first_en[q >> 6] >> (q & 63) & 1 == 1 { i } else { usize::MAX };
                    let prow = &t.pred[q * w..][..w];
                    for (k2, (&pm, &am)) in prow.iter().zip(&self.active).enumerate() {
                        let mut pw = pm & am;
                        while pw != 0 {
                            let p = (k2 << 6) + pw.trailing_zeros() as usize;
                            pw &= pw - 1;
                            s = s.min(self.starts[p]);
                        }
                    }
                    self.next_starts[q] = s;
                }
            }
            // Stage-activity probes (gated): one hit per position register
            // going active this byte.
            if let Some(pr) = &self.probes {
                stage_probes(pr, t, &self.next);
            }

            // Match detection: LAST positions whose continuation class
            // does not contain the lookahead byte (Figure 7).
            let cont =
                next_byte.filter(|_| t.longest).map(|nb| &t.cont_rom[nb as usize * w..][..w]);
            let mut cur_token = usize::MAX;
            let mut cur_start = usize::MAX;
            for k in 0..w {
                let mut word = self.next[k] & t.last_mask[k];
                if let Some(c) = cont {
                    word &= !c[k];
                }
                while word != 0 {
                    let q = (k << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    // Positions of one token are contiguous, so ascending
                    // bit order visits tokens in index order — the same
                    // event order the scalar engine produces.
                    let tok = t.pos_token[q] as usize;
                    if tok != cur_token {
                        if cur_token != usize::MAX {
                            self.fired.push((cur_token, cur_start));
                        }
                        cur_token = tok;
                        cur_start = self.next_starts[q];
                    } else {
                        cur_start = cur_start.min(self.next_starts[q]);
                    }
                }
            }
            if cur_token != usize::MAX {
                self.fired.push((cur_token, cur_start));
            }
            self.emit_fired(i, events);
        }

        // Commit position state.
        std::mem::swap(&mut self.active, &mut self.next);
        std::mem::swap(&mut self.starts, &mut self.next_starts);

        let (set_any, arm_any) = self.rebuild_enables(t, is_delim);
        self.prev_was_delim = is_delim;
        self.dead = new_any == 0 && set_any == 0 && arm_any == 0;

        if self.live_stats {
            self.liveness_stats(recover, i);
        }
    }

    /// Enabled tokens, word-wide; returns whether any token is enabled.
    fn compute_enabled(&mut self, t: &BitTables, start_enabled: bool) -> bool {
        let mut any = 0u64;
        for k in 0..t.twords {
            self.enabled[k] =
                self.set_now[k] | self.arm[k] | if start_enabled { t.start_tokens[k] } else { 0 };
            any |= self.enabled[k];
        }
        any != 0
    }

    /// Push this byte's matches as events, with gated metrics/probes.
    fn emit_fired(&self, i: usize, events: &mut Vec<TagEvent>) {
        for &(tok, start) in &self.fired {
            events.push(TagEvent { token: TokenId(tok as u32), start, end: i + 1 });
            if self.live_stats {
                self.metrics.token_fire(tok as u32, 1);
                self.metrics.trace(|| {
                    TraceEvent::new("token_fire")
                        .field("token", tok as u32)
                        .field("start", start)
                        .field("end", i + 1)
                });
            }
            if let Some(pr) = &self.probes {
                pr.bank().hit(pr.fire[tok], 1);
            }
        }
    }

    /// Rebuild the next byte's enables from this byte's matches and hold
    /// this byte's enables across delimiters in the arm registers.
    /// Returns the OR over `set_now` and over `arm` (for the dead test).
    fn rebuild_enables(&mut self, t: &BitTables, is_delim: bool) -> (u64, u64) {
        let tw = t.twords;
        self.set_now.iter_mut().for_each(|x| *x = 0);
        let gated = self.probes.is_some() || self.live_stats;
        for mi in 0..self.fired.len() {
            let u = self.fired[mi].0;
            if gated {
                // List path: identical iteration order (and so identical
                // probe/trace attribution) to the scalar engine.
                for (k, &f) in t.follower_lists[u].iter().enumerate() {
                    self.set_now[f >> 6] |= 1u64 << (f & 63);
                    if let Some(pr) = &self.probes {
                        if let Some(&idx) = pr.edges[u].get(k) {
                            pr.bank().hit(idx, 1);
                        }
                    }
                    if self.live_stats {
                        self.metrics.trace(|| {
                            TraceEvent::new("follow_edge").field("from", u).field("to", f)
                        });
                    }
                }
            } else {
                let row = &t.follower_words[u * tw..][..tw];
                for (s, &r) in self.set_now.iter_mut().zip(row) {
                    *s |= r;
                }
            }
        }
        let mut set_any = 0u64;
        for &s in &self.set_now {
            set_any |= s;
        }
        let mut arm_any = 0u64;
        for k in 0..tw {
            self.arm[k] = if is_delim { self.enabled[k] } else { 0 };
            arm_any |= self.arm[k];
        }
        (set_any, arm_any)
    }

    /// Liveness accounting (§5.2), only under an enabled sink; reads the
    /// freshly committed `self.dead`.
    fn liveness_stats(&mut self, recover: bool, i: usize) {
        let alive = !self.dead;
        if recover && alive {
            self.metrics.add(Stat::Resyncs, 1);
            self.metrics.trace(|| TraceEvent::new("resync").field("at", i));
        }
        if !alive && !self.was_dead {
            self.metrics.add(Stat::DeadEntries, 1);
            self.metrics.trace(|| TraceEvent::new("dead_entry").field("at", i));
        }
        self.was_dead = !alive;
    }
}

/// Decoder-hit probes: the registered decoder for every class holding
/// `byte` asserts (mirrors the Figure 4/5 decode wires).
fn decoder_probes(pr: &TaggerProbes, byte: u8) {
    for (set, idx) in &pr.decoders {
        if set.contains(byte) {
            pr.bank().hit(*idx, 1);
        }
    }
}

/// Stage-activity probes: one hit per position register in `next`.
fn stage_probes(pr: &TaggerProbes, t: &BitTables, next: &[u64]) {
    for (k, &nw) in next.iter().enumerate() {
        let mut word = nw;
        while word != 0 {
            let q = (k << 6) + word.trailing_zeros() as usize;
            word &= word - 1;
            let tok = t.pos_token[q] as usize;
            if let Some(&idx) = pr.stages[tok].get(q - t.offset[tok]) {
                pr.bank().hit(idx, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::tagger::{StartMode, TaggerOptions, TokenTagger};
    use cfg_grammar::{builtin, Grammar};

    #[test]
    fn rom_rows_match_position_classes() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let bt = t.bit_tables();
        let w = bt.mask_words();
        for (tok_idx, tok) in t.grammar().tokens().iter().enumerate() {
            let tpl = tok.pattern.template();
            let off = bt.offset[tok_idx];
            for (p, class) in tpl.positions.iter().enumerate() {
                for b in 0..=255u8 {
                    let gp = off + p;
                    let bit = bt.class_rom[b as usize * w + (gp >> 6)] >> (gp & 63) & 1;
                    assert_eq!(bit == 1, class.contains(b), "token {tok_idx} pos {p} byte {b}");
                }
            }
        }
    }

    #[test]
    fn streaming_matches_batch_and_scalar() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let input = b"if true then go else stop";
        let batch = t.tag_fast(input);
        let mut scalar = t.scalar_engine();
        let mut expect = scalar.feed(input);
        expect.extend(scalar.finish());
        assert_eq!(batch, expect);

        for chunk in [1usize, 2, 3, 7] {
            let mut e = t.fast_engine();
            let mut events = Vec::new();
            for c in input.chunks(chunk) {
                events.extend(e.feed(c));
            }
            events.extend(e.finish());
            assert_eq!(events, batch, "chunk size {chunk}");
        }
    }

    #[test]
    fn agrees_with_scalar_on_modes_and_junk() {
        let g = builtin::if_then_else();
        for (always, recover) in [(false, false), (true, false), (false, true), (true, true)] {
            let opts = TaggerOptions::builder()
                .start_mode(if always { StartMode::Always } else { StartMode::AtStart })
                .error_recovery(recover)
                .build();
            let t = TokenTagger::compile(&g, opts).unwrap();
            let tail = dead_tail(200);
            for input in [
                &b"if true then go else stop"[..],
                b"zzz go zzz",
                b"gogo if  stop",
                b"",
                b"then then then",
                &tail,
            ] {
                let mut scalar = t.scalar_engine();
                let mut expect = scalar.feed(input);
                expect.extend(scalar.finish());
                for chunk in [1usize, 3, 64, input.len().max(1)] {
                    let mut e = t.fast_engine();
                    let mut got = Vec::new();
                    for c in input.chunks(chunk) {
                        e.feed_into(c, &mut got);
                    }
                    e.finish_into(&mut got);
                    assert_eq!(got, expect, "always={always} recover={recover} chunk={chunk}");
                }
                assert_eq!(
                    {
                        let mut e = t.fast_engine();
                        e.feed(input);
                        let _ = e.finish();
                        e.is_dead()
                    },
                    scalar.is_dead(),
                    "dead state diverges on {input:?}"
                );
            }
        }
    }

    /// A sentence, then a junk tail long enough that every chunk split
    /// leaves the dead-run skip a mid-slice start and a chunk edge.
    fn dead_tail(junk: usize) -> Vec<u8> {
        let mut input = b"if true then go else stop zz".to_vec();
        input.extend((0..junk).map(|i| if i % 97 == 0 { b' ' } else { b"xtes"[i % 4] }));
        input.push(b' ');
        input
    }

    #[test]
    fn dead_tail_skip_keeps_scalar_state() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let input = dead_tail(1 << 20);
        let mut scalar = t.scalar_engine();
        let mut expect = scalar.feed(&input);
        let mid = (scalar.position(), scalar.is_dead());
        expect.extend(scalar.finish());
        assert_eq!(expect.len(), 6);
        assert!(mid.1, "the junk tail must kill the machine");
        for chunk in [1usize, 7, 64, 4096] {
            let mut e = t.fast_engine();
            let mut got = Vec::new();
            for c in input.chunks(chunk) {
                e.feed_into(c, &mut got);
            }
            assert_eq!((e.position(), e.is_dead()), mid, "chunk {chunk}");
            e.finish_into(&mut got);
            assert_eq!(got, expect, "chunk {chunk}");
            assert_eq!(e.position(), scalar.position(), "chunk {chunk}");
        }
    }

    #[test]
    fn live_sink_counts_match_scalar_across_the_skip() {
        use cfg_obs::{Metrics, Stat, StatsSink};
        use std::sync::Arc;
        let g = builtin::if_then_else();
        for recover in [false, true] {
            let opts = TaggerOptions::builder().error_recovery(recover).build();
            let t = TokenTagger::compile(&g, opts).unwrap();
            let mut input = b"if true zz then ".to_vec();
            input.extend(std::iter::repeat_n(b'j', 300));
            input.extend_from_slice(b" go else stop");

            let sink_s = Arc::new(StatsSink::new());
            let mut scalar = t.scalar_engine().with_metrics(Metrics::new(sink_s.clone()));
            let mut expect = scalar.feed(&input);
            expect.extend(scalar.finish());
            for chunk in [7usize, input.len()] {
                let sink_b = Arc::new(StatsSink::new());
                let mut bit = t.fast_engine().with_metrics(Metrics::new(sink_b.clone()));
                let mut got = Vec::new();
                for c in input.chunks(chunk) {
                    bit.feed_into(c, &mut got);
                }
                bit.finish_into(&mut got);
                assert_eq!(got, expect, "recover={recover} chunk={chunk}");
                for stat in [Stat::BytesIn, Stat::Resyncs, Stat::DeadEntries] {
                    assert_eq!(
                        sink_b.get(stat),
                        sink_s.get(stat),
                        "{stat:?} diverges under a live sink (recover={recover} chunk={chunk})"
                    );
                }
            }
        }
    }

    #[test]
    fn lit_probe_bank_disables_the_skip() {
        use std::sync::Arc;
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        // The tail's letters hit the t/e/s decoders, so a skipped byte
        // would show up as a missing decoder count.
        let input = dead_tail(300);
        let counts = |chunk: usize| {
            let pr = t.probes();
            let mut e = t.fast_engine().with_probes(Arc::clone(&pr));
            for c in input.chunks(chunk) {
                e.feed(c);
            }
            e.finish();
            pr.bank().counts()
        };
        let dribble = counts(1);
        for chunk in [7usize, 64, input.len()] {
            assert_eq!(counts(chunk), dribble, "chunk {chunk}");
        }
        // The scalar engine has no clock gate: it samples every byte.
        let pr = t.probes();
        let mut scalar = t.scalar_engine().with_probes(Arc::clone(&pr));
        scalar.feed(&input);
        scalar.finish();
        assert_eq!(pr.bank().counts(), dribble);
    }

    #[test]
    fn repeated_list_items_and_reset() {
        let g = Grammar::parse(
            r#"
            %%
            list: "<l>" item "</l>";
            item: | "<i>" "</i>" item;
            %%
            "#,
        )
        .unwrap();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let input = b"<l><i></i><i></i></l>";
        let names: Vec<&str> = t.tag_fast(input).iter().map(|e| t.token_name(e.token)).collect();
        assert_eq!(names, ["<l>", "<i>", "</i>", "<i>", "</i>", "</l>"]);

        let mut e = t.fast_engine();
        let mut ev1 = e.feed(input);
        ev1.extend(e.finish());
        e.reset();
        let mut ev2 = e.feed(input);
        ev2.extend(e.finish());
        assert_eq!(ev1, ev2);
    }

    #[test]
    fn wide_grammar_takes_the_dynamic_path() {
        // More than 8 * 64 positions forces the general (`step_dyn`)
        // kernel; it must produce the scalar engine's exact event stream
        // just like the monomorphic kernels do.
        let lit: String = (0..600).map(|i| (b'a' + (i % 26) as u8) as char).collect();
        let text = format!("LONG {lit}\nGO go\n%%\ns: LONG GO;\n%%\n");
        let g = Grammar::parse(&text).unwrap();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        assert!(t.bit_tables().mask_words() > 8, "grammar too narrow to hit step_dyn");

        let input = format!("{lit} go");
        let mut scalar = t.scalar_engine();
        let mut expect = scalar.feed(input.as_bytes());
        expect.extend(scalar.finish());
        assert_eq!(expect.len(), 2, "LONG then GO");
        assert_eq!(t.tag_fast(input.as_bytes()), expect);
        for chunk in [1usize, 13] {
            let mut e = t.fast_engine();
            let mut events = Vec::new();
            for c in input.as_bytes().chunks(chunk) {
                events.extend(e.feed(c));
            }
            events.extend(e.finish());
            assert_eq!(events, expect, "chunk size {chunk}");
        }
    }

    #[test]
    #[should_panic(expected = "feed after finish")]
    fn feed_after_finish_panics() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let mut e = t.fast_engine();
        let _ = e.finish();
        let _ = e.feed(b"go");
    }
}
