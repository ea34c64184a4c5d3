//! The production tagging kernel: a lazily built tagged DFA over the
//! bit-parallel tables, with the bit-parallel step as its cold path.
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
//! Figure 2 drops the stack, so the tagger is a finite-state machine and
//! the circuit is its one-hot encoding. The **hot path** walks that
//! machine as a table, one lookup per byte: state × byte class →
//! (next state, action). A byte class is the bytes that share a
//! decode-ROM row, a continuation-ROM row and the delimiter bit. A state
//! is the machine after one byte's decode-ROM gate, before the next byte
//! picks the fires: the live positions, each position's lexeme-start
//! register *rank*, the arm registers, the §5.2 delimiter latch (with
//! recovery on) and, for the start state only, the start pulse. An
//! action lists the fires of the previous byte as (token, register), the
//! register moves, and the resync/dead-entry flags — Laurikari's tagged
//! DFA, with the absolute lexeme starts kept in a handful of engine
//! registers. Most transitions carry no action. The table lives in
//! [`BitTables`], so every engine over one compiled tagger (every clone,
//! every shard worker) fills and reads the same cells; it is built
//! lazily, a transition at a time on a miss under a lock, so neither
//! compile nor engine construction pays for it.
//!
//! A cell is 8 bytes: the next row in its low word and its action's
//! fixed-size, pointer-free **digest** in its high word — the first
//! fire's token and start register, the fire count in the top two bits,
//! the register a push gives this byte's index, what `is_dead()` reads
//! after the transition, and a slow bit. The action id sits beside the
//! cell in a 2-byte side array. An action with a second fire keeps it
//! (token and register) in a 4-byte slot of a per-action side array.
//! Cells, ids and slots count against the budget. The hot loop's chain
//! from one byte to the next is one load: the byte's class picks the
//! column off the chain, and the cell's low word, zero-extended, is the
//! next row. It applies the digest with no data-dependent branch, so an
//! event costs about what a byte costs, as in the paper's pipelined
//! encoder (§3.4), which emits the tokens that fire on one byte in one
//! clock: the first fire is written to a staging slot and committed by
//! adding the fire count; a second fire, read from its side slot under
//! a branch only those bytes take, goes to the slot after it; and
//! register 0 (the only one an at-start table uses) lives in a local
//! set by a select. The **slow
//! path** is the exact action, for what a digest cannot carry: three or
//! more fires, a token past 16 bits, a register compaction, §5.2
//! liveness flags while a live sink counts them, an absorbing target,
//! and a cell not built yet. A live sink gets the walk's fires once per
//! slice, one `token_fire` per distinct token.
//!
//! The **cold path** is the bit-parallel step: one function, split into
//! a fire half and a gate half over one concrete state, both builds the
//! table's transitions (register ranks stand in for starts) and runs the
//! engine (absolute starts) when the table cannot: past its byte budget
//! ([`TABLE_BUDGET`]), past [`MAX_REGS`] live lexeme starts, or when
//! probes or a trace-keeping sink want per-byte detail. Its word-wide
//! ops are `next = (follow_union(active) | first_of(enabled)) &
//! class_rom[byte]` and `fires = next & last_mask & !cont_rom[lookahead]`.
//!
//! A dead machine with no wake-up source absorbs every byte, on either
//! path, and a feed skips the rest of its slice in O(1).
//!
//! Events are byte-identical to [`crate::ScalarEngine`] and the gate
//! engine (property-tested), and so are the counters a stats sink sees.

use crate::engine::Engine;
use crate::error::Error;
use crate::event::TagEvent;
use crate::probes::TaggerProbes;
use crate::tagger::TaggerOptions;
use cfg_grammar::{Grammar, TokenId};
use cfg_hwgen::StartMode;
use cfg_obs::{Metrics, Stat, TraceEvent};
use cfg_regex::ByteSet;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Bytes one compiled tagger's table may hold — transition cells and
/// their action ids, state keys and actions. A grammar whose machine
/// outgrows it keeps the cells it has and tags the rest on the bit step.
pub const TABLE_BUDGET: usize = 1 << 20;

/// Most lexeme-start registers a table state may hold; a byte that
/// would keep more lexemes alive at distinct starts leaves the table.
pub const MAX_REGS: usize = 8;

/// The action id of a cell not built yet: a placeholder action whose
/// digest is slow, so the hot loop finds it where it finds every other.
const MISS: u16 = 1;
/// A cell not built yet.
const MISS_CELL: u64 = (Digest::SLOW as u64) << 32;
/// What a cell counts against the budget: itself and its action id.
const CELL_BYTES: usize = 8 + std::mem::size_of::<u16>();

/// A cell's next row. A cell is `next row | digest << 32`: the next
/// state's row offset into the cells in its low word, so reading it is a
/// zero-extending move, and its action's [`Digest`] in its high word.
/// Its action id (0: none) sits beside it in [`Dfa::acts`].
fn row_of(cell: u64) -> usize {
    cell as u32 as usize
}

/// Events the hot loop stages before it appends them to the caller's.
const STAGE: usize = 64;

/// The start a new lexeme gets while a transition is built: above every
/// register rank, below "no start" (`usize::MAX`).
const NEW: usize = usize::MAX - 1;

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
    delim: ByteSet,
    always: bool,
    longest: bool,
    error_recovery: bool,
    /// The lazily built tagged DFA every engine over these tables shares.
    table: Table,
}

impl BitTables {
    /// Build the packed tables from a compiled grammar. The DFA table
    /// starts empty.
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
        for t in 0..token_count {
            if analysis.start_set.contains(TokenId(t as u32)) {
                set(&mut start_tokens, t);
                for (m, &f) in start_first_mask.iter_mut().zip(&first_masks[t * words..][..words]) {
                    *m |= f;
                }
            }
            for f in analysis.follow_of(TokenId(t as u32)).iter() {
                set(&mut follower_words[t * twords..][..twords], f.index());
            }
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
            delim: g.delimiters(),
            always: opts.start_mode == StartMode::Always,
            longest: !opts.disable_longest_match,
            error_recovery: opts.error_recovery,
            table: Table::new(TABLE_BUDGET),
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

    /// How much of the DFA table the engines have built so far.
    pub fn table_stats(&self) -> TableStats {
        let dfa = self.table.read();
        TableStats {
            states: dfa.keys.len(),
            transitions: dfa.transitions,
            classes: dfa.reps.len(),
            bytes: dfa.bytes,
            budget: dfa.budget,
        }
    }

    /// Fault-injection hook for the shadow-audit tests: a copy of the
    /// tables with the decode-ROM row for `byte` cleared, as if that
    /// one character decoder were stuck at zero. Clearing (rather than
    /// setting) guarantees an observable divergence — `next` is ANDed
    /// with the row, so every candidacy through `byte` dies. The copy
    /// gets a fresh, empty DFA table, built from the corrupted row.
    /// Never used on a production path.
    #[doc(hidden)]
    pub fn with_corrupted_rom_row(&self, byte: u8) -> BitTables {
        let mut t = self.clone();
        let row = byte as usize * t.words;
        t.class_rom[row..row + t.words].fill(0);
        t
    }

    /// Test hook: a copy of the tables with a fresh, empty DFA table
    /// capped at `bytes` (0 runs every engine on the bit step from its
    /// first byte). Never used on a production path.
    #[doc(hidden)]
    pub fn with_table_budget(&self, bytes: usize) -> BitTables {
        let mut t = self.clone();
        t.table = Table::new(bytes);
        t
    }
}

/// The size of a [`BitTables`]' DFA table (see [`BitTables::table_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// States built.
    pub states: usize,
    /// Transitions built.
    pub transitions: usize,
    /// Byte classes (columns per state); 0 before the first build.
    pub classes: usize,
    /// Bytes held: cells and their action ids, state keys and actions.
    pub bytes: usize,
    /// The byte cap the table fills up to.
    pub budget: usize,
}

/// The shared table: a [`Dfa`] behind a lock. Engines read it under a
/// shared guard for a whole slice and take the write guard only to build
/// a missing transition. A clone starts empty — the table caches what the
/// ROMs imply, so a copy whose ROMs may change must build its own.
struct Table {
    dfa: RwLock<Dfa>,
}

impl Table {
    fn new(budget: usize) -> Table {
        Table { dfa: RwLock::new(Dfa::new(budget)) }
    }

    // A panic under the lock cannot leave a half-built transition: a
    // cell and its action id are written last, after its state and
    // action are in place.
    fn read(&self) -> RwLockReadGuard<'_, Dfa> {
        self.dfa.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Dfa> {
        self.dfa.write().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for Table {
    fn clone(&self) -> Table {
        Table::new(self.read().budget)
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dfa = self.read();
        f.debug_struct("Table")
            .field("states", &dfa.keys.len())
            .field("transitions", &dfa.transitions)
            .field("bytes", &dfa.bytes)
            .field("budget", &dfa.budget)
            .finish()
    }
}

/// The tagged DFA. State 0 is the start state.
struct Dfa {
    /// Byte → class.
    class_of: [u8; 256],
    /// One byte per class, in class order (its length is the class count).
    reps: Vec<u8>,
    /// `cells[state * classes + class]`: `next state * classes | digest
    /// << 32`, [`MISS_CELL`] until built. The hot loop indexes
    /// `cells[class..]` with a cell's low word, so the class is added to
    /// the base beside the chain of loads, not on it.
    cells: Vec<u64>,
    /// Per cell: its action id, [`MISS`] until built. The hot loop reads
    /// it only for a second fire; the exact path, the build and the flush
    /// read it for the [`Action`].
    acts: Vec<u16>,
    /// Per state: its key (see [`Machine::key`]), to rebuild it on a miss.
    keys: Vec<Box<[u64]>>,
    ids: HashMap<Box<[u64]>, usize>,
    /// Per state: it absorbs every byte (see [`Machine::absorbing`]).
    absorbing: Vec<bool>,
    /// Actions by id; id 0 is the empty action, id 1 the [`MISS`]
    /// placeholder.
    actions: Vec<Action>,
    /// Per action: its second fire's slot (see [`Digest::TWO`]), read
    /// by the hot loop only under that bit.
    seconds: Vec<u32>,
    action_ids: HashMap<Action, u16>,
    transitions: usize,
    bytes: usize,
    budget: usize,
}

/// What a transition does besides moving: the fires of the byte before
/// it, the register moves, and the step's liveness flags.
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash)]
struct Action {
    /// `(token, register)` per fire, in ascending token order.
    fires: Box<[(u32, u8)]>,
    /// Register moves: `regs[j] = [regs, this byte's index][moves[j]]`,
    /// a fixed-width map so applying it takes no data-dependent loop;
    /// `None` leaves every register in place.
    moves: Option<[u8; MAX_REGS]>,
    flags: Flags,
    /// The target absorbs every byte: the feed skips the rest of its slice.
    absorb: bool,
}

/// A built action's fixed-size, pointer-free digest: what the hot loop
/// applies without reading the [`Action`]. Bits 0..16 hold the first
/// fire's token and 16..19 its start register. The top two bits count
/// the fires it stages, 0, 1 ([`Digest::ONE`]) or 2 ([`Digest::TWO`]),
/// so the hot loop adds them to its stage count with one shift; with two
/// the second waits in the action's side slot, in the same layout. Bits
/// 20..23 hold the register that takes this byte's index when
/// [`Digest::PUSH`] says the moves are that push (registers below it
/// stay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest(u32);

impl Digest {
    /// What `is_dead()` reads after this transition: its source state
    /// reads dead (see [`Machine::is_dead`]). Set per cell, not per
    /// action.
    const DEAD: u32 = 1 << 19;
    const PUSH: u32 = 1 << 23;
    /// A resync or dead-entry flag: slow for an engine whose sink
    /// counts them, nothing for one without.
    const FLAGS: u32 = 1 << 24;
    /// Three or more fires, a token past 16 bits, a register compaction,
    /// an absorbing target, or the [`MISS`] placeholder: applied by the
    /// exact path.
    const SLOW: u32 = 1 << 25;
    /// A fire or the push uses a register above 0, which the hot loop
    /// keeps in memory rather than in a local.
    const HIGH: u32 = 1 << 26;
    /// Exactly one fire.
    const ONE: u32 = 1 << 30;
    /// Exactly two fires: the second is in the action's side slot.
    const TWO: u32 = 1 << 31;

    /// The digest of `action`, and its side slot (0 without a second
    /// fire).
    fn of(action: &Action) -> (Digest, u32) {
        const SLOW: (Digest, u32) = (Digest(Digest::SLOW), 0);
        let fire = |tok: u32, r: u8| tok | (r as u32) << 16;
        let (mut d, second) = match *action.fires {
            [] => (0, 0),
            [(tok, r)] if tok < 1 << 16 => (fire(tok, r) | Digest::ONE, 0),
            // Fires are in ascending token order, so the second's bound
            // covers both.
            [(t0, r0), (t1, r1)] if t1 < 1 << 16 => (fire(t0, r0) | Digest::TWO, fire(t1, r1)),
            _ => return SLOW,
        };
        if let Some(moves) = &action.moves {
            match push_of(moves) {
                Some(j) => d |= (j as u32) << 20 | Digest::PUSH,
                None => return SLOW,
            }
        }
        if action.absorb {
            return SLOW;
        }
        if action.flags.resync || action.flags.dead_entry {
            d |= Digest::FLAGS;
        }
        if d & (7 << 16 | 7 << 20) != 0 || second & 7 << 16 != 0 {
            d |= Digest::HIGH;
        }
        (Digest(d), second)
    }

    /// The digest a cell carries in its high word.
    fn in_cell(cell: u64) -> Digest {
        Digest((cell >> 32) as u32)
    }

    fn token(self) -> u32 {
        self.0 & 0xFFFF
    }

    fn dead(self) -> bool {
        self.0 & Digest::DEAD != 0
    }

    fn fire_reg(self) -> usize {
        (self.0 >> 16 & 7) as usize
    }

    /// The fires it stages: 0, 1 or 2.
    fn fires(self) -> usize {
        (self.0 >> 30) as usize
    }

    fn push_reg(self) -> usize {
        (self.0 >> 20 & 7) as usize
    }

    /// All ones with a push, else 0.
    fn push_mask(self) -> usize {
        ((self.0 >> 23 & 1) as usize).wrapping_neg()
    }
}

// Three bits name a register.
const _: () = assert!(MAX_REGS == 8);

/// The register a move map pushes this byte's index into, keeping every
/// register below it; `None` for a compaction.
fn push_of(moves: &[u8; MAX_REGS]) -> Option<usize> {
    let j = moves.iter().position(|&m| m as usize == MAX_REGS)?;
    moves[..j].iter().enumerate().all(|(i, &m)| m as usize == i).then_some(j)
}

/// One step's §5.2 liveness outcome.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
struct Flags {
    resync: bool,
    dead_entry: bool,
}

impl Dfa {
    fn new(budget: usize) -> Dfa {
        let mut dfa = Dfa {
            class_of: [0; 256],
            reps: Vec::new(),
            cells: Vec::new(),
            acts: Vec::new(),
            keys: Vec::new(),
            ids: HashMap::new(),
            absorbing: Vec::new(),
            actions: vec![Action::default(), Action::default()],
            seconds: vec![0, 0],
            action_ids: HashMap::new(),
            transitions: 0,
            bytes: 0,
            budget,
        };
        dfa.action_ids.insert(Action::default(), 0);
        dfa
    }

    /// Set up the byte classes and the start state on first use; false
    /// when the budget cannot hold the start state.
    fn init(&mut self, t: &BitTables) -> bool {
        if self.reps.is_empty() {
            self.classify(t);
        }
        !self.keys.is_empty() || self.state(t, &Machine::start(t)).is_some()
    }

    /// Group the bytes into classes: same decode-ROM row, same
    /// continuation-ROM row (with longest match on), same delimiter bit.
    fn classify(&mut self, t: &BitTables) {
        let w = t.words;
        let mut classes: HashMap<Vec<u64>, u8> = HashMap::new();
        for b in 0..=255u8 {
            let mut row = t.class_rom[b as usize * w..][..w].to_vec();
            if t.longest {
                row.extend_from_slice(&t.cont_rom[b as usize * w..][..w]);
            }
            row.push(t.delim.contains(b) as u64);
            let next = classes.len() as u8;
            let class = *classes.entry(row).or_insert(next);
            if class == next {
                self.reps.push(b);
            }
            self.class_of[b as usize] = class;
        }
    }

    /// The id of `m`'s state, added if new; `None` past the budget or the
    /// id space.
    fn state(&mut self, t: &BitTables, m: &Machine) -> Option<usize> {
        let key = m.key(t);
        if let Some(&id) = self.ids.get(&key) {
            return Some(id);
        }
        // The key is held twice (list and map), plus the row and the
        // absorbing flag.
        let classes = self.reps.len();
        let cost = classes * CELL_BYTES + 2 * key.len() * 8 + 1;
        if u32::try_from(self.cells.len() + classes).is_err() || self.bytes + cost > self.budget {
            return None;
        }
        self.bytes += cost;
        let id = self.keys.len();
        self.cells.resize(self.cells.len() + classes, MISS_CELL);
        self.acts.resize(self.cells.len(), MISS);
        self.absorbing.push(m.absorbing(t));
        self.ids.insert(key.clone(), id);
        self.keys.push(key);
        Some(id)
    }

    /// Build the transition from `state` on `byte`'s class (a no-op if
    /// another engine built it first); false when the table cannot hold
    /// it.
    fn build(&mut self, t: &BitTables, state: usize, byte: u8) -> bool {
        if !self.init(t) {
            return false;
        }
        let classes = self.reps.len();
        let cell = state * classes + self.class_of[byte as usize] as usize;
        if self.acts[cell] != MISS {
            return true;
        }
        let mut m = Machine::from_key(t, &self.keys[state]);
        let dead = if m.is_dead(t) { Digest::DEAD } else { 0 };
        let mut fired = Vec::new();
        m.fire(t, byte, 0, None, &mut fired);
        let flags = m.gate(t, byte, NEW, None);
        let Some(moves) = m.rank_starts() else { return false };
        let Some(next) = self.state(t, &m) else { return false };
        let action = Action {
            fires: fired.iter().map(|e| (e.token.0, e.start as u8)).collect(),
            moves,
            flags,
            absorb: self.absorbing[next],
        };
        let (digest, second) = Digest::of(&action);
        let id = match self.action_ids.get(&action) {
            Some(&id) => id,
            None => {
                // Held twice too (list and dedup map), plus its side slot.
                let cost = 2 * (std::mem::size_of::<Action>() + 8 * action.fires.len()) + 4;
                let Ok(id) = u16::try_from(self.actions.len()) else { return false };
                if self.bytes + cost > self.budget {
                    return false;
                }
                self.bytes += cost;
                self.action_ids.insert(action.clone(), id);
                self.seconds.push(second);
                self.actions.push(action);
                id
            }
        };
        self.acts[cell] = id;
        self.cells[cell] = (next * classes) as u64 | ((digest.0 | dead) as u64) << 32;
        self.transitions += 1;
        true
    }
}

/// Ascending indices of the set bits of a bitset.
fn bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(k, &w)| {
        let mut word = w;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = (k << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                bit
            })
        })
    })
}

fn any(words: &[u64]) -> bool {
    words.iter().any(|&w| w != 0)
}

/// One concrete machine state plus the bit step's scratch. A state is
/// the machine after a byte's decode-ROM gate and before the next byte
/// picks the fires. `starts` holds absolute lexeme starts when the
/// machine runs the engine, and register ranks when it builds a table
/// transition.
#[derive(Debug)]
struct Machine {
    /// Live positions.
    live: Vec<u64>,
    /// Lexeme start per position; valid where `live` is set.
    starts: Vec<usize>,
    /// Token bitset: the arm registers (enables held across delimiters).
    arm: Vec<u64>,
    /// The last gated byte was a delimiter (§5.2 resync latch).
    latch: bool,
    /// The start state: FIRST(start) is enabled for the first byte.
    pulse: bool,
    /// Dead and past the start state (the clock gate's reading).
    dead: bool,
    /// Liveness flags of the last gate, recorded after the next fires
    /// so a trace keeps the scalar engine's line order.
    owed: Flags,
    owed_at: usize,
    /// Scratch: enables the fires pulse for the next byte.
    set_now: Vec<u64>,
    /// Scratch: the gated byte's enabled tokens.
    enabled: Vec<u64>,
    next: Vec<u64>,
    first_en: Vec<u64>,
    next_starts: Vec<usize>,
}

impl Machine {
    /// The start-of-stream state.
    fn start(t: &BitTables) -> Machine {
        let (w, tw, p) = (t.words, t.twords, t.positions);
        Machine {
            live: vec![0; w],
            starts: vec![0; p],
            arm: vec![0; tw],
            latch: false,
            pulse: true,
            dead: false,
            owed: Flags::default(),
            owed_at: 0,
            set_now: vec![0; tw],
            enabled: vec![0; tw],
            next: vec![0; w],
            first_en: vec![0; w],
            next_starts: vec![0; p],
        }
    }

    /// The table key of this state; `starts` must hold register ranks.
    /// Layout: live words, arm words, a flags word (latch, pulse), then
    /// one rank byte per live position in ascending position order.
    fn key(&self, t: &BitTables) -> Box<[u64]> {
        let mut key = Vec::with_capacity(t.words + t.twords + 2);
        key.extend_from_slice(&self.live);
        key.extend_from_slice(&self.arm);
        key.push((self.latch && t.error_recovery) as u64 | (self.pulse as u64) << 1);
        for (n, q) in bits(&self.live).enumerate() {
            if n % 8 == 0 {
                key.push(0);
            }
            *key.last_mut().unwrap() |= (self.starts[q] as u64) << (8 * (n % 8));
        }
        key.into()
    }

    /// The state a key names, with register ranks as starts.
    fn from_key(t: &BitTables, key: &[u64]) -> Machine {
        let (w, tw) = (t.words, t.twords);
        let mut m = Machine::start(t);
        m.live.copy_from_slice(&key[..w]);
        m.arm.copy_from_slice(&key[w..w + tw]);
        m.latch = key[w + tw] & 1 == 1;
        m.pulse = key[w + tw] & 2 == 2;
        let ranks = &key[w + tw + 1..];
        for (n, q) in bits(&key[..w]).enumerate() {
            m.starts[q] = (ranks[n / 8] >> (8 * (n % 8)) & 0xFF) as usize;
        }
        m.dead = !m.pulse && !any(&m.live) && !any(&m.arm);
        m
    }

    /// What `is_dead()` reads after a transition leaving this state: no
    /// live position, no armed enable, no enable pulsed for the next
    /// byte. (A fire needs a live position, so only the start pulse can
    /// enable a byte from a state with none; the start state has no live
    /// position or arm.)
    fn is_dead(&self, t: &BitTables) -> bool {
        if self.pulse {
            !any(&t.start_tokens)
        } else {
            self.dead
        }
    }

    /// A dead state with no wake-up source — no Always-mode scanning, no
    /// §5.2 recovery, not the start state — absorbs every byte without
    /// an event: the software mirror of the circuit's zero switching
    /// activity when every stage register holds 0.
    fn absorbing(&self, t: &BitTables) -> bool {
        self.dead && !t.always && !t.error_recovery
    }

    /// The fire half: the last gated byte's matches against the
    /// lookahead `byte` (Figure 7), pushed as events ending at `end` in
    /// ascending token order, then the enables they pulse for the next
    /// byte. A pulse down a FOLLOW edge is its source's fire, so only
    /// the fire is recorded.
    fn fire(
        &mut self,
        t: &BitTables,
        byte: u8,
        end: usize,
        taps: Option<&Taps>,
        out: &mut Vec<TagEvent>,
    ) {
        let w = t.words;
        let from = out.len();
        let cont = t.longest.then(|| &t.cont_rom[byte as usize * w..][..w]);
        let mut cur: Option<(usize, usize)> = None;
        let emit = |out: &mut Vec<TagEvent>, tok: usize, start: usize| {
            out.push(TagEvent { token: TokenId(tok as u32), start, end });
        };
        for k in 0..w {
            let mut word = self.live[k] & t.last_mask[k];
            if let Some(c) = cont {
                word &= !c[k];
            }
            while word != 0 {
                let q = (k << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                // Positions of one token are contiguous, so ascending
                // bit order visits tokens in index order — the same
                // event order the scalar engine produces.
                let (tok, start) = (t.pos_token[q] as usize, self.starts[q]);
                cur = match cur {
                    Some((ct, cs)) if ct == tok => Some((ct, cs.min(start))),
                    Some((ct, cs)) => {
                        emit(out, ct, cs);
                        Some((tok, start))
                    }
                    None => Some((tok, start)),
                };
            }
        }
        if let Some((ct, cs)) = cur {
            emit(out, ct, cs);
        }
        if let Some(taps) = taps {
            for e in &out[from..] {
                taps.fire(e.token.index(), e.start, end);
            }
        }

        // Masks in place of branches keep these loops from turning into
        // memset/memcpy calls, which cost more than a few words of work.
        let tw = t.twords;
        let pulse = if self.pulse { !0 } else { 0 };
        for (s, &st) in self.set_now.iter_mut().zip(&t.start_tokens) {
            *s = st & pulse;
        }
        for e in &out[from..] {
            let u = e.token.index();
            for (s, &r) in self.set_now.iter_mut().zip(&t.follower_words[u * tw..][..tw]) {
                *s |= r;
            }
        }
    }

    /// The gate half: `byte`'s enabled tokens and decode-ROM row, with
    /// new lexemes starting at `at`. Returns the step's liveness flags.
    fn gate(&mut self, t: &BitTables, byte: u8, at: usize, taps: Option<&Taps>) -> Flags {
        let w = t.words;
        if let Some(pr) = taps.and_then(|x| x.probes.as_deref()) {
            decoder_probes(pr, byte);
        }
        let idle = !any(&self.live) && !any(&self.arm);
        // Step 0 is entered from the start pulse, which counts as live.
        let was_dead = idle && !self.pulse;
        // §5.2 error recovery: a dead machine at a token boundary
        // re-enables the start tokens.
        let recover = t.error_recovery && self.latch && idle;
        let start_enabled = t.always || recover;
        let start = if start_enabled { !0 } else { 0 };
        let mut enabled_any = false;
        for (k, e) in self.enabled.iter_mut().enumerate() {
            *e = self.set_now[k] | self.arm[k] | t.start_tokens[k] & start;
            enabled_any |= *e != 0;
        }

        // The start set's FIRST positions are precomputed; pulsed and
        // armed tokens outside it are folded in below. `next` starts
        // clean in the same pass. (Masks rather than branches: see
        // `fire`.)
        for ((n, f), &m) in
            self.next.iter_mut().zip(self.first_en.iter_mut()).zip(&t.start_first_mask)
        {
            *n = 0;
            *f = m & start;
        }

        // next = follow_union(live): OR the FOLLOW row of every live
        // position.
        for (k, &lw) in self.live.iter().enumerate() {
            let mut word = lw;
            while word != 0 {
                let p = (k << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                for (n, &r) in self.next.iter_mut().zip(&t.follow[p * w..][..w]) {
                    *n |= r;
                }
            }
        }

        // First-position enables for this byte's other enabled tokens.
        if enabled_any {
            for (k, &e) in self.enabled.iter().enumerate() {
                let mut word = e & !(t.start_tokens[k] & start);
                while word != 0 {
                    let tok = (k << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    for (f, &r) in self.first_en.iter_mut().zip(&t.first_masks[tok * w..][..w]) {
                        *f |= r;
                    }
                }
            }
        }

        // Gate both through this byte's decode-ROM row.
        let rom = &t.class_rom[byte as usize * w..][..w];
        for ((f, n), &r) in self.first_en.iter_mut().zip(self.next.iter_mut()).zip(rom) {
            *f &= r;
            *n = (*n & r) | *f;
        }

        // Lexeme starts for every newly live position: min over its
        // live predecessors, or `at` for a FIRST enable.
        for (kq, (&nw, &fw)) in self.next.iter().zip(&self.first_en).enumerate() {
            let mut word = nw;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let q = (kq << 6) + bit;
                let mut s = if fw >> bit & 1 == 1 { at } else { usize::MAX };
                let prow = &t.pred[q * w..][..w];
                for (k, (&pm, &lm)) in prow.iter().zip(&self.live).enumerate() {
                    let mut pw = pm & lm;
                    while pw != 0 {
                        let p = (k << 6) + pw.trailing_zeros() as usize;
                        pw &= pw - 1;
                        s = s.min(self.starts[p]);
                    }
                }
                self.next_starts[q] = s;
            }
        }
        if let Some(pr) = taps.and_then(|x| x.probes.as_deref()) {
            stage_probes(pr, t, &self.next);
        }

        // Commit: positions, then arm registers hold this byte's enables
        // across a delimiter.
        std::mem::swap(&mut self.live, &mut self.next);
        std::mem::swap(&mut self.starts, &mut self.next_starts);
        let is_delim = t.delim.contains(byte);
        let hold = if is_delim { !0 } else { 0 };
        for (a, &e) in self.arm.iter_mut().zip(&self.enabled) {
            *a = e & hold;
        }
        self.latch = is_delim;
        self.pulse = false;
        self.dead = !any(&self.live) && !any(&self.arm);
        Flags { resync: recover && !self.dead, dead_entry: self.dead && !was_dead }
    }

    /// Turn the build-time starts (source register ranks, or `NEW`) into
    /// the target state's ranks. Returns the register moves (see
    /// [`Action::moves`]): the surviving source registers in order, then
    /// this byte's start if a lexeme begins here. `None` past
    /// [`MAX_REGS`].
    fn rank_starts(&mut self) -> Option<Option<[u8; MAX_REGS]>> {
        // Bit r: source rank r is still referenced; bit MAX_REGS: NEW.
        let mut used = 0u32;
        for q in bits(&self.live) {
            let s = self.starts[q];
            used |= 1 << if s == NEW { MAX_REGS } else { s };
        }
        if used.count_ones() as usize > MAX_REGS {
            return None;
        }
        let mut moves = [0u8; MAX_REGS];
        let mut kept = 0;
        for r in 0..=MAX_REGS {
            if used >> r & 1 == 1 {
                moves[kept] = r as u8;
                kept += 1;
            }
        }
        for q in bits(&self.live) {
            let s = self.starts[q];
            self.starts[q] = (used & ((1 << s.min(MAX_REGS)) - 1)).count_ones() as usize;
        }
        let moved = moves[..kept].iter().enumerate().any(|(j, &r)| j != r as usize);
        Some(moved.then_some(moves))
    }
}

/// What the bit step records into: the engine's sink and probes.
#[derive(Debug, Default)]
struct Taps {
    metrics: Metrics,
    /// Cached `metrics.is_enabled()` — a dark sink costs nothing per
    /// byte.
    live_stats: bool,
    /// Cached `metrics.wants_trace()`.
    traced: bool,
    probes: Option<Arc<TaggerProbes>>,
}

impl Taps {
    /// Probes or a trace-keeping sink want the bit step's per-byte
    /// detail, which a table transition does not carry.
    fn detailed(&self) -> bool {
        self.probes.is_some() || self.traced
    }

    fn fire(&self, tok: usize, start: usize, end: usize) {
        if self.live_stats {
            self.metrics.token_fire(tok as u32, 1);
            self.metrics.trace(|| {
                TraceEvent::new("token_fire")
                    .field("token", tok as u32)
                    .field("start", start)
                    .field("end", end)
            });
        }
        if let Some(pr) = &self.probes {
            pr.bank().hit(pr.fire[tok], 1);
        }
    }

    /// Liveness accounting (§5.2) for the step that gated byte `at`.
    fn liveness(&self, flags: Flags, at: usize) {
        if !self.live_stats {
            return;
        }
        if flags.resync {
            self.metrics.add(Stat::Resyncs, 1);
            self.metrics.trace(|| TraceEvent::new("resync").field("at", at));
        }
        if flags.dead_entry {
            self.metrics.add(Stat::DeadEntries, 1);
            self.metrics.trace(|| TraceEvent::new("dead_entry").field("at", at));
        }
    }
}

/// The production streaming engine. Create via
/// [`crate::TokenTagger::engine`]; drive it through the [`Engine`]
/// trait.
#[derive(Debug)]
pub struct BitEngine {
    tables: Arc<BitTables>,
    /// Everything a feed changes, beside `tables` so that a call borrows
    /// both without a refcount bump.
    stream: Stream,
}

/// One stream's state over the shared tables.
#[derive(Debug)]
struct Stream {
    /// Table state after the last byte's gate (0: the start state).
    state: usize,
    /// The table state's lexeme-start registers, by rank.
    regs: [usize; MAX_REGS],
    /// The bit step's machine, once the engine has left the table.
    cold: Option<Box<Machine>>,
    /// [`Engine::is_dead`]: the reading of the last transition's source
    /// state.
    src_dead: bool,
    /// Bytes fed so far.
    fed: usize,
    finished: bool,
    taps: Taps,
    /// Fires per token of the table walk's last run, recorded as one
    /// `token_fire` per distinct token; empty until a live sink needs it.
    tally: Vec<u64>,
}

impl BitEngine {
    /// New engine over shared tables. Allocates nothing: the table walk
    /// needs only the registers, and the bit step's scratch is made on
    /// fallback.
    pub(crate) fn new(tables: Arc<BitTables>) -> BitEngine {
        let stream = Stream {
            state: 0,
            regs: [0; MAX_REGS],
            cold: None,
            src_dead: !any(&tables.start_tokens),
            fed: 0,
            finished: false,
            taps: Taps::default(),
            tally: Vec::new(),
        };
        BitEngine { tables, stream }
    }

    /// Attach an observability handle (builder style). A sink that keeps
    /// trace events moves the engine onto the bit step, which writes
    /// them.
    pub(crate) fn with_metrics(mut self, metrics: Metrics) -> BitEngine {
        let taps = &mut self.stream.taps;
        taps.live_stats = metrics.is_enabled();
        taps.traced = metrics.wants_trace();
        taps.metrics = metrics;
        self
    }

    /// Attach circuit probes, if any (builder style); the engine then
    /// runs the bit step, which samples them every byte. Without probes
    /// every per-byte probe scan is skipped.
    pub(crate) fn with_probes(mut self, probes: Option<Arc<TaggerProbes>>) -> BitEngine {
        self.stream.taps.probes = probes;
        self
    }
}

impl Stream {
    /// Walk the table over `bytes`, building missing transitions. Returns
    /// the bytes consumed: all of them, unless the table could not hold
    /// a transition and the engine left it for the bit step.
    fn walk(&mut self, t: &BitTables, bytes: &[u8], events: &mut Vec<TagEvent>) -> usize {
        let mut done = 0;
        loop {
            done += self.run(&t.table.read(), &bytes[done..], self.fed + done, events);
            if done == bytes.len() {
                return done;
            }
            let built = t.table.write().build(t, self.state, bytes[done]);
            if !built {
                self.leave_table(t);
                return done;
            }
        }
    }

    /// The table walk over `bytes`: one cell per byte. Stops at the
    /// first missing cell; `base` is the stream index of `bytes[0]`.
    /// [`fast_walk`] applies every digest it can; this loop appends its
    /// staged events and applies each slow action with the exact
    /// [`Stream::apply`].
    fn run(&mut self, dfa: &Dfa, bytes: &[u8], base: usize, events: &mut Vec<TagEvent>) -> usize {
        if dfa.keys.is_empty() {
            return 0;
        }
        let classes = dfa.reps.len();
        if dfa.absorbing[self.state] {
            self.src_dead |= !bytes.is_empty();
            return bytes.len();
        }
        // Liveness flags are work only for a sink that counts them.
        let exact = Digest::SLOW | if self.taps.live_stats { Digest::FLAGS } else { 0 };
        let last = Digest(if self.src_dead { Digest::DEAD } else { 0 });
        let mut c = Cursor { k: 0, row: self.state * classes, last, r0: self.regs[0] };
        let mut stage = [TagEvent { token: TokenId(0), start: 0, end: 0 }; STAGE];
        while c.k < bytes.len() {
            let (n, stop) = fast_walk(dfa, bytes, base, exact, &mut c, &mut self.regs, &mut stage);
            events.extend_from_slice(&stage[..n]);
            let Some(cell) = stop else { continue };
            let a = dfa.acts[cell];
            if a == MISS {
                break;
            }
            let act = &dfa.actions[a as usize];
            self.regs[0] = c.r0;
            self.apply(act, base + c.k, events);
            c.r0 = self.regs[0];
            c.row = row_of(dfa.cells[cell]);
            c.k += 1;
            if act.absorb {
                // Dead-run skip: the target loops on every byte, and an
                // absorbing state reads dead.
                if c.k < bytes.len() {
                    c.last = Digest(Digest::DEAD);
                }
                c.k = bytes.len();
            }
        }
        self.regs[0] = c.r0;
        self.state = c.row / classes;
        self.src_dead = c.last.dead();
        c.k
    }

    /// Push a transition's fires as events ending at `end`.
    #[inline]
    fn emit(&self, fires: &[(u32, u8)], end: usize, events: &mut Vec<TagEvent>) {
        for &(tok, r) in fires {
            events.push(TagEvent { token: TokenId(tok), start: self.regs[r as usize], end });
        }
    }

    /// Apply a transition's action for the byte at stream index `at`:
    /// the exact path for what a digest cannot carry.
    fn apply(&mut self, act: &Action, at: usize, events: &mut Vec<TagEvent>) {
        self.emit(&act.fires, at, events);
        if let Some(moves) = &act.moves {
            let mut from = [at; MAX_REGS + 1];
            from[..MAX_REGS].copy_from_slice(&self.regs);
            for (r, &m) in self.regs.iter_mut().zip(moves) {
                *r = from[m as usize];
            }
        }
        self.taps.liveness(act.flags, at);
    }

    /// Record the table walk's `events` with a live sink: one
    /// `token_fire` per distinct token rather than one per event. (The
    /// bit step records each fire as it happens, in trace order.)
    fn record_fires(&mut self, t: &BitTables, events: &[TagEvent]) {
        if !self.taps.live_stats || events.is_empty() {
            return;
        }
        if self.tally.is_empty() {
            self.tally = vec![0; t.token_count()];
        }
        for e in events {
            self.tally[e.token.index()] += 1;
        }
        for e in events {
            let n = std::mem::take(&mut self.tally[e.token.index()]);
            if n != 0 {
                self.taps.metrics.token_fire(e.token.0, n);
            }
        }
    }

    /// `finish` on the table: the flush byte's transition, events only —
    /// its flags would be a step the stream never takes.
    fn flush_table(&mut self, t: &BitTables, flush: u8, events: &mut Vec<TagEvent>) {
        loop {
            {
                let dfa = t.table.read();
                if dfa.absorbing.get(self.state) == Some(&true) {
                    self.src_dead = true;
                    return;
                }
                let cell = dfa.class_of[flush as usize] as usize + self.state * dfa.reps.len();
                let action = dfa.acts.get(cell).copied().unwrap_or(MISS);
                if action != MISS {
                    self.emit(&dfa.actions[action as usize].fires, self.fed, events);
                    self.src_dead = Digest::in_cell(dfa.cells[cell]).dead();
                    return;
                }
            }
            if !t.table.write().build(t, self.state, flush) {
                self.leave_table(t);
                return;
            }
        }
    }

    /// Continue on the bit step from the current table state: positions,
    /// registers as absolute starts, arm and latch carry over. The last
    /// transition's flags are already recorded, so nothing is owed.
    fn leave_table(&mut self, t: &BitTables) {
        let dfa = t.table.read();
        let mut m = match dfa.keys.get(self.state) {
            Some(key) => Machine::from_key(t, key),
            None => Machine::start(t),
        };
        for q in bits(&m.live) {
            m.starts[q] = self.regs[m.starts[q]];
        }
        self.cold = Some(Box::new(m));
    }

    /// The bit step over `bytes` (stream index `base` onwards): per byte,
    /// the previous byte's fires, its owed liveness flags, then this
    /// byte's gate.
    fn step_cold(&mut self, t: &BitTables, bytes: &[u8], base: usize, events: &mut Vec<TagEvent>) {
        let m = self.cold.as_deref_mut().expect("the bit step runs on a machine");
        for (k, &b) in bytes.iter().enumerate() {
            // Dead-run skip, unless lit probes sample every decoder.
            if self.taps.probes.is_none() && m.absorbing(t) {
                self.taps.liveness(std::mem::take(&mut m.owed), m.owed_at);
                self.src_dead = true;
                return;
            }
            let at = base + k;
            m.fire(t, b, at, Some(&self.taps), events);
            self.taps.liveness(std::mem::take(&mut m.owed), m.owed_at);
            self.src_dead = m.is_dead(t);
            m.owed = m.gate(t, b, at, Some(&self.taps));
            m.owed_at = at;
        }
    }

    /// [`Engine::feed_slice`]: the table walk while it holds, then the
    /// bit step.
    fn feed(&mut self, t: &BitTables, bytes: &[u8], events: &mut Vec<TagEvent>) {
        assert!(!self.finished, "feed after finish");
        if self.cold.is_none() && self.taps.detailed() {
            self.leave_table(t);
        }
        let mut done = 0;
        if self.cold.is_none() {
            let from = events.len();
            done = self.walk(t, bytes, events);
            self.record_fires(t, &events[from..]);
        }
        if done < bytes.len() {
            self.step_cold(t, &bytes[done..], self.fed + done, events);
        }
        self.fed += bytes.len();
        self.taps.metrics.add(Stat::BytesIn, bytes.len() as u64);
    }

    /// Drain the final byte against a delimiter flush, exactly like the
    /// scalar engine.
    fn finish(&mut self, t: &BitTables, events: &mut Vec<TagEvent>) {
        if self.fed > 0 && !self.finished {
            let flush = t.delim.iter().next().unwrap_or(b' ');
            if self.cold.is_none() {
                let from = events.len();
                self.flush_table(t, flush, events);
                self.record_fires(t, &events[from..]);
            }
            if let Some(m) = self.cold.as_deref_mut() {
                m.fire(t, flush, self.fed, Some(&self.taps), events);
                self.taps.liveness(std::mem::take(&mut m.owed), m.owed_at);
                self.src_dead = m.is_dead(t);
            }
        }
        self.finished = true;
    }
}

impl Engine for BitEngine {
    fn feed_slice(&mut self, bytes: &[u8], events: &mut Vec<TagEvent>) -> Result<(), Error> {
        self.stream.feed(&self.tables, bytes, events);
        Ok(())
    }

    fn finish_into(&mut self, events: &mut Vec<TagEvent>) -> Result<(), Error> {
        self.stream.finish(&self.tables, events);
        Ok(())
    }

    /// No live positions, no armed enables, and no enables set for the
    /// next byte.
    fn is_dead(&self) -> bool {
        self.stream.src_dead
    }
}

/// Where the table walk is: the next byte's index, the current row, the
/// digest of the last transition (its [`Digest::DEAD`] bit is what
/// `is_dead()` reads), and register 0.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    k: usize,
    row: usize,
    last: Digest,
    r0: usize,
}

/// The hot loop: from `c.k`, one 8-byte cell per byte, each action
/// applied from the digest in the cell with no data-dependent branch.
/// The byte's class picks the column `cells[class..]` and the last
/// cell's low word indexes it, so the chain from one load to the next is
/// the load and a zero-extending move. The first fire is written to a
/// staging slot and committed by adding the digest's fire count to the
/// slot count; a second fire ([`Digest::TWO`]) is read from its side
/// slot and written to the slot after, under a branch only those bytes
/// take, so fires keep ascending token order. A push sets register 0, a
/// local, by a select. A digest on a register above 0 (Always mode) goes
/// through `regs` in memory. Returns the events staged, and the index of
/// the cell it stopped at when its digest has a bit of `exact` (`None`
/// at the end of `bytes`, or with fewer than two stage slots free). Kept
/// out of line so its loop state stays in registers.
#[inline(never)]
fn fast_walk(
    dfa: &Dfa,
    bytes: &[u8],
    base: usize,
    exact: u32,
    c: &mut Cursor,
    regs: &mut [usize; MAX_REGS],
    stage: &mut [TagEvent; STAGE],
) -> (usize, Option<usize>) {
    let Cursor { mut k, mut row, mut last, mut r0 } = *c;
    let mut n = 0;
    let mut stop = None;
    while k < bytes.len() {
        let class = dfa.class_of[bytes[k] as usize] as usize;
        let cell = dfa.cells[class..][row];
        let d = Digest::in_cell(cell);
        let at = base + k;
        if d.0 & (exact | Digest::HIGH) == 0 {
            stage[n % STAGE] = TagEvent { token: TokenId(d.token()), start: r0, end: at };
            if d.0 & Digest::TWO != 0 {
                let second = Digest(dfa.seconds[dfa.acts[class..][row] as usize]);
                stage[(n + 1) % STAGE] =
                    TagEvent { token: TokenId(second.token()), start: r0, end: at };
            }
            if d.0 & Digest::PUSH != 0 {
                r0 = at;
            }
        } else if d.0 & exact == 0 {
            regs[0] = r0;
            let start = regs[d.fire_reg()];
            stage[n % STAGE] = TagEvent { token: TokenId(d.token()), start, end: at };
            if d.0 & Digest::TWO != 0 {
                let second = Digest(dfa.seconds[dfa.acts[class..][row] as usize]);
                let start = regs[second.fire_reg()];
                stage[(n + 1) % STAGE] =
                    TagEvent { token: TokenId(second.token()), start, end: at };
            }
            let (j, push) = (d.push_reg(), d.push_mask());
            regs[j] = at & push | regs[j] & !push;
            r0 = regs[0];
        } else {
            // The caller takes this transition next: it applies the
            // action, or builds the cell and walks on.
            stop = Some(class + row);
            last = d;
            break;
        }
        n += d.fires();
        last = d;
        row = row_of(cell);
        k += 1;
        if n > STAGE - 2 {
            break;
        }
    }
    *c = Cursor { k, row, last, r0 };
    (n, stop)
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
    for q in bits(next) {
        let tok = t.pos_token[q] as usize;
        if let Some(&idx) = pr.stages[tok].get(q - t.offset[tok]) {
            pr.bank().hit(idx, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{push_of, row_of, Digest, Machine, MAX_REGS, MISS, MISS_CELL, STAGE, TABLE_BUDGET};
    use crate::engine::EngineKind;
    use crate::event::TagEvent;
    use crate::tagger::{StartMode, TaggerOptions, TokenTagger};
    use cfg_grammar::{builtin, Grammar};
    use cfg_obs::{FlightRecorder, Metrics, Stat, StatsSink};
    use std::sync::Arc;

    /// Every start mode × recovery combination, as `(always, recover)`.
    const MODES: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

    fn compile(g: &Grammar, always: bool, recover: bool) -> TokenTagger {
        let opts = TaggerOptions::builder()
            .start_mode(if always { StartMode::Always } else { StartMode::AtStart })
            .error_recovery(recover)
            .build();
        TokenTagger::compile(g, opts).unwrap()
    }

    /// What one engine run shows: events, `is_dead()` after finish, the
    /// stats sink's four engine counters and its fire count per token.
    #[derive(Debug, PartialEq)]
    struct Run {
        events: Vec<TagEvent>,
        dead: bool,
        counters: [u64; 4],
        fires: Vec<u64>,
    }

    const COUNTERS: [Stat; 4] = [Stat::BytesIn, Stat::EventsOut, Stat::Resyncs, Stat::DeadEntries];

    fn counters(sink: &StatsSink) -> [u64; 4] {
        COUNTERS.map(|s| sink.get(s))
    }

    /// A fresh engine of `kind` over `t` under a fresh stats sink, fed
    /// in `chunk`-byte slices.
    fn run(t: &TokenTagger, kind: EngineKind, input: &[u8], chunk: usize) -> Run {
        let tokens = t.grammar().tokens().len();
        let sink = Arc::new(StatsSink::with_tokens(tokens));
        let mut e = t.clone().with_metrics(Metrics::new(sink.clone())).engine(kind).unwrap();
        let mut events = Vec::new();
        for c in input.chunks(chunk.max(1)) {
            e.feed_slice(c, &mut events).unwrap();
        }
        e.finish_into(&mut events).unwrap();
        let fires = (0..tokens as u32).map(|tok| sink.token_fires(tok)).collect();
        Run { events, dead: e.is_dead(), counters: counters(&sink), fires }
    }

    fn bit_run(t: &TokenTagger, input: &[u8], chunk: usize) -> Run {
        run(t, EngineKind::Bit, input, chunk)
    }

    fn scalar_run(t: &TokenTagger, input: &[u8]) -> Run {
        run(t, EngineKind::Scalar, input, input.len())
    }

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
        let batch = t.tag(input);
        assert_eq!(batch, scalar_run(&t, input).events);
        for chunk in [1usize, 2, 3, 7] {
            assert_eq!(bit_run(&t, input, chunk).events, batch, "chunk size {chunk}");
        }
    }

    #[test]
    fn agrees_with_scalar_on_modes_and_junk() {
        let g = builtin::if_then_else();
        for (always, recover) in MODES {
            let t = compile(&g, always, recover);
            let tail = dead_tail(200);
            for input in [
                &b"if true then go else stop"[..],
                b"zzz go zzz",
                b"gogo if  stop",
                b"",
                b"then then then",
                &tail,
            ] {
                let expect = scalar_run(&t, input);
                for chunk in [1usize, 3, 64, input.len().max(1)] {
                    let got = bit_run(&t, input, chunk);
                    assert_eq!(
                        got.events, expect.events,
                        "always={always} recover={recover} chunk={chunk}"
                    );
                    assert_eq!(got.dead, expect.dead, "dead state diverges on {input:?}");
                }
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
        let mut scalar = t.engine(EngineKind::Scalar).unwrap();
        let mut expect = scalar.feed(&input).unwrap();
        assert!(scalar.is_dead(), "the junk tail must kill the machine");
        expect.extend(scalar.finish().unwrap());
        assert_eq!(expect.len(), 6);
        for chunk in [1usize, 7, 64, 4096] {
            let mut e = t.engine(EngineKind::Bit).unwrap();
            let mut got = Vec::new();
            for c in input.chunks(chunk) {
                e.feed_slice(c, &mut got).unwrap();
            }
            assert!(e.is_dead(), "chunk {chunk}");
            e.finish_into(&mut got).unwrap();
            assert_eq!(got, expect, "chunk {chunk}");
        }
    }

    /// A stats-only sink stays on the table, which must count what the
    /// scalar engine counts: every mode, a junk run the dead-run skip
    /// crosses, and a multi-token grammar whose fires carry registers.
    #[test]
    fn live_sink_counts_match_scalar_across_the_skip() {
        let mut ite = b"if true zz then ".to_vec();
        ite.extend(std::iter::repeat_n(b'j', 300));
        ite.extend_from_slice(b" go else stop");
        let mut json = br#"{"a": [1, 2.5, true], "b": {"c": null}} "#.to_vec();
        json.extend(std::iter::repeat_n(b'#', 300));
        json.extend_from_slice(br#" {"d": "e", "f": [false]}"#);
        for (g, input) in [(builtin::if_then_else(), ite), (builtin::json(), json)] {
            for (always, recover) in MODES {
                let t = compile(&g, always, recover);
                let expect = scalar_run(&t, &input);
                assert!(!expect.events.is_empty());
                for chunk in [1usize, 7, input.len()] {
                    assert_eq!(
                        bit_run(&t, &input, chunk),
                        expect,
                        "always={always} recover={recover} chunk={chunk}"
                    );
                }
                assert!(t.bit_tables().table_stats().states > 0, "a stats sink walks the table");
            }
        }
    }

    /// Every built-in grammar and XML-RPC, each with a sample sentence.
    fn samples() -> Vec<(Grammar, &'static str)> {
        // The XML-RPC grammar lives in `cfg-xmlrpc`, which depends on
        // this crate: take its text from the source.
        let src = include_str!("../../xmlrpc/src/grammar.rs");
        let xmlrpc = src.split("r#\"").nth(1).and_then(|s| s.split("\"#;").next()).unwrap();
        vec![
            (builtin::balanced_parens(), "((0))"),
            (builtin::if_then_else(), "if true then go else stop"),
            (builtin::arithmetic(), "a1 * (b - 2) + 3 / x"),
            (builtin::key_value(), "host=example.org; port=8080; path=/a/b.c;"),
            (builtin::http_request_line(), "GET /index.html HTTP/1.1"),
            (builtin::json(), r#"{"a": [1, 2.5, true], "b": {"c": null, "d": "e f"}}"#),
            (
                Grammar::parse(xmlrpc).unwrap(),
                "<methodCall><methodName>sum</methodName><params><param><i4>41</i4></param>\
                 <param><struct><member><name>k</name><string>v1</string></member></struct>\
                 </param><param><dateTime.iso8601>20240102T03:04:05</dateTime.iso8601>\
                 </param><param><array><data><double>-1.5</double><base64>aGk</base64>\
                 <int>7</int></data></array></param></params></methodCall>",
            ),
        ]
    }

    /// The cell layout, cell by cell under the table lock: a built cell's
    /// low word is a row (a multiple of the class count, below the cell
    /// count), the id beside it a real action's, and its dead bit its
    /// source state's reading; a digest the hot loop applies counts that
    /// action's fires in its top bits; an unbuilt cell is the slow
    /// placeholder with [`MISS`] beside it.
    fn check_cells(t: &TokenTagger, what: &str) {
        let bt = t.bit_tables();
        let dfa = bt.table.read();
        let (classes, cells) = (dfa.reps.len(), dfa.cells.len());
        assert_eq!(dfa.acts.len(), cells, "{what}");
        let mut built = 0;
        for (i, (&cell, &id)) in dfa.cells.iter().zip(&dfa.acts).enumerate() {
            if id == MISS {
                assert_eq!(cell, MISS_CELL, "{what}: unbuilt cell {i}");
                continue;
            }
            built += 1;
            let row = row_of(cell);
            assert!(row.is_multiple_of(classes) && row < cells, "{what}: cell {i} row {row}");
            let act = dfa.actions.get(id as usize);
            let act = act.unwrap_or_else(|| panic!("{what}: cell {i} action {id}"));
            let d = Digest::in_cell(cell);
            let src = Machine::from_key(bt, &dfa.keys[i / classes]);
            assert_eq!(d.dead(), src.is_dead(bt), "{what}: cell {i} {d:?}");
            if d.0 & Digest::SLOW == 0 {
                assert_eq!(d.fires(), act.fires.len(), "{what}: cell {i} {d:?}");
            }
        }
        assert!(built > 0, "{what}");
        assert_eq!(built, dfa.transitions, "{what}");
    }

    /// [`check_cells`] for every grammar's sample in every mode: mid-
    /// stream after the sample, then after a junk run, the sample again
    /// and the flush, with the events equal to the scalar engine's.
    #[test]
    fn cell_layout_invariants_hold() {
        for (g, sample) in samples() {
            for (always, recover) in MODES {
                let t = compile(&g, always, recover);
                let what = format!("{sample:.12}: always={always} recover={recover}");
                let mut e = t.engine(EngineKind::Bit).unwrap();
                let mut events = Vec::new();
                e.feed_slice(sample.as_bytes(), &mut events).unwrap();
                check_cells(&t, &what);
                for part in [" #~ ", sample] {
                    e.feed_slice(part.as_bytes(), &mut events).unwrap();
                }
                e.finish_into(&mut events).unwrap();
                check_cells(&t, &what);
                let input = format!("{sample} #~ {sample}");
                assert_eq!(events, scalar_run(&t, input.as_bytes()).events, "{what}");
            }
        }
    }

    /// The built transitions of `t`'s table by the kind of their action,
    /// read from the digest each cell carries: two fires the hot loop
    /// stages on its register-0 path, then what that path leaves to the
    /// memory registers or the exact path: three or more fires, a
    /// compaction, a register above 0, liveness flags, an absorbing
    /// target.
    fn action_kinds(t: &TokenTagger) -> [usize; 6] {
        let dfa = t.bit_tables().table.read();
        let mut kinds = [0; 6];
        // Ids 0 and 1 are the empty action and the MISS placeholder.
        for (&cell, &id) in dfa.cells.iter().zip(&dfa.acts).filter(|&(_, &id)| id > 1) {
            let (a, d) = (&dfa.actions[id as usize], Digest::in_cell(cell).0);
            let compaction = a.moves.as_ref().is_some_and(|m| push_of(m).is_none());
            for (n, hit) in [
                d & Digest::TWO != 0 && d & (Digest::SLOW | Digest::HIGH) == 0,
                a.fires.len() > 2 && d & Digest::SLOW != 0,
                compaction,
                d & Digest::HIGH != 0,
                a.flags.resync || a.flags.dead_entry,
                a.absorb,
            ]
            .into_iter()
            .enumerate()
            {
                kinds[n] += usize::from(hit);
            }
        }
        kinds
    }

    /// Two fires on one byte stay in the hot loop, every other kind of
    /// action a digest leaves to the memory registers or the exact path,
    /// a two-fire byte that meets a stage with one slot free, and a
    /// slice with more events than the stage holds: events, `is_dead()`,
    /// counters and per-token fires equal the scalar engine's at every
    /// chunk split around the stage's capacity, and the table built the
    /// kind the case is for.
    #[test]
    fn digests_hand_every_other_action_to_the_exact_path() {
        const TWO_FIRES: usize = 0;
        const THREE_FIRES: usize = 1;
        const COMPACTION: usize = 2;
        const HIGH: usize = 3;
        const FLAGS: usize = 4;
        const ABSORB: usize = 5;
        /// What a case must show besides agreeing with scalar.
        enum Shows {
            /// The table built transitions of this kind.
            Kind(usize),
            /// The first `STAGE - 1` events end on distinct bytes and
            /// the next two on one, so a whole-slice walk on a warm table
            /// meets a two-fire byte with one stage slot free.
            OneSlotFree,
            /// More than four stages' worth of events.
            ManyEvents,
        }
        let json = br#"{"a": [1, 2.5, true], "b": {"c": null, "d": "e f"}} [false, -3]"#.to_vec();
        // Its three context copies of `go` fire together.
        let three =
            Grammar::parse("%%\ns: \"go\" \"left\" | \"go\" \"right\" | \"go\" \"on\";\n%%\n")
                .unwrap();
        let kv = b"host=example.org; port=8080; path=/a/b.c; k2=v2;".to_vec();
        let mut junk = b"if true then go else stop zz then ".to_vec();
        junk.extend_from_slice(b"if false then stop else go qq go");
        let absorb = b"if true then go else stop zz go if false then stop else go".to_vec();
        // One fire per `[` and for `1`, then `,` fires as both a member
        // and a value separator.
        let mut edge = vec![b'['; STAGE - 2];
        edge.extend_from_slice(b"1,2]");
        // One sentence, so no resync flag leaves the fast loop early.
        let terms: Vec<String> = (0..48).map(|i| format!("a{i} * (b - {i})")).collect();
        let many = terms.join(" + ").into_bytes();
        use Shows::{Kind, ManyEvents, OneSlotFree};
        let (ite, json_g) = (builtin::if_then_else(), builtin::json());
        let cases = [
            ("two-token fires", json_g.clone(), false, false, json.clone(), Kind(TWO_FIRES)),
            ("three-token fires", three, false, false, b"go on".to_vec(), Kind(THREE_FIRES)),
            (
                "Always-mode compactions",
                json_g.clone(),
                true,
                false,
                json.clone(),
                Kind(COMPACTION),
            ),
            ("Always-mode registers above 0", json_g.clone(), true, true, json, Kind(HIGH)),
            ("Always-mode registers above 0", builtin::key_value(), true, false, kv, Kind(HIGH)),
            ("liveness flags", ite.clone(), false, true, junk, Kind(FLAGS)),
            ("an absorb mid-slice", ite, false, false, absorb, Kind(ABSORB)),
            ("two fires, one slot free", json_g, false, false, edge, OneSlotFree),
            ("more events than the stage", builtin::arithmetic(), false, true, many, ManyEvents),
        ];
        for (what, g, always, recover, input, shows) in cases {
            let t = compile(&g, always, recover);
            let expect = scalar_run(&t, &input);
            // The whole slice comes last, on a warm table.
            let chunks = (STAGE - 2..=STAGE + 2).chain([1, 2 * STAGE + 1, input.len()]);
            for chunk in chunks {
                assert_eq!(bit_run(&t, &input, chunk), expect, "{what}, chunk {chunk}");
            }
            let ends: Vec<usize> = expect.events.iter().map(|e| e.end).collect();
            let shown = match shows {
                Kind(kind) => action_kinds(&t)[kind] > 0,
                OneSlotFree => {
                    ends.len() > STAGE
                        && ends[..STAGE].windows(2).all(|w| w[0] < w[1])
                        && ends[STAGE - 1] == ends[STAGE]
                }
                ManyEvents => ends.len() > 4 * STAGE,
            };
            assert!(shown, "{what}: {:?}, {} events", action_kinds(&t), ends.len());
        }
    }

    #[test]
    fn lit_probe_bank_disables_the_skip() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        // The tail's letters hit the t/e/s decoders, so a skipped byte
        // would show up as a missing decoder count.
        let input = dead_tail(300);
        let counts = |kind: EngineKind, chunk: usize| {
            let pr = t.probes();
            run(&t.clone().with_probes(Arc::clone(&pr)), kind, &input, chunk);
            pr.bank().counts()
        };
        let dribble = counts(EngineKind::Bit, 1);
        for chunk in [7usize, 64, input.len()] {
            assert_eq!(counts(EngineKind::Bit, chunk), dribble, "chunk {chunk}");
        }
        // The scalar engine has no clock gate: it samples every byte.
        assert_eq!(counts(EngineKind::Scalar, input.len()), dribble);
    }

    /// Probes and trace-keeping sinks take the bit step, which writes the
    /// scalar engine's per-byte trace lines, in its order, and its probe
    /// counts. The table is never consulted.
    #[test]
    fn trace_and_probes_get_the_bit_steps_detail() {
        let g = builtin::if_then_else();
        let input = b"if true then go else stop zz go  if false then stop else go";
        for (always, recover) in MODES {
            let t = compile(&g, always, recover);
            let trace = |kind: EngineKind, chunk: usize| {
                let flight = Arc::new(FlightRecorder::new(4096));
                let mut e =
                    t.clone().with_metrics(Metrics::new(flight.clone())).engine(kind).unwrap();
                let mut events: Vec<TagEvent> = Vec::new();
                for c in input.chunks(chunk) {
                    e.feed_slice(c, &mut events).unwrap();
                }
                e.finish_into(&mut events).unwrap();
                (events, flight.dump_jsonl())
            };
            let (expect, lines) = trace(EngineKind::Scalar, input.len());
            // A FOLLOW-edge pulse is its source's fire: only the fire is
            // traced.
            assert!(lines.contains("token_fire") && !lines.contains("follow_edge"));
            for chunk in [1usize, 5, input.len()] {
                let got = trace(EngineKind::Bit, chunk);
                assert_eq!(got, (expect.clone(), lines.clone()), "always={always} chunk={chunk}");

                let (pb, ps) = (t.probes(), t.probes());
                run(&t.clone().with_probes(Arc::clone(&pb)), EngineKind::Bit, input, chunk);
                run(&t.clone().with_probes(Arc::clone(&ps)), EngineKind::Scalar, input, chunk);
                assert_eq!(pb.bank().counts(), ps.bank().counts(), "probes, chunk {chunk}");
            }
            assert_eq!(t.bit_tables().table_stats().states, 0, "detail never fills the table");
        }
    }

    /// The table caches what the ROMs imply: a tagger with a corrupted
    /// decode-ROM row builds its own table, which diverges from the
    /// scalar engine, while the original's warm table still agrees.
    #[test]
    fn table_follows_the_rom() {
        let t = TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap();
        let input = b"if true then go else stop";
        let expect = scalar_run(&t, input).events;
        assert_eq!(t.tag(input), expect);
        let warm = t.bit_tables().table_stats();
        assert!(warm.transitions > 0);

        let bad = t.with_corrupted_rom_row(b'i');
        assert_eq!(bad.bit_tables().table_stats().states, 0, "a fresh, empty table");
        assert_ne!(bad.tag(input), expect, "the corrupted row must show");
        assert_eq!(t.tag(input), expect);
        assert_eq!(t.bit_tables().table_stats(), warm, "the corrupted run built no cell here");
        assert!(!Arc::ptr_eq(t.bit_tables(), bad.bit_tables()));
    }

    /// One table per compiled tagger, shared by its clones and engines,
    /// and neither compile nor engine construction builds any of it.
    #[test]
    fn table_is_built_lazily_and_shared() {
        let t = TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap();
        let _idle = t.engine(EngineKind::Bit).unwrap();
        assert_eq!(t.bit_tables().table_stats().states, 0);
        let input = b"if true then go else stop";
        t.clone().tag(input);
        let warm = t.bit_tables().table_stats();
        assert!(warm.states > 1 && warm.classes > 1);
        assert!(warm.bytes <= warm.budget);
        assert_eq!(warm.budget, TABLE_BUDGET);
        // A second engine walks the cells the first one built.
        t.tag(input);
        assert_eq!(t.bit_tables().table_stats(), warm);
    }

    /// Zero and small caps: the engine starts on the bit step, or leaves
    /// the table mid-stream, and still equals the scalar engine in
    /// events, `is_dead()` and counters.
    #[test]
    fn capped_tables_fall_back_to_the_bit_step() {
        let mut input = b"if true then go else stop zz go if false then stop else go".to_vec();
        input.extend(std::iter::repeat_n(b'k', 100));
        for g in [builtin::if_then_else(), builtin::json()] {
            for (always, recover) in MODES {
                let t = compile(&g, always, recover);
                let expect = scalar_run(&t, &input);
                for budget in [0usize, 300, 2000] {
                    for chunk in [1usize, 3, input.len()] {
                        let capped = t.with_table_budget(budget);
                        // The second engine meets the table the first
                        // one filled up to its cap.
                        for run in 0..2 {
                            let got = bit_run(&capped, &input, chunk);
                            assert_eq!(
                                got, expect,
                                "budget {budget} chunk {chunk} always={always} run {run}"
                            );
                        }
                        let s = capped.bit_tables().table_stats();
                        assert!(s.bytes <= budget, "{s:?}");
                    }
                }
            }
        }
    }

    /// A grammar whose machine has ~2^17 states fills the table to its
    /// budget, then tags on with the bit step.
    #[test]
    fn hostile_grammar_stays_within_the_table_budget() {
        let g = Grammar::parse("TOK [ab]*a[ab]{16}\n%%\ns: TOK;\n%%\n").unwrap();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let input: Vec<u8> = (0..60_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x & 1 == 0 {
                    b'a'
                } else {
                    b'b'
                }
            })
            .collect();
        let expect = scalar_run(&t, &input);
        assert!(!expect.events.is_empty());
        assert_eq!(bit_run(&t, &input, input.len()), expect);
        let s = t.bit_tables().table_stats();
        assert!(s.bytes <= TABLE_BUDGET, "{s:?}");
        assert!(s.bytes > TABLE_BUDGET / 2, "the input must fill the table: {s:?}");
        // Engines that start later walk the full table, then fall back.
        assert_eq!(bit_run(&t, &input, 4096), expect);
        assert_eq!(t.bit_tables().table_stats(), s);
    }

    /// More live lexemes at distinct starts than [`MAX_REGS`] leave the
    /// table for the bit step.
    #[test]
    fn many_live_starts_leave_the_table() {
        let lit = "a".repeat(MAX_REGS + 4);
        let g = Grammar::parse(&format!("TOK {lit}\n%%\ns: TOK;\n%%\n")).unwrap();
        let t = compile(&g, true, false);
        let input = "a".repeat(40);
        let expect = scalar_run(&t, input.as_bytes());
        assert!(expect.events.len() > 1, "{expect:?}");
        for chunk in [1usize, 7, input.len()] {
            assert_eq!(bit_run(&t, input.as_bytes(), chunk), expect, "chunk {chunk}");
        }
        assert!(t.bit_tables().table_stats().states <= MAX_REGS + 2);
    }

    #[test]
    fn repeated_list_items() {
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
        let names: Vec<&str> = t.tag(input).iter().map(|e| t.token_name(e.token)).collect();
        assert_eq!(names, ["<l>", "<i>", "</i>", "<i>", "</i>", "</l>"]);
    }

    #[test]
    fn wide_grammar_agrees_with_scalar() {
        // More than 8 * 64 positions: many mask words per state key and
        // per bit-step row, on both paths.
        let lit: String = (0..600).map(|i| (b'a' + (i % 26) as u8) as char).collect();
        let text = format!("LONG {lit}\nGO go\n%%\ns: LONG GO;\n%%\n");
        let g = Grammar::parse(&text).unwrap();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        assert!(t.bit_tables().mask_words() > 8, "grammar too narrow");

        let input = format!("{lit} go");
        let expect = scalar_run(&t, input.as_bytes());
        assert_eq!(expect.events.len(), 2, "LONG then GO");
        for chunk in [1usize, 13, input.len()] {
            assert_eq!(bit_run(&t, input.as_bytes(), chunk), expect, "chunk size {chunk}");
            let zero = t.with_table_budget(0);
            assert_eq!(bit_run(&zero, input.as_bytes(), chunk), expect, "bit step, chunk {chunk}");
        }
    }

    #[test]
    #[should_panic(expected = "feed after finish")]
    fn feed_after_finish_panics() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let mut e = t.engine(EngineKind::Bit).unwrap();
        let _ = e.finish();
        let _ = e.feed(b"go");
    }
}
