//! The stack-augmented exact parser — §5.2's closing promise.
//!
//! "Additionally, a stack can be added to the architecture to give the
//! hardware parser all the power of a software parser." This module
//! supplies that reference point in software: a **scannerless Earley
//! parser** over the same grammar and the same regex terminals. Where
//! the stackless tagger accepts a superset (Figure 2b), [`PdaParser`]
//! recognises *exactly* the grammar's language — including grammars that
//! are not LL(1) (left recursion, ambiguity) and token streams that a
//! maximal-munch lexer cannot tokenise (terminals are matched with their
//! NFAs at every candidate length, so the context picks the
//! tokenisation, just like the hardware does).
//!
//! On acceptance the parser reconstructs one derivation and reports the
//! same [`TagEvent`] stream as the tagger, so the two can be
//! cross-checked on conforming inputs.

use crate::event::TagEvent;
use cfg_grammar::{Grammar, Symbol, TokenId};
use cfg_regex::Nfa;
use std::collections::HashMap;

/// An Earley item: production, dot position, origin chart index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Item {
    prod: u32,
    dot: u32,
    origin: u32,
}

/// How an item entered the chart (for derivation reconstruction).
#[derive(Debug, Clone, Copy)]
enum Prov {
    /// Seeded or predicted: no history.
    Root,
    /// Advanced over a terminal.
    Scanned { from: (Item, u32), token: TokenId, start: u32, end: u32 },
    /// Advanced over a completed nonterminal.
    Completed { from: (Item, u32), child: (Item, u32) },
    /// Advanced over a nullable nonterminal that derived ε (the
    /// Aycock–Horspool magic completion; contributes no events).
    CompletedNull { from: (Item, u32) },
}

/// Result of an exact parse.
#[derive(Debug, Clone)]
pub struct PdaResult {
    /// Did the input derive from the start symbol (modulo surrounding
    /// delimiters)?
    pub accepted: bool,
    /// Token events of one successful derivation (empty if rejected).
    pub events: Vec<TagEvent>,
}

/// Scannerless Earley parser over a grammar.
#[derive(Debug)]
pub struct PdaParser {
    grammar: Grammar,
    nfas: Vec<Nfa>,
    nullable: Vec<bool>,
}

impl PdaParser {
    /// Build the parser (always succeeds — Earley handles every CFG).
    pub fn new(g: &Grammar) -> PdaParser {
        PdaParser {
            nullable: g.analyze().nullable,
            grammar: g.clone(),
            nfas: g.tokens().iter().map(|t| t.pattern.nfa().clone()).collect(),
        }
    }

    /// The grammar.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// Exact-parse a byte input. Delimiters may surround and separate
    /// tokens freely, as in the hardware's lexical scanner.
    pub fn parse(&self, input: &[u8]) -> PdaResult {
        let g = &self.grammar;
        let n = input.len();
        let delim = g.delimiters();
        let start_nt = g.start();

        // chart[i]: items whose dot is at byte offset i, with provenance.
        let mut chart: Vec<HashMap<Item, Prov>> = vec![HashMap::new(); n + 1];
        let mut worklists: Vec<Vec<Item>> = vec![Vec::new(); n + 1];

        let add = |chart: &mut Vec<HashMap<Item, Prov>>,
                   worklists: &mut Vec<Vec<Item>>,
                   pos: usize,
                   item: Item,
                   prov: Prov| {
            if let std::collections::hash_map::Entry::Vacant(e) = chart[pos].entry(item) {
                e.insert(prov);
                worklists[pos].push(item);
            }
        };

        // Seed: predict the start symbol at 0.
        for (pi, p) in g.productions().iter().enumerate() {
            if p.lhs == start_nt {
                add(
                    &mut chart,
                    &mut worklists,
                    0,
                    Item { prod: pi as u32, dot: 0, origin: 0 },
                    Prov::Root,
                );
            }
        }

        for i in 0..=n {
            // Process the worklist at chart position i to fixpoint.
            let mut idx = 0;
            while idx < worklists[i].len() {
                let item = worklists[i][idx];
                idx += 1;
                let p = &g.productions()[item.prod as usize];

                match p.rhs.get(item.dot as usize) {
                    Some(Symbol::Nt(b)) => {
                        // Predict.
                        for (pi, q) in g.productions().iter().enumerate() {
                            if q.lhs == *b {
                                add(
                                    &mut chart,
                                    &mut worklists,
                                    i,
                                    Item { prod: pi as u32, dot: 0, origin: i as u32 },
                                    Prov::Root,
                                );
                            }
                        }
                        // Aycock–Horspool magic completion: a nullable B
                        // may derive ε right here; the ordinary completion
                        // pass cannot reach waiters added after the
                        // ε-production completed, so advance directly.
                        if self.nullable[b.index()] {
                            add(
                                &mut chart,
                                &mut worklists,
                                i,
                                Item { prod: item.prod, dot: item.dot + 1, origin: item.origin },
                                Prov::CompletedNull { from: (item, i as u32) },
                            );
                        }
                    }
                    Some(Symbol::T(t)) => {
                        // Scan: skip delimiters, then try every match
                        // length of the terminal's NFA.
                        let mut s = i;
                        while s < n && delim.contains(input[s]) {
                            s += 1;
                        }
                        for end in self.nfas[t.index()].all_match_ends(input, s) {
                            if end == s {
                                continue; // tokens consume at least a byte
                            }
                            add(
                                &mut chart,
                                &mut worklists,
                                end,
                                Item { prod: item.prod, dot: item.dot + 1, origin: item.origin },
                                Prov::Scanned {
                                    from: (item, i as u32),
                                    token: *t,
                                    start: s as u32,
                                    end: end as u32,
                                },
                            );
                        }
                    }
                    None => {
                        // Complete: advance every item waiting on this
                        // production's lhs at the origin position.
                        let origin = item.origin as usize;
                        let waiting: Vec<Item> = chart[origin]
                            .keys()
                            .copied()
                            .filter(|w| {
                                g.productions()[w.prod as usize].rhs.get(w.dot as usize)
                                    == Some(&Symbol::Nt(p.lhs))
                            })
                            .collect();
                        for w in waiting {
                            add(
                                &mut chart,
                                &mut worklists,
                                i,
                                Item { prod: w.prod, dot: w.dot + 1, origin: w.origin },
                                Prov::Completed {
                                    from: (w, origin as u32),
                                    child: (item, i as u32),
                                },
                            );
                        }
                    }
                }
            }
        }

        // Accept: a complete start production originating at 0, at a
        // position followed only by delimiters.
        let mut accept_at: Option<(Item, usize)> = None;
        'outer: for i in (0..=n).rev() {
            if input[i..].iter().any(|&b| !delim.contains(b)) {
                break;
            }
            for (item, _) in chart[i].iter() {
                let p = &g.productions()[item.prod as usize];
                if p.lhs == start_nt && item.origin == 0 && item.dot as usize == p.rhs.len() {
                    accept_at = Some((*item, i));
                    break 'outer;
                }
            }
        }

        let Some((item, pos)) = accept_at else {
            return PdaResult { accepted: false, events: Vec::new() };
        };

        // Reconstruct one derivation's terminal events.
        let mut events = Vec::new();
        self.collect_events(&chart, item, pos as u32, &mut events);
        events.sort_by_key(|e| (e.start, e.end));
        PdaResult { accepted: true, events }
    }

    fn collect_events(
        &self,
        chart: &[HashMap<Item, Prov>],
        item: Item,
        pos: u32,
        out: &mut Vec<TagEvent>,
    ) {
        let Some(prov) = chart[pos as usize].get(&item) else { return };
        match *prov {
            Prov::Root => {}
            Prov::Scanned { from, token, start, end } => {
                self.collect_events(chart, from.0, from.1, out);
                out.push(TagEvent { token, start: start as usize, end: end as usize });
            }
            Prov::Completed { from, child } => {
                self.collect_events(chart, from.0, from.1, out);
                self.collect_events(chart, child.0, child.1, out);
            }
            Prov::CompletedNull { from } => {
                self.collect_events(chart, from.0, from.1, out);
            }
        }
    }

    /// Accept/reject only.
    pub fn accepts(&self, input: &[u8]) -> bool {
        self.parse(input).accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tagger::{TaggerOptions, TokenTagger};
    use cfg_grammar::builtin;

    #[test]
    fn exact_balanced_parens() {
        // The Figure 2 distinction, from the stack side: the PDA rejects
        // what the stackless tagger accepts.
        let g = builtin::balanced_parens();
        let pda = PdaParser::new(&g);
        assert!(pda.accepts(b"0"));
        assert!(pda.accepts(b"( 0 )"));
        assert!(pda.accepts(b"((((0))))"));
        assert!(!pda.accepts(b"( 0 ) )"));
        assert!(!pda.accepts(b"( ( 0 )"));
        assert!(!pda.accepts(b""));
        assert!(!pda.accepts(b"()"));
    }

    #[test]
    fn events_match_tagger_on_conforming_input() {
        let g = builtin::if_then_else();
        let pda = PdaParser::new(&g);
        let tagger = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        for input in [
            &b"go"[..],
            b"if true then go else stop",
            b"if false then if true then go else stop else go",
        ] {
            let r = pda.parse(input);
            assert!(r.accepted);
            let tagged = tagger.tag(input);
            let pda_spans: Vec<(usize, usize)> =
                r.events.iter().map(|e| (e.start, e.end)).collect();
            let tag_spans: Vec<(usize, usize)> = tagged.iter().map(|e| (e.start, e.end)).collect();
            assert_eq!(pda_spans, tag_spans, "{:?}", String::from_utf8_lossy(input));
        }
    }

    #[test]
    fn handles_left_recursion_that_ll1_cannot() {
        use cfg_baseline_shim::ll1_rejects;
        let g = cfg_grammar::Grammar::parse(
            r#"
            NUM [0-9]+
            %%
            e: e "+" NUM | NUM;
            %%
            "#,
        )
        .unwrap();
        assert!(ll1_rejects(&g));
        let pda = PdaParser::new(&g);
        assert!(pda.accepts(b"1 + 2 + 3"));
        assert!(pda.accepts(b"42"));
        assert!(!pda.accepts(b"+ 1"));
        assert!(!pda.accepts(b"1 +"));
        let r = pda.parse(b"1 + 2");
        assert_eq!(r.events.len(), 3);
    }

    /// cfg-baseline is not a dependency of cfg-tagger; re-derive the
    /// LL(1)-conflict condition locally for the test above.
    mod cfg_baseline_shim {
        use cfg_grammar::{Grammar, Symbol};

        pub fn ll1_rejects(g: &Grammar) -> bool {
            let a = g.analyze();
            for nt in 0..g.nonterminals().len() {
                let mut seen = cfg_grammar::TokenSet::new(g.tokens().len());
                for p in g.productions().iter().filter(|p| p.lhs.index() == nt) {
                    let mut first = cfg_grammar::TokenSet::new(g.tokens().len());
                    let mut nullable = true;
                    for s in &p.rhs {
                        match s {
                            Symbol::T(t) => {
                                first.insert(*t);
                                nullable = false;
                            }
                            Symbol::Nt(x) => {
                                first.union_with(&a.first[x.index()]);
                                nullable = a.nullable[x.index()];
                            }
                        }
                        if !nullable {
                            break;
                        }
                    }
                    if nullable {
                        first.union_with(&a.follow_nt[nt]);
                    }
                    for t in first.iter() {
                        if seen.contains(t) {
                            return true;
                        }
                        seen.insert(t);
                    }
                }
            }
            false
        }
    }

    #[test]
    fn ambiguous_grammar_accepted() {
        // E -> E E | "a" is wildly ambiguous; Earley shrugs.
        let g = cfg_grammar::Grammar::parse("%%\ne: e e | \"a\";\n%%\n").unwrap();
        let pda = PdaParser::new(&g);
        assert!(pda.accepts(b"a"));
        assert!(pda.accepts(b"a a a a"));
        assert!(!pda.accepts(b"b"));
        let r = pda.parse(b"a a a");
        assert_eq!(r.events.len(), 3);
    }

    #[test]
    fn nullable_productions() {
        let g = cfg_grammar::Grammar::parse(
            r#"
            %%
            s: "<l>" items "</l>";
            items: | "<i>" items;
            %%
            "#,
        )
        .unwrap();
        let pda = PdaParser::new(&g);
        assert!(pda.accepts(b"<l></l>"));
        assert!(pda.accepts(b"<l> <i> <i> </l>"));
        assert!(!pda.accepts(b"<l> <i>"));
        let r = pda.parse(b"<l><i></l>");
        assert_eq!(r.events.len(), 3);
    }

    #[test]
    fn context_dependent_tokenization() {
        // The scannerless scan step considers every match length, so the
        // PDA parses inputs a maximal-munch lexer cannot tokenise: here
        // W = [a-z]+ must split "abc" as "a" + "bc" to satisfy the
        // grammar s: A REST with A = a, REST = [a-z]+.
        let g = cfg_grammar::Grammar::parse(
            r#"
            A    a
            REST [a-z]+
            %%
            s: A REST;
            %%
            "#,
        )
        .unwrap();
        let pda = PdaParser::new(&g);
        let r = pda.parse(b"abc");
        assert!(r.accepted);
        let spans: Vec<(usize, usize)> = r.events.iter().map(|e| (e.start, e.end)).collect();
        assert_eq!(spans, [(0, 1), (1, 3)]);
    }

    #[test]
    fn surrounding_delimiters_tolerated() {
        let g = builtin::if_then_else();
        let pda = PdaParser::new(&g);
        assert!(pda.accepts(b"   go   "));
        assert!(pda.accepts(b"\t\nstop"));
        assert!(!pda.accepts(b"   "));
    }
}
