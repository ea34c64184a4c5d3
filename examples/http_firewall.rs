//! A content-aware firewall front end — the paper's §5.1 "more powerful
//! network intrusion detection" application sketch.
//!
//! A tiny HTTP-request grammar tags each word of the request line with
//! its grammatical role. A context-aware rule ("block requests whose
//! *path* contains `/admin`") then fires only on real admin-path
//! requests, while a context-blind signature match also fires when the
//! same bytes appear in a harmless query value — the false-positive
//! class the paper's introduction attributes to naive DPI.
//!
//! Run: `cargo run --example http_firewall`

use cfg_token_tagger::baseline::NaiveScanner;
use cfg_token_tagger::grammar::Grammar;
use cfg_token_tagger::tagger::{TaggerOptions, TokenTagger};

fn main() {
    // Request-line grammar: METHOD PATH VERSION, then header lines of
    // NAME ':' VALUE. (A deliberately small slice of HTTP.)
    let grammar = Grammar::parse(
        r#"
        METHOD   GET|POST|PUT|DELETE|HEAD
        PATH     [/a-zA-Z0-9._?=&-]+
        VERSION  HTTP/[0-9]\.[0-9]
        HNAME    [A-Za-z-]+
        HVALUE   [a-zA-Z0-9./_=-]+
        %%
        request: METHOD PATH VERSION headers;
        headers: | header headers;
        header:  HNAME ':' HVALUE;
        %%
        "#,
    )
    .expect("grammar parses");

    let tagger = TokenTagger::compile(&grammar, TaggerOptions::default()).expect("tagger compiles");

    // The context-aware rule: block if the PATH lexeme contains /admin.
    let is_blocked = |input: &[u8]| -> bool {
        tagger.tag(input).iter().any(|ev| {
            tagger.token_name(ev.token).starts_with("PATH")
                && ev.lexeme(input).windows(6).any(|w| w == b"/admin")
        })
    };

    // The context-blind rule: the bytes "/admin" anywhere.
    let naive = NaiveScanner::new([b"/admin".as_slice()]);

    let requests: [&[u8]; 4] = [
        b"GET /admin/users HTTP/1.1 Host : example.com",
        b"GET /index.html HTTP/1.1 Host : example.com",
        // The trap: "/admin" inside a query *value*, not the path root…
        b"GET /search?q=/admin&safe=1 HTTP/1.1 Host : example.com",
        // …and inside a header value.
        b"GET /index.html HTTP/1.1 Referer : site/admin/help",
    ];

    println!("{:<50} {:>14} {:>14}", "request", "tagger-block?", "naive-block?");
    for req in requests {
        let events = tagger.tag(req);
        let blocked = is_blocked(req);
        let naive_blocked = naive.contains_any(req);
        println!(
            "{:<50} {:>14} {:>14}",
            String::from_utf8_lossy(req),
            if blocked { "BLOCK" } else { "pass" },
            if naive_blocked { "BLOCK" } else { "pass" },
        );
        // Show the tagged request line for the first example.
        if req == requests[0] {
            for ev in events.iter().take(3) {
                println!(
                    "    {:<8} = {:?}",
                    tagger.token_name(ev.token),
                    String::from_utf8_lossy(ev.lexeme(req))
                );
            }
        }
    }
    println!();
    println!(
        "note: request 3 contains \"/admin\" in the query string — the PATH \
         token does include it, so both rules block;"
    );
    println!(
        "request 4 contains it only in a header value: the context-aware rule \
         passes it, the naive signature blocks (false positive)."
    );
}
