//! `cfgtag` binary entry point: thin shell over [`cfg_cli::run`], plus
//! the long-running modes (`serve`, `top`, `scope`, `slo`, `shards`,
//! `audit`) that own sockets and the process lifetime and so bypass
//! the pure dispatcher.

#![forbid(unsafe_code)]

use std::io::Read;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => std::process::exit(cfg_cli::serve::main_io(&args[1..])),
        Some("top") => std::process::exit(cfg_cli::top::main_io(&args[1..])),
        Some("scope") => std::process::exit(cfg_cli::scope::main_io(&args[1..])),
        Some("slo") => std::process::exit(cfg_cli::slo::main_io(&args[1..])),
        Some("shards") => std::process::exit(cfg_cli::shards::main_io(&args[1..])),
        Some("audit") => std::process::exit(cfg_cli::audit::main_io(&args[1..])),
        _ => {}
    }
    let read_input = |path: &str| -> Result<Vec<u8>, std::io::Error> {
        if path == "-" {
            let mut buf = Vec::new();
            std::io::stdin().read_to_end(&mut buf)?;
            Ok(buf)
        } else {
            std::fs::read(path)
        }
    };
    match cfg_cli::run(&args, read_input) {
        Ok(out) => {
            print!("{}", out.text);
            eprint!("{}", out.stderr);
            for (path, contents) in &out.files {
                if let Err(e) = std::fs::write(path, contents) {
                    eprintln!("cfgtag: cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
            if out.code != 0 {
                std::process::exit(out.code);
            }
        }
        Err(e) => {
            eprintln!("cfgtag: {e}");
            std::process::exit(e.code);
        }
    }
}
