//! `cfgtag` binary entry point: thin shell over [`cfg_cli::run`], plus
//! the long-running modes (`serve` and `watch`) that own sockets and
//! the process lifetime and so bypass the pure dispatcher.

#![forbid(unsafe_code)]

use std::io::Read;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => std::process::exit(cfg_cli::serve::main_io(&args[1..])),
        Some("watch") => std::process::exit(cfg_cli::watch::run(
            &args[1..],
            &mut std::io::stdout(),
            &mut std::io::stderr(),
        )),
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
