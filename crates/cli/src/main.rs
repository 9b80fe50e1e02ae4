#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! The `nodeshare` binary: thin wrapper over [`nodeshare_cli::run_cli`].

use std::io::{ErrorKind, Write};

fn main() {
    let text = match nodeshare_cli::run_cli(std::env::args().skip(1)) {
        Ok(text) => text,
        Err(e) => {
            nodeshare_obs::error!("cli", "nodeshare failed"; error = e);
            std::process::exit(1);
        }
    };
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Ok(()) => {}
        // The reader closed its end (`nodeshare ... | head`): it wants no
        // more output, which is not a failure of this program.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => {
            nodeshare_obs::error!("cli", "writing the result failed"; error = e);
            std::process::exit(1);
        }
    }
}
