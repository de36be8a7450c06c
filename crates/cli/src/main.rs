use std::io::BufWriter;
use std::process::ExitCode;

/// Streams the command output through a buffered lock on stdout. A reader
/// that hangs up (`gentrius stand cat FILE.stand | head -1`) is a clean
/// exit, not an EPIPE panic; other I/O errors fail loudly (see
/// `gentrius_cli::run`).
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    match gentrius_cli::run(&args, &mut out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
