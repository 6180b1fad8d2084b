//! Thin wrapper over [`flexprot_cli::fpobjdump`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match flexprot_cli::fpobjdump(&args) {
        Ok(message) => flexprot_cli::print_report("fpobjdump", &format!("{message}\n")),
        Err(err) => {
            eprintln!("fpobjdump: {err}");
            std::process::exit(2);
        }
    }
}
