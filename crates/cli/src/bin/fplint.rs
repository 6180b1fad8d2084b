//! Thin wrapper over [`flexprot_cli::fplint`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match flexprot_cli::fplint(&args) {
        Ok(summary) => {
            flexprot_cli::print_report("fplint", &summary.report);
            std::process::exit(summary.exit_code);
        }
        Err(err) => {
            eprintln!("fplint: {err}");
            std::process::exit(2);
        }
    }
}
