//! `rhhh` — command-line front end for the RHHH reproduction.
//!
//! ```text
//! rhhh generate --preset chicago16 --packets 1000000 --out trace.trc
//! rhhh generate --scenario ddos-ramp --packets 1000000 --out ramp.pcap
//! rhhh analyze  --trace trace.trc --algorithm rhhh --hierarchy 2d-bytes --theta 0.03
//! rhhh analyze  --pcap ramp.pcap --algorithm 10-rhhh --window 500000 --shards 2
//! rhhh analyze  --preset sanjose14 --packets 2000000 --volume
//! rhhh speed    --hierarchy 1d-bits --packets 1000000
//! ```

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("generate") => commands::generate(&argv[1..]),
        Some("analyze") => commands::analyze(&argv[1..]),
        Some("speed") => commands::speed(&argv[1..]),
        Some("--help" | "-h" | "help") | None => {
            print_usage();
            0
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n");
            print_usage();
            2
        }
    };
    std::process::exit(code);
}

fn print_usage() {
    eprintln!(
        "rhhh — hierarchical heavy hitters (SIGCOMM'17 reproduction)

USAGE:
    rhhh generate (--preset <name> | --scenario <name>) --packets <n> \\
                  --out <file.trc|file.pcap>   (.pcap writes raw frames) \\
                  [--attack <subnet>/<bits>-><victim>@<fraction>]
    rhhh analyze  (--trace <file.trc> | --pcap <file.pcap> | --scenario <name> \\
                   | --preset <name> --packets <n>) \\
                  [--algorithm rhhh|10-rhhh|mst|full-ancestry|partial-ancestry] \\
                  [--hierarchy 1d-bytes|1d-bits|2d-bytes] \\
                  [--counter stream-summary|compact|misra-gries|lossy-counting|chk] \\
                  [--theta <t>] [--epsilon <e>] [--volume] \\
                  [--shards <n>]           (hash-partition across n worker threads) \\
                  [--window <w> [--panes <g>]]  (sliding window: last w packets, g-pane ring) \\
                  [--top <k>] [--filter <prefix>]   (e.g. --filter 10.0.0.0/8,*)
    rhhh speed    [--hierarchy <h>] [--packets <n>] [--preset <name>] \\
                  [--counter <kind>] [--shards <n>] [--epsilon <e>]

--volume, --shards, --window and --counter apply to rhhh/10-rhhh; they
compose with each other and with every input source. ε (--epsilon) and
θ (--theta) must lie in (0, 1], and ε at least 1/131071; unknown flags
are errors.

PRESETS:   chicago15 chicago16 sanjose13 sanjose14
SCENARIOS: ddos-ramp flash-crowd scan-sweep diurnal-drift multi-tenant"
    );
}
