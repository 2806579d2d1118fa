//! `tpp-top` — a `top(1)` for the TPP fabric.
//!
//! Three modes:
//!
//! * **Interactive dashboard** (default): a tabbed, sortable fleet view
//!   with windowed sparklines, driven by key presses (`1`–`5`/tab to
//!   switch category, `w` window width, `s` sort, `p` pause, `q` quit).
//!   Pick the feed with `--scenario obs|fct|bond`.
//! * **Headless**: `--headless` runs the feed to its end and prints one
//!   dashboard frame (`--frame WxH`, default 120x40) — a pure function of
//!   the seeded scenario, so CI byte-diffs it at any shard count.
//!   `--prom FILE` / `--series FILE` write the same feed's Prometheus
//!   snapshot and JSONL series dump (`-` for stdout).
//! * **Profile diff**: `--diff A.jsonl B.jsonl` compares two recorded
//!   series dumps (e.g. caches on vs off) side by side.
//!
//! ```console
//! $ cargo run -p tpp-bench --bin tpp_top                      # live view
//! $ cargo run -p tpp-bench --bin tpp_top -- --scenario fct
//! $ cargo run -p tpp-bench --bin tpp_top -- --headless --prom snap.prom --series series.jsonl
//! $ cargo run -p tpp-bench --bin tpp_top -- --headless --tab transport --scenario fct
//! $ cargo run -p tpp-bench --bin tpp_top -- --diff cache_on.jsonl cache_off.jsonl
//! ```

use std::io::{Read as _, Write as _};
use std::sync::mpsc;

use tpp_bench::dash_scenario::{DashFeed, DashScenario};
use tpp_obs::render::Tab;
use tpp_obs::snapshot::SortKey;
use tpp_obs::{parse_series_jsonl, render_dashboard, render_profile_diff, DashState};

/// Frame size of the headless and diff views, and of a terminal whose
/// size `stty` cannot tell.
const DEFAULT_FRAME: (usize, usize) = (120, 40);

fn write_out(path: &str, what: &str, contents: &str) {
    if path == "-" {
        print!("{contents}");
        return;
    }
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {what} to {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: tpp_top [--headless] [--prom FILE] [--series FILE]\n\
         \x20              [--frame WxH] [--scenario obs|fct|bond] [--tab NAME]\n\
         \x20              [--window 0-3] [--sort switch|viol|hotq|pkts] [--wall]\n\
         \x20              [--diff A.jsonl B.jsonl]"
    );
    std::process::exit(2);
}

struct Args {
    headless: bool,
    prom: Option<String>,
    series: Option<String>,
    frame: Option<(usize, usize)>,
    scenario: DashScenario,
    tab: Option<Tab>,
    window: Option<usize>,
    sort: Option<SortKey>,
    wall: bool,
    diff: Option<(String, String)>,
}

fn parse_args() -> Args {
    let mut args = Args {
        headless: false,
        prom: None,
        series: None,
        frame: None,
        scenario: DashScenario::Obs,
        tab: None,
        window: None,
        sort: None,
        wall: false,
        diff: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let next = |flag: &str, it: &mut std::slice::Iter<'_, String>| -> String {
        it.next()
            .unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
            .clone()
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--headless" => args.headless = true,
            "--prom" => args.prom = Some(next("--prom", &mut it)),
            "--series" => args.series = Some(next("--series", &mut it)),
            "--wall" => args.wall = true,
            "--frame" => {
                let spec = next("--frame", &mut it);
                let Some((w, h)) = spec.split_once('x') else {
                    eprintln!("--frame wants WxH, e.g. 120x40");
                    usage()
                };
                match (w.parse(), h.parse()) {
                    (Ok(w), Ok(h)) => args.frame = Some((w, h)),
                    _ => usage(),
                }
            }
            "--scenario" => {
                let name = next("--scenario", &mut it);
                args.scenario = DashScenario::parse(&name).unwrap_or_else(|| {
                    eprintln!("unknown scenario: {name}");
                    usage()
                });
            }
            "--tab" => {
                let name = next("--tab", &mut it);
                args.tab = Tab::ALL.iter().copied().find(|t| t.title() == name);
                if args.tab.is_none() {
                    eprintln!("unknown tab: {name}");
                    usage();
                }
            }
            "--window" => {
                args.window = next("--window", &mut it).parse().ok();
                if args.window.is_none_or(|w| w > 3) {
                    eprintln!("--window wants an index 0-3");
                    usage();
                }
            }
            "--sort" => {
                let name = next("--sort", &mut it);
                args.sort = SortKey::ALL.iter().copied().find(|k| k.label() == name);
                if args.sort.is_none() {
                    eprintln!("unknown sort key: {name}");
                    usage();
                }
            }
            "--diff" => {
                let a = next("--diff", &mut it);
                let b = next("--diff", &mut it);
                args.diff = Some((a, b));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    args
}

fn dash_state(args: &Args) -> DashState {
    let mut state = if args.wall {
        DashState::wall_clock()
    } else {
        DashState::default()
    };
    if let Some(t) = args.tab {
        state.tab = t;
    }
    if let Some(w) = args.window {
        state.window_idx = w;
    }
    if let Some(s) = args.sort {
        state.sort = s;
    }
    state
}

fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    })
}

/// Put the controlling terminal into raw single-key mode via `stty`.
/// Returns false (line-buffered fallback: keys need Enter) when there
/// is no tty or no `stty`.
fn raw_mode(on: bool) -> bool {
    let spec: &[&str] = if on { &["raw", "-echo"] } else { &["sane"] };
    std::process::Command::new("stty")
        .args(spec)
        .stdin(std::process::Stdio::inherit())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Terminal size via `stty size` (rows cols); [`DEFAULT_FRAME`]
/// otherwise.
fn term_size() -> (usize, usize) {
    let fallback = DEFAULT_FRAME;
    let Ok(out) = std::process::Command::new("stty")
        .arg("size")
        .stdin(std::process::Stdio::inherit())
        .output()
    else {
        return fallback;
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let mut it = text.split_whitespace();
    match (
        it.next().and_then(|r| r.parse::<usize>().ok()),
        it.next().and_then(|c| c.parse::<usize>().ok()),
    ) {
        (Some(rows), Some(cols)) if rows >= 10 && cols >= 60 => (cols, rows),
        _ => fallback,
    }
}

fn live_dashboard(args: &Args) {
    let mut feed = DashFeed::build(args.scenario);
    let mut state = dash_state(args);
    let (width, height) = args.frame.unwrap_or_else(term_size);
    let step_ns = (feed.end_ns() / 200).max(1);

    let raw = raw_mode(true);
    let (tx, rx) = mpsc::channel::<char>();
    std::thread::spawn(move || {
        let mut buf = [0u8; 1];
        while std::io::stdin().read_exact(&mut buf).is_ok() {
            if tx.send(buf[0] as char).is_err() {
                break;
            }
        }
    });

    let mut t = 0u64;
    while !state.quit {
        if !state.paused && t < feed.end_ns() {
            t += step_ns;
            feed.step_to(t);
        }
        let snap = feed.snapshot(state.window_ns());
        let frame = render_dashboard(&snap, &state, width, height);
        // Clear + home, then the frame; raw mode needs explicit \r.
        // The last row keeps no newline: on a terminal exactly `height`
        // tall it would scroll the title row off the top.
        let frame = frame.trim_end_matches('\n').to_string();
        let frame = if raw {
            frame.replace('\n', "\r\n")
        } else {
            frame
        };
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(40);
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            match rx.recv_timeout(left) {
                Ok(key) => {
                    state.apply_key(key);
                    if state.quit {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
    }
    if raw {
        raw_mode(false);
    }
    println!();
}

fn main() {
    let args = parse_args();

    if let Some((a, b)) = &args.diff {
        let (width, height) = args.frame.unwrap_or(DEFAULT_FRAME);
        let dump_a = parse_series_jsonl(&read_file(a));
        let dump_b = parse_series_jsonl(&read_file(b));
        print!(
            "{}",
            render_profile_diff(&dump_a, &dump_b, a, b, width, height)
        );
        return;
    }

    if args.headless {
        // One dashboard frame from the finished seeded scenario: a pure
        // function of (scenario, state, size) — the CI-pinned artifact.
        let (width, height) = args.frame.unwrap_or(DEFAULT_FRAME);
        let mut feed = DashFeed::build(args.scenario);
        feed.run_to_end();
        let state = dash_state(&args);
        let snap = feed.snapshot(state.window_ns());
        print!("{}", render_dashboard(&snap, &state, width, height));
        if let Some(p) = &args.prom {
            write_out(p, "prometheus snapshot", &feed.prom());
        }
        if let Some(p) = &args.series {
            write_out(p, "series jsonl", &feed.series_dump());
        }
        return;
    }

    live_dashboard(&args);
}
