//! `bench` — every benchmark entry point of the repo: the CI-diffed
//! slices (one [`aceso_bench::SLICES`] table; see `usage`) and the paper's
//! tables and figures (`bench fig`, one [`aceso_bench::figs::FIGURES`]
//! table). Argument parsing and the two tables' dispatch only.

use aceso_bench::figs::{Figure, FIGURES};
use aceso_bench::{BenchScale, SLICES};

const DEFAULT_SEED: u64 = 0xace50;

fn usage() -> ! {
    for s in SLICES {
        let flag = s.write_flag.map(|f| format!(" [{f}]")).unwrap_or_default();
        eprintln!(
            "usage: bench {}{flag} [--seed <hex>] [--out <path>]\n  {}\n  Writes {} (or --out), \
             a pure function of the seed.\n",
            s.name, s.about, s.out
        );
    }
    eprintln!(
        "usage: bench fig [--scale quick|default|big] [--out DIR] (<name>... | --all)\n  \
         Regenerates the paper's tables and figures; each is printed and written to \
         <DIR>/<name>.txt (default results/).\n  names: {}",
        figure_names()
    );
    std::process::exit(2);
}

fn figure_names() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    names.join(" ")
}

/// `bench fig`: runs the named entries of [`FIGURES`] (all with `--all`).
fn run_figures(args: &[String]) {
    let mut scale = BenchScale::default();
    let mut out_dir = String::from("results");
    let mut wanted: Vec<&Figure> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| BenchScale::named(v))
                    .unwrap_or_else(|| usage());
            }
            "--out" => out_dir = it.next().unwrap_or_else(|| usage()).clone(),
            "--all" => wanted = FIGURES.iter().collect(),
            name => match FIGURES.iter().find(|(n, _)| *n == name) {
                Some(fig) => wanted.push(fig),
                None => {
                    eprintln!("unknown experiment: {name}\nnames: {}", figure_names());
                    std::process::exit(2);
                }
            },
        }
    }
    if wanted.is_empty() {
        usage();
    }
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    for (name, run) in wanted {
        let t = std::time::Instant::now();
        let out = run(scale);
        let body = format!("===== {} =====\n{}", out.id, out.text);
        println!("\n{body}");
        eprintln!("[{name} took {:.1}s]", t.elapsed().as_secs_f64());
        std::fs::write(format!("{out_dir}/{name}.txt"), body).expect("write result");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    if cmd == Some("fig") {
        return run_figures(&args[1..]);
    }
    let Some(slice) = SLICES.iter().find(|s| Some(s.name) == cmd) else {
        usage()
    };
    let mut write = slice.write_flag.is_none();
    let mut seed = DEFAULT_SEED;
    let mut out = slice.out.to_string();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            flag if slice.write_flag == Some(flag) => write = true,
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage());
                let v = v.trim_start_matches("0x");
                seed = u64::from_str_radix(v, 16).unwrap_or_else(|_| usage());
            }
            "--out" => out = it.next().unwrap_or_else(|| usage()).clone(),
            _ => usage(),
        }
    }
    let (table, file) = (slice.run)(seed);
    print!("{table}");
    if write {
        std::fs::write(&out, file).expect("write result");
        println!("wrote {out}");
    }
}
