//! `chaos` — fault-axis matrices, soak runs, race analysis and bounded
//! model checking for the Aceso store.
//!
//! ```text
//! chaos <sweep|rt|elastic|backends|cache> [--ci] [--seed N] [--limit N] [--verbose]
//! chaos analyze [--ci] [--seed N] [--limit N] [--verbose]
//! chaos explore [--ci] [--seed N] [--verbose]
//! chaos soak    [--seed N] [--seconds N] [--verbose]
//! chaos cell    [<axis>:]<id> [--seed N]
//! ```
//!
//! Exits 0 when every explored cell held its invariants (and, for
//! `analyze`, the race detector stayed silent, every mutation self-test
//! fired, and the protocol lints passed; for `explore`, every baseline
//! interleaving+crash was clean and every model mutation was caught), 1
//! on any violation, 2 on usage errors. `--ci` selects the deterministic
//! tier-1 profile of a mode (only `sweep` and `analyze` have a smaller
//! one) and rewrites `results/chaos/<mode>.txt` with the report minus its
//! wall-clock lines, so `git diff --exit-code results/chaos` pins it.

use aceso_chaos::analyze::{analyze, Trace};
use aceso_chaos::cell::{ci_matrix, full_matrix, Cell};
use aceso_chaos::explore::run_explore;
use aceso_chaos::sweep::soak;
use aceso_chaos::{
    each_axis, find_cell, run_cell, run_matrix, Axis, Backends, Cache, Elastic, Out, Report, Rt,
    Sweep, CI_CELLS, DEFAULT_SEED,
};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: chaos <sweep|rt|elastic|backends|cache> [--ci] [--seed N] [--limit N] [--verbose]\n\
                chaos analyze [--ci] [--seed N] [--limit N] [--verbose]\n\
                chaos explore [--ci] [--seed N] [--verbose]\n\
                chaos soak    [--seed N] [--seconds N] [--verbose]\n\
                chaos cell    [<axis>:]<id> [--seed N]\n\
         \n\
         sweep    run the crash matrix (full {} cells; --ci = deterministic\n\
         \x20        {CI_CELLS}-cell profile plus the cache axis) and print\n\
         \x20        a coverage report\n\
         rt       kill a memory node / crash a client while several\n\
         \x20        coroutine ops sit suspended on one executor thread\n\
         \x20        ({} cells)\n\
         elastic  kill the joining MN, the draining MN, or a CN at every\n\
         \x20        migrator step boundary of an online column migration\n\
         \x20        ({} cells)\n\
         backends run the shared (op x fault x skip) crash script against\n\
         \x20        every FtEngine — aceso, fusee, swarm — through the\n\
         \x20        seam's strategy-blind invariants ({} cells)\n\
         cache    kill the index column of a cached key (or crash the\n\
         \x20        hot-cache client) between cache fill and use, recover,\n\
         \x20        and demand no stale read through the surviving cache\n\
         \x20        ({} cells)\n\
         analyze  rerun the sweep schedules, a 4-client YCSB-A trace, and\n\
         \x20        the rt/elastic/backends/cache slices under the\n\
         \x20        happens-before race detector, plus the detector\n\
         \x20        self-tests and lints\n\
         explore  bounded model checking: enumerate every interleaving of\n\
         \x20        2-3 coroutine clients to a depth bound, crash every\n\
         \x20        scheduling point, and judge linearizability; mutation\n\
         \x20        self-tests must each yield a minimized counterexample\n\
         soak     run seeded random sweep cells until --seconds elapse\n\
         cell     replay one cell by id as printed in a report; ids of\n\
         \x20        axes other than sweep take an `<axis>:` prefix\n\
         --ci     the deterministic tier-1 profile; also rewrites\n\
         \x20        results/chaos/<mode>.txt\n\
         --seed   master seed (default {DEFAULT_SEED:#x}); same seed, same schedule",
        Sweep::cells().len(),
        Rt::cells().len(),
        Elastic::cells().len(),
        Backends::cells().len(),
        Cache::cells().len(),
    );
    std::process::exit(2);
}

fn parse_u64(args: &mut std::slice::Iter<'_, String>, flag: &str) -> u64 {
    let Some(v) = args.next() else {
        eprintln!("chaos: {flag} needs a value");
        usage();
    };
    // Accept both decimal and 0x-prefixed seeds (the report prints hex).
    let parsed = if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    parsed.unwrap_or_else(|_| {
        eprintln!("chaos: bad value for {flag}: {v}");
        usage();
    })
}

struct Opts {
    seed: u64,
    limit: Option<usize>,
    ci: bool,
    verbose: bool,
}

/// What a run prints, and — without its wall-clock lines — what `--ci`
/// pins under `results/chaos/`.
#[derive(Default)]
struct Log(String);

impl Log {
    fn say(&mut self, shown: &str, pinned: &str) {
        print!("{shown}");
        self.0.push_str(pinned);
    }
}

fn progress<A: Axis>(verbose: bool) -> impl FnMut(&Out<A>) {
    let mut ran = 0usize;
    move |o: &Out<A>| {
        ran += 1;
        if verbose || !o.ok() {
            let status = if o.ok() { "ok" } else { "VIOLATION" };
            println!(
                "[{ran:>4}] {status:<9} {} ({} ms, {:?})",
                o.cell, o.duration_ms, o.facts
            );
            for v in &o.violations {
                println!("    {v}");
            }
        }
    }
}

/// The sweep's profile: the seeded CI subset or the full matrix.
fn sweep_cells(o: &Opts) -> Vec<Cell> {
    let mut cells = if o.ci {
        ci_matrix(o.seed, o.limit.unwrap_or(CI_CELLS))
    } else {
        full_matrix()
    };
    cells.truncate(o.limit.unwrap_or(usize::MAX));
    cells
}

fn run_cells<A: Axis>(cells: &[A::Cell], o: &Opts, log: &mut Log) -> bool {
    let report = run_matrix::<A>(cells, o.seed, progress::<A>(o.verbose));
    log.say(&report.render(true), &report.render(false));
    report.clean()
}

/// `chaos <A::NAME>`: banner, matrix, report.
fn run_axis<A: Axis>(mode: &str, o: &Opts, log: &mut Log) -> Option<bool> {
    (mode == A::NAME).then(|| {
        let cells = A::cells();
        let cells = &cells[..o.limit.unwrap_or(cells.len()).min(cells.len())];
        let banner = format!(
            "chaos {mode}: {} {}, seed {:#x}\n",
            cells.len(),
            A::CELLS_ARE,
            o.seed
        );
        log.say(&banner, &banner);
        run_cells::<A>(cells, o, log)
    })
}

/// `chaos cell <axis>:<id>`. The seed is used verbatim (not drawn from a
/// master stream) so a report's printed cell seed replays exactly.
fn replay<A: Axis>(axis: &str, id: &str, seed: u64) -> Option<bool> {
    let cell = (axis == A::NAME).then(|| find_cell::<A>(id)).flatten()?;
    println!("chaos cell: {axis}:{cell}, seed {seed:#x}");
    let out = run_cell::<A>(cell, seed, None);
    progress::<A>(true)(&out);
    let report = Report::<A>::new(seed, vec![out]);
    print!("{}", report.render(true));
    Some(report.clean())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = argv.first().map(String::as_str) else {
        usage();
    };
    let mut o = Opts {
        seed: DEFAULT_SEED,
        limit: None,
        ci: false,
        verbose: false,
    };
    let mut seconds = 60u64;
    let mut cell_id: Option<&str> = None;
    let mut it = argv[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            id if mode == "cell" && cell_id.is_none() && !id.starts_with('-') => cell_id = Some(id),
            "--ci" => o.ci = true,
            "--seed" => o.seed = parse_u64(&mut it, "--seed"),
            "--limit" => o.limit = Some(parse_u64(&mut it, "--limit") as usize),
            "--seconds" => seconds = parse_u64(&mut it, "--seconds"),
            "--verbose" | "-v" => o.verbose = true,
            other => {
                eprintln!("chaos: unknown flag {other}");
                usage();
            }
        }
    }
    let (seed, verbose) = (o.seed, o.verbose);

    let mut log = Log::default();
    let clean = match mode {
        "sweep" => {
            let cells = sweep_cells(&o);
            let banner = format!("chaos sweep: {} cells, seed {seed:#x}\n", cells.len());
            log.say(&banner, &banner);
            // The CI profile appends the stale-index-cache axis: its
            // fill-kill-recover-use cells ride the same tier-1 invocation
            // as the crash matrix (no short-circuit: both always run).
            run_cells::<Sweep>(&cells, &o, &mut log)
                & (!o.ci || run_cells::<Cache>(&Cache::cells(), &o, &mut log))
        }
        "soak" => {
            println!("chaos soak: {seconds}s, seed {seed:#x}");
            let report = soak(
                seed,
                Duration::from_secs(seconds),
                progress::<Sweep>(verbose),
            );
            print!("{}", report.render(true));
            report.clean()
        }
        "analyze" => {
            let cells = sweep_cells(&o);
            let banner = format!(
                "chaos analyze: {} cells + 4-client YCSB-A, seed {seed:#x}\n",
                cells.len()
            );
            log.say(&banner, &banner);
            let mut ran = 0usize;
            let report = analyze(&cells, seed, |t: &Trace| {
                ran += 1;
                if verbose || !t.ok() {
                    let status = if t.ok() { "ok" } else { "FINDING" };
                    println!("[{ran:>4}] {status:<9} {} ({} events)", t.label, t.events);
                }
            });
            log.say(&report.render(), &report.render());
            report.clean()
        }
        "explore" => {
            let banner = format!("chaos explore: bounded model checking, seed {seed:#x}\n");
            log.say(&banner, &banner);
            let mut ran = 0usize;
            let report = run_explore(seed, |r| {
                ran += 1;
                if verbose {
                    println!(
                        "[{ran:>4}] {:<22} states={} executions={}",
                        r.name, r.stats.nodes, r.stats.executions
                    );
                }
            });
            log.say(&report.render(), &report.render());
            report.clean()
        }
        "cell" => {
            let id = cell_id.unwrap_or_else(|| usage());
            let (axis, id) = id.split_once(':').unwrap_or((Sweep::NAME, id));
            let replayed = each_axis!(replay(axis, id, seed));
            replayed.into_iter().flatten().next().unwrap_or_else(|| {
                eprintln!("chaos: no cell {axis}:{id} (ids are printed by the axis' reports)");
                usage();
            })
        }
        _ => each_axis!(run_axis(mode, &o, &mut log))
            .into_iter()
            .flatten()
            .next()
            .unwrap_or_else(|| usage()),
    };

    if o.ci && !log.0.is_empty() {
        let path = format!("results/chaos/{mode}.txt");
        std::fs::create_dir_all("results/chaos").expect("create results/chaos");
        std::fs::write(&path, &log.0).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
    std::process::exit(if clean { 0 } else { 1 });
}
