//! True end-to-end tests: drive the compiled `gentrius` binary through a
//! realistic session — generate a dataset, enumerate its stand serially
//! and in parallel, extract induced trees, run the consensus and the
//! engine verification — checking observable behaviour only (stdout, exit
//! codes, files).

use std::path::PathBuf;
use std::process::Command;

fn gentrius() -> Command {
    // Cargo builds and exposes the package's binaries to its integration
    // tests via CARGO_BIN_EXE_<name>.
    Command::new(env!("CARGO_BIN_EXE_gentrius"))
}

fn run_ok(args: &[&str]) -> String {
    let out = gentrius().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "gentrius {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gentrius-e2e");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

#[test]
fn full_session() {
    // 1. Generate a dataset.
    let ds = tmp("session.dataset");
    let msg = run_ok(&[
        "gen",
        "--kind",
        "sim",
        "--seed",
        "11",
        "--index",
        "2",
        "--output",
        ds.to_str().unwrap(),
    ]);
    assert!(msg.contains("wrote sim-data-2"), "{msg}");

    // 2. Serial stand enumeration with bounded rules.
    let serial = run_ok(&[
        "stand",
        "--dataset",
        ds.to_str().unwrap(),
        "--max-trees",
        "200000",
        "--max-states",
        "500000",
    ]);
    let grab = |out: &str, key: &str| -> String {
        out.lines()
            .find(|l| l.starts_with(key))
            .unwrap_or_else(|| panic!("missing '{key}' in {out}"))
            .to_string()
    };
    let serial_trees = grab(&serial, "stand trees:");

    // 3. Parallel run must report the same count.
    let par = run_ok(&[
        "stand",
        "--dataset",
        ds.to_str().unwrap(),
        "--threads",
        "2",
        "--max-trees",
        "200000",
        "--max-states",
        "500000",
    ]);
    assert_eq!(serial_trees, grab(&par, "stand trees:"));

    // 4. Write the stand to a file and re-load it as constraints — the
    //    stand of a single complete tree is itself.
    let trees_out = tmp("stand.nwk");
    let _ = run_ok(&[
        "stand",
        "--dataset",
        ds.to_str().unwrap(),
        "--max-trees",
        "200000",
        "--max-states",
        "500000",
        "--output",
        trees_out.to_str().unwrap(),
    ]);
    let content = std::fs::read_to_string(&trees_out).expect("stand file");
    assert!(content.lines().filter(|l| l.ends_with(';')).count() >= 1);

    // 5. Engine verification on a small instance.
    let small = tmp("small.nwk");
    std::fs::write(&small, "((A,B),(C,D));\n((C,D),(E,F));\n").unwrap();
    let verify = run_ok(&["verify", "--trees", small.to_str().unwrap()]);
    assert!(verify.contains("verdict: PASS"), "{verify}");

    // 6. Consensus on the same instance.
    let cons = run_ok(&["consensus", "--trees", small.to_str().unwrap()]);
    assert!(cons.contains("majority consensus:"), "{cons}");

    // 7. Virtual-time speedup table.
    let sim = run_ok(&[
        "sim",
        "--trees",
        small.to_str().unwrap(),
        "--threads",
        "1,2,4",
    ]);
    assert!(sim.lines().count() >= 5, "{sim}");
}

#[test]
fn error_paths_exit_nonzero() {
    let out = gentrius()
        .args(["stand", "--trees", "/nonexistent/file.nwk"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");

    let out = gentrius().args(["frobnicate"]).output().expect("runs");
    assert!(!out.status.success());

    // Unknown flags and removed options fail by name instead of being
    // ignored (a misspelt `--max-tree` once ran the unbounded enumeration)
    // or swallowing the next argument as their value.
    let trees = tmp("flags.nwk");
    std::fs::write(&trees, "((A,B),(C,D));\n((C,D),(E,F));\n").unwrap();
    let trees = trees.to_str().unwrap();
    let metrics = tmp("flags-metrics.json");
    let metrics = metrics.to_str().unwrap();
    for (extra, named) in [
        (&["--max-tree", "10"][..], "--max-tree"),
        (&["--incremental"][..], "--incremental"),
        (&["--mapping", "incremental"][..], "incremental"),
        (&["--no-dynamc", "--threads", "2"][..], "--no-dynamc"),
        (&["--nope=1"][..], "--nope"),
        (&["--print-trees=yes"][..], "--print-trees"),
        (&["--emit-batch", "4"][..], "--emit-batch"),
        (&["--coarse-flush"][..], "--coarse-flush"),
        (&["--no-adaptive-split"][..], "--no-adaptive-split"),
        (&["--stop-poll-stride", "8"][..], "--stop-poll-stride"),
        (&["--threads", "0"][..], "--threads"),
        (
            &["--threads", "0", "--metrics-json", metrics][..],
            "--threads",
        ),
    ] {
        let out = gentrius()
            .args(["stand", "--trees", trees])
            .args(extra)
            .output()
            .expect("runs");
        assert!(!out.status.success(), "{extra:?} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("error:") && err.contains(named),
            "{extra:?}: {err}"
        );
    }
    // `stand resume` rejects a zero worker count too, before it even
    // reads the checkpoint.
    let out = gentrius()
        .args([
            "stand",
            "resume",
            "/nonexistent/x.standckpt",
            "--threads",
            "0",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:") && err.contains("--threads"), "{err}");
}

/// The `stand` report contract at one thread: an export or container flag
/// changes what is written, never the counters or the stop. Every run goes
/// through the engine, which at one thread stops on exactly the event the
/// serial algorithm stops on (`long-runner-0` has ~165k stand trees, so
/// the 100-tree cap fires mid-run).
#[test]
fn stand_report_is_identical_with_and_without_export_flags() {
    let ds = tmp("contract.dataset");
    run_ok(&[
        "gen",
        "--scenario",
        "long-runner-0",
        "--output",
        ds.to_str().unwrap(),
    ]);
    let metrics = tmp("contract-metrics.json");
    let trace = tmp("contract-trace.json");
    let cont = tmp("contract.stand");
    let base = [
        "stand",
        "--dataset",
        ds.to_str().unwrap(),
        "--threads",
        "1",
        "--max-trees",
        "100",
    ];
    let variants: [&[&str]; 4] = [
        &[],
        &["--metrics-json", metrics.to_str().unwrap()],
        &["--trace-json", trace.to_str().unwrap()],
        &["--output", cont.to_str().unwrap()],
    ];
    let want = [
        "stand trees: 100",
        "intermediate states: 19",
        "dead ends: 0",
        "status: stopped: stand-tree limit (rule 1)",
    ];
    for extra in variants {
        let out = run_ok(&[&base[..], extra].concat());
        let lines: Vec<&str> = out.lines().collect();
        // The report's keys, in order (trailing export lines aside).
        let keys: Vec<&str> = lines
            .iter()
            .take(9)
            .map(|l| l.split(": ").next().unwrap_or(""))
            .collect();
        assert_eq!(
            keys,
            [
                "input",
                "threads",
                "mapping",
                "stand trees",
                "intermediate states",
                "dead ends",
                "scheduler",
                "status",
                "time",
            ],
            "{extra:?}: {out}"
        );
        assert_eq!(
            [lines[3], lines[4], lines[5], lines[7]],
            want,
            "{extra:?}: {out}"
        );
    }
    let cat = run_ok(&["stand", "cat", cont.to_str().unwrap()]);
    assert_eq!(cat.lines().count(), 100);
}

/// `stand cat FILE.stand | head -1` must exit 0: head closes the pipe
/// after one line and the resulting EPIPE is an everyday shell idiom,
/// not an error. The container is large enough (>64 KiB of newick) that
/// the write genuinely hits a closed pipe.
#[cfg(unix)]
#[test]
fn stand_cat_piped_into_head_exits_zero() {
    let trees = tmp("epipe.nwk");
    std::fs::write(&trees, "((A,B),(C,D));\n((A,E),(F,G));\n((C,F),(H,I));\n").unwrap();
    let cont = tmp("epipe.stand");
    run_ok(&[
        "stand",
        "--trees",
        trees.to_str().unwrap(),
        "--output",
        cont.to_str().unwrap(),
    ]);
    assert!(
        std::fs::metadata(&cont).unwrap().len() > 0,
        "container written"
    );
    // pipefail makes head's partner's exit code the pipeline's verdict.
    let out = Command::new("bash")
        .arg("-c")
        .arg(format!(
            "set -o pipefail; {} stand cat {} | head -1",
            env!("CARGO_BIN_EXE_gentrius"),
            cont.to_str().unwrap()
        ))
        .output()
        .expect("bash runs");
    assert!(
        out.status.success(),
        "pipeline failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.trim_end().ends_with(';'), "{stdout}");
}

/// `stand cat` streams a multi-block container to stdout line for line as
/// `stand export` writes it to a Newick file.
#[test]
fn stand_cat_matches_export_across_blocks() {
    let trees = tmp("cat-export.nwk");
    std::fs::write(&trees, "((A,B),(C,D));\n((E,F),(G,H));\n((I,J),(K,L));\n").unwrap();
    let cont = tmp("cat-export.stand");
    let msg = run_ok(&[
        "stand",
        "--trees",
        trees.to_str().unwrap(),
        "--max-trees",
        "5000",
        "--output",
        cont.to_str().unwrap(),
    ]);
    assert!(msg.contains("wrote 5000 trees"), "{msg}");
    assert!(msg.contains("(5 blocks, .stand container)"), "{msg}");
    let exported = tmp("cat-export.out.nwk");
    run_ok(&[
        "stand",
        "export",
        "--input",
        cont.to_str().unwrap(),
        "--output",
        exported.to_str().unwrap(),
    ]);
    let cat = run_ok(&["stand", "cat", cont.to_str().unwrap()]);
    assert_eq!(cat.lines().count(), 5000);
    assert_eq!(cat, std::fs::read_to_string(&exported).unwrap());
}

/// Kill/resume across a real process boundary: SIGKILL a checkpointed
/// run mid-flight, then `stand resume` until the checkpoint retires and
/// compare the stitched container against an uninterrupted run's.
#[cfg(unix)]
#[test]
fn sigkill_mid_run_then_resume_matches_clean_run() {
    let trees = tmp("kill.nwk");
    // ~0.8 s (debug) with container output: long enough to kill at
    // ~0.3 s, short enough that resuming completes quickly.
    std::fs::write(
        &trees,
        "((A,B),(C,D));\n((A,E),(F,G));\n((C,F),(H,I));\n((B,I),(E,J));\n",
    )
    .unwrap();
    let clean = tmp("kill-clean.stand");
    run_ok(&[
        "stand",
        "--trees",
        trees.to_str().unwrap(),
        "--threads",
        "2",
        "--output",
        clean.to_str().unwrap(),
    ]);

    let cont = tmp("kill.stand");
    let ckpt = tmp("kill.standckpt");
    let _ = std::fs::remove_file(&cont);
    let _ = std::fs::remove_file(&ckpt);
    let mut child = gentrius()
        .args([
            "stand",
            "--trees",
            trees.to_str().unwrap(),
            "--threads",
            "2",
            "--output",
            cont.to_str().unwrap(),
            "--checkpoint-every",
            "0.05",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn checkpointed run");
    std::thread::sleep(std::time::Duration::from_millis(300));
    // Child::kill is SIGKILL on unix — no drop guards, no atexit, the
    // hard-crash case the checkpoint format exists for.
    let finished_early = child.try_wait().expect("try_wait").is_some();
    child.kill().ok();
    child.wait().expect("reap child");

    if !finished_early {
        assert!(
            ckpt.exists(),
            "a killed checkpointed run must leave its checkpoint behind"
        );
        let mut slices = 0;
        while ckpt.exists() {
            slices += 1;
            assert!(slices <= 100, "resume never completed the enumeration");
            let out = run_ok(&["stand", "resume", ckpt.to_str().unwrap(), "--threads", "2"]);
            assert!(out.contains("resuming"), "{out}");
        }
    }
    // Either way the finished container must equal the clean run's stand
    // set (resume path when the kill landed mid-run, direct completion in
    // the unlikely early-finish race).
    let sort_lines = |s: String| {
        let mut v: Vec<&str> = s.lines().collect();
        v.sort_unstable();
        v.join("\n")
    };
    let want = sort_lines(run_ok(&["stand", "cat", clean.to_str().unwrap()]));
    let got = sort_lines(run_ok(&["stand", "cat", cont.to_str().unwrap()]));
    assert!(!want.is_empty());
    assert_eq!(got, want, "resumed container diverged from the clean run");
    // No sidecar debris after completion.
    let dir = cont.parent().unwrap();
    let debris: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("kill.stand.") && n.contains("seg"))
        .collect();
    assert!(debris.is_empty(), "segment debris left behind: {debris:?}");
}

#[test]
fn induced_pipes_into_stand() {
    let sp = tmp("species.nwk");
    let pam = tmp("matrix.pam");
    std::fs::write(&sp, "((A,B),((C,D),(E,F)));\n").unwrap();
    std::fs::write(&pam, "A 11\nB 11\nC 11\nD 10\nE 01\nF 11\n").unwrap();
    let induced = run_ok(&[
        "induced",
        "--species",
        sp.to_str().unwrap(),
        "--pam",
        pam.to_str().unwrap(),
    ]);
    let induced_file = tmp("induced.nwk");
    std::fs::write(&induced_file, &induced).unwrap();
    let stand = run_ok(&["stand", "--trees", induced_file.to_str().unwrap()]);
    assert!(stand.contains("stand trees:"), "{stand}");
    // Species tree is on its own stand → at least 1.
    let n: u64 = stand
        .lines()
        .find(|l| l.starts_with("stand trees:"))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|v| v.trim().parse().ok())
        .expect("count parses");
    assert!(n >= 1);
}
