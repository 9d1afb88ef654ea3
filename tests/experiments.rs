//! The experiment contract, executable.
//!
//! EXPERIMENTS.md says what every `condor exp <name>` prints; this pins
//! it. Each registered experiment is run through the real binary at the
//! default seed and an FNV-1a digest of its stdout (for `export`: of the
//! eight CSVs it writes) is held against the digest of what the 22
//! stand-alone `exp_*` binaries printed before `condor exp` replaced them.
//! Running them also runs every paper-claim assertion they carry. A
//! second test keeps the registry and the documents that list it in step.

mod common;

use std::path::Path;
use std::process::Command;

use common::{fnv1a64, FNV_OFFSET};
use condor_bench::exp::EXPERIMENTS;

/// `(experiment, digest of its report)`, in registry order. Re-pin only
/// with EXPERIMENTS.md updated to match and the reason in the commit.
const PINS: [(&str, u64); 22] = [
    ("table1", 0x23EA_26AF_EF1E_D43B),
    ("fig2", 0xD811_B438_10CE_82B2),
    ("fig3", 0x53E1_FCDC_021B_AC09),
    ("fig4", 0x81FE_3A8A_AD09_7A91),
    ("fig5", 0xE940_B552_D252_CDAF),
    ("fig6", 0x4E59_9A3D_05D2_2B59),
    ("fig7", 0xF4C2_13B5_950B_8AD6),
    ("fig8", 0x975B_9EA3_D3A9_EAEA),
    ("fig9", 0x4424_AEE0_8E1D_63BD),
    ("summary", 0xFAD4_BBFA_EE8A_238B),
    ("export", 0xFDF2_3164_33CF_25B8),
    ("fairness", 0x0677_B060_8FA1_083F),
    ("eviction", 0x6108_3B67_D89B_C840),
    ("throttle", 0x58C2_B150_DA1F_B9E4),
    ("failures", 0x6ED2_B313_4714_36AB),
    ("history", 0xAB26_AAAA_3606_5AF1),
    ("gang", 0x2ABA_3929_0F36_DE90),
    ("reservation", 0xDC4F_E815_8177_7503),
    ("hetero", 0x4C87_E32C_CF3A_70CC),
    ("availability", 0x7338_9E6F_84FF_EB00),
    ("oversubscribed", 0xDF30_0FD5_89D5_EF72),
    ("redundancy", 0xEA2E_4DCE_3979_0B88),
];

/// Runs `condor exp <name>` and digests its report; a failed assertion
/// inside the experiment fails here with the experiment's own message.
fn report_digest(name: &str) -> u64 {
    let figures = Path::new(env!("CARGO_TARGET_TMPDIR")).join("experiment_figures");
    let mut condor = Command::new(env!("CARGO_BIN_EXE_condor"));
    condor.args(["exp", name]);
    if name == "export" {
        condor.arg(&figures);
    }
    let out = condor.output().expect("condor runs");
    assert!(
        out.status.success(),
        "condor exp {name} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    if name != "export" {
        return fnv1a64(&out.stdout, FNV_OFFSET);
    }
    let mut csvs: Vec<_> = std::fs::read_dir(&figures)
        .expect("export wrote its directory")
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    csvs.sort();
    assert_eq!(csvs.len(), 8, "export writes eight CSVs: {csvs:?}");
    csvs.iter().fold(FNV_OFFSET, |hash, csv| fnv1a64(&std::fs::read(csv).expect("CSV reads"), hash))
}

/// Runs every experiment, then fails once with the whole table — in
/// paste-ready form — if any report moved.
#[test]
fn every_experiment_prints_its_pinned_report() {
    let names = EXPERIMENTS.map(|e| e.name);
    assert_eq!(names, PINS.map(|(name, _)| name), "PINS lists the registry in order");
    let got = names.map(report_digest);
    let moved: Vec<&str> =
        PINS.iter().zip(&got).filter(|((_, pin), got)| pin != *got).map(|((name, _), _)| *name).collect();
    let table: Vec<String> =
        names.iter().zip(&got).map(|(name, d)| format!("    (\"{name}\", {d:#018X}),")).collect();
    assert!(moved.is_empty(), "reports moved: {moved:?}\nPINS now reads:\n{}", table.join("\n"));
}

/// The experiment each `condor exp …` in `text` names first; nothing for
/// a placeholder or a flag (`<name>`, `--quick`).
fn named_after_condor_exp(text: &str) -> Vec<&str> {
    text.split("condor exp ")
        .skip(1)
        .filter_map(|tail| tail.split(|c: char| !c.is_ascii_alphanumeric()).next())
        .filter(|word| !word.is_empty())
        .collect()
}

/// README's command list and the `condor_bench` crate-doc table name every
/// registered experiment; README, EXPERIMENTS.md and DESIGN.md name none
/// that is not registered, and no `exp_*` binary — there are none left.
#[test]
fn docs_name_exactly_the_registered_experiments() {
    let read = |path: &str| {
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(path))
            .unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();

    let crate_doc = read("crates/bench/src/lib.rs");
    let rows: Vec<&str> = crate_doc
        .lines()
        .filter_map(|l| l.strip_prefix("//! | `")?.split('`').next())
        .filter(|name| *name != "condor exp")
        .collect();
    assert_eq!(rows, registered, "the condor_bench crate-doc table lists the registry in order");

    for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md"] {
        let text = read(doc);
        assert!(!text.contains("exp_"), "{doc} still names an exp_* binary");
        let named = named_after_condor_exp(&text);
        for name in &named {
            assert!(
                *name == "all" || registered.contains(name),
                "{doc} names `condor exp {name}`, which is not registered"
            );
        }
        if doc == "README.md" {
            for name in &registered {
                assert!(named.contains(name), "README.md never shows `condor exp {name}`");
            }
        }
    }
}
