//! Golden-digest regression for the detector refactor: the default
//! (window) detector behind the `DeviationDetector` trait must
//! reproduce the pre-refactor `RunSummary` byte-for-byte.
//!
//! The constants below were captured on the pre-refactor tree (PR 8
//! head) by running this same harness and recording the FNV-1a digest
//! of `run().summary.to_json()` for every cell: the fig4 grid
//! (ZERO-FLOW / TWO-FLOW × PM) and the chaos grid (fault intensity ×
//! PM), downscaled to 2 simulated seconds, seeds {1..4}. Any behavior
//! change in the default detection path — however small — shows up
//! here as a digest mismatch, with the full actual table printed for
//! comparison.

use airguard_bench::figures::chaos::plan;
use airguard_net::{Protocol, ScenarioConfig, StandardScenario};
use airguard_obs::fnv1a;

const SEEDS: [u64; 4] = [1, 2, 3, 4];

fn digest_of(cfg: &ScenarioConfig) -> u64 {
    fnv1a(cfg.run().summary.to_json().as_bytes())
}

/// Runs every (label, cfg) cell across the seed set and asserts the
/// digests match the pinned table, printing the full actual table on
/// any mismatch so regeneration is a copy-paste.
fn check(golden: &[(&str, u64)], cells: &[(String, ScenarioConfig)]) {
    let mut actual = Vec::new();
    for (label, cfg) in cells {
        for seed in SEEDS {
            let d = digest_of(&cfg.clone().seed(seed));
            actual.push((format!("{label}/seed{seed}"), d));
        }
    }
    let rendered: String = actual
        .iter()
        .map(|(l, d)| format!("    (\"{l}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        golden.len(),
        actual.len(),
        "golden table size mismatch; actual table:\n{rendered}"
    );
    for ((gl, gd), (al, ad)) in golden.iter().zip(&actual) {
        assert_eq!(gl, al, "cell order changed; actual table:\n{rendered}");
        assert_eq!(
            *gd, *ad,
            "digest changed for {gl} (expected {gd:#018x}, got {ad:#018x}); \
             actual table:\n{rendered}"
        );
    }
}

#[test]
fn fig4_grid_summaries_match_pre_refactor_golden_digests() {
    let mut cells = Vec::new();
    for sc in [StandardScenario::ZeroFlow, StandardScenario::TwoFlow] {
        let key = match sc {
            StandardScenario::ZeroFlow => "zero",
            _ => "two",
        };
        for pm in [0.0, 30.0, 60.0, 90.0] {
            cells.push((
                format!("fig4/{key}/pm{pm:.0}"),
                ScenarioConfig::new(sc)
                    .protocol(Protocol::Correct)
                    .misbehavior_percent(pm)
                    .sim_time_secs(2),
            ));
        }
    }
    check(GOLDEN_FIG4, &cells);
}

#[test]
fn chaos_grid_summaries_match_pre_refactor_golden_digests() {
    let mut cells = Vec::new();
    for intensity in [0u16, 25, 50, 100] {
        for pm in [0.0, 50.0, 90.0] {
            let cfg = ScenarioConfig::new(StandardScenario::ZeroFlow)
                .protocol(Protocol::Correct)
                .misbehavior_percent(pm)
                .sim_time_secs(2)
                .fault(plan(intensity))
                .expect("chaos plan targets node 1 of the standard topology");
            cells.push((format!("chaos/f{intensity}/pm{pm:.0}"), cfg));
        }
    }
    check(GOLDEN_CHAOS, &cells);
}

#[rustfmt::skip]
const GOLDEN_FIG4: &[(&str, u64)] = &[
    ("fig4/zero/pm0/seed1", 0x5ed886ddfeb05d09),
    ("fig4/zero/pm0/seed2", 0x5182f5f94df83de6),
    ("fig4/zero/pm0/seed3", 0xa66576e2bac423a2),
    ("fig4/zero/pm0/seed4", 0xd8ccee6fa01daa28),
    ("fig4/zero/pm30/seed1", 0xe97ef6d08fa3f478),
    ("fig4/zero/pm30/seed2", 0xe66d4d555b627275),
    ("fig4/zero/pm30/seed3", 0x184604d50e67bd54),
    ("fig4/zero/pm30/seed4", 0xadcde9b9023ffa3d),
    ("fig4/zero/pm60/seed1", 0x3113ce1cfacd59b8),
    ("fig4/zero/pm60/seed2", 0x6b5c0305d6444c24),
    ("fig4/zero/pm60/seed3", 0xec60c6335128ea31),
    ("fig4/zero/pm60/seed4", 0x20803e147eb3f931),
    ("fig4/zero/pm90/seed1", 0xe6cca3bd0835310a),
    ("fig4/zero/pm90/seed2", 0x628c9f6c4ce1a483),
    ("fig4/zero/pm90/seed3", 0x0ad562a93642f8a3),
    ("fig4/zero/pm90/seed4", 0x81541e090e2ac6c3),
    ("fig4/two/pm0/seed1", 0xb5a9f863c0bcc8cc),
    ("fig4/two/pm0/seed2", 0x1fdc48fb3773381c),
    ("fig4/two/pm0/seed3", 0x0fd7d9d001661f40),
    ("fig4/two/pm0/seed4", 0xebb1711e2da248f8),
    ("fig4/two/pm30/seed1", 0x524bb844e5bdd56e),
    ("fig4/two/pm30/seed2", 0x7105f9b4d6857568),
    ("fig4/two/pm30/seed3", 0x165435de5134e216),
    ("fig4/two/pm30/seed4", 0x1022d77a85a0fcca),
    ("fig4/two/pm60/seed1", 0xb69a278cd097f931),
    ("fig4/two/pm60/seed2", 0xe0058dd5d00852b6),
    ("fig4/two/pm60/seed3", 0x224a71358cb136e3),
    ("fig4/two/pm60/seed4", 0x26fe3acd8c0e1848),
    ("fig4/two/pm90/seed1", 0x6f78cd19dec326f5),
    ("fig4/two/pm90/seed2", 0x85fbdd76e337939e),
    ("fig4/two/pm90/seed3", 0x29aa623b823b1fba),
    ("fig4/two/pm90/seed4", 0xf6b33021529476a0),
];

#[rustfmt::skip]
const GOLDEN_CHAOS: &[(&str, u64)] = &[
    ("chaos/f0/pm0/seed1", 0x5ed886ddfeb05d09),
    ("chaos/f0/pm0/seed2", 0x5182f5f94df83de6),
    ("chaos/f0/pm0/seed3", 0xa66576e2bac423a2),
    ("chaos/f0/pm0/seed4", 0xd8ccee6fa01daa28),
    ("chaos/f0/pm50/seed1", 0x5200a2ea01870a40),
    ("chaos/f0/pm50/seed2", 0x64a85bd0963d3148),
    ("chaos/f0/pm50/seed3", 0xdda5bb956c883637),
    ("chaos/f0/pm50/seed4", 0xdf59c3b960f686d2),
    ("chaos/f0/pm90/seed1", 0xe6cca3bd0835310a),
    ("chaos/f0/pm90/seed2", 0x628c9f6c4ce1a483),
    ("chaos/f0/pm90/seed3", 0x0ad562a93642f8a3),
    ("chaos/f0/pm90/seed4", 0x81541e090e2ac6c3),
    ("chaos/f25/pm0/seed1", 0xfba889074c6221e8),
    ("chaos/f25/pm0/seed2", 0xd7168d76a9035155),
    ("chaos/f25/pm0/seed3", 0x915c1c429d6a6fce),
    ("chaos/f25/pm0/seed4", 0x7deb9a2a6df4dd35),
    ("chaos/f25/pm50/seed1", 0xf144fde7ed06d317),
    ("chaos/f25/pm50/seed2", 0x214c4b372628cc4a),
    ("chaos/f25/pm50/seed3", 0x6798ea60dfbad6ed),
    ("chaos/f25/pm50/seed4", 0x8fcef439201c885e),
    ("chaos/f25/pm90/seed1", 0xb55f3733ddde77c2),
    ("chaos/f25/pm90/seed2", 0x3f2843694bc259b7),
    ("chaos/f25/pm90/seed3", 0xaefb60c8beb519df),
    ("chaos/f25/pm90/seed4", 0x566db3c8f02bd068),
    ("chaos/f50/pm0/seed1", 0x4db60df723afefa9),
    ("chaos/f50/pm0/seed2", 0x64ca539a2d2d5a8a),
    ("chaos/f50/pm0/seed3", 0xbd10cc2a8698c4c4),
    ("chaos/f50/pm0/seed4", 0x373a9d017ad233bf),
    ("chaos/f50/pm50/seed1", 0xc268bb2d1de46eca),
    ("chaos/f50/pm50/seed2", 0xe9d7ee077e0d1965),
    ("chaos/f50/pm50/seed3", 0xa62a418745d8b4a6),
    ("chaos/f50/pm50/seed4", 0x37fcc25caad1dcd4),
    ("chaos/f50/pm90/seed1", 0xd3636f7830ec9029),
    ("chaos/f50/pm90/seed2", 0x99f0de6aed628656),
    ("chaos/f50/pm90/seed3", 0xa58e36e077523c46),
    ("chaos/f50/pm90/seed4", 0x213d22f73cdd786e),
    ("chaos/f100/pm0/seed1", 0x2fb429f00583212b),
    ("chaos/f100/pm0/seed2", 0xbb5e04e2f0fb6ad8),
    ("chaos/f100/pm0/seed3", 0x858fbceeec4d4db1),
    ("chaos/f100/pm0/seed4", 0xb686392226ae09ed),
    ("chaos/f100/pm50/seed1", 0x3aaf662d82f5639e),
    ("chaos/f100/pm50/seed2", 0xe04f18ea66907ca8),
    ("chaos/f100/pm50/seed3", 0xe116cfee4cc904c0),
    ("chaos/f100/pm50/seed4", 0x1bdfdf321deff8c1),
    ("chaos/f100/pm90/seed1", 0xdd30501df0cd9361),
    ("chaos/f100/pm90/seed2", 0x412271ed1a760221),
    ("chaos/f100/pm90/seed3", 0xf14b211bb935d713),
    ("chaos/f100/pm90/seed4", 0x1d38d611364fb45c),
];
