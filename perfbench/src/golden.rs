//! Golden digests of simulated outputs for the default seeds.
//!
//! A digest covers per-tenant progress, every `HvStats` counter, the IOTLB
//! counters and the device clocks at the end of the measured phase (see
//! `workloads::digest_probe`). A host-time speed-up must leave it
//! unchanged; seeds outside [`DEFAULT_SEEDS`] are checked for invariants
//! only. Every run prints the digest of its first episode in its summary
//! line; regenerate a row from a short run (`--seconds 1`).

/// The seeds with committed digests.
pub const DEFAULT_SEEDS: std::ops::Range<u64> = 0..32;

/// (workload, seed, digest).
const GOLDEN: &[(&str, u64, u64)] = &[
    ("chase_tlb", 0, 0x9369918ce67a7cc4),
    ("chase_tlb", 1, 0xb514e216f4bb6518),
    ("chase_tlb", 2, 0xd3667901fc5c90b2),
    ("chase_tlb", 3, 0x7d5f153b462e7726),
    ("chase_tlb", 4, 0x092aca6da2bb0bb9),
    ("chase_tlb", 5, 0x9c67497ea140be41),
    ("chase_tlb", 6, 0x45e2cbec00acbb45),
    ("chase_tlb", 7, 0x4a72555042a662c7),
    ("chase_tlb", 8, 0xb20d381c54c30334),
    ("chase_tlb", 9, 0xe33d59312c7ed7fc),
    ("chase_tlb", 10, 0x7453f7049584d07b),
    ("chase_tlb", 11, 0x3fd0d57e290f4c90),
    ("chase_tlb", 12, 0xb6a0891a506e0a06),
    ("chase_tlb", 13, 0x18ac8c3c076cd264),
    ("chase_tlb", 14, 0xe39552ba6b834c9d),
    ("chase_tlb", 15, 0xa7d3c9d23170c4f9),
    ("chase_tlb", 16, 0x126bca1647ff1bec),
    ("chase_tlb", 17, 0x845a920f8dffdf4e),
    ("chase_tlb", 18, 0x26cf4ff7b8621b3a),
    ("chase_tlb", 19, 0xf9ef68dd6b9ad330),
    ("chase_tlb", 20, 0x6b258b7f8cf0d95c),
    ("chase_tlb", 21, 0xa12990ea6afcecb9),
    ("chase_tlb", 22, 0x73682c1ed866205b),
    ("chase_tlb", 23, 0x27ce539d15e3f76c),
    ("chase_tlb", 24, 0x6b4492728be13940),
    ("chase_tlb", 25, 0x42c240f01c16cd44),
    ("chase_tlb", 26, 0x2033808e075a81f5),
    ("chase_tlb", 27, 0x8b933b2873d9aa9d),
    ("chase_tlb", 28, 0x983b6f8594b14f90),
    ("chase_tlb", 29, 0xdbe4a6f4fc9b59e7),
    ("chase_tlb", 30, 0xa0e67925c6c185da),
    ("chase_tlb", 31, 0xe377e88833f243d0),
    ("stream_node", 0, 0xe045965ad35fb190),
    ("stream_node", 1, 0x605db3b1d89cec07),
    ("stream_node", 2, 0xff8e9faa04f404c7),
    ("stream_node", 3, 0xa1acae970de4544e),
    ("stream_node", 4, 0x0b5e5a81b20b589d),
    ("stream_node", 5, 0x8e8a8c5bfeaabb1b),
    ("stream_node", 6, 0x34ee50d433286bfd),
    ("stream_node", 7, 0xdfee684997ed8793),
    ("stream_node", 8, 0x0076795e23915c65),
    ("stream_node", 9, 0x4fcf44a069ea55fa),
    ("stream_node", 10, 0xf2346f9ff7d5f1f8),
    ("stream_node", 11, 0xa66dca79e720b03d),
    ("stream_node", 12, 0x5cb6a86d5fcd76b8),
    ("stream_node", 13, 0x2a00aa57a2bc39ff),
    ("stream_node", 14, 0x393b61b6a7decc5a),
    ("stream_node", 15, 0xa33ed4e217144c3b),
    ("stream_node", 16, 0x864e647e3a6e3fac),
    ("stream_node", 17, 0x56bd5ea3393ce687),
    ("stream_node", 18, 0x94f1ed021707b3f0),
    ("stream_node", 19, 0x9d7dbd32ae7590b9),
    ("stream_node", 20, 0x9d76dd49ddd9a797),
    ("stream_node", 21, 0x3e6dba63c1137801),
    ("stream_node", 22, 0x82c11ad1f31b93c1),
    ("stream_node", 23, 0x4c2e55f96a7ad8e6),
    ("stream_node", 24, 0xd7728a7ac8658f09),
    ("stream_node", 25, 0x1ef8d2e51a73ede8),
    ("stream_node", 26, 0x4bd07c2df7e95814),
    ("stream_node", 27, 0x96b0e25d9cf58ed8),
    ("stream_node", 28, 0x4488dbd1bb6c2c66),
    ("stream_node", 29, 0xb6f9ee2cf464b19c),
    ("stream_node", 30, 0x1e5cf9756fc13370),
    ("stream_node", 31, 0x90a9ce57fc0e3ce3),
    ("churn_mix", 0, 0xb7971830370d9052),
    ("churn_mix", 1, 0x676c3c7469f4af58),
    ("churn_mix", 2, 0xbb345577869da338),
    ("churn_mix", 3, 0x77fe565f0460e3bc),
    ("churn_mix", 4, 0x75cacaef40123ef3),
    ("churn_mix", 5, 0x91d9b83472712e22),
    ("churn_mix", 6, 0x8c2980c0f6df3d8e),
    ("churn_mix", 7, 0xad49f5efdef730c6),
    ("churn_mix", 8, 0x66c278cd7831f174),
    ("churn_mix", 9, 0x1d04e0b4f0ab1c01),
    ("churn_mix", 10, 0x72bc4547fc6f199c),
    ("churn_mix", 11, 0xdacfc7c7102a9128),
    ("churn_mix", 12, 0x49b9f302c5defc49),
    ("churn_mix", 13, 0x5333a11e007f5097),
    ("churn_mix", 14, 0x8cebed965c01b188),
    ("churn_mix", 15, 0x810a358fa98fc7a3),
    ("churn_mix", 16, 0x621a099fae207389),
    ("churn_mix", 17, 0x5cbc2cc75767f604),
    ("churn_mix", 18, 0x7c34436f247da1fc),
    ("churn_mix", 19, 0x6fe5ef35f7a76c7c),
    ("churn_mix", 20, 0xae0e6bc4205da7c9),
    ("churn_mix", 21, 0xcabd984497afc751),
    ("churn_mix", 22, 0xa39639b3fd71947d),
    ("churn_mix", 23, 0xde629232a990c770),
    ("churn_mix", 24, 0x95ee80abe82bbb25),
    ("churn_mix", 25, 0x157daa86f3cf8305),
    ("churn_mix", 26, 0x460f539cac582aa7),
    ("churn_mix", 27, 0xce9c007872b56f0a),
    ("churn_mix", 28, 0xcc5ed5b03495ed66),
    ("churn_mix", 29, 0x58f35f283272592d),
    ("churn_mix", 30, 0xf17288c53c1202d6),
    ("churn_mix", 31, 0xf7ab768c7b161d6a),
];

#[cfg(test)]
thread_local! {
    static PERTURB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Flips one bit of every golden digest on this thread (self-test of the
/// golden check).
#[cfg(test)]
pub fn perturb_for_test(on: bool) {
    PERTURB.with(|p| p.set(on));
}

/// The committed digest for `workload` at `seed`, if `seed` is a default
/// seed.
pub fn expected(workload: &str, seed: u64) -> Option<u64> {
    if !DEFAULT_SEEDS.contains(&seed) {
        return None;
    }
    let d = GOLDEN
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, d)| d)?;
    #[cfg(test)]
    if PERTURB.with(|p| p.get()) {
        return Some(d ^ 1);
    }
    Some(d)
}
