//! Record counts and digests of every workload at full scale, for the
//! default seed and the recheck seed. A run on either seed must reproduce
//! them exactly; other seeds are checked for self-consistency only.

/// One pinned output.
pub struct Expected {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Records through the final stage.
    pub records: u64,
    /// [`crate::run::BlockSink`] digest of those records.
    pub digest: u64,
    /// `storm-des`: FNV-1a of the reference `DesReport`'s `Debug` text.
    pub des_digest: Option<u64>,
}

/// The pinned outputs.
pub const EXPECTED: &[Expected] = &[
    Expected {
        workload: "steady-20k",
        seed: 2_023,
        records: 3_021_506,
        digest: 0xf2f6_6954_efa0_9c65,
        des_digest: None,
    },
    Expected {
        workload: "wide-1m",
        seed: 2_023,
        records: 1_225_706,
        digest: 0xfada_227f_341c_255a,
        des_digest: None,
    },
    Expected {
        workload: "storm-des",
        seed: 2_023,
        records: 3_110_790,
        digest: 0x0694_7a83_5b2b_d49f,
        des_digest: Some(0x2956_6c3f_47de_046f),
    },
    Expected {
        workload: "live-fanout",
        seed: 2_023,
        records: 791_040,
        digest: 0x46d7_a8cb_4905_3e05,
        des_digest: None,
    },
    Expected {
        workload: "steady-20k",
        seed: 90_210,
        records: 3_014_780,
        digest: 0x09d3_f8ae_b0b0_e0cd,
        des_digest: None,
    },
    Expected {
        workload: "wide-1m",
        seed: 90_210,
        records: 1_225_013,
        digest: 0xda52_e47c_d943_f68b,
        des_digest: None,
    },
    Expected {
        workload: "storm-des",
        seed: 90_210,
        records: 3_104_302,
        digest: 0xfc1d_0919_e7e7_d25a,
        des_digest: Some(0xaed3_2aed_eebb_7382),
    },
    Expected {
        workload: "live-fanout",
        seed: 90_210,
        records: 789_759,
        digest: 0xc5d0_8d16_ad62_e85c,
        des_digest: None,
    },
];

/// The pinned output of `workload` at `seed`, if any.
pub fn lookup(workload: &str, seed: u64) -> Option<&'static Expected> {
    EXPECTED
        .iter()
        .find(|e| e.workload == workload && e.seed == seed)
}
