//! Persistent-store codecs for workload artifacts.
//!
//! The sharded artifact store (`cfr_types::store`) moves opaque record
//! strings; this module supplies the typed codec for the one workload
//! layer that lives in it: **functional walk measurements**
//! ([`WalkMeasurement`], i.e. [`FunctionalStats`] +
//! [`StaticBranchStats`]), under [`cfr_types::NS_WALKS`]. Generated
//! programs and compiled traces are not persisted; they are rebuilt in
//! memory whenever a cold run needs them.
//!
//! Store keys embed a FNV-1a fingerprint of the profile's full
//! [`GeneratorParams`], so recalibrating a profile invalidates its cached
//! walks instead of serving stale artifacts. Measured fractions are
//! stored as exact IEEE-754 bits, so warm walk output is byte-identical.

use cfr_types::{fnv1a64, PageGeometry, RecordError, RecordReader, RecordWriter};

use crate::generate::GeneratorParams;
use crate::measure::{FunctionalStats, StaticBranchStats, WalkMeasurement};
use crate::profiles::BenchmarkProfile;

// ------------------------------------------------------------- store keys

/// FNV-1a fingerprint over every generator knob: two profiles produce the
/// same fingerprint iff their parameters are identical, so the store key
/// of a walk over the program changes whenever calibration does.
#[must_use]
pub fn params_fingerprint(params: &GeneratorParams) -> u64 {
    let mut w = RecordWriter::new();
    params.to_record(&mut w);
    fnv1a64(&w.finish())
}

/// The artifact-store key of a functional walk of `profile`'s program:
/// the program identity (name + params fingerprint) plus everything the
/// walk's outcome depends on — page geometry, layout instrumentation,
/// walk length, and walker seed.
#[must_use]
pub fn walk_store_key(
    profile: &BenchmarkProfile,
    geom: PageGeometry,
    instrumented: bool,
    commits: u64,
    seed: u64,
) -> String {
    format!(
        "walk {} {:016x} {} {} {commits} {seed}",
        profile.name,
        params_fingerprint(&profile.params),
        geom.page_bytes(),
        if instrumented { "instr" } else { "plain" },
    )
}

// ------------------------------------------------------ GeneratorParams

impl GeneratorParams {
    /// Serializes every knob in declaration order (fingerprint input and
    /// diagnostics; params are never parsed back — the profile registry
    /// is the source of truth).
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("genparams");
        w.u64(self.seed);
        for v in [self.functions, self.hot_functions] {
            w.u64(u64::from(v));
        }
        for (lo, hi) in [
            self.blocks_per_function,
            self.block_len,
            self.loop_len,
            self.leaf_blocks,
        ] {
            w.u64(u64::from(lo));
            w.u64(u64::from(hi));
        }
        for v in [
            self.loop_prob,
            self.loop_bias,
            self.outer_loop_prob,
            self.outer_bias,
            self.loop_call,
            self.loop_icall,
            self.plain_fallthrough,
            self.w_cond,
            self.w_jump,
            self.w_call,
            self.w_indirect,
            self.indirect_local,
            self.fwd_bias,
            self.weak_fraction,
            self.weak_bias,
            self.call_hot_locality,
            self.leaf_fraction,
            self.call_leaf,
            self.load_frac,
            self.store_frac,
            self.fp_frac,
            self.mul_frac,
            self.region_stack,
            self.region_global,
        ] {
            w.f64(v);
        }
        for v in [self.global_pages, self.heap_arrays, self.heap_array_pages] {
            w.u64(u64::from(v));
        }
    }
}

// ----------------------------------------------------- walk measurements

impl FunctionalStats {
    /// Serializes every counter in declaration order.
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("fstats");
        for v in [
            self.committed,
            self.branches,
            self.taken,
            self.boundary_branch_execs,
            self.analyzable,
            self.analyzable_in_page,
            self.analyzable_crossing,
            self.crossings_branch,
            self.crossings_boundary,
            self.il1_accesses,
            self.il1_misses,
            self.cond_branches,
            self.cond_predicted,
            self.jumps,
            self.calls,
            self.returns,
            self.indirects,
        ] {
            w.u64(v);
        }
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        r.expect("fstats")?;
        Ok(Self {
            committed: r.u64()?,
            branches: r.u64()?,
            taken: r.u64()?,
            boundary_branch_execs: r.u64()?,
            analyzable: r.u64()?,
            analyzable_in_page: r.u64()?,
            analyzable_crossing: r.u64()?,
            crossings_branch: r.u64()?,
            crossings_boundary: r.u64()?,
            il1_accesses: r.u64()?,
            il1_misses: r.u64()?,
            cond_branches: r.u64()?,
            cond_predicted: r.u64()?,
            jumps: r.u64()?,
            calls: r.u64()?,
            returns: r.u64()?,
            indirects: r.u64()?,
        })
    }
}

impl StaticBranchStats {
    /// Serializes every counter in declaration order.
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("sbstats");
        for v in [
            self.total,
            self.analyzable,
            self.analyzable_in_page,
            self.analyzable_crossing,
        ] {
            w.u64(v);
        }
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        r.expect("sbstats")?;
        Ok(Self {
            total: r.u64()?,
            analyzable: r.u64()?,
            analyzable_in_page: r.u64()?,
            analyzable_crossing: r.u64()?,
        })
    }
}

impl WalkMeasurement {
    /// Serializes the dynamic and static halves.
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("walkm");
        self.functional.to_record(w);
        self.static_branches.to_record(w);
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        r.expect("walkm")?;
        Ok(Self {
            functional: FunctionalStats::from_record(r)?,
            static_branches: StaticBranchStats::from_record(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use crate::layout::LaidProgram;
    use crate::measure::measure_walk;
    use crate::profiles;

    #[test]
    fn walk_measurement_round_trips() {
        let program = generate(&GeneratorParams::small_test());
        let laid = LaidProgram::lay_out(&program, PageGeometry::default_4k(), false);
        let m = measure_walk(&laid, 30_000, 7);
        let mut w = RecordWriter::new();
        m.to_record(&mut w);
        let record = w.finish();
        let mut r = RecordReader::new(&record);
        assert_eq!(WalkMeasurement::from_record(&mut r).unwrap(), m);
        r.finish().unwrap();
        assert!(
            WalkMeasurement::from_record(&mut RecordReader::new(&record[..20])).is_err(),
            "truncation is an error"
        );
    }

    #[test]
    fn fingerprints_track_every_knob() {
        let base = profiles::mesa().params;
        let fp = params_fingerprint(&base);
        assert_eq!(params_fingerprint(&base), fp, "deterministic");
        let mut seeded = base.clone();
        seeded.seed ^= 1;
        assert_ne!(params_fingerprint(&seeded), fp);
        let mut tuned = base.clone();
        tuned.loop_bias += 1e-9;
        assert_ne!(params_fingerprint(&tuned), fp, "float knobs are exact bits");
        let mut shaped = base;
        shaped.heap_array_pages += 1;
        assert_ne!(params_fingerprint(&shaped), fp);
    }

    #[test]
    fn store_keys_identify_the_artifact() {
        let mesa = profiles::mesa();
        let gap = profiles::gap();
        let geom = PageGeometry::default_4k();
        let a = walk_store_key(&mesa, geom, false, 100_000, 1);
        assert_ne!(a, walk_store_key(&gap, geom, false, 100_000, 1), "profile");
        assert_ne!(a, walk_store_key(&mesa, geom, false, 100_000, 2), "seed");
        assert_ne!(a, walk_store_key(&mesa, geom, false, 200_000, 1), "length");
        assert_ne!(a, walk_store_key(&mesa, geom, true, 100_000, 1), "layout");
        let big = PageGeometry::new(16384).unwrap();
        assert_ne!(a, walk_store_key(&mesa, big, false, 100_000, 1), "geometry");
        assert!(!a.contains('\n'));
    }
}
