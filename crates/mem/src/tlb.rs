//! Translation lookaside buffers: monolithic and two-level.

use cfr_types::{Pfn, Protection, RecordError, RecordReader, RecordWriter, TlbOrganization, Vpn};
use serde::{Deserialize, Serialize};

use crate::PageTable;

/// Configuration of one TLB level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Shape (entries, associativity).
    pub organization: TlbOrganization,
    /// Page-walk penalty charged on a miss, in cycles (Table 1: 50).
    pub miss_penalty: u32,
}

impl TlbConfig {
    /// The paper's default iTLB: 32 entries, fully associative, 50-cycle
    /// miss penalty.
    #[must_use]
    pub fn default_itlb() -> Self {
        Self {
            organization: TlbOrganization::fully_associative(32),
            miss_penalty: 50,
        }
    }

    /// The paper's default dTLB: 128 entries, fully associative, 50-cycle
    /// miss penalty.
    #[must_use]
    pub fn default_dtlb() -> Self {
        Self {
            organization: TlbOrganization::fully_associative(128),
            miss_penalty: 50,
        }
    }
}

/// Outcome of one TLB lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbLookup {
    /// Whether the translation was resident.
    pub hit: bool,
    /// The translation (filled from the page table on a miss).
    pub pfn: Pfn,
    /// Protection bits of the page.
    pub prot: Protection,
    /// Cycles charged beyond the (caller-owned) lookup cycle: 0 on a hit,
    /// the miss penalty on a miss.
    pub penalty: u32,
    /// Whether the translation's protection refused the requested access
    /// (e.g. an instruction fetch of a page allocated read/write) — the
    /// fault is *reported*, never silently a hit; see
    /// [`TlbStats::protection_faults`].
    pub fault: bool,
}

/// Access/hit/miss counters for one TLB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbStats {
    /// Lookups performed.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (and were refilled).
    pub misses: u64,
    /// Entries invalidated by OS action.
    pub invalidations: u64,
    /// Lookups whose translation's protection refused the requested
    /// access (§3.2: the OS owns the bits; a wrong-protection access must
    /// surface as a fault, not a silent hit).
    pub protection_faults: u64,
}

impl TlbStats {
    /// Miss rate in [0, 1]; 0 for an untouched TLB.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Serializes as `tlbstats2 <accesses> <hits> <misses> <invalidations>
    /// <protection_faults>` (persistent artifact store codec — the
    /// vendored `serde` is a no-op).
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("tlbstats2");
        w.u64(self.accesses);
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.invalidations);
        w.u64(self.protection_faults);
    }

    /// Parses a [`Self::to_record`] stream. The pre-fault-model `tlbstats`
    /// tag (4 counters, PR 2's run store) is still accepted with
    /// `protection_faults = 0`, so records migrated from a v1 store keep
    /// serving warm.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        let tag = r.token()?;
        if tag != "tlbstats" && tag != "tlbstats2" {
            return Err(RecordError::new(format!(
                "expected tag \"tlbstats2\", found {tag:?}"
            )));
        }
        let mut stats = Self {
            accesses: r.u64()?,
            hits: r.u64()?,
            misses: r.u64()?,
            invalidations: r.u64()?,
            protection_faults: 0,
        };
        if tag == "tlbstats2" {
            stats.protection_faults = r.u64()?;
        }
        Ok(stats)
    }
}

/// Sentinel for [`Tlb::mru`] slots: no last-hit entry to fast-path through.
const NO_MRU: usize = usize::MAX;

/// How many recently-hit entries the fast path checks before the way
/// scan. One would capture a single stream's page locality; a data TLB
/// interleaves several streams (stack, globals, heap), so a short
/// recency list is needed to keep the fast-path hit rate high.
const MRU_SLOTS: usize = 4;

/// Key mirror value for an invalid way (no real VPN reaches 2^64 - 1).
const NO_KEY: u64 = u64::MAX;

/// Bit position of the ASID tag inside a way key. Virtual addresses stay
/// below 2^60 and pages are ≥ 4 KiB, so VPNs fit comfortably below bit 48;
/// the top 16 bits of the key are free for an address-space id. ASID 0
/// (the reset value) leaves keys identical to the untagged layout, so a
/// single-process simulation is bit-for-bit unchanged.
const ASID_SHIFT: u32 = 48;

/// A set-associative (or fully-associative) TLB with true LRU replacement.
///
/// Lookups check the **last-hit entry first** (an MRU fast path): the
/// paper's thesis is that instruction streams have extreme page locality,
/// so the vast majority of lookups land on the same entry as the previous
/// one and skip the associative way scan entirely. The fast path performs
/// exactly the bookkeeping the scan would (tick, LRU stamp, hit counter),
/// so replacement behaviour and statistics are bit-identical.
#[derive(Clone, Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    /// VPN per way ([`NO_KEY`] = invalid), `sets * ways`, row-major by
    /// set: the way scan streams over this dense `u64` array — which the
    /// compiler can vectorize — and validity is the key itself. This is
    /// the structure-of-arrays layout the cache adopted from here: the
    /// old `TlbEntry { vpn, pfn, prot, valid, lru }` structs are gone,
    /// replaced by these parallel rows, so a scan touches only the bytes
    /// it compares.
    keys: Vec<u64>,
    /// LRU stamp per way, parallel to `keys`. (A dTLB is 128-way fully
    /// associative — too wide for the cache's packed per-set masks, so
    /// stamps stay the replacement mechanism here.)
    lru: Vec<u64>,
    /// Translation payload per way, parallel to `keys`; read only after a
    /// key matches.
    pfns: Vec<Pfn>,
    prots: Vec<Protection>,
    ways: usize,
    sets: u64,
    /// `sets - 1` when the set count is a power of two (the common case),
    /// letting [`Tlb::set_of`] mask instead of divide.
    set_mask: Option<u64>,
    /// Way indices (into the parallel `keys`/`lru`/`pfns`/`prots` rows)
    /// of the most recently hit (or refilled) entries, most recent first;
    /// [`NO_MRU`] marks unused slots.
    mru: [usize; MRU_SLOTS],
    /// Current address-space id, pre-shifted to [`ASID_SHIFT`] and OR-ed
    /// into every key compare and store. 0 (the default) reproduces the
    /// untagged single-process layout exactly.
    asid_tag: u64,
    /// Extra cycles charged when a miss finds the page unmapped (the OS
    /// must service a demand fault before the walk can complete); 0 (the
    /// default) reproduces the fault-free cost model.
    demand_fault_penalty: u32,
    /// Misses that required a demand fault (page not yet mapped). Kept
    /// out of [`TlbStats`] so the persistent record codec is unchanged.
    demand_faults: u64,
    tick: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Builds a TLB from its configuration.
    #[must_use]
    pub fn new(cfg: TlbConfig) -> Self {
        let ways = cfg.organization.associativity as usize;
        let sets = u64::from(cfg.organization.sets());
        Self {
            cfg,
            keys: vec![NO_KEY; ways * sets as usize],
            lru: vec![0; ways * sets as usize],
            pfns: vec![Pfn::default(); ways * sets as usize],
            prots: vec![Protection::default(); ways * sets as usize],
            ways,
            sets,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            mru: [NO_MRU; MRU_SLOTS],
            asid_tag: 0,
            demand_fault_penalty: 0,
            demand_faults: 0,
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// The configuration this TLB was built with.
    #[must_use]
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Shape of this TLB (for energy lookups).
    #[must_use]
    pub fn organization(&self) -> TlbOrganization {
        self.cfg.organization
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    #[inline]
    fn set_of(&self, vpn: Vpn) -> usize {
        match self.set_mask {
            Some(mask) => (vpn.raw() & mask) as usize,
            None => (vpn.raw() % self.sets) as usize,
        }
    }

    /// The way key for `vpn` under the current ASID: the tag lives in the
    /// otherwise-unused top bits, so one `u64` compare still covers
    /// validity, VPN match, *and* address-space match.
    #[inline]
    fn key(&self, vpn: Vpn) -> u64 {
        debug_assert!(vpn.raw() < 1 << ASID_SHIFT, "VPN overflows the ASID tag");
        self.asid_tag | vpn.raw()
    }

    /// Switches the TLB to address space `asid`. Resident entries of other
    /// address spaces stay resident but can no longer match (their keys
    /// carry a different tag) — the ASID-tagged alternative to a full
    /// flush on context switch. ASID 0 is the reset state.
    pub fn set_asid(&mut self, asid: u16) {
        self.asid_tag = u64::from(asid) << ASID_SHIFT;
    }

    /// The current address-space id.
    #[must_use]
    pub fn asid(&self) -> u16 {
        (self.asid_tag >> ASID_SHIFT) as u16
    }

    /// Sets the extra miss cost charged when the missing page is not yet
    /// mapped (a demand fault trapping to the OS before the walk).
    pub fn set_demand_fault_penalty(&mut self, cycles: u32) {
        self.demand_fault_penalty = cycles;
    }

    /// Misses that demand-faulted (page unmapped at lookup time).
    #[must_use]
    pub fn demand_faults(&self) -> u64 {
        self.demand_faults
    }

    /// Looks `vpn` up; on a miss, walks `page_table` and refills. `prot`
    /// plays two roles: it is the protection requested for a first-touch
    /// allocation — an iTLB passes [`Protection::code`], a dTLB
    /// [`Protection::data`] (the page table's "first touch wins" makes
    /// whatever is passed here permanent) — *and* the access right this
    /// lookup demands. A translation whose resident protection lacks any
    /// requested bit (an instruction fetch of a data page, a write to a
    /// code page) reports a **protection fault**: the lookup still
    /// returns the translation, but [`TlbLookup::fault`] is set and
    /// [`TlbStats::protection_faults`] counts it instead of the access
    /// silently passing as an ordinary hit.
    #[inline]
    pub fn lookup(&mut self, vpn: Vpn, page_table: &mut PageTable, prot: Protection) -> TlbLookup {
        if let Some((pfn, resident_prot)) = self.access(vpn) {
            let fault = self.note_fault(resident_prot, prot);
            return TlbLookup {
                hit: true,
                pfn,
                prot: resident_prot,
                penalty: 0,
                fault,
            };
        }
        // A miss on an unmapped page demand-faults: the OS maps the page
        // (the `translate` below) and the configured trap latency is
        // charged on top of the walk.
        let mut penalty = self.cfg.miss_penalty;
        if self.demand_fault_penalty > 0 && page_table.probe(vpn).is_none() {
            self.demand_faults += 1;
            penalty += self.demand_fault_penalty;
        }
        let (pfn, translated_prot) = page_table.translate(vpn, prot);
        self.refill(vpn, pfn, translated_prot);
        let fault = self.note_fault(translated_prot, prot);
        TlbLookup {
            hit: false,
            pfn,
            prot: translated_prot,
            penalty,
            fault,
        }
    }

    /// Checks `granted` against the `requested` access rights, counting a
    /// protection fault when any requested bit is missing.
    fn note_fault(&mut self, granted: Protection, requested: Protection) -> bool {
        let fault = !granted.permits(requested);
        if fault {
            self.stats.protection_faults += 1;
        }
        fault
    }

    /// Probe-style counted lookup: charges an access, updates LRU and
    /// hit/miss counters, but **never** walks the page table — a miss
    /// returns `None` and leaves the TLB (and the page table) untouched.
    ///
    /// This is the miss path a serial multi-level hierarchy needs: a
    /// level-1 miss must fall through to level 2 *without* a premature
    /// page walk; the caller refills via [`Tlb::install`] from whatever
    /// level (or walk) actually produced the translation.
    #[inline]
    pub fn access(&mut self, vpn: Vpn) -> Option<(Pfn, Protection)> {
        let key = self.key(vpn);
        self.tick += 1;
        self.stats.accesses += 1;
        // MRU fast path: a matching VPN is always in its own set, so
        // checking the recently-hit entries directly is sound for any
        // geometry. An invalid way's key is `NO_KEY`, which no real key
        // equals, so one compare covers validity, VPN, and ASID (and the
        // `get` bounds check covers unused `NO_MRU` slots).
        for pi in 0..MRU_SLOTS {
            let cand = self.mru[pi];
            if self.keys.get(cand) == Some(&key) {
                self.lru[cand] = self.tick;
                let hit = (self.pfns[cand], self.prots[cand]);
                if pi != 0 {
                    self.mru[..=pi].rotate_right(1);
                }
                self.stats.hits += 1;
                return Some(hit);
            }
        }
        let set = self.set_of(vpn);
        let base = set * self.ways;
        if let Some(off) = self.keys[base..base + self.ways]
            .iter()
            .position(|&k| k == key)
        {
            let i = base + off;
            self.lru[i] = self.tick;
            let hit = (self.pfns[i], self.prots[i]);
            self.promote_mru(i);
            self.stats.hits += 1;
            return Some(hit);
        }
        self.stats.misses += 1;
        None
    }

    /// Begins pulling `vpn`'s set metadata (key row and stamp row) toward
    /// the host caches without touching any simulator state — the TLB half
    /// of the batched-probe pattern (see [`crate::Cache::prefetch`]).
    /// Architecturally a no-op.
    #[inline]
    pub fn prefetch(&self, vpn: Vpn) {
        let base = self.set_of(vpn) * self.ways;
        crate::prefetch_read(&self.keys[base]);
        crate::prefetch_read(&self.lru[base]);
    }

    /// Moves entry index `i` to the front of the MRU list (inserting it
    /// if absent, dropping the oldest slot).
    #[inline]
    fn promote_mru(&mut self, i: usize) {
        if self.mru[0] == i {
            return;
        }
        let mut prev = i;
        for slot in &mut self.mru {
            std::mem::swap(slot, &mut prev);
            if prev == i {
                break;
            }
        }
    }

    /// Replaces the LRU victim of `vpn`'s set (or updates a resident
    /// entry) without touching any counter — shared by the miss-path
    /// refill and [`Tlb::install`].
    fn refill(&mut self, vpn: Vpn, pfn: Pfn, prot: Protection) {
        let key = self.key(vpn);
        let set = self.set_of(vpn);
        let base = set * self.ways;
        let tick = self.tick;
        let keys_row = &self.keys[base..base + self.ways];
        if let Some(off) = keys_row.iter().position(|&k| k == key) {
            let i = base + off;
            self.pfns[i] = pfn;
            self.prots[i] = prot;
            self.lru[i] = tick;
            self.promote_mru(i);
            return;
        }
        // Victim: the first invalid way if any, else the first true-LRU
        // way. Invalid-way preference is explicit (the old
        // `min_by_key(lru + 1)` encoding wrapped if `lru == u64::MAX`).
        let victim = keys_row
            .iter()
            .position(|&k| k == NO_KEY)
            .unwrap_or_else(|| {
                let lru_row = &self.lru[base..base + self.ways];
                let mut min = 0;
                for (i, &stamp) in lru_row.iter().enumerate().skip(1) {
                    if stamp < lru_row[min] {
                        min = i;
                    }
                }
                min
            });
        let i = base + victim;
        self.keys[i] = key;
        self.pfns[i] = pfn;
        self.prots[i] = prot;
        self.lru[i] = tick;
        self.promote_mru(i);
    }

    /// Refills an entry without counting an access (used by a two-level TLB
    /// to install an L2-provided translation into L1).
    pub fn install(&mut self, vpn: Vpn, pfn: Pfn, prot: Protection) {
        self.tick += 1;
        self.refill(vpn, pfn, prot);
    }

    /// Whether `vpn` is resident (under the current ASID), without
    /// touching LRU or stats.
    #[must_use]
    pub fn probe(&self, vpn: Vpn) -> Option<Pfn> {
        let key = self.key(vpn);
        let set = self.set_of(vpn);
        let base = set * self.ways;
        self.keys[base..base + self.ways]
            .iter()
            .position(|&k| k == key)
            .map(|off| self.pfns[base + off])
    }

    /// Invalidates the entry for `vpn`, if resident — the OS hook the paper
    /// requires when a page is evicted or remapped.
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        let key = self.key(vpn);
        let set = self.set_of(vpn);
        let base = set * self.ways;
        if let Some(off) = self.keys[base..base + self.ways]
            .iter()
            .position(|&k| k == key)
        {
            let i = base + off;
            self.keys[i] = NO_KEY;
            for slot in &mut self.mru {
                if *slot == i {
                    *slot = NO_MRU;
                }
            }
            self.stats.invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Invalidates every entry (address-space switch without ASIDs),
    /// clearing the MRU recency fast path with it, and returns how many
    /// entries were flushed (the shootdown cost driver).
    pub fn invalidate_all(&mut self) -> u64 {
        self.mru = [NO_MRU; MRU_SLOTS];
        let mut flushed = 0;
        for k in &mut self.keys {
            if *k != NO_KEY {
                *k = NO_KEY;
                flushed += 1;
            }
        }
        self.stats.invalidations += flushed;
        flushed
    }

    /// Invalidates every entry tagged with `asid` — a TLB shootdown of one
    /// address space (issued when an ASID is reassigned to a different
    /// process). Matching MRU slots are cleared so the recency fast path
    /// cannot resurrect a shot-down entry. Returns the flushed count.
    pub fn invalidate_asid(&mut self, asid: u16) -> u64 {
        let tag = u64::from(asid) << ASID_SHIFT;
        let mut flushed = 0;
        for (i, k) in self.keys.iter_mut().enumerate() {
            if *k != NO_KEY && *k & (0xFFFF << ASID_SHIFT) == tag {
                *k = NO_KEY;
                flushed += 1;
                for slot in &mut self.mru {
                    if *slot == i {
                        *slot = NO_MRU;
                    }
                }
            }
        }
        self.stats.invalidations += flushed;
        flushed
    }

    /// Number of valid entries.
    #[must_use]
    pub fn resident_entries(&self) -> usize {
        self.keys.iter().filter(|&&k| k != NO_KEY).count()
    }
}

/// Outcome of a two-level TLB lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TwoLevelLookup {
    /// Whether level 1 hit.
    pub l1_hit: bool,
    /// Whether level 2 was consulted and hit (`None` if L1 hit under serial
    /// lookup).
    pub l2_hit: Option<bool>,
    /// The translation.
    pub pfn: Pfn,
    /// Protection bits.
    pub prot: Protection,
    /// Cycles beyond the caller-owned L1 lookup cycle: the serial L2 lookup
    /// adds `l2_latency`; a full miss adds the walk penalty.
    pub penalty: u32,
    /// Whether the translation's protection refused the requested access
    /// (counted on the level that served the translation; see
    /// [`TlbLookup::fault`]).
    pub fault: bool,
}

/// A two-level TLB with *serial* lookup: level 2 is consulted only on a
/// level-1 miss (the energy-efficient arrangement; the paper discards the
/// parallel arrangement as "much worse" in energy, §4.3.2).
///
/// The paper optimistically charges a single extra cycle for the L2 lookup;
/// [`TwoLevelTlb::new`] takes that latency as a parameter so the Itanium-like
/// 10-cycle case is also expressible.
#[derive(Clone, Debug)]
pub struct TwoLevelTlb {
    l1: Tlb,
    l2: Tlb,
    l2_latency: u32,
    /// Extra cycles charged when a full miss finds the page unmapped; see
    /// [`Tlb::set_demand_fault_penalty`]. The walk (and hence the fault)
    /// happens here, not inside the level TLBs, so the hierarchy carries
    /// its own copy of the knob.
    demand_fault_penalty: u32,
    demand_faults: u64,
}

impl TwoLevelTlb {
    /// Builds a two-level TLB. `l2_latency` is the extra serial-lookup cost
    /// of the second level, in cycles.
    #[must_use]
    pub fn new(l1: TlbConfig, l2: TlbConfig, l2_latency: u32) -> Self {
        Self {
            l1: Tlb::new(l1),
            l2: Tlb::new(l2),
            l2_latency,
            demand_fault_penalty: 0,
            demand_faults: 0,
        }
    }

    /// Fig 6 configuration (i): 1-entry L1 + 32-entry FA L2.
    #[must_use]
    pub fn fig6_small() -> Self {
        Self::new(
            TlbConfig {
                organization: TlbOrganization::fully_associative(1),
                miss_penalty: 50,
            },
            TlbConfig {
                organization: TlbOrganization::fully_associative(32),
                miss_penalty: 50,
            },
            1,
        )
    }

    /// Fig 6 configuration (ii): 32-entry FA L1 + 96-entry FA L2 (as in the
    /// IA-64 dTLB).
    #[must_use]
    pub fn fig6_large() -> Self {
        Self::new(
            TlbConfig {
                organization: TlbOrganization::fully_associative(32),
                miss_penalty: 50,
            },
            TlbConfig {
                organization: TlbOrganization::fully_associative(96),
                miss_penalty: 50,
            },
            1,
        )
    }

    /// Level-1 TLB (for stats and energy shape).
    #[must_use]
    pub fn l1(&self) -> &Tlb {
        &self.l1
    }

    /// Level-2 TLB (for stats and energy shape).
    #[must_use]
    pub fn l2(&self) -> &Tlb {
        &self.l2
    }

    /// Serial lookup: L1, then L2 on an L1 miss, then the page walk —
    /// each stage consulted only when the previous one missed, exactly as
    /// a real serial hierarchy. An L2 hit refills L1 via
    /// [`Tlb::install`] and never touches the page table; only a full
    /// miss walks, refilling both levels. `prot` is the first-touch
    /// allocation protection (see [`Tlb::lookup`]).
    pub fn lookup(
        &mut self,
        vpn: Vpn,
        page_table: &mut PageTable,
        prot: Protection,
    ) -> TwoLevelLookup {
        if let Some((pfn, resident_prot)) = self.l1.access(vpn) {
            let fault = self.l1.note_fault(resident_prot, prot);
            return TwoLevelLookup {
                l1_hit: true,
                l2_hit: None,
                pfn,
                prot: resident_prot,
                penalty: 0,
                fault,
            };
        }
        if let Some((pfn, resident_prot)) = self.l2.access(vpn) {
            self.l1.install(vpn, pfn, resident_prot);
            let fault = self.l2.note_fault(resident_prot, prot);
            return TwoLevelLookup {
                l1_hit: false,
                l2_hit: Some(true),
                pfn,
                prot: resident_prot,
                penalty: self.l2_latency,
                fault,
            };
        }
        let mut penalty = self.l2_latency + self.l2.cfg.miss_penalty;
        if self.demand_fault_penalty > 0 && page_table.probe(vpn).is_none() {
            self.demand_faults += 1;
            penalty += self.demand_fault_penalty;
        }
        let (pfn, translated_prot) = page_table.translate(vpn, prot);
        self.l2.install(vpn, pfn, translated_prot);
        self.l1.install(vpn, pfn, translated_prot);
        // A full miss walked the page table; the walk's result is checked
        // (and any fault counted) at the level that owns the walk, L2.
        let fault = self.l2.note_fault(translated_prot, prot);
        TwoLevelLookup {
            l1_hit: false,
            l2_hit: Some(false),
            pfn,
            prot: translated_prot,
            penalty,
            fault,
        }
    }

    /// Begins pulling the L1 set's metadata toward the host caches (see
    /// [`Tlb::prefetch`]); L2 is consulted only on an L1 miss, so its rows
    /// are left to demand. Architecturally a no-op.
    #[inline]
    pub fn prefetch(&self, vpn: Vpn) {
        self.l1.prefetch(vpn);
    }

    /// Invalidates a page in both levels.
    pub fn invalidate(&mut self, vpn: Vpn) {
        self.l1.invalidate(vpn);
        self.l2.invalidate(vpn);
    }

    /// Flushes both levels (flush-on-switch without ASIDs), returning the
    /// total number of entries shot down.
    pub fn invalidate_all(&mut self) -> u64 {
        self.l1.invalidate_all() + self.l2.invalidate_all()
    }

    /// Shoots down one address space in both levels; see
    /// [`Tlb::invalidate_asid`].
    pub fn invalidate_asid(&mut self, asid: u16) -> u64 {
        self.l1.invalidate_asid(asid) + self.l2.invalidate_asid(asid)
    }

    /// Switches both levels to address space `asid`; see [`Tlb::set_asid`].
    pub fn set_asid(&mut self, asid: u16) {
        self.l1.set_asid(asid);
        self.l2.set_asid(asid);
    }

    /// Sets the demand-fault trap latency charged on a full miss of an
    /// unmapped page.
    pub fn set_demand_fault_penalty(&mut self, cycles: u32) {
        self.demand_fault_penalty = cycles;
    }

    /// Misses that demand-faulted (page unmapped at walk time).
    #[must_use]
    pub fn demand_faults(&self) -> u64 {
        self.demand_faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn itlb() -> (Tlb, PageTable) {
        (Tlb::new(TlbConfig::default_itlb()), PageTable::new())
    }

    #[test]
    fn miss_then_hit() {
        let (mut tlb, mut pt) = itlb();
        let a = tlb.lookup(Vpn::new(1), &mut pt, Protection::code());
        assert!(!a.hit);
        assert_eq!(a.penalty, 50);
        let b = tlb.lookup(Vpn::new(1), &mut pt, Protection::code());
        assert!(b.hit);
        assert_eq!(b.penalty, 0);
        assert_eq!(a.pfn, b.pfn);
        assert_eq!(tlb.stats().accesses, 2);
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut tlb = Tlb::new(TlbConfig {
            organization: TlbOrganization::fully_associative(2),
            miss_penalty: 50,
        });
        let mut pt = PageTable::new();
        tlb.lookup(Vpn::new(1), &mut pt, Protection::code());
        tlb.lookup(Vpn::new(2), &mut pt, Protection::code());
        tlb.lookup(Vpn::new(1), &mut pt, Protection::code()); // touch 1; 2 is LRU
        tlb.lookup(Vpn::new(3), &mut pt, Protection::code()); // evicts 2
        assert!(tlb.probe(Vpn::new(1)).is_some());
        assert!(tlb.probe(Vpn::new(2)).is_none());
        assert!(tlb.probe(Vpn::new(3)).is_some());
    }

    #[test]
    fn single_entry_tlb_thrashes_on_alternation() {
        let mut tlb = Tlb::new(TlbConfig {
            organization: TlbOrganization::fully_associative(1),
            miss_penalty: 50,
        });
        let mut pt = PageTable::new();
        for _ in 0..4 {
            assert!(!tlb.lookup(Vpn::new(1), &mut pt, Protection::code()).hit);
            assert!(!tlb.lookup(Vpn::new(2), &mut pt, Protection::code()).hit);
        }
        assert_eq!(tlb.stats().hits, 0);
    }

    #[test]
    fn set_associative_conflicts() {
        // 4 entries, 2-way: 2 sets. VPNs 0 and 2 share set 0.
        let mut tlb = Tlb::new(TlbConfig {
            organization: TlbOrganization::set_associative(4, 2),
            miss_penalty: 50,
        });
        let mut pt = PageTable::new();
        tlb.lookup(Vpn::new(0), &mut pt, Protection::code());
        tlb.lookup(Vpn::new(2), &mut pt, Protection::code());
        tlb.lookup(Vpn::new(4), &mut pt, Protection::code()); // evicts 0 (LRU in set 0)
        assert!(tlb.probe(Vpn::new(0)).is_none());
        assert!(tlb.probe(Vpn::new(2)).is_some());
        // Set 1 untouched.
        tlb.lookup(Vpn::new(1), &mut pt, Protection::code());
        assert!(tlb.probe(Vpn::new(1)).is_some());
    }

    #[test]
    fn translation_consistent_with_page_table() {
        let (mut tlb, mut pt) = itlb();
        let l = tlb.lookup(Vpn::new(42), &mut pt, Protection::code());
        assert_eq!(pt.probe(Vpn::new(42)).unwrap().0, l.pfn);
    }

    #[test]
    fn invalidate_forces_miss() {
        let (mut tlb, mut pt) = itlb();
        tlb.lookup(Vpn::new(7), &mut pt, Protection::code());
        assert!(tlb.invalidate(Vpn::new(7)));
        assert!(!tlb.invalidate(Vpn::new(7)), "already gone");
        assert!(!tlb.lookup(Vpn::new(7), &mut pt, Protection::code()).hit);
        assert_eq!(tlb.stats().invalidations, 1);
    }

    #[test]
    fn invalidate_all() {
        let (mut tlb, mut pt) = itlb();
        for i in 0..10 {
            tlb.lookup(Vpn::new(i), &mut pt, Protection::code());
        }
        assert_eq!(tlb.resident_entries(), 10);
        assert_eq!(tlb.invalidate_all(), 10, "flush reports its entry count");
        assert_eq!(tlb.resident_entries(), 0);
        assert_eq!(tlb.stats().invalidations, 10);
        assert_eq!(tlb.invalidate_all(), 0, "second flush finds nothing");
    }

    #[test]
    fn post_flush_lookup_cannot_hit_stale_state() {
        // Regression (flush-on-switch): `invalidate_all` must clear the
        // MRU recency fast path along with the way keys — a lookup right
        // after a flush must miss even for the page the fast path was
        // hottest on.
        let (mut tlb, mut pt) = itlb();
        for _ in 0..8 {
            tlb.lookup(Vpn::new(3), &mut pt, Protection::code());
        }
        let hits_before = tlb.stats().hits;
        tlb.invalidate_all();
        assert_eq!(tlb.access(Vpn::new(3)), None, "stale MRU entry served");
        assert_eq!(tlb.stats().hits, hits_before);
        let refetch = tlb.lookup(Vpn::new(3), &mut pt, Protection::code());
        assert!(!refetch.hit, "post-flush lookup must re-walk");
    }

    #[test]
    fn asid_isolates_address_spaces() {
        let (mut tlb, mut pt_a) = itlb();
        let mut pt_b = PageTable::new();
        tlb.set_asid(1);
        tlb.lookup(Vpn::new(5), &mut pt_a, Protection::code());
        assert!(tlb.probe(Vpn::new(5)).is_some());

        // Same VPN, different address space: must miss and refill its own
        // tagged entry, leaving ASID 1's entry resident.
        tlb.set_asid(2);
        assert!(tlb.probe(Vpn::new(5)).is_none());
        let other = tlb.lookup(Vpn::new(5), &mut pt_b, Protection::code());
        assert!(!other.hit, "cross-ASID hit");
        assert_eq!(tlb.resident_entries(), 2);

        // Back to ASID 1: the original entry still serves.
        tlb.set_asid(1);
        assert!(tlb.lookup(Vpn::new(5), &mut pt_a, Protection::code()).hit);
    }

    #[test]
    fn invalidate_asid_shoots_down_one_space_and_its_mru_slots() {
        let (mut tlb, mut pt) = itlb();
        tlb.set_asid(1);
        tlb.lookup(Vpn::new(1), &mut pt, Protection::code());
        tlb.set_asid(2);
        tlb.lookup(Vpn::new(2), &mut pt, Protection::code());
        tlb.lookup(Vpn::new(2), &mut pt, Protection::code()); // ASID 2's entry is MRU-front
        assert_eq!(tlb.invalidate_asid(2), 1);
        assert_eq!(tlb.access(Vpn::new(2)), None, "stale MRU after shootdown");
        assert_eq!(tlb.resident_entries(), 1, "ASID 1 untouched");
        tlb.set_asid(1);
        assert!(tlb.probe(Vpn::new(1)).is_some());
        assert_eq!(tlb.invalidate_asid(3), 0, "unknown ASID flushes nothing");
    }

    #[test]
    fn demand_fault_penalty_charged_on_unmapped_miss_only() {
        let (mut tlb, mut pt) = itlb();
        tlb.set_demand_fault_penalty(700);
        // First touch: the page is unmapped, so the miss traps.
        let cold = tlb.lookup(Vpn::new(11), &mut pt, Protection::code());
        assert!(!cold.hit);
        assert_eq!(cold.penalty, 50 + 700);
        assert_eq!(tlb.demand_faults(), 1);
        // Resident: no penalty at all.
        assert_eq!(
            tlb.lookup(Vpn::new(11), &mut pt, Protection::code())
                .penalty,
            0
        );
        // Evicted but still mapped: plain miss penalty, no trap.
        tlb.invalidate(Vpn::new(11));
        let warm = tlb.lookup(Vpn::new(11), &mut pt, Protection::code());
        assert_eq!(warm.penalty, 50);
        assert_eq!(tlb.demand_faults(), 1);
    }

    #[test]
    fn two_level_flush_and_demand_faults() {
        let mut t = TwoLevelTlb::fig6_large();
        let mut pt = PageTable::new();
        t.set_demand_fault_penalty(300);
        let cold = t.lookup(Vpn::new(4), &mut pt, Protection::code());
        assert_eq!(cold.penalty, 1 + 50 + 300);
        assert_eq!(t.demand_faults(), 1);
        t.lookup(Vpn::new(5), &mut pt, Protection::code()); // also first touch
        assert_eq!(t.demand_faults(), 2);
        // Both levels hold both pages: 4 entries flushed in total.
        assert_eq!(t.invalidate_all(), 4);
        assert!(t.l1().probe(Vpn::new(4)).is_none());
        assert!(t.l2().probe(Vpn::new(4)).is_none());
        // Mapped pages re-miss without a second demand fault.
        let back = t.lookup(Vpn::new(4), &mut pt, Protection::code());
        assert_eq!(back.penalty, 1 + 50);
        assert_eq!(t.demand_faults(), 2);
    }

    #[test]
    fn two_level_asid_tagging_spans_both_levels() {
        let mut t = TwoLevelTlb::fig6_small();
        let mut pt = PageTable::new();
        t.set_asid(3);
        t.lookup(Vpn::new(9), &mut pt, Protection::code());
        t.set_asid(4);
        assert!(t.l1().probe(Vpn::new(9)).is_none());
        assert!(t.l2().probe(Vpn::new(9)).is_none());
        assert_eq!(t.invalidate_asid(3), 2, "one entry per level shot down");
    }

    #[test]
    fn install_does_not_count_access() {
        let (mut tlb, mut pt) = itlb();
        let (pfn, prot) = pt.translate(Vpn::new(5), Protection::code());
        tlb.install(Vpn::new(5), pfn, prot);
        assert_eq!(tlb.stats().accesses, 0);
        assert!(tlb.lookup(Vpn::new(5), &mut pt, Protection::code()).hit);
    }

    #[test]
    fn miss_rate() {
        let (mut tlb, mut pt) = itlb();
        tlb.lookup(Vpn::new(1), &mut pt, Protection::code());
        tlb.lookup(Vpn::new(1), &mut pt, Protection::code());
        assert!((tlb.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn two_level_serial_path() {
        let mut t = TwoLevelTlb::fig6_small();
        let mut pt = PageTable::new();
        // Cold: L1 miss, L2 miss, full walk.
        let a = t.lookup(Vpn::new(1), &mut pt, Protection::code());
        assert!(!a.l1_hit);
        assert_eq!(a.l2_hit, Some(false));
        assert_eq!(a.penalty, 1 + 50);
        // Immediately again: L1 (1-entry) hit.
        let b = t.lookup(Vpn::new(1), &mut pt, Protection::code());
        assert!(b.l1_hit);
        assert_eq!(b.penalty, 0);
        // Another page, then back: L1 misses (displaced), L2 hits.
        t.lookup(Vpn::new(2), &mut pt, Protection::code());
        let c = t.lookup(Vpn::new(1), &mut pt, Protection::code());
        assert!(!c.l1_hit);
        assert_eq!(c.l2_hit, Some(true));
        assert_eq!(c.penalty, 1);
        assert_eq!(c.pfn, a.pfn);
    }

    #[test]
    fn two_level_invalidate_hits_both() {
        let mut t = TwoLevelTlb::fig6_small();
        let mut pt = PageTable::new();
        t.lookup(Vpn::new(1), &mut pt, Protection::code());
        t.invalidate(Vpn::new(1));
        let r = t.lookup(Vpn::new(1), &mut pt, Protection::code());
        assert!(!r.l1_hit);
        assert_eq!(r.l2_hit, Some(false));
    }

    #[test]
    fn dtlb_refill_allocates_data_protection() {
        // Regression: `lookup` used to hardcode `Protection::code()` when
        // refilling, so a dTLB's first touch allocated data pages as code —
        // permanently, since the page table's first touch wins.
        let mut dtlb = Tlb::new(TlbConfig::default_dtlb());
        let mut pt = PageTable::new();
        let miss = dtlb.lookup(Vpn::new(9), &mut pt, Protection::data());
        assert!(!miss.hit);
        assert_eq!(miss.prot, Protection::data());
        assert_eq!(pt.probe(Vpn::new(9)).unwrap().1, Protection::data());
        // The resident entry carries the allocated protection too.
        let hit = dtlb.lookup(Vpn::new(9), &mut pt, Protection::code());
        assert!(hit.hit);
        assert_eq!(hit.prot, Protection::data(), "first touch wins");
    }

    #[test]
    fn access_is_probe_style() {
        let (mut tlb, mut pt) = itlb();
        assert_eq!(tlb.access(Vpn::new(3)), None, "miss: no page-table fill");
        assert_eq!(pt.mapped_pages(), 0);
        assert_eq!(tlb.stats().accesses, 1);
        assert_eq!(tlb.stats().misses, 1);
        let filled = tlb.lookup(Vpn::new(3), &mut pt, Protection::code());
        assert_eq!(tlb.access(Vpn::new(3)), Some((filled.pfn, filled.prot)));
        assert_eq!(tlb.stats().hits, 1);
    }

    #[test]
    fn two_level_l2_hit_skips_the_page_table() {
        // Regression: the L1 miss path used to walk the page table (and
        // refill L1) *before* consulting L2 — a serial hierarchy must fall
        // through to L2 first and walk only on a full miss.
        let mut t = TwoLevelTlb::fig6_small();
        let mut warm_pt = PageTable::new();
        t.lookup(Vpn::new(1), &mut warm_pt, Protection::code());
        t.lookup(Vpn::new(2), &mut warm_pt, Protection::code()); // displaces 1 from the 1-entry L1
        assert!(t.l1().probe(Vpn::new(1)).is_none());

        // Hand the lookup an EMPTY page table: a pure L2 hit must not
        // touch it at all (the old code would have allocated into it).
        let mut empty_pt = PageTable::new();
        let (l1_before, l2_before) = (*t.l1().stats(), *t.l2().stats());
        let r = t.lookup(Vpn::new(1), &mut empty_pt, Protection::code());
        assert!(!r.l1_hit);
        assert_eq!(r.l2_hit, Some(true));
        assert_eq!(r.penalty, 1, "L2 latency only, no walk");
        assert_eq!(empty_pt.mapped_pages(), 0, "page table untouched");
        // Exactly one access and one miss at L1, one access and one hit at
        // L2 — nothing else moved.
        let (l1_after, l2_after) = (*t.l1().stats(), *t.l2().stats());
        assert_eq!(l1_after.accesses, l1_before.accesses + 1);
        assert_eq!(l1_after.misses, l1_before.misses + 1);
        assert_eq!(l1_after.hits, l1_before.hits);
        assert_eq!(l2_after.accesses, l2_before.accesses + 1);
        assert_eq!(l2_after.hits, l2_before.hits + 1);
        assert_eq!(l2_after.misses, l2_before.misses);
        // The L2 hit refilled L1 via install.
        assert!(t.l1().probe(Vpn::new(1)).is_some());
    }

    #[test]
    fn two_level_full_miss_walks_once_and_fills_both() {
        let mut t = TwoLevelTlb::fig6_small();
        let mut pt = PageTable::new();
        let r = t.lookup(Vpn::new(7), &mut pt, Protection::code());
        assert_eq!(r.l2_hit, Some(false));
        assert_eq!(pt.mapped_pages(), 1);
        assert!(t.l1().probe(Vpn::new(7)).is_some());
        assert!(t.l2().probe(Vpn::new(7)).is_some());
    }

    #[test]
    fn tlb_stats_record_round_trips() {
        let stats = TlbStats {
            accesses: 123_456_789,
            hits: 123_000_000,
            misses: 456_789,
            invalidations: 7,
            protection_faults: 3,
        };
        let mut w = RecordWriter::new();
        stats.to_record(&mut w);
        let record = w.finish();
        let mut r = RecordReader::new(&record);
        assert_eq!(TlbStats::from_record(&mut r).unwrap(), stats);
        r.finish().unwrap();
        assert!(TlbStats::from_record(&mut RecordReader::new("cachestats 1 2 3 4 5")).is_err());
        assert!(TlbStats::from_record(&mut RecordReader::new("tlbstats2 1 2")).is_err());
    }

    #[test]
    fn tlb_stats_accepts_pre_fault_records() {
        // PR 2's run store wrote the 4-counter `tlbstats` tag; records
        // migrated from a v1 store must keep parsing (with zero faults)
        // so migration actually preserves warm runs.
        let mut r = RecordReader::new("tlbstats 10 8 2 1");
        let stats = TlbStats::from_record(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(
            stats,
            TlbStats {
                accesses: 10,
                hits: 8,
                misses: 2,
                invalidations: 1,
                protection_faults: 0,
            }
        );
    }

    #[test]
    fn wrong_protection_access_faults_instead_of_silently_hitting() {
        // Regression (§3.2 OS support): a dTLB allocates a page
        // read/write; an instruction fetch of that page must report a
        // protection fault, not pass as an ordinary hit.
        let mut dtlb = Tlb::new(TlbConfig::default_dtlb());
        let mut itlb = Tlb::new(TlbConfig::default_itlb());
        let mut pt = PageTable::new();
        let alloc = dtlb.lookup(Vpn::new(9), &mut pt, Protection::data());
        assert!(!alloc.fault, "matching first touch is clean");
        assert_eq!(dtlb.stats().protection_faults, 0);

        // Fetching from the data page: resident (page-table) prot is rw-,
        // the fetch requests r-x — missing EXECUTE is a fault.
        let fetch = itlb.lookup(Vpn::new(9), &mut pt, Protection::code());
        assert!(fetch.fault, "executing a data page faults");
        assert!(!fetch.hit, "cold iTLB: fault detected on the walk result");
        assert_eq!(fetch.prot, Protection::data(), "first touch won");
        assert_eq!(itlb.stats().protection_faults, 1);

        // The faulting translation is now resident: the *hit* path
        // reports (and counts) the fault too.
        let again = itlb.lookup(Vpn::new(9), &mut pt, Protection::code());
        assert!(again.hit && again.fault);
        assert_eq!(itlb.stats().protection_faults, 2);

        // And the symmetric case: writing a code page faults in the dTLB.
        itlb.lookup(Vpn::new(4), &mut pt, Protection::code());
        let write = dtlb.lookup(Vpn::new(4), &mut pt, Protection::data());
        assert!(write.fault, "writing a code page faults");
        assert_eq!(dtlb.stats().protection_faults, 1);
    }

    #[test]
    fn two_level_counts_faults_at_the_serving_level() {
        let mut t = TwoLevelTlb::fig6_small();
        let mut dtlb = Tlb::new(TlbConfig::default_dtlb());
        let mut pt = PageTable::new();
        dtlb.lookup(Vpn::new(3), &mut pt, Protection::data());

        // Full miss: the walk's result is checked at L2.
        let cold = t.lookup(Vpn::new(3), &mut pt, Protection::code());
        assert!(cold.fault);
        assert_eq!(t.l2().stats().protection_faults, 1);
        assert_eq!(t.l1().stats().protection_faults, 0);

        // L1 hit: counted at L1.
        let hot = t.lookup(Vpn::new(3), &mut pt, Protection::code());
        assert!(hot.l1_hit && hot.fault);
        assert_eq!(t.l1().stats().protection_faults, 1);

        // Displace from the 1-entry L1, then return: L2 hit counts at L2.
        t.lookup(Vpn::new(8), &mut pt, Protection::code());
        let l2_hit = t.lookup(Vpn::new(3), &mut pt, Protection::code());
        assert_eq!(l2_hit.l2_hit, Some(true));
        assert!(l2_hit.fault);
        assert_eq!(t.l2().stats().protection_faults, 2);
    }

    #[test]
    fn two_level_stats_visible() {
        let mut t = TwoLevelTlb::fig6_large();
        let mut pt = PageTable::new();
        for i in 0..40 {
            t.lookup(Vpn::new(i), &mut pt, Protection::code());
        }
        assert_eq!(t.l1().stats().accesses, 40);
        assert_eq!(t.l2().stats().accesses, 40); // all cold misses
        for i in 0..40 {
            t.lookup(Vpn::new(i), &mut pt, Protection::code());
        }
        // 32-entry L1 can hold at most 32 of the 40; some L2 hits now.
        assert!(t.l2().stats().hits > 0);
    }
}
