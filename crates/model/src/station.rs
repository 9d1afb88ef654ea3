//! Static per-workstation hardware facts: the capacity vector a station
//! offers and its architecture.

/// A station capacity or job demand, expressed per dimension in integer
/// **milli-units** (1000 = one whole machine's worth). Integer units keep
/// capacity arithmetic exact, so conservation invariants can be checked
/// with `==`/`<=` instead of epsilon comparisons, and the whole-machine
/// default reproduces legacy single-occupancy behavior bit for bit.
///
/// Three dimensions, per the fractional-resource model: CPU share, memory
/// share, and one generic *tag* dimension (an accelerator, a license, a
/// software attribute — anything scarce and countable). The tag dimension
/// defaults to zero on both sides, so it only constrains placement when a
/// fleet actually declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceVec {
    /// CPU share in milli-machines (1000 = the whole CPU).
    pub cpu_milli: u32,
    /// Memory share in milli-machines (1000 = all of the machine's memory).
    pub mem_milli: u32,
    /// Generic tag/accelerator dimension in milli-units (default 0).
    pub tag_milli: u32,
}

impl ResourceVec {
    /// One whole machine: full CPU, full memory, no tag resource.
    pub const WHOLE: ResourceVec = ResourceVec { cpu_milli: 1000, mem_milli: 1000, tag_milli: 0 };

    /// The zero vector (an empty station, or a demand of nothing).
    pub const ZERO: ResourceVec = ResourceVec { cpu_milli: 0, mem_milli: 0, tag_milli: 0 };

    /// A CPU+memory share with no tag demand.
    pub const fn new(cpu_milli: u32, mem_milli: u32) -> Self {
        ResourceVec { cpu_milli, mem_milli, tag_milli: 0 }
    }

    /// A share of `milli` in both CPU and memory — the common "half a
    /// machine" shape (`ResourceVec::share(500)`).
    pub const fn share(milli: u32) -> Self {
        ResourceVec { cpu_milli: milli, mem_milli: milli, tag_milli: 0 }
    }

    /// `true` when this demand fits inside `free` on every dimension.
    pub const fn fits(self, free: ResourceVec) -> bool {
        self.cpu_milli <= free.cpu_milli
            && self.mem_milli <= free.mem_milli
            && self.tag_milli <= free.tag_milli
    }

    /// Per-dimension sum (saturating; capacities never approach u32::MAX
    /// in practice).
    pub const fn add(self, other: ResourceVec) -> ResourceVec {
        ResourceVec {
            cpu_milli: self.cpu_milli.saturating_add(other.cpu_milli),
            mem_milli: self.mem_milli.saturating_add(other.mem_milli),
            tag_milli: self.tag_milli.saturating_add(other.tag_milli),
        }
    }

    /// Per-dimension difference, clamped at zero.
    pub const fn sub(self, other: ResourceVec) -> ResourceVec {
        ResourceVec {
            cpu_milli: self.cpu_milli.saturating_sub(other.cpu_milli),
            mem_milli: self.mem_milli.saturating_sub(other.mem_milli),
            tag_milli: self.tag_milli.saturating_sub(other.tag_milli),
        }
    }

    /// `true` for the legacy whole-machine demand: full CPU and memory and
    /// no tag requirement. Whole-demand jobs are mutually exclusive on a
    /// whole-capacity station, which is exactly the single-occupancy rule
    /// the fractional model generalizes.
    pub const fn is_whole(self) -> bool {
        self.cpu_milli >= 1000 && self.mem_milli >= 1000
    }

    /// Difference of a running total and one of its summands. Unlike
    /// [`ResourceVec::sub`] this must not clamp: debug builds assert the
    /// subtrahend really is contained, so incrementally maintained
    /// occupancy totals fail loudly instead of silently drifting.
    pub fn sub_exact(self, other: ResourceVec) -> ResourceVec {
        debug_assert!(other.fits(self), "sub_exact underflow: {other} from {self}");
        self.sub(other)
    }

    /// `true` when every dimension is zero.
    pub const fn is_zero(self) -> bool {
        self.cpu_milli == 0 && self.mem_milli == 0 && self.tag_milli == 0
    }
}

impl Default for ResourceVec {
    /// Whole-machine: the 1988 reality, and the digest-pinned default.
    fn default() -> Self {
        ResourceVec::WHOLE
    }
}

impl std::fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cpu{}m/mem{}m/tag{}m",
            self.cpu_milli, self.mem_milli, self.tag_milli
        )
    }
}

#[cfg(test)]
mod resource_tests {
    use super::*;

    #[test]
    fn default_is_whole_machine() {
        assert_eq!(ResourceVec::default(), ResourceVec::WHOLE);
        assert!(ResourceVec::WHOLE.is_whole());
        assert!(!ResourceVec::share(500).is_whole());
    }

    #[test]
    fn fits_is_per_dimension() {
        let free = ResourceVec::new(600, 900);
        assert!(ResourceVec::share(500).fits(free));
        assert!(!ResourceVec::new(700, 100).fits(free));
        assert!(!ResourceVec::new(100, 950).fits(free));
        assert!(!ResourceVec { cpu_milli: 100, mem_milli: 100, tag_milli: 1 }.fits(free));
        assert!(ResourceVec::ZERO.fits(ResourceVec::ZERO));
    }

    #[test]
    fn add_sub_round_trip() {
        let a = ResourceVec::share(300);
        let b = ResourceVec::new(200, 500);
        assert_eq!(a.add(b).sub(b), a);
        // sub clamps at zero rather than wrapping.
        assert_eq!(ResourceVec::ZERO.sub(a), ResourceVec::ZERO);
        assert_eq!(a.add(b).sub_exact(b), a);
        assert!(ResourceVec::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sub_exact underflow")]
    fn sub_exact_rejects_underflow() {
        ResourceVec::share(100).sub_exact(ResourceVec::share(200));
    }

    #[test]
    fn two_halves_fill_a_whole() {
        let half = ResourceVec::share(500);
        let used = half.add(half);
        assert_eq!(used.cpu_milli, 1000);
        assert!(half.fits(ResourceVec::WHOLE.sub(half)));
        assert!(!half.fits(ResourceVec::WHOLE.sub(used)));
    }

    #[test]
    fn display_form() {
        assert_eq!(ResourceVec::WHOLE.to_string(), "cpu1000m/mem1000m/tag0m");
    }
}

/// Workstation architecture (paper §5, future-work item 4: the planned SUN
/// port, where a job compiled into two binaries could start on either
/// architecture but, once run on one, could not move to the other without
/// losing all its work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// DEC VAXstation II — the paper's fleet.
    Vax,
    /// SUN workstation — the planned port target.
    Sun,
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arch::Vax => f.write_str("vax"),
            Arch::Sun => f.write_str("sun"),
        }
    }
}

/// The set of architectures a job has binaries for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArchSet {
    vax: bool,
    sun: bool,
}

impl ArchSet {
    /// A VAX-only binary.
    pub const fn vax_only() -> Self {
        ArchSet { vax: true, sun: false }
    }

    /// A SUN-only binary.
    pub const fn sun_only() -> Self {
        ArchSet { vax: false, sun: true }
    }

    /// Binaries for both architectures.
    pub const fn both() -> Self {
        ArchSet { vax: true, sun: true }
    }

    /// The singleton set for one architecture.
    pub const fn only(arch: Arch) -> Self {
        match arch {
            Arch::Vax => ArchSet::vax_only(),
            Arch::Sun => ArchSet::sun_only(),
        }
    }

    /// Whether the job can start on `arch`.
    pub const fn supports(self, arch: Arch) -> bool {
        match arch {
            Arch::Vax => self.vax,
            Arch::Sun => self.sun,
        }
    }

    /// Number of supported architectures.
    pub const fn len(self) -> usize {
        self.vax as usize + self.sun as usize
    }

    /// `true` for the (invalid in practice) empty set.
    pub const fn is_empty(self) -> bool {
        !self.vax && !self.sun
    }
}

impl Default for ArchSet {
    /// The paper's 1988 reality: everything is a VAX binary.
    fn default() -> Self {
        ArchSet::vax_only()
    }
}

impl std::fmt::Display for ArchSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.vax, self.sun) {
            (true, true) => f.write_str("vax+sun"),
            (true, false) => f.write_str("vax"),
            (false, true) => f.write_str("sun"),
            (false, false) => f.write_str("(none)"),
        }
    }
}

#[cfg(test)]
mod arch_tests {
    use super::*;

    #[test]
    fn arch_set_membership() {
        assert!(ArchSet::vax_only().supports(Arch::Vax));
        assert!(!ArchSet::vax_only().supports(Arch::Sun));
        assert!(ArchSet::both().supports(Arch::Vax));
        assert!(ArchSet::both().supports(Arch::Sun));
        assert_eq!(ArchSet::only(Arch::Sun), ArchSet::sun_only());
        assert_eq!(ArchSet::both().len(), 2);
        assert!(!ArchSet::both().is_empty());
        assert_eq!(ArchSet::default(), ArchSet::vax_only());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Arch::Vax.to_string(), "vax");
        assert_eq!(Arch::Sun.to_string(), "sun");
        assert_eq!(ArchSet::both().to_string(), "vax+sun");
        assert_eq!(ArchSet::sun_only().to_string(), "sun");
    }
}
