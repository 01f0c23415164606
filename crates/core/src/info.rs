//! Static survey metadata — the data behind **Table 1** of the paper.
//!
//! Table 1 lists *all* GPU memory managers the survey found, including the
//! three that could not be evaluated (KMA: OpenCL-only with no public source;
//! DynaSOAr: not a general-purpose allocator; BulkAllocator: no public
//! version exists). The evaluated managers additionally carry a live
//! [`ManagerInfo`] from their [`DeviceAllocator`](crate::DeviceAllocator)
//! implementation.

/// Whether/where the original implementation is available.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Availability {
    /// Source is not public.
    NotAvailable,
    /// Part of the CUDA toolkit API.
    CudaApi,
    /// Downloadable from the authors' website.
    Website,
    /// Public GitHub repository.
    GitHub,
}

impl std::fmt::Display for Availability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Availability::NotAvailable => "✗",
            Availability::CudaApi => "CUDA API",
            Availability::Website => "Website",
            Availability::GitHub => "GitHub",
        };
        f.write_str(s)
    }
}

/// Tri-state for the "stable throughout testing" column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stability {
    Stable,
    Unstable,
    Unknown,
}

impl std::fmt::Display for Stability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Stability::Stable => "yes",
            Stability::Unstable => "no",
            Stability::Unknown => "?",
        })
    }
}

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct SurveyRow {
    /// Citation key in the paper's bibliography, e.g. `[17]`.
    pub reference: &'static str,
    /// Short name used throughout the paper.
    pub short_name: &'static str,
    /// Year of publication.
    pub year: u32,
    /// Where the original can be obtained.
    pub availability: Availability,
    /// Build status: does it build with independent thread scheduling
    /// (`"yes"`), require pre-Volta warp-synchronous codegen (`"<7.0"`), or
    /// something else.
    pub build: &'static str,
    /// Number of allocator variants the system ships.
    pub variants: u32,
    /// Whether it forwards (some) requests to the CUDA-Allocator.
    pub depends_on_cuda_alloc: bool,
    /// Whether it is a general-purpose allocator (vs. warp-level-only /
    /// SOA-object-only designs).
    pub general_purpose: &'static str,
    /// Whether evaluation results are available.
    pub results_available: bool,
    /// Whether performance was stable throughout the survey's testing.
    pub stable: Stability,
    /// Whether this Rust reproduction implements & evaluates it.
    pub evaluated_here: bool,
}

/// The complete Table 1, in the paper's row order.
pub const SURVEY_TABLE: &[SurveyRow] = &[
    SurveyRow {
        reference: "[9]",
        short_name: "XMalloc",
        year: 2010,
        availability: Availability::NotAvailable,
        build: "<7.0",
        variants: 1,
        depends_on_cuda_alloc: true,
        general_purpose: "yes",
        results_available: true,
        stable: Stability::Unstable,
        evaluated_here: true,
    },
    SurveyRow {
        reference: "[13]",
        short_name: "CUDA-Allocator",
        year: 2010,
        availability: Availability::CudaApi,
        build: "yes",
        variants: 1,
        depends_on_cuda_alloc: true,
        general_purpose: "yes",
        results_available: true,
        stable: Stability::Stable,
        evaluated_here: true,
    },
    SurveyRow {
        reference: "[17]",
        short_name: "ScatterAlloc",
        year: 2012,
        availability: Availability::Website,
        build: "<7.0",
        variants: 1,
        depends_on_cuda_alloc: false,
        general_purpose: "yes",
        results_available: true,
        stable: Stability::Stable,
        evaluated_here: true,
    },
    SurveyRow {
        reference: "[20]",
        short_name: "FDGMalloc",
        year: 2013,
        availability: Availability::Website,
        build: "<7.0",
        variants: 1,
        depends_on_cuda_alloc: true,
        general_purpose: "warp-level",
        results_available: false,
        stable: Stability::Unstable,
        evaluated_here: true,
    },
    SurveyRow {
        reference: "[19]",
        short_name: "Reg-Eff",
        year: 2014,
        availability: Availability::Website,
        build: "<7.0",
        variants: 4,
        depends_on_cuda_alloc: false,
        general_purpose: "yes",
        results_available: true,
        stable: Stability::Unstable,
        evaluated_here: true,
    },
    SurveyRow {
        reference: "[15]",
        short_name: "KMA",
        year: 2014,
        availability: Availability::NotAvailable,
        build: "OpenCL",
        variants: 1,
        depends_on_cuda_alloc: false,
        general_purpose: "yes",
        results_available: false,
        stable: Stability::Unknown,
        evaluated_here: false,
    },
    SurveyRow {
        reference: "[1]",
        short_name: "Halloc",
        year: 2014,
        availability: Availability::GitHub,
        build: "<7.0",
        variants: 1,
        depends_on_cuda_alloc: true,
        general_purpose: "yes",
        results_available: true,
        stable: Stability::Stable,
        evaluated_here: true,
    },
    SurveyRow {
        reference: "[16]",
        short_name: "DynaSOAr",
        year: 2019,
        availability: Availability::GitHub,
        build: "yes",
        variants: 1,
        depends_on_cuda_alloc: false,
        general_purpose: "SOA",
        results_available: false,
        stable: Stability::Unknown,
        evaluated_here: false,
    },
    SurveyRow {
        reference: "[7]",
        short_name: "BulkAllocator",
        year: 2019,
        availability: Availability::NotAvailable,
        build: ">7.0",
        variants: 2,
        depends_on_cuda_alloc: false,
        general_purpose: "yes",
        results_available: false,
        stable: Stability::Unknown,
        evaluated_here: false,
    },
    SurveyRow {
        reference: "[21]",
        short_name: "Ouroboros",
        year: 2020,
        availability: Availability::GitHub,
        build: "yes",
        variants: 6,
        depends_on_cuda_alloc: false,
        general_purpose: "yes",
        results_available: true,
        stable: Stability::Stable,
        evaluated_here: true,
    },
];

/// Live metadata a [`DeviceAllocator`](crate::DeviceAllocator) reports about
/// itself — name, variant, and the capability flags the paper's Discussion
/// (§5) and Conclusion (§6) reason about.
///
/// The struct is `#[non_exhaustive]`: allocator crates construct it through
/// [`ManagerInfo::builder`], so new capability flags (such as
/// [`instrumented`](ManagerInfo::instrumented)) can be added without a
/// breaking change rippling through every implementation.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct ManagerInfo {
    /// Family name as used in the paper (e.g. `"Ouroboros"`).
    pub family: &'static str,
    /// Variant label, `""` for single-variant managers (e.g. `"VA-P"`).
    pub variant: &'static str,
    /// Whether individual allocations can be freed.
    pub supports_free: bool,
    /// Whether only whole-warp collective allocation is offered (FDGMalloc).
    pub warp_level_only: bool,
    /// Guaranteed alignment of returned pointers in bytes. The paper notes
    /// Reg-Eff does *not* return 16-byte-aligned memory; everything else
    /// aligns to ≥16.
    pub alignment: u64,
}

impl ManagerInfo {
    /// Starts building an info record. Defaults: no variant, free
    /// supported, thread-level, 16 B alignment.
    pub fn builder(family: &'static str) -> ManagerInfoBuilder {
        ManagerInfoBuilder {
            info: ManagerInfo {
                family,
                variant: "",
                supports_free: true,
                warp_level_only: false,
                alignment: 16,
            },
        }
    }

    /// `"Family"` or `"Family-Variant"` — the label used in result CSVs and
    /// plots.
    pub fn label(&self) -> String {
        if self.variant.is_empty() {
            self.family.to_string()
        } else {
            format!("{}-{}", self.family, self.variant)
        }
    }
}

/// Builder for [`ManagerInfo`] — the only way allocator crates construct
/// one (the struct is `#[non_exhaustive]`).
#[derive(Clone, Debug)]
pub struct ManagerInfoBuilder {
    info: ManagerInfo,
}

impl ManagerInfoBuilder {
    /// Sets the variant label (e.g. `"VA-P"`).
    pub fn variant(mut self, variant: &'static str) -> Self {
        self.info.variant = variant;
        self
    }

    /// Sets whether individual allocations can be freed.
    pub fn supports_free(mut self, v: bool) -> Self {
        self.info.supports_free = v;
        self
    }

    /// Sets whether only whole-warp collective allocation is offered.
    pub fn warp_level_only(mut self, v: bool) -> Self {
        self.info.warp_level_only = v;
        self
    }

    /// Sets the guaranteed pointer alignment in bytes.
    pub fn alignment(mut self, bytes: u64) -> Self {
        self.info.alignment = bytes;
        self
    }

    /// Finishes the record.
    pub fn build(self) -> ManagerInfo {
        self.info
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_all_ten_systems() {
        assert_eq!(SURVEY_TABLE.len(), 10);
        let names: Vec<_> = SURVEY_TABLE.iter().map(|r| r.short_name).collect();
        for expected in [
            "XMalloc",
            "CUDA-Allocator",
            "ScatterAlloc",
            "FDGMalloc",
            "Reg-Eff",
            "KMA",
            "Halloc",
            "DynaSOAr",
            "BulkAllocator",
            "Ouroboros",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn evaluated_set_matches_paper() {
        // The paper evaluates: CUDA-Allocator, XMalloc, ScatterAlloc,
        // FDGMalloc (included but crashes), Reg-Eff, Halloc, Ouroboros.
        let evaluated: Vec<_> =
            SURVEY_TABLE.iter().filter(|r| r.evaluated_here).map(|r| r.short_name).collect();
        assert_eq!(evaluated.len(), 7);
        assert!(!evaluated.contains(&"KMA"));
        assert!(!evaluated.contains(&"DynaSOAr"));
        assert!(!evaluated.contains(&"BulkAllocator"));
    }

    #[test]
    fn variant_counts_sum() {
        // 1+1+1+1+4+1+1+1+2+6 variants across the table.
        let total: u32 = SURVEY_TABLE.iter().map(|r| r.variants).sum();
        assert_eq!(total, 19);
    }

    #[test]
    fn label_formatting() {
        let mut info = ManagerInfo::builder("Ouroboros").variant("VA-P").build();
        assert_eq!(info.label(), "Ouroboros-VA-P");
        info.variant = "";
        assert_eq!(info.label(), "Ouroboros");
    }

    #[test]
    fn builder_defaults_are_conservative() {
        let info = ManagerInfo::builder("X").build();
        assert_eq!(info.family, "X");
        assert_eq!(info.variant, "");
        assert!(info.supports_free);
        assert!(!info.warp_level_only);
        assert_eq!(info.alignment, 16);
    }

    #[test]
    fn availability_display() {
        assert_eq!(Availability::GitHub.to_string(), "GitHub");
        assert_eq!(Availability::NotAvailable.to_string(), "✗");
        assert_eq!(Stability::Unknown.to_string(), "?");
    }
}
