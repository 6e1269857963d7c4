//! The Stellar build pipeline called stage by stage, in the order
//! `StellarEngine::new` runs it, with a span around each stage.

use crate::trace::Tracer;
use skycube_skyline::Algorithm;
use skycube_stellar::{
    maximal_cgroups, seed_skyline_groups, CompressedSkylineCube, CubeIndex, ExtensionContext,
    SeedView,
};
use skycube_types::{normalize_groups, Dataset, ObjId, SkylineGroup};

/// What the staged build produced, beside its spans.
pub struct Staged {
    /// The cube assembled from the staged outputs.
    pub cube: CompressedSkylineCube,
    /// Full-space skyline size (bound space).
    pub seeds: usize,
    /// Maximal c-groups of the seeds.
    pub cgroups: usize,
    /// Seed skyline groups.
    pub seed_groups: usize,
    /// Skyline groups after non-seed extension.
    pub groups: usize,
}

/// Run every stage over `ds` under request id `request`. `cgroups.closure`
/// times the maximal c-group search alone; `seeds.seed_groups` repeats
/// that search and adds the decisive-subspace (min-DNF) step, so the
/// min-DNF time is the difference of the two spans.
pub fn staged_build(ds: &Dataset, tracer: &mut Tracer, request: u64) -> Staged {
    tracer.span("build.staged", request, |t| {
        let (bound, reps) = t.span("dataset.bind", request, |_| ds.bind_duplicates());
        let seeds_bound = t.span("skyline.full_space", request, |_| {
            Algorithm::default().run(&bound, bound.full_space())
        });
        let view = t.span("seeds.view", request, |_| {
            SeedView::new(&bound, seeds_bound.clone())
        });
        let cgroups = t.span("cgroups.closure", request, |_| maximal_cgroups(&view).len());
        let seed_groups = t.span("seeds.seed_groups", request, |_| seed_skyline_groups(&view));
        let groups_bound = t.span("extend.non_seed", request, |_| {
            let ctx = ExtensionContext::new(&view);
            let mut out: Vec<SkylineGroup> = Vec::new();
            for sg in &seed_groups {
                ctx.extend_group(&view, sg, &mut out);
            }
            out
        });
        let groups = groups_bound.len();
        let cube = t.span("cube.assemble", request, |_| {
            let expand = |ids: &[ObjId]| -> Vec<ObjId> {
                let mut v: Vec<ObjId> = ids
                    .iter()
                    .flat_map(|&b| reps[b as usize].iter().copied())
                    .collect();
                v.sort_unstable();
                v
            };
            let groups: Vec<SkylineGroup> = groups_bound
                .into_iter()
                .map(|g| SkylineGroup::new(expand(&g.members), g.subspace, g.decisive))
                .collect();
            CompressedSkylineCube::new(ds.dims(), ds.len(), expand(view.seeds()), groups)
        });
        // Dropped after its span closes, so the span times the build only.
        let _index = t.span("index.build", request, |_| CubeIndex::build(&cube));
        Staged {
            seeds: seeds_bound.len(),
            cgroups,
            seed_groups: seed_groups.len(),
            groups,
            cube,
        }
    })
}

/// Whether `cube` holds exactly `seeds` and, up to order, `groups`.
pub fn same_cube(cube: &CompressedSkylineCube, seeds: &[ObjId], groups: &[SkylineGroup]) -> bool {
    cube.seeds() == seeds
        && normalize_groups(cube.groups().to_vec()) == normalize_groups(groups.to_vec())
}
