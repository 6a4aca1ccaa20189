"""Where each per-layer metric of BENCHMARK.json comes from in a traced run,
and the workloads on which selftest.py requires it to be non-zero.

A name "<span>.self_s" is the summed self time of that span in the traced
pass and "<span>.calls" its number of calls; "<layer>.self_s" sums the self
time of every span of the layer.  The names in COUNTED come from the separate
counting pass instead, and the rest are derived in run.per_layer.  Which
end-to-end metric each one should move is listed in README.md.
"""

ALL = ("construct", "oracle", "battery")

# Per-layer metric -> workloads on which it must be non-zero.  Metrics that
# may read zero everywhere (error_rate) are left out.
NONEMPTY = {
    "groups.aut_group.self_s": ("oracle",),
    "groups.classes.self_s": ("oracle", "construct"),
    "groups.Subgroup.self_s": ("construct", "battery"),
    "groups.Subgroup.calls": ("construct", "battery"),
    "groups.subgroup.calls": ("construct", "battery"),
    "groups.abelianization.self_s": ("construct",),
    "groups.mul.calls": ALL,
    "rings.make_ring.self_s": ("construct",),
    "rings.character_group.self_s": ("construct",),
    "orbits.CongruenceDual.self_s": ("battery", "construct"),
    "orbits.orbits_on_kernel.self_s": ("battery",),
    "classfun.fingerprint.self_s": ("construct",),
    "classfun.fingerprint.calls": ("construct",),
    "classfun.dedupe.kept_ratio": ("construct",),
    "classfun.induce.self_s": ("construct",),
    "classfun.inflate.self_s": ("construct",),
    "classfun.twist.self_s": ("construct",),
    "classfun.k_spectrum.self_s": ("construct",),
    "classfun.linear_characters.self_s": ("construct",),
    "classfun.is_cuspidal.self_s": ("construct", "battery"),
    "classfun.invariants_pushforward.self_s": ("battery",),
    "dixon.character_degrees.self_s": ("oracle",),
    "dixon.character_degrees.calls": ("oracle",),
    "dixon.class_count": ("oracle",),
    "dixon.rss_delta_mb": ("oracle",),
    "build.assemble.self_s": ("construct",),
    "build.assemble.calls": ("construct",),
    "build.build_l1.self_s": ("construct",),
    "build.build_cuspidal_nonrect.self_s": ("construct",),
    "build.build_infinitesimal.self_s": ("construct",),
    "build.build_geometric.self_s": ("construct",),
    "build.IrrFamily.self_s": ("construct",),
    "verify.verify_all.self_s": ("battery",),
    "verify.ring_compare.self_s": ("battery",),
    "cli.main.self_s": ALL,
    "rings.self_s": ALL,
    "groups.self_s": ALL,
    "orbits.self_s": ("construct", "battery"),
    "classfun.self_s": ("construct", "battery"),
    "dixon.self_s": ALL,
    "build.self_s": ("construct", "battery"),
    "verify.self_s": ("battery",),
    "cli.self_s": ALL,
    "src.lines": ALL,
    "trace.wall_s": ALL,
    "trace.overhead_s": ALL,
}

COUNTED = {"groups.mul.calls": "groups.mul",
           "classfun.fingerprint.calls": "classfun.fingerprint"}
