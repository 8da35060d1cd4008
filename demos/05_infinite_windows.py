"""Windowed views of infinite finitary families.

A family rule produces nested finite windows of an infinite matroid whose
circuits are all finite.  Window values of kappa(X, Y) only ever grow, so
they are lower bounds; an exact verdict needs an upper-bound certificate,
a symbolic split of the infinite ground set with a proven bound.  A finite
side U is bounded by its rank r(U), since kappa(U) <= r(U).

Run:  python3 demos/05_infinite_windows.py
"""

from matroid_kappa import (
    StabilizationPolicy,
    certified_separation,
    components,
    double_ladder,
    infinite_uniform,
    rung_partition_counterexample,
    stabilized_kappa_between,
    windowed_linking,
)


def show_bound(family, cert, labels):
    """Print a finite-side certificate's bound beside the rank it came from,
    read in the first window that holds ``labels``, which fix U."""
    n = family.exactness_radius(labels)
    w = family.window(n)
    u = cert.side(w)
    print(f"certificate {cert.description}: U = {{{','.join(u)}}},",
          f"bound {cert.kappa_bound} = r(U) = {w.rank(u)} in window {n}")


print("== the two-way infinite ladder ==")
ladder = double_ladder()
w0 = ladder.window(0)
print(f"window 0 is one square: {list(w0.ground)}")
w2 = ladder.window(2)
print(f"window 2 has {len(w2.ground)} edges and {len(w2.circuits())} circuits")

print()
print("== stabilised connectivity between two rungs ==")
rung_cert = certified_separation(ladder, "rung:0")
show_bound(ladder, rung_cert, ["rung[0]"])
report = stabilized_kappa_between(
    ladder,
    ["rung[0]"],
    ["rung[3]"],
    StabilizationPolicy(max_window=6),
    [rung_cert],
)
print(f"window lower bounds: {list(report.values)}")
print(f"last value reached at window {report.stable_at};",
      f"certified exact value {report.certified_value} via '{report.certificate}'")
print("(without a certificate the last value would stay an uncertified bound)")

print()
print("== linking inside the stabilising window ==")
result = windowed_linking(
    ladder,
    ["rung[0]"],
    ["rung[3]"],
    StabilizationPolicy(max_window=6),
    [rung_cert],
)
print(f"window {result.window_index}: contract {sorted(result.spec.contract)},")
print(f"delete {sorted(result.spec.delete)} plus everything outside the window;")
print(f"achieved {result.achieved}")

print()
print("== a countable uniform family ==")
uni = infinite_uniform(2)
prefix_cert = certified_separation(uni, "prefix:2")
show_bound(uni, prefix_cert, ["a2"])
rep = stabilized_kappa_between(
    uni,
    ["a1", "a2"],
    ["a3", "a4"],
    StabilizationPolicy(max_window=7),
    [prefix_cert],
)
print(f"rank-2 uniform, pairs vs pairs: {list(rep.values)} certified {rep.certified_value}")
# three elements of a rank-2 matroid are dependent: their rank, 2, is the bound
set_cert = certified_separation(uni, "set:a1+a2+a3")
show_bound(uni, set_cert, ["a1", "a2", "a3"])
rep = stabilized_kappa_between(
    uni,
    ["a1", "a2", "a3"],
    ["a4", "a5"],
    StabilizationPolicy(max_window=8),
    [set_cert],
)
print(f"rank-2 uniform, triple vs pair: {list(rep.values)} certified {rep.certified_value}")

print()
print("== why rung processing cannot keep 2-connectivity ==")
report = rung_partition_counterexample(2)
print(f"window 2: {report['partitions_checked']} splits of {len(report['rungs'])} rungs;")
print(f"survivors in their own window: {len(report['survivors_in_own_window'])}",
      "(the boundary artifact: contract both outermost rungs)")
print(f"splits that stay 2-connected one window later: "
      f"{len(report['persistent_partitions'])}")
print(f"deleting every rung disconnects: {report['full_deletion_disconnects']}")

print()
print("== rails alone fall apart ==")
rungless = double_ladder(include_rungs=False)
w = rungless.window(1)
print(f"rungless window 1 components: {len(components(w).blocks)} blocks",
      "(every rail is a bridge)")
