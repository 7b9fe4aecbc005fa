"""Correctness checks for the benchmark's results, computed apart from bellbox.

Nothing here imports bellbox or compares against stored program output.
The one-box behavior rule, the Schmidt-state Born rule, the deterministic
points, the M_NN22 table and the dot products are written out below; the
fixed numbers are published ones (the three-setting vertex census of
Barrett et al., PRA 71, 022101 (2005), and the CHSH quantum maximum).
Each check raises `CheckFailed` with a message naming what went wrong.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# class: (vertices, violated CHSH-type facets, violated I3322-type facets)
PUBLISHED_CENSUS_N3 = {"S1": (192, 6, 18), "S2": (288, 1, 8), "S3": (576, 2, 12), "S4": (288, 4, 24)}
CHSH_ORBIT_N3 = 72
I3322_ORBIT_N3 = 576
CHSH_QUANTUM_MAX = (math.sqrt(2) - 1) / 2


class CheckFailed(AssertionError):
    pass


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Tables and behaviors written out independently


def mnn22_table(n: int) -> tuple:
    """Flat (alice, bob, joint Alice-major, constant) coefficients of M_NN22.

    Staircase of +1 where i <= n-1-j, -1 on the anti-diagonal i = n-j
    (j >= 1), Bob's marginals -(n-1-j) and Alice's first marginal -(n-1).
    """
    alice = [-(n - 1)] + [0] * (n - 1)
    bob = [-(n - 1 - j) for j in range(n)]
    joint = [1 if i <= n - 1 - j else (-1 if j >= 1 and i == n - j else 0)
             for i in range(n) for j in range(n)]
    return tuple(alice + bob + joint + [0])


def pr_anticorrelated(inputs: int) -> frozenset:
    """Anticorrelated pairs of the `inputs`-input box: the -1 anti-diagonal of I_NN22.

    For two inputs this is the PR box's single pair (1, 1).
    """
    return frozenset((i, inputs - i) for i in range(1, inputs))


def dot2(coefficients, halves) -> int:
    """Twice the value of (coefficients..., constant) on a half-unit point."""
    *coeffs, constant = coefficients
    require(len(coeffs) == len(halves), "coefficient and point lengths differ")
    return sum(c * h for c, h in zip(coeffs, halves)) + 2 * constant


def halves_of(point) -> tuple:
    """Coordinates of an exact behavior doubled to integers."""
    out = []
    for v in point.coords():
        d = 2 * Fraction(v)
        require(d.denominator == 1, f"coordinate {v} is not on the half-integer grid")
        out.append(int(d))
    return tuple(out)


def cells_nonnegative(alice, bob, joint) -> bool:
    """All 4n^2 probabilities P(00)=c, P(01)=a-c, P(10)=b-c, P(11)=1-a-b+c are >= 0."""
    n = len(alice)
    for i in range(n):
        for j in range(n):
            a, b, c = alice[i], bob[j], joint[i][j]
            if min(c, a - c, b - c, 1 - a - b + c) < 0:
                return False
    return True


def deterministic_halves(n: int) -> np.ndarray:
    """Half-unit coordinates of the 4^n deterministic behaviors."""
    rows = []
    for u in itertools.product((2, 0), repeat=n):
        for v in itertools.product((2, 0), repeat=n):
            rows.append(list(u) + list(v) + [x * y // 2 for x in u for y in v])
    return np.asarray(rows, dtype=np.int64)


def coefficient_matrix(functionals) -> tuple:
    arr = np.asarray([f.coefficient_vector() for f in functionals], dtype=np.int64)
    return arr[:, :-1], 2 * arr[:, -1]


# ---------------------------------------------------------------------------
# One-box strategies: option codes 0d=0, 1d=1, km=2+2k, kmf=3+2k


def decode_option(code: int) -> tuple:
    if code < 2:
        return ("det", code)
    k, flip = divmod(code - 2, 2)
    return ("box", k, flip)


def encode_option(parts: tuple) -> int:
    return parts[1] if parts[0] == "det" else 2 + 2 * parts[1] + parts[2]


def one_box_halves(alice, bob, anticorrelated) -> tuple:
    """Half-unit behavior of a wiring around one box with the given anticorrelated pairs.

    A deterministic option outputs its bit; a box option has marginal 1/2.
    A joint entry between two box options is 1/2 exactly when the flip
    parity matches whether the box anticorrelates the two inputs.
    """
    def marginal(parts):
        return (2 if parts[1] == 0 else 0) if parts[0] == "det" else 1

    def joint(pa, pb):
        if pa[0] == "det":
            return marginal(pb) if pa[1] == 0 else 0
        if pb[0] == "det":
            return marginal(pa) if pb[1] == 0 else 0
        anti = (pa[1], pb[1]) in anticorrelated
        return 1 if (pa[2] ^ pb[2]) == int(anti) else 0

    pa = [decode_option(c) for c in alice]
    pb = [decode_option(c) for c in bob]
    return tuple([marginal(p) for p in pa] + [marginal(p) for p in pb]
                 + [joint(x, y) for x in pa for y in pb])


def relabel_options(options, perm, flips) -> tuple:
    """Slot x plays the option of setting perm[x], output flipped when flips[x] is set."""
    out = []
    for x, source in enumerate(perm):
        parts = decode_option(options[source])
        if flips[x]:
            parts = ("det", 1 - parts[1]) if parts[0] == "det" else ("box", parts[1], 1 - parts[2])
        out.append(encode_option(parts))
    return tuple(out)


def max_min_hand_witness(n: int) -> tuple:
    """A one-box strategy around the (n-1)-input box with C1 = C2 = 1/2.

    Alice's settings 0..n-2 and Bob's 1..n-1 play box inputs 0..n-2
    unflipped; Alice's last setting plays input 1 flipped and Bob's first
    setting plays input n-2.  For n = 4 this is the witness written out in
    the strategy tests; n = 5 follows the same pattern.
    """
    box = [encode_option(("box", k, 0)) for k in range(n - 1)]
    alice = tuple(box) + (encode_option(("box", 1, 1)),)
    bob = (encode_option(("box", n - 2, 0)),) + tuple(box)
    return alice, bob


def float_affine_rank(halves) -> int:
    rows = np.asarray(halves, dtype=np.int64)
    if len(rows) < 2:
        return 0
    return int(np.linalg.matrix_rank((rows[1:] - rows[0]).astype(float)))


# ---------------------------------------------------------------------------
# one-box-facets


def check_certificate(cert, f, n: int, anticorrelated):
    d = n * (n + 2)
    require(cert.max_value == 0, f"n={n}: maximum {cert.max_value}, expected 0")
    require(cert.affine_rank == d - 1, f"n={n}: affine rank {cert.affine_rank}, expected {d - 1}")
    require(cert.accepted, f"n={n}: certificate not accepted")
    coeffs = f.coefficient_vector()
    halves = [halves_of(p) for p in cert.saturating_points]
    require(len(set(halves)) == len(halves), f"n={n}: repeated saturating points")
    off = [h for h in halves if dot2(coeffs, h) != 0]
    require(not off, f"n={n}: {len(off)} saturating points are off the facet, e.g. {off[:1]}")
    rank = float_affine_rank(halves)
    require(rank == d - 1, f"n={n}: saturating points span affine rank {rank}, expected {d - 1}")
    w = cert.witness
    value2 = dot2(coeffs, one_box_halves(w.alice, w.bob, anticorrelated))
    require(Fraction(value2, 2) == cert.max_value,
            f"n={n}: witness reaches {Fraction(value2, 2)}, certified maximum {cert.max_value}")


def check_maximum(result, n: int):
    require(result.value == 0, f"n={n}: one-box maximum {result.value}, expected 0")


def check_saturators(points, n: int):
    table = mnn22_table(n)
    halves = [halves_of(p) for p in points]
    require(len(halves) == 2 ** n, f"n={n}: {len(halves)} deterministic saturators, expected {2 ** n}")
    require(len(set(halves)) == len(halves), f"n={n}: deterministic saturators repeat")
    for h in halves:
        a, b = h[:n], h[n:2 * n]
        require(all(v in (0, 2) for v in a + b), f"n={n}: saturator {h} is not deterministic")
        require(list(h[2 * n:]) == [x * y // 2 for x in a for y in b],
                f"n={n}: saturator {h} has joints that are not products")
        require(dot2(table, h) == 0, f"n={n}: saturator {h} is off the M_NN22 facet")


def check_max_min(value, c1, c2, n: int, g, anticorrelated):
    """The max-min is 1/2, and the hand witness, relabeled by g, reaches it."""
    require(value == Fraction(1, 2), f"n={n}: max-min {value}, expected 1/2")
    alice, bob = max_min_hand_witness(n)
    halves = one_box_halves(relabel_options(alice, g.alice_perm, g.alice_flips),
                            relabel_options(bob, g.bob_perm, g.bob_flips), anticorrelated)
    values = (dot2(c1.coefficient_vector(), halves), dot2(c2.coefficient_vector(), halves))
    require(values == (1, 1), f"n={n}: hand witness gives doubled (C1, C2) = {values}, expected (1, 1)")


# ---------------------------------------------------------------------------
# seesaw-sweep


def schmidt_value(f, theta: float, alice_bloch, bob_bloch) -> float:
    """Value of f on cos(theta)|00> + sin(theta)|11> measured along the Bloch vectors.

    P(A=0) = (1 + a.m)/2 and P(00) = (1 + a.m + b.m + a^T T b)/4 with
    m = (0, 0, cos 2theta) and T = diag(sin 2theta, -sin 2theta, 1).
    """
    *coeffs, constant = f.coefficient_vector()
    a = np.asarray(alice_bloch, dtype=float)
    b = np.asarray(bob_bloch, dtype=float)
    m = np.array([0.0, 0.0, math.cos(2 * theta)])
    t = np.diag([math.sin(2 * theta), -math.sin(2 * theta), 1.0])
    pa = (1 + a @ m) / 2
    pb = (1 + b @ m) / 2
    p00 = (1 + (a @ m)[:, None] + (b @ m)[None, :] + a @ t @ b.T) / 4
    coords = np.concatenate([pa, pb, p00.reshape(-1)])
    return float(np.dot(np.asarray(coeffs, dtype=float), coords) + constant)


def check_seesaw(result, f, theta: float, label: str):
    for v in (*result.measurements.alice, *result.measurements.bob):
        require(abs(math.hypot(*v) - 1) <= 1e-9, f"{label}: Bloch vector {v} is not unit length")
    recomputed = schmidt_value(f, theta, result.measurements.alice, result.measurements.bob)
    require(abs(recomputed - result.value) <= 1e-9,
            f"{label}: value {result.value!r} but its Bloch vectors give {recomputed!r}")


def check_chsh(result):
    require(abs(result.value - CHSH_QUANTUM_MAX) <= 1e-6,
            f"CHSH at pi/4: {result.value!r}, expected {CHSH_QUANTUM_MAX!r}")


def sweep_thetas(grid: int) -> list:
    return [k * (math.pi / 4) / (grid - 1) for k in range(grid)]


def check_sweep(sweep, n: int, grid: int):
    thetas = sweep_thetas(grid)
    require(len(sweep.values) == grid, f"n={n}: {len(sweep.values)} sweep points, expected {grid}")
    require(all(abs(t - u) <= 1e-12 for t, u in zip(sweep.thetas, thetas)),
            f"n={n}: sweep grid differs from the uniform grid on [0, pi/4]")
    require(sweep.values[0] <= 1e-9, f"n={n}: product state value {sweep.values[0]!r} > 1e-9")
    if n == 3:
        inner = [v for t, v in zip(thetas, sweep.values) if t < math.pi / 4 - 1e-12]
        require(max(inner) > 1e-6, f"n=3: no violation below pi/4, best {max(inner)!r}")
        require(sweep.values[-1] <= 1e-9, f"n=3: value {sweep.values[-1]!r} at pi/4 > 1e-9")
    else:
        require(max(sweep.values) <= 1e-7, f"n={n}: sweep reaches {max(sweep.values)!r} > 1e-7")


# ---------------------------------------------------------------------------
# vertex-census


def check_orbits(chsh_orbit, i_orbit):
    require(len(chsh_orbit) == CHSH_ORBIT_N3, f"CHSH orbit has {len(chsh_orbit)} members, expected 72")
    require(len(i_orbit) == I3322_ORBIT_N3, f"I3322 orbit has {len(i_orbit)} members, expected 576")
    coeffs, consts2 = coefficient_matrix(list(chsh_orbit) + list(i_orbit))
    values = deterministic_halves(3) @ coeffs.T + consts2
    require(values.shape[0] == 64, "expected 64 deterministic points")
    best = values.max(axis=0)
    require((best == 0).all(), f"{int((best != 0).sum())} facets do not have local maximum 0")


def check_vertices(labeled, facets):
    halves = [halves_of(p) for p, _ in labeled]
    require(len(halves) == 1344, f"{len(halves)} non-local vertices, expected 1344")
    require(len(set(halves)) == len(halves), "vertices repeat")
    for p, _ in labeled:
        require(cells_nonnegative(p.alice, p.bob, p.joint), f"vertex {p} has a negative probability")
    coeffs, consts2 = coefficient_matrix(facets)
    violated = (np.asarray(halves, dtype=np.int64) @ coeffs.T + consts2 > 0).any(axis=1)
    require(violated.all(), f"{int((~violated).sum())} vertices violate no facet")


def check_census(census, labeled, chsh_orbit, i_orbit):
    require(census.total == 1344, f"census total {census.total}, expected 1344")
    got = {k: (s.count, s.chsh_violations, s.i3322_violations) for k, s in census.classes.items()}
    require(got == PUBLISHED_CENSUS_N3, f"census {got} differs from the published {PUBLISHED_CENSUS_N3}")
    halves = np.asarray([halves_of(p) for p, _ in labeled], dtype=np.int64)
    counts = []
    for orbit in (chsh_orbit, i_orbit):
        coeffs, consts2 = coefficient_matrix(orbit)
        counts.append((halves @ coeffs.T + consts2 > 0).sum(axis=1))
    recount, sizes = {}, {}
    for (_, label), c, i in zip(labeled, *counts):
        recount.setdefault(label, set()).add((int(c), int(i)))
        sizes[label] = sizes.get(label, 0) + 1
    expected = {k: v[0] for k, v in PUBLISHED_CENSUS_N3.items()}
    require(sizes == expected, f"labeled class sizes {sizes}, expected {expected}")
    for label, (_, c, i) in PUBLISHED_CENSUS_N3.items():
        require(recount.get(label) == {(c, i)},
                f"class {label}: recounted violations {recount.get(label)}, expected {{({c}, {i})}}")


def check_lemma(report, n: int, samples: int):
    require(report.n_settings == n and report.samples == samples and report.checked == samples,
            f"lemma n={n}: checked {report.checked} of {report.samples}, expected {samples}")
    require(not report.counterexamples, f"lemma n={n}: {len(report.counterexamples)} counterexamples")


# ---------------------------------------------------------------------------
# cli-commands


def check_cli_census(doc):
    got = {k: (v["count"], v["chsh"], v["i3322"]) for k, v in doc["classes"].items()}
    require(doc["total"] == 1344, f"census total {doc['total']}, expected 1344")
    require(got == PUBLISHED_CENSUS_N3, f"census {got} differs from the published {PUBLISHED_CENSUS_N3}")


def check_cli_enum_ns(docs):
    require(len(docs) == 1344, f"enum-ns printed {len(docs)} vertices, expected 1344")
    seen = set()
    sizes = {}
    for doc in docs:
        require(doc["backend"] == "exact" and doc["n"] == 3, "enum-ns vertex is not an exact n=3 behavior")
        alice = [Fraction(v) for v in doc["alice"]]
        bob = [Fraction(v) for v in doc["bob"]]
        joint = [[Fraction(v) for v in row] for row in doc["joint"]]
        seen.add((tuple(alice), tuple(bob), tuple(map(tuple, joint))))
        require(cells_nonnegative(alice, bob, joint), f"enum-ns vertex {doc} has a negative probability")
        sizes[doc["class"]] = sizes.get(doc["class"], 0) + 1
    require(len(seen) == 1344, "enum-ns vertices repeat")
    expected = {k: v[0] for k, v in PUBLISHED_CENSUS_N3.items()}
    require(sizes == expected, f"enum-ns class sizes {sizes}, expected {expected}")


def check_cli_verify_facet(doc, n: int):
    d = n * (n + 2)
    require(doc["accepted"] is True, f"verify-facet not accepted: {doc}")
    require(doc["affine_rank"] == d - 1 and doc["rank_needed"] == d - 1,
            f"verify-facet rank {doc['affine_rank']}, expected {d - 1}")
    require(doc["max_value"] == "0", f"verify-facet maximum {doc['max_value']}, expected 0")


def check_cli_gen_eval(gen_doc, eval_text: str, behavior_doc, n: int):
    flat = (gen_doc["alice"] + gen_doc["bob"] + [c for row in gen_doc["joint"] for c in row]
            + [gen_doc["constant"]])
    require(gen_doc["n"] == n and tuple(flat) == mnn22_table(n), f"gen printed {gen_doc}, not M{n}{n}22")
    coords = [Fraction(v) for v in behavior_doc["alice"] + behavior_doc["bob"]]
    coords += [Fraction(v) for row in behavior_doc["joint"] for v in row]
    *coeffs, constant = mnn22_table(n)
    expected = sum(c * x for c, x in zip(coeffs, coords)) + constant
    require(eval_text.strip() == str(expected), f"eval printed {eval_text.strip()!r}, expected {expected}")


def check_cli_sweeps(out_t1: bytes, out_t2: bytes, grid: int):
    require(out_t1 == out_t2, "quantum sweep output differs between --threads 1 and --threads 2")
    lines = out_t1.decode().split()
    require(lines[0] == "theta,value" and len(lines) == grid + 1, f"sweep printed {len(lines) - 1} points")
    values = [float(line.split(",")[1]) for line in lines[1:]]
    require(values[0] <= 1e-9, f"sweep value {values[0]!r} at theta = 0 > 1e-9")
