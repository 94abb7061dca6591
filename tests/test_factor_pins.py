"""Factorization outputs pinned byte for byte.

Each digest is the sha256 of the encoded factors (``Matrix.encode``) of a
fixed set of inputs, one line per call, recorded before the F_2 rank normal
form, the factor masks and ``adapted_factor`` ran on packed rows.  The
inputs cover every representation a factor can take: F_2 (packed, every
admissible (y, s) with n <= 4), F_3 at n = 4 and F_5 at n = 7 (odd-p
packed, with and without the intern table of rows), F_3 at n = 26 (past the
slot bound, generic elimination) and Q (generic elimination).  A change of
representation must leave every digest as it is.
"""

import hashlib

import pytest

from rankderiv import (
    Matrix,
    PreconditionError,
    adapted_factor,
    enumerate_rank_k,
    factor_rank_s,
    parse_field,
    random_rank_k,
)
from rankderiv.factor import second_factor_rank_s

PINS = {
    "factor-F2-2":
        "8e53b288ba2fc2355da12524d3faa2e19626122063b3e40d87841bb26dd8dd2a",
    "factor-F2-3":
        "e88b211ff2b38cc5d3f194fb6811d7d111b530255544ca1146509454dc91e324",
    "factor-F2-4":
        "8dc7635a3f836a3c05380baf00f8fb90007c0742ef5aecf7de3a86366b59ee0f",
    "adapted-F2-4":
        "4531826a59f9b3df3e6921e708bbcc04de79b8530b666f5dc37e64d1fc1a7831",
    "adapted-F2-6":
        "89163c2647f8b3365cc94854d59097703fabd618af9e8a2a134ca765f6d990d0",
    "factor-F3-4":
        "f68b3475129336c4ae2b926d965219e185a1da9378fb395538a9251bb467b1fd",
    "adapted-F3-4":
        "a8442e004cd1f404978f6ca419cc6797c29ef1b4011f95938582c8f320e9e66e",
    "factor-F5-7":
        "e6e7481ad9f9d85c6a42228691df05f10f88a39b130bbb1a383c24919df1e428",
    "adapted-F5-7":
        "66f4b9e58f48b86826266a5ff6b8db2c1b35ebaa1e2961f5f7c82ecb2af94f98",
    "factor-F3-26":
        "9142c36895cd68cd613cf4af04d25c93ab225b6dfcd17305007fd0c85a4d0696",
    "adapted-F3-26":
        "5803aa08894070ff423c41618b2e848b80fcacc4e053b9c40b135f534ba7ec0f",
    "factor-Q-4":
        "fe1976d1306528bffe4e0d9b998d8bd8b5d80a4137d555e69e6137262a7d6707",
    "adapted-Q-4":
        "60adbcb38209a1a23812d5ed6b7d41abeca398216f2076d151fe43cb9394b4c8",
}


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _factor_lines(ys):
    """Both rank-s factorizations of each (y, s), or their refusals."""
    for y, s in ys:
        for fn in (factor_rank_s, second_factor_rank_s):
            try:
                fac = fn(y, s)
            except PreconditionError as e:
                yield f"{fn.__name__} refused: {e}"
            else:
                yield f"{fac.y1.encode()} | {fac.y2.encode()}"


def _adapted_lines(pairs, cases):
    for x, y, s in pairs:
        fac = adapted_factor(x, y, s)
        cases.add(fac.case_tag)
        yield f"{fac.case_tag} {fac.x1.encode()} | {fac.x2.encode()}"


def _admissible(n):
    return [(s, k) for s in range(1, n + 1) for k in range(max(0, 2 * s - n), s + 1)]


def _seeded_factor_inputs(field, n, seeds):
    return [(random_rank_k(n, k, field, seed), s)
            for s, k in _admissible(n) for seed in seeds]


def _case_two_pair(field, n, s, seed):
    """A rank-1 x with x y = 0, which puts (x, y) in case-II."""
    y = random_rank_k(n, s, field, 2000 + seed)
    left_kernel = y.transpose().nullspace()
    v = left_kernel[seed % len(left_kernel)]
    u = next(col for col in zip(*random_rank_k(n, 1, field, 3000 + seed).rows)
             if any(e != field.zero for e in col))
    return Matrix._raw(field, [[field.mul(a, b) for b in v] for a in u]), y, s


def _seeded_pairs(field, n, ss, seeds):
    """Uniform pairs, then as many built to fall in case-II."""
    pairs = [(random_rank_k(n, 1, field, seed), random_rank_k(n, s, field, 1000 + seed), s)
             for s in ss for seed in seeds]
    return pairs + [_case_two_pair(field, n, s, seed) for s in ss for seed in seeds]


def _factor_inputs(name):
    _, spec, n = name.split("-")
    field, n = parse_field(spec), int(n)
    if spec == "F2":
        return [(y, s) for s, k in _admissible(n) for y in enumerate_rank_k(n, k, field)]
    if n == 26:
        strata = ((1, 0), (1, 1), (5, 3), (13, 0), (13, 13), (20, 14), (26, 26))
        return [(random_rank_k(n, k, field, 0), s) for s, k in strata]
    return _seeded_factor_inputs(field, n, range(6))


def _adapted_inputs(name):
    _, spec, n = name.split("-")
    field, n = parse_field(spec), int(n)
    if spec == "F2":
        return _seeded_pairs(field, n, range(1, n // 2 + 1), range(100))
    if n == 26:
        return _seeded_pairs(field, n, (1, 2, 13), range(3))
    return _seeded_pairs(field, n, (1, 2), range(30))


def compute(name) -> str:
    if name.startswith("factor"):
        return _digest(_factor_lines(_factor_inputs(name)))
    cases = set()
    digest = _digest(_adapted_lines(_adapted_inputs(name), cases))
    assert cases == {"case-I", "case-II"}, (name, cases)
    return digest


@pytest.mark.parametrize("name", sorted(PINS))
def test_factor_outputs_pinned(name):
    assert compute(name) == PINS[name]
