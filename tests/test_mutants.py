"""Single-line mutants of the library that the tests named beside them must
kill.  Each mutant is applied to a temporary copy of ``src/``, and the named
tests run against that copy in a fresh interpreter; a mutant survives when
they pass.  A change that claims a killed mutant adds it here.

Slow: each mutant costs one run of its tests (``pytest -m slow``).
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (file under src/rankderiv, line as it stands, mutated line, tests to run
# separated by spaces)
MUTANTS = [
    ("_kronecker.py", "        if g > 1:", "        if False:",
     "tests/test_kronecker.py"),
    ("_kronecker.py", "    out = [c % p for c in poly]", "    out = list(poly)",
     "tests/test_kronecker.py"),
    ("_kronecker.py", "        out.pop()", "        break",
     "tests/test_kronecker.py"),
    ("matrix.py", "                yield from rec(level + 1, chosen + [v], grown, r + 1)",
     "                yield from rec(level + 1, chosen + [v], span, r + 1)",
     "tests/test_matrix.py::test_enumerate_matches_brute_force_counts"),
    ("matrix.py", "            m._rank = k", "            m._rank = 0",
     "tests/test_solver.py::test_system_shape_2_1_f2"),
    ("_packed.py", "        return [pones - r for r in packed]",
     "        return [pones - self.ones - r for r in packed]",
     "tests/test_packed.py::test_fixed_a_bracket_tables"),
    ("_packed.py", "        minus = self.neg(a_packed)",
     "        minus = a_packed",
     "tests/test_packed.py::test_fixed_a_bracket_tables"),
    ("_packed.py",
     "        return tuple([RowProducts(self, minus, 8 * n * i, a >> 8 * i & first)",
     "        return tuple([RowProducts(self, minus, 8 * i, a >> 8 * i & first)",
     "tests/test_packed.py::test_fixed_a_bracket_tables"),
    ("matrix.py", "            minus = -a", "            minus = a",
     " ".join(f"tests/test_packed.py::test_fixed_a_bracket_tables[{p}-{n}]"
              for p, n in ((3, 8), (3, 25), (5, 6), (5, 7)))),
    ("matrix.py", "            return out if dt is not None else plus_mu(out, x)",
     "            return plus_mu(out, x)",
     "tests/test_kronecker.py::test_integer_form_bracket "
     "tests/test_kronecker.py::test_apply_over_q_t"),
    ("matrix.py", "        if mu.is_zero():", "        if True:",
     "tests/test_derivations.py::test_apply_adds_table_or_probed_mu_after_the_bracket"),
    ("matrix.py", "    if not mu.is_zero():", "    if False:",
     "tests/test_derivations.py::test_apply_adds_table_or_probed_mu_after_the_bracket"),
    ("matrix.py", "            return self._key == other._key and other.n == self.n",
     "            return self._key == other._key",
     "tests/test_packed.py::test_key_held_brackets_of_other_rings_differ"),
    ("matrix.py", "            if self._sp is None:", "            if False:",
     "tests/test_kronecker.py::test_integer_form_bracket"),
    ("_packed.py", "            mask = (1 << 8 * n) - 1", "            mask = (1 << 8 * n + 8) - 1",
     "tests/test_packed.py::test_key_held_brackets_match_rows_held"),
    ("_packed.py", "        raw = [key[k:k + n] for k in range(0, n * n, n)]",
     "        raw = [key[k:k + n + 1] for k in range(0, n * n, n)]",
     "tests/test_packed.py::test_key_held_brackets_match_rows_held"),
    ("matrix.py", "            packed = tuple([r & mask for r in packed])",
     "            packed = tuple([r for r in packed])",
     "tests/test_factor_pins.py"),
    ("matrix.py",
     "        out = [row if i in rows else zero_row for i, row in enumerate(out)]",
     "        out = list(out)",
     " ".join(f"tests/test_factor_pins.py::test_factor_outputs_pinned[{name}]"
              for name in ("factor-F3-26", "adapted-F3-26", "factor-Q-4", "adapted-Q-4"))),
    ("derivations.py", "            return list(range(min(self.s, n) + 1))",
     "            return list(range(self.s + 1))",
     "tests/test_derivations.py::test_delta_table_text_with_s_above_n"),
    ("matrix.py",
     "        return self.index[sp.product_key(self._rows[i], self._tables[j])]",
     "        return self.index[sp.product_key(self._rows[j], self._tables[i])]",
     "tests/test_derivations.py::test_verify_inner_derivation_pass"),
    ("_packed.py",
     '        return total.to_bytes(self.n * self.n, "little").translate(self.mod)',
     '        return total.to_bytes(self.n * self.n, "little")',
     "tests/test_derivations.py::test_verify_exhaustive_matches_matrix_arithmetic[F3-2]"),
    ("_packed.py", "            return total & self.lows", "            return total",
     "tests/test_packed.py::test_fixed_a_bracket_tables[2-4] "
     "tests/test_derivations.py::test_verify_exhaustive_matches_matrix_arithmetic[F2-3]"),
    ("_packed.py",
     "        return tuple([RowProducts(self, packed, 8 * n * a) for a in range(n)])",
     "        return tuple([RowProducts(self, packed, 8 * a) for a in range(n)])",
     " ".join(f"tests/test_derivations.py::test_verify_exhaustive_matches_matrix_arithmetic[{c}]"
              for c in ("F2-3", "F3-2"))),
    ("_packed.py", "        cd = sum(map(dict.__getitem__, d_tables, c_rows))", "        cd = 0",
     " ".join(f"tests/test_derivations.py::test_verify_exhaustive_matches_matrix_arithmetic[{c}]"
              for c in ("F2-3", "F3-2"))),
    ("_packed.py", "                    comb ^= c", "                    pass",
     "tests/test_factor_pins.py::test_factor_outputs_pinned[adapted-F2-4] "
     "tests/test_packed.py::test_nullspace2_matches_list_kernel"),
    ("_packed.py", "            comb = 1 << (8 * f)", "            comb = 1 << f",
     "tests/test_factor_pins.py::test_factor_outputs_pinned[adapted-F2-4] "
     "tests/test_packed.py::test_nullspace2_matches_list_kernel"),
    ("_kronecker.py", "            m = field.mul(m, field.from_poly(d))", "            pass",
     "tests/test_kronecker.py::test_rank_rows_with_polynomial_denominators "
     "tests/test_kronecker.py::test_rank_without_integer_form"),
    ("_kronecker.py", "        return r.raw == s.raw or _equal_canonical(field, r, s)",
     "        return r.raw == s.raw",
     "tests/test_kronecker.py::test_raw_brackets_equal_mod_p"),
    ("_kronecker.py", "    av = memo.get(bits)", "    av = next(iter(memo.values()), None)",
     "tests/test_kronecker.py::test_a_memo_holds_at_most_two_widths"),
    ("derivations.py", "        if lhs != rhs:", "        if False:",
     "tests/test_derivations.py::test_verify_sampled_reports_pinned"),
    ("derivations.py", "            x, y = y, x", "            pass",
     "tests/test_derivations.py::test_verify_sampled_reports_pinned"),
    ("derivations.py",
     "            if dz != product_sum(delta(f.y1), f.y2, f.y1, delta(f.y2)):",
     "            if False:",
     "tests/test_derivations.py::test_reconstruct_flags_the_product_rule_at_a_gap_rank"),
    ("solver.py", "        lead = max(row)", "        lead = min(row)",
     "tests/test_solver.py::test_nullspace_matches_dense_kernel "
     "tests/test_solver.py::test_solution_basis_bytes_pinned"),
    ("derivations.py", "            t = fld.gen", "            t = fld.one",
     "tests/test_derivations.py::test_extract_function_field_needs_no_probe"),
    # the generic branch of adapted_factor, which every odd p takes
    ("factor.py",
     "    block = _gen_nullspace(wt, field)[:s] + [[field.zero] * n] * (n - s)",
     "    block = _gen_nullspace(wt, field)[1:s + 1] + [[field.zero] * n] * (n - s)",
     "tests/test_acceptance.py::test_factorization_lemmas_exhaustive_odd_p[F5-2]"),
    # one refusal per module, its condition inverted
    ("cli.py", "    if expected_n is not None and expected_n != obj.n:",
     "    if expected_n is not None and expected_n == obj.n:",
     "tests/test_cli.py::test_cli_refusals"),
    ("derivations.py", "    if any(not 0 <= g <= n for g in garbage):",
     "    if any(0 <= g <= n for g in garbage):",
     "tests/test_derivations.py::test_derivation_refusals"),
    ("factor.py", "    if not 0 <= k <= n:", "    if 0 <= k <= n:",
     "tests/test_factor.py::test_factor_refusals"),
    ("fields.py", "        if len(table) != field.order:", "        if len(table) == field.order:",
     "tests/test_fields.py::test_field_refusals"),
    ("matrix.py", "        if not lines:", "        if lines:",
     "tests/test_matrix.py::test_matrix_refusals"),
    ("solver.py", "    if not (1 <= s and 2 * s <= n):", "    if 1 <= s and 2 * s <= n:",
     "tests/test_solver.py::test_solver_refusals"),
]


def _run(tmp_path, tests, edit=None):
    """The exit status of ``tests`` run against a copy of ``src/`` changed
    by ``edit``, and the run's output."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if edit:
        edit(src)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests.split()],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    return run.returncode, run.stdout[-2000:]


def test_mutated_lines_are_there_once():
    # fast, unlike the mutants: an edit to a mutated line must fail here,
    # not leave its mutant to be found missing only by ``pytest -m slow``
    src = ROOT / "src" / "rankderiv"
    counts = {(path, line): (src / path).read_text().split("\n").count(line)
              for path, line, _, _ in MUTANTS}
    assert {place: c for place, c in counts.items() if c != 1} == {}


def test_mutant_tests_exist():
    # fast too: a deleted or renamed test would otherwise count as a
    # survived mutant, and only under ``pytest -m slow``
    missing = []
    for test in sorted({t for m in MUTANTS for t in m[3].split()}):
        path, _, name = test.partition("::")
        name = name.partition("[")[0]
        text = (ROOT / path).read_text() if (ROOT / path).is_file() else None
        if text is None or name and f"\ndef {name}(" not in text:
            missing.append(test)
    assert missing == []


@pytest.mark.slow
def test_unmutated_copy_passes(tmp_path):
    """The control: the copy itself passes every test the mutants run."""
    # one directory per run: a test id's colons would split PYTHONPATH
    for i, tests in enumerate(sorted({m[3] for m in MUTANTS})):
        status, out = _run(tmp_path / str(i), tests)
        assert status == 0, out


@pytest.mark.slow
@pytest.mark.parametrize("path, line, mutant, tests", MUTANTS,
                         ids=[f"{m[0]}:{m[1].strip()}" for m in MUTANTS])
def test_mutant_is_killed(tmp_path, path, line, mutant, tests):
    def edit(src):
        target = src / "rankderiv" / path
        lines = target.read_text().split("\n")
        assert lines.count(line) == 1, f"{path}: the mutated line is not there exactly once"
        lines[lines.index(line)] = mutant
        target.write_text("\n".join(lines))

    status, out = _run(tmp_path, tests, edit)
    assert status == 1, f"mutant survived:\n{out}"
