"""CLI behavior: outputs, exit codes, determinism, file round trips."""

import re
import subprocess
import sys

import pytest

from rankderiv import (
    CanonicalDerivation,
    DeltaDomain,
    DeltaMap,
    FieldDerivation,
    Matrix,
    UsageError,
    apply_derivation,
    derivation_delta,
    make_delta,
    parse_field,
)
from rankderiv.cli import _pm, build_parser, main


F2 = parse_field("F2")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def e11_m4_file(tmp_path):
    path = tmp_path / "y.mat"
    path.write_text(Matrix.unit(F2, 4, 0, 0).to_text())
    return str(path)


@pytest.fixture
def ad_e12_full_file(tmp_path):
    d = CanonicalDerivation(Matrix.unit(F2, 2, 0, 1))
    path = tmp_path / "ad.delta"
    path.write_text(make_delta(d).to_text())
    return str(path)


# -- factor --------------------------------------------------------------------

def test_factor_example(capsys, e11_m4_file):
    code, out, _ = run_cli(capsys, "factor", "--field", "F2", "--n", "4",
                           "--s", "2", "--in", e11_m4_file)
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    y1 = Matrix.from_text(blocks[0])
    y2 = Matrix.from_text(blocks[1])
    assert y1 == Matrix.diag_ones(F2, 4, [0, 1])
    assert y2 == Matrix.diag_ones(F2, 4, [0, 2])


def test_factor_porcelain(capsys, e11_m4_file):
    code, out, _ = run_cli(capsys, "factor", "--s", "2", "--in", e11_m4_file,
                           "--porcelain")
    assert code == 0
    assert out.splitlines() == [
        "s=2",
        "k=1",
        "y1=1,0,0,0;0,1,0,0;0,0,0,0;0,0,0,0",
        "y2=1,0,0,0;0,0,0,0;0,0,1,0;0,0,0,0",
    ]


def test_factor_flag_mismatch(capsys, e11_m4_file):
    code, _, err = run_cli(capsys, "factor", "--field", "F3", "--s", "2",
                           "--in", e11_m4_file)
    assert code == 2
    assert "does not match" in err


def test_factor_precondition_exit_2(capsys, tmp_path):
    path = tmp_path / "inv.mat"
    path.write_text(Matrix.identity(F2, 2).to_text())
    code, _, err = run_cli(capsys, "factor", "--s", "1", "--in", str(path))
    assert code == 2
    assert "exceeds target rank" in err


# -- adapt ---------------------------------------------------------------------

def test_adapt_case_two(capsys, tmp_path):
    xp = tmp_path / "x.mat"
    yp = tmp_path / "y.mat"
    xp.write_text(Matrix.unit(F2, 2, 0, 0).to_text())
    yp.write_text(Matrix.unit(F2, 2, 1, 0).to_text())
    code, out, _ = run_cli(capsys, "adapt", "--x", str(xp), "--y", str(yp),
                           "--s", "1", "--porcelain")
    assert code == 0
    assert out.splitlines() == ["case=case-II", "x1=1,0;0,0", "x2=1,0;0,0"]


# -- rankset / cover / enumerate / count ------------------------------------------

def test_rankset(capsys):
    code, out, _ = run_cli(capsys, "rankset", "--n", "4")
    assert (code, out) == (0, "4 3 1\n")
    code, out, _ = run_cli(capsys, "rankset", "--n", "8", "--porcelain")
    assert (code, out) == (0, "ranks=8,7,5,1\n")


def test_cover(capsys):
    code, out, _ = run_cli(capsys, "cover", "--n", "4", "--k", "2")
    assert (code, out) == (0, "3\n")


def test_enumerate_round_trip(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--field", "F2", "--n", "2",
                           "--k", "2")
    assert code == 0
    blocks = out.strip().split("\n\n")
    matrices = [Matrix.from_text(b) for b in blocks]
    assert len(matrices) == 6
    assert all(m.rank() == 2 for m in matrices)


def test_enumerate_rejects_empty_dimension(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--field", "F2", "--n", "0",
                             "--k", "0")
    assert (code, out) == (2, "")
    assert "n=0" in err


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--field", "F2", "--n", "2", "--k", "1")
    assert (code, out) == (0, "9\n")
    code, out, _ = run_cli(capsys, "count", "--field", "F3", "--n", "2", "--k", "1",
                           "--porcelain")
    assert (code, out) == (0, "count=32\n")


# -- verify --------------------------------------------------------------------

def test_verify_pass(capsys, ad_e12_full_file):
    code, out, _ = run_cli(capsys, "verify", "--delta", ad_e12_full_file,
                           "--s", "1")
    assert code == 0
    assert "pass" in out


def test_verify_identity_map_fails(capsys, tmp_path):
    ident = DeltaMap(2, F2, DeltaDomain.full(), lambda m: m)
    path = tmp_path / "id.delta"
    path.write_text(ident.to_text())
    code, out, _ = run_cli(capsys, "verify", "--delta", str(path), "--s", "1")
    assert code == 1
    assert "violation x=[1 0 0 0] y=[1 0 0 0]" in out
    code, out, _ = run_cli(capsys, "verify", "--delta", str(path), "--s", "1",
                           "--porcelain")
    assert code == 1
    assert "violation=1,0;0,0|1,0;0,0" in out
    assert out.strip().endswith("status=fail")


def test_verify_rejects_duplicate_records(capsys, tmp_path):
    path = tmp_path / "dup.delta"
    path.write_text("delta n 2 field F2 domain rank-leq(1)\n"
                    "0 0 0 0 -> 0 0 0 0\n"
                    "1 0 0 0 -> 0 0 0 0\n"
                    "0 0 0 0 -> 1 1 1 1\n")
    code, out, err = run_cli(capsys, "verify", "--delta", str(path), "--s", "1")
    assert code == 2
    assert out == ""
    assert "duplicate delta table record for [0 0 0 0] on line 4" in err


def test_verify_rejects_incomplete_table(capsys, tmp_path):
    # a solved basis table with one record removed covers 9 of the 10
    # matrices of rank <= 1
    code, out, _ = run_cli(capsys, "solve", "--field", "F2", "--n", "2", "--s", "1")
    assert code == 0
    lines = out.split("\n\n")[1].splitlines()
    del lines[5]
    path = tmp_path / "part.delta"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "verify", "--delta", str(path), "--s", "1")
    assert code == 2
    assert out == ""
    assert "delta table has 9 records, but domain rank-leq(1) over F2 at n=2 has 10 matrices" in err


def test_extract_rejects_unknown_domain_token(capsys, tmp_path):
    path = tmp_path / "token.delta"
    path.write_text("delta n 2 field F3 domain rank-leq(x)\n")
    code, out, err = run_cli(capsys, "extract", "--delta", str(path), "--s", "1")
    assert (code, out, err) == (2, "", "error: unknown domain token 'rank-leq(x)'\n")


def test_verify_sampled_needs_seed(capsys, ad_e12_full_file):
    code, _, err = run_cli(capsys, "verify", "--delta", ad_e12_full_file,
                           "--s", "1", "--mode", "sampled")
    assert code == 2
    assert "seed" in err


def test_sampled_checks_refuse_a_count_below_one(capsys, ad_e12_full_file, tmp_path):
    # a sampled check of no pairs or points checks nothing, so it is no pass
    path = tmp_path / "zero_q.delta"
    path.write_text("delta n 2 field Q domain full\n"
                    "1 0 0 0 -> 0 0 0 0\n"
                    "0 1 0 0 -> 0 0 0 0\n"
                    "0 0 1 0 -> 0 0 0 0\n"
                    "0 0 0 1 -> 0 0 0 0\n")
    for count in ("0", "-5"):
        code, out, err = run_cli(capsys, "verify", "--delta", ad_e12_full_file, "--s", "1",
                                 "--mode", "sampled", "--seed", "1", "--count", count)
        assert (code, out, err) == (
            2, "", f"error: sampled verification needs a count >= 1, got {count}\n")
        code, out, err = run_cli(capsys, "reconstruct", "--delta", str(path),
                                 "--seed", "1", "--count", count)
        assert (code, out, err) == (
            2, "", f"error: sampled reconstruction needs a count >= 1, got {count}\n")


def test_verify_mixed_pairs(capsys, ad_e12_full_file):
    code, out, _ = run_cli(capsys, "verify", "--delta", ad_e12_full_file,
                           "--s", "1", "--pairs", "mixed")
    assert code == 0
    assert "exhaustive-mixed" in out and "pass" in out


# -- extract / extend / reconstruct ----------------------------------------------

def test_extract(capsys, tmp_path):
    d = CanonicalDerivation(Matrix.unit(F2, 2, 0, 1))
    path = tmp_path / "restr.delta"
    path.write_text(derivation_delta(d, DeltaDomain.rank_leq(1)).to_text())
    code, out, _ = run_cli(capsys, "extract", "--delta", str(path), "--s", "1")
    assert code == 0
    assert "n 2 field F2" in out
    assert "mu zero" in out
    code, out, _ = run_cli(capsys, "extract", "--delta", str(path), "--s", "1",
                           "--porcelain")
    assert out.splitlines() == ["A=0,1;0,0", "mu=zero"]


def test_extract_function_field_needs_no_probe(capsys, tmp_path):
    # the table of A = 0, mu = 3 d/dt on rank <= 1 matrices the extraction
    # reads; mu is read off the value at t e_00
    path = tmp_path / "dt3.delta"
    path.write_text("delta n 2 field Q(t) domain rank-leq(1)\n"
                    "1 0 0 0 -> 0 0 0 0\n"
                    "0 1 0 0 -> 0 0 0 0\n"
                    "0 0 1 0 -> 0 0 0 0\n"
                    "0 0 0 1 -> 0 0 0 0\n"
                    "t 0 0 0 -> 3 0 0 0\n")
    code, out, err = run_cli(capsys, "extract", "--delta", str(path), "--s", "1")
    assert (code, out, err) == (0, "n 2 field Q(t)\n0 0\n0 0\nmu dt 3\n", "")


def test_extend(capsys, tmp_path):
    d = CanonicalDerivation(Matrix.unit(F2, 2, 0, 1))
    src = tmp_path / "exact.delta"
    src.write_text(derivation_delta(d, DeltaDomain.rank_exact(1)).to_text())
    dst = tmp_path / "ext.delta"
    code, out, _ = run_cli(capsys, "extend", "--delta", str(src),
                           "--out", str(dst))
    assert code == 0
    assert "consistent" in out
    ext = DeltaMap.from_text(dst.read_text())
    assert ext.domain == DeltaDomain.rank_leq(1)
    assert ext(Matrix.zero(F2, 2)).is_zero()


def test_reconstruct_pass_and_fail(capsys, ad_e12_full_file, tmp_path):
    code, out, _ = run_cli(capsys, "reconstruct", "--delta", ad_e12_full_file)
    assert code == 0
    assert "pass" in out
    # perturb one rank-1 value
    with open(ad_e12_full_file) as fh:
        delta = DeltaMap.from_text(fh.read())
    z = Matrix(F2, [[1, 1], [0, 0]])
    bad = delta.override(z, delta(z) + Matrix.identity(F2, 2))
    path = tmp_path / "bad.delta"
    path.write_text(bad.to_text())
    code, out, _ = run_cli(capsys, "reconstruct", "--delta", str(path))
    assert code == 1
    assert "failure z=[1 1 0 0] rank=1" in out


def test_reconstruct_mode_follows_the_field(capsys, ad_e12_full_file, tmp_path):
    """reconstruct has no --mode: a finite-field table is checked
    exhaustively whatever the seed, and only an infinite-field table, which
    is sampled, needs --seed."""
    code, _, err = run_cli(capsys, "reconstruct", "--delta", ad_e12_full_file,
                           "--mode", "sampled", "--seed", "1")
    assert code == 2
    assert "unrecognized arguments: --mode" in err
    code, out, _ = run_cli(capsys, "reconstruct", "--delta", ad_e12_full_file,
                           "--seed", "1", "--count", "3")
    assert code == 0
    assert "checked 16 matrices" in out
    path = tmp_path / "zero_q.delta"
    path.write_text("delta n 2 field Q domain full\n"
                    "1 0 0 0 -> 0 0 0 0\n"
                    "0 1 0 0 -> 0 0 0 0\n"
                    "0 0 1 0 -> 0 0 0 0\n"
                    "0 0 0 1 -> 0 0 0 0\n")
    code, out, err = run_cli(capsys, "reconstruct", "--delta", str(path))
    assert code == 2
    assert "sampled reconstruction requires a seed" in err


# -- solve ---------------------------------------------------------------------

def test_solve_prints_dimension_and_basis(capsys):
    code, out, _ = run_cli(capsys, "solve", "--field", "F2", "--n", "2", "--s", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dimension 3"
    blocks = out.split("\n\n")
    assert len(blocks) == 4  # dimension line + 3 basis tables
    for block in blocks[1:]:
        DeltaMap.from_text(block)


def test_solve_out_prefix(capsys, tmp_path):
    prefix = str(tmp_path / "basis")
    code, out, _ = run_cli(capsys, "solve", "--field", "F2", "--n", "2",
                           "--s", "1", "--out-prefix", prefix, "--porcelain")
    assert code == 0
    assert out.splitlines()[0] == "dimension=3"
    for i in range(3):
        d = DeltaMap.from_text((tmp_path / f"basis{i}.delta").read_text())
        assert d.domain == DeltaDomain.rank_leq(1)


# -- byte goldens --------------------------------------------------------------------

E12_RANK_LEQ_1 = """\
delta n 2 field F2 domain rank-leq(1)
0 0 0 0 -> 0 0 0 0
0 0 0 1 -> 0 1 0 0
0 0 1 0 -> 1 0 0 1
0 0 1 1 -> 1 1 0 1
0 1 0 0 -> 0 0 0 0
0 1 0 1 -> 0 1 0 0
1 0 0 0 -> 0 1 0 0
1 0 1 0 -> 1 1 0 1
1 1 0 0 -> 0 1 0 0
1 1 1 1 -> 1 0 0 1
"""

# the same table extended from a rank-1 table whose value at e_00 is the
# identity: the two factorizations of the zero matrix disagree
E12_CORRUPTED_RANK_LEQ_1 = """\
delta n 2 field F2 domain rank-leq(1)
0 0 0 0 -> 0 1 0 1
0 0 0 1 -> 0 1 0 0
0 0 1 0 -> 1 0 0 1
0 0 1 1 -> 1 1 0 1
0 1 0 0 -> 0 0 0 0
0 1 0 1 -> 0 1 0 0
1 0 0 0 -> 1 0 0 1
1 0 1 0 -> 1 1 0 1
1 1 0 0 -> 0 1 0 0
1 1 1 1 -> 1 0 0 1
"""


def _dt_truth(spec, rows, c):
    field = parse_field(spec)
    a = Matrix(field, [[field.parse(e) for e in row.split()] for row in rows])
    return CanonicalDerivation(a, FieldDerivation.scaled_dt(field, field.parse(c)))


# derivations with a nonzero c d/dt, whose extraction reads mu off t e_00
DT_TRUTHS = {
    "qt_dt": _dt_truth("Q(t)", ("0 t", "1/2 t+1"), "3"),
    "f3t_dt": _dt_truth("F3(t)", ("0 1", "t 2"), "2*t"),
}


def _dt_table_text(d):
    """The table of d at the matrices extraction reads: each e_ij and t e_00."""
    field = d.field

    def flat(m):
        return " ".join(field.format(e) for row in m.rows for e in row)

    keys = [Matrix.unit(field, 2, i, j) for i in range(2) for j in range(2)]
    keys.append(Matrix.unit(field, 2, 0, 0).scaled(field.gen))
    return (f"delta n 2 field {field.spec()} domain rank-leq(1)\n"
            + "".join(f"{flat(x)} -> {flat(apply_derivation(d, x))}\n" for x in keys))


CLI_GOLDENS = {
    "extend-porcelain": (("extend", "--delta", "{exact}", "--porcelain"), 0,
                         "inconsistent=0\nstatus=pass\n"),
    "extend-stdout": (("extend", "--delta", "{exact}"), 0,
                      "extension consistent\n" + E12_RANK_LEQ_1),
    "extend-inconsistent": (("extend", "--delta", "{bad_exact}"), 1,
                            "inconsistent at [0 0 0 0]\nextension inconsistent\n"
                            + E12_CORRUPTED_RANK_LEQ_1),
    "extend-inconsistent-porcelain": (
        ("extend", "--delta", "{bad_exact}", "--porcelain"), 1,
        "inconsistent=1\ninconsistency=0,0;0,0\nstatus=fail\n"),
    "reconstruct-porcelain-pass": (
        ("reconstruct", "--delta", "{full}", "--porcelain"), 0,
        "A=0,1;0,0\nmu=zero\nchecked=16\nfailures=0\nstatus=pass\n"),
    "reconstruct-porcelain-fail": (
        ("reconstruct", "--delta", "{bad_full}", "--porcelain"), 1,
        "A=0,1;0,0\nmu=zero\nchecked=16\nfailures=1\n"
        "failure=1,1;0,0|rank=1|mismatch\nstatus=fail\n"),
    "adapt": (("adapt", "--x", "{x}", "--y", "{y}", "--s", "1"), 0,
              "case case-II\nn 2 field F2\n1 0\n0 0\n\nn 2 field F2\n1 0\n0 0\n"),
    "enumerate-porcelain": (
        ("enumerate", "--field", "F2", "--n", "2", "--k", "1", "--porcelain"), 0,
        "".join(f"matrix={m}\n" for m in (
            "0,0;0,1", "0,0;1,0", "0,0;1,1", "0,1;0,0", "0,1;0,1", "1,0;0,0",
            "1,0;1,0", "1,1;0,0", "1,1;1,1"))),
    "extract-table-mu": (("extract", "--delta", "{mu_table}", "--s", "1"), 0,
                         "n 2 field F3\n0 1\n0 0\nmu table 0->0 1->0 2->1\n"),
    "extract-table-mu-porcelain": (
        ("extract", "--delta", "{mu_table}", "--s", "1", "--porcelain"), 0,
        "A=0,1;0,0\nmu=table(0->0,1->0,2->1)\n"),
    "extract-qt-dt": (("extract", "--delta", "{qt_dt}", "--s", "1"), 0,
                      "n 2 field Q(t)\n0 t\n1/2 t+1\nmu dt 3\n"),
    "extract-qt-dt-porcelain": (
        ("extract", "--delta", "{qt_dt}", "--s", "1", "--porcelain"), 0,
        "A=0,t;1/2,t+1\nmu=dt(3)\n"),
    "extract-f3t-dt": (("extract", "--delta", "{f3t_dt}", "--s", "1"), 0,
                       "n 2 field F3(t)\n0 1\nt 2\nmu dt 2*t\n"),
    "extract-f3t-dt-porcelain": (
        ("extract", "--delta", "{f3t_dt}", "--s", "1", "--porcelain"), 0,
        "A=0,1;t,2\nmu=dt(2*t)\n"),
    "verify-sampled-mixed": (
        ("verify", "--delta", "{garbage}", "--s", "1", "--mode", "sampled",
         "--pairs", "mixed", "--count", "12", "--seed", "4"), 1,
        "violation x=[0 1 0 1] y=[0 0 1 1]\n"
        "violation x=[1 0 1 0] y=[1 1 0 0]\n"
        "violation x=[1 0 0 0] y=[1 1 0 0]\n"
        "violation x=[1 1 0 0] y=[1 1 1 1]\n"
        "checked 12 pairs (s=1, sampled-mixed(12)): 4 violation(s), fail\n"),
}


@pytest.fixture
def golden_files(tmp_path):
    """The input files of ``CLI_GOLDENS`` by name."""
    F3 = parse_field("F3")
    e12 = CanonicalDerivation(Matrix.unit(F2, 2, 0, 1))
    exact = derivation_delta(e12, DeltaDomain.rank_exact(1))
    full = make_delta(e12)
    z = Matrix(F2, [[1, 1], [0, 0]])
    # the inner derivation of e_01 over F3 with delta(2 e_00) given a (0, 0)
    # entry 1, which extraction reads as mu(2) = 1
    mu_table = derivation_delta(CanonicalDerivation(Matrix.unit(F3, 2, 0, 1)),
                                DeltaDomain.rank_leq(1))
    x2 = Matrix.unit(F3, 2, 0, 0).scaled(2)
    texts = {
        "exact": exact.to_text(),
        "bad_exact": exact.override(Matrix.unit(F2, 2, 0, 0),
                                    Matrix.identity(F2, 2)).to_text(),
        "full": full.to_text(),
        "bad_full": full.override(z, full(z) + Matrix.identity(F2, 2)).to_text(),
        "x": Matrix.unit(F2, 2, 0, 0).to_text(),
        "y": Matrix.unit(F2, 2, 1, 0).to_text(),
        "mu_table": mu_table.override(x2, mu_table(x2) + Matrix.unit(F3, 2, 0, 0)).to_text(),
        "garbage": make_delta(CanonicalDerivation.random(F2, 2, seed=31),
                              garbage_ranks={1}, seed=32).to_text(),
        **{name: _dt_table_text(d) for name, d in DT_TRUTHS.items()},
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("name", CLI_GOLDENS)
def test_cli_output_golden(capsys, golden_files, name):
    argv, want_code, want_out = CLI_GOLDENS[name]
    code, out, err = run_cli(capsys, *[a.format(**golden_files) for a in argv])
    assert (code, out, err) == (want_code, want_out, "")


@pytest.mark.parametrize("name", DT_TRUTHS)
def test_extract_dt_goldens_print_the_truth(name):
    d = DT_TRUTHS[name]
    golden = "extract-" + name.replace("_", "-")
    assert CLI_GOLDENS[golden][2] == d.A.to_text() + f"mu {d.mu.describe()}\n"
    assert CLI_GOLDENS[golden + "-porcelain"][2] == (
        f"A={_pm(d.A)}\nmu=dt({d.field.format(d.mu.scale)})\n")


# -- plumbing ----------------------------------------------------------------------

# every refusal of the CLI's own: the arguments, with {y} the file of e_00 in
# M_4(F_2), the exception class and the message as it stands
CLI_REFUSALS = {
    "field-mismatch": (("factor", "--field", "F3", "--s", "2", "--in", "{y}"), UsageError,
                       r"--field F3 does not match file field F2"),
    "n-mismatch": (("factor", "--n", "3", "--s", "2", "--in", "{y}"), UsageError,
                   r"--n 3 does not match file dimension 4"),
    "n-zero": (("factor", "--n", "0", "--s", "2", "--in", "{y}"), UsageError,
               r"--n 0 does not match file dimension 4"),
    "field-empty": (("factor", "--field", "", "--s", "2", "--in", "{y}"), UsageError,
                    r"cannot parse field spec ''"),
    "sampled-without-seed": (("verify", "--delta", "{y}", "--s", "1", "--mode", "sampled"),
                             UsageError, r"sampled mode requires --seed"),
    "sampled-count-zero": (("verify", "--delta", "{y}", "--s", "1", "--mode", "sampled",
                            "--seed", "1", "--count", "0"),
                           UsageError, r"sampled verification needs a count >= 1, got 0"),
    # refused before the solution space is computed or the table is read
    "solve-out-dir": (("solve", "--field", "F2", "--n", "2", "--s", "1",
                       "--out-prefix", "/nonexistent/dir/b"),
                      UsageError, r"--out-prefix directory /nonexistent/dir does not exist"),
    "extend-out-dir": (("extend", "--delta", "{y}", "--out", "/nonexistent/dir/e.delta"),
                       UsageError, r"--out directory /nonexistent/dir does not exist"),
}


@pytest.mark.parametrize("name", CLI_REFUSALS)
def test_cli_refusals(capsys, e11_m4_file, name):
    """``main`` prints the refusal and exits 2; its handler raises it."""
    argv, cls, message = CLI_REFUSALS[name]
    argv = [a.format(y=e11_m4_file) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(f"error: {message}\n", err)
    args = build_parser().parse_args(argv)
    with pytest.raises(cls, match=f"^{message}$") as exc:
        args.handler(args)
    assert type(exc.value) is cls


def test_identical_invocations_identical_bytes(capsys, ad_e12_full_file):
    runs = [run_cli(capsys, "verify", "--delta", ad_e12_full_file, "--s", "1")
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_unknown_subcommand_exit_2(capsys):
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--delta", "/nonexistent.delta",
                           "--s", "1")
    assert code == 2
    assert "error:" in err


def test_count_is_refused_before_the_file_is_read(capsys):
    code, out, err = run_cli(capsys, "verify", "--delta", "/nonexistent.delta", "--s", "1",
                             "--mode", "sampled", "--seed", "1", "--count", "0")
    assert (code, out) == (2, "")
    assert err == "error: sampled verification needs a count >= 1, got 0\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rankderiv", "rankset", "--n", "8"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "8 7 5 1\n"


def test_sampled_output_stable_across_processes(ad_e12_full_file):
    """Seeded sampling must not depend on per-process hash randomization."""
    argv = [sys.executable, "-m", "rankderiv", "verify",
            "--delta", ad_e12_full_file, "--s", "1",
            "--mode", "sampled", "--count", "20", "--seed", "5"]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=60)
            for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert "pass" in runs[0].stdout
