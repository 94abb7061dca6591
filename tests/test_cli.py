"""CLI behavior: outputs, exit codes, determinism, file round trips."""

import subprocess
import sys

import pytest

from rankderiv import (
    CanonicalDerivation,
    DeltaDomain,
    DeltaMap,
    Matrix,
    derivation_delta,
    make_delta,
    parse_field,
)
from rankderiv.cli import main


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
    ident = DeltaMap.from_function(2, F2, DeltaDomain.full(), lambda m: m)
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


def test_verify_sampled_needs_seed(capsys, ad_e12_full_file):
    code, _, err = run_cli(capsys, "verify", "--delta", ad_e12_full_file,
                           "--s", "1", "--mode", "sampled")
    assert code == 2
    assert "seed" in err


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


def test_extract_function_field_needs_a_probe(capsys, tmp_path):
    # the table of A = 0, mu = 3 d/dt on rank <= 1 matrices the extraction
    # reads; with no probe of nonzero derivative mu is undetermined
    path = tmp_path / "dt3.delta"
    path.write_text("delta n 2 field Q(t) domain rank-leq(1)\n"
                    "1 0 0 0 -> 0 0 0 0\n"
                    "0 1 0 0 -> 0 0 0 0\n"
                    "0 0 1 0 -> 0 0 0 0\n"
                    "0 0 0 1 -> 0 0 0 0\n"
                    "t 0 0 0 -> 3 0 0 0\n")
    code, out, err = run_cli(capsys, "extract", "--delta", str(path), "--s", "1")
    assert code == 2
    assert out == ""
    assert "no probe has a nonzero derivative" in err


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
    delta = DeltaMap.from_text(open(ad_e12_full_file).read())
    z = Matrix(F2, [[1, 1], [0, 0]])
    bad = delta.override(z, delta(z) + Matrix.identity(F2, 2))
    path = tmp_path / "bad.delta"
    path.write_text(bad.to_text())
    code, out, _ = run_cli(capsys, "reconstruct", "--delta", str(path))
    assert code == 1
    assert "failure z=[1 1 0 0] rank=1" in out


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


# -- plumbing ----------------------------------------------------------------------

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
