import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import linrep
from linrep import cli, matrix, repseq, tiling
from linrep.field import GF2
from linrep.matrix import DenseMatrix, random_invertible
from linrep.repseq import Representation


def _env():
    """PYTHONPATH led by the directory of the linrep these tests imported."""
    src = os.path.dirname(os.path.dirname(linrep.__file__))
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return dict(os.environ, PYTHONPATH=path)


def cli_proc(*args):
    return subprocess.run([sys.executable, "-m", "linrep.cli", *args],
                          capture_output=True, text=True, env=_env())


def run_cli(*args):
    proc = cli_proc(*args)
    return proc.returncode, proc.stdout


def block_rep_file(tmp_path, sizes, seed=0, field=GF2):
    g = np.random.Generator(np.random.Philox(seed))
    n = sum(sizes)
    gens = []
    for _ in range(2):
        data = np.zeros((n, n), dtype=np.uint8)
        off = 0
        for s in sizes:
            data[off:off + s, off:off + s] = random_invertible(field, g, s).data
            off += s
        gens.append(DenseMatrix(field, data))
    rep = Representation(field, gens)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep.to_json()))
    return str(path)


def test_rank_subcommand(tmp_path):
    m = tmp_path / "m.json"
    m.write_text("[[1,1,0],[0,1,1],[1,0,1]]")
    code, out = run_cli("rank", "--matrix", str(m), "--field", "2")
    assert code == 0
    assert json.loads(out) == {"rank": 2, "rows": 3, "cols": 3}


def test_rank_input_error_exit_code(tmp_path):
    code, out = run_cli("rank", "--matrix", str(tmp_path / "missing.json"))
    assert code == 1
    assert json.loads(out)["error"] == "input"


def test_profile_and_atiyah_pipeline(tmp_path):
    code, out = run_cli("profile", "--family", "cyclic", "--k", "2..16",
                        "--element", "g1 - 1", "--field", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 15
    assert lines[0] == "2,2,1,1,2"
    assert lines[-1] == "16,16,15,15,16"

    prof = tmp_path / "prof.csv"
    prof.write_text(out)
    code, rep_out = run_cli("atiyah", "--profile", str(prof),
                            "--window", "8", "--tol", "1/32")
    assert code == 2  # tail of k <= 16 is still 1/16 away from the limit
    report = json.loads(rep_out)
    assert report["integral"] is False and report["nearest_integer"] == 1

    code, out64 = run_cli("profile", "--family", "cyclic", "--k", "2..64",
                          "--element", "g1 - 1", "--field", "2")
    prof64 = tmp_path / "prof64.csv"
    prof64.write_text(out64)
    code, rep_out = run_cli("atiyah", "--profile", str(prof64),
                            "--window", "8", "--tol", "1/32")
    assert code == 0
    assert json.loads(rep_out)["integral"] is True


def test_tile_and_verify_round_trip(tmp_path):
    code, out = run_cli("tile", "--poly", "16", "--field", "2", "--i", "4",
                        "--delta", "1/4", "--seed", "0")
    assert code == 0
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, vout = run_cli("tile-verify", "--poly", "16", "--field", "2",
                         "--cert", str(cert))
    assert code == 0 and json.loads(vout) == {"valid": True}

    # Tamper: inflate the claimed coverage.
    obj = json.loads(out)
    obj["coverage"] += 1
    cert.write_text(json.dumps(obj))
    code, vout = run_cli("tile-verify", "--poly", "16", "--field", "2",
                         "--cert", str(cert))
    assert code == 2 and json.loads(vout) == {"valid": False}


@pytest.fixture(scope="module")
def cert_i2(tmp_path_factory):
    """A certificate made by `tile --poly 8 --i 2 --delta 1/4`."""
    code, out = run_cli("tile", "--poly", "8", "--i", "2", "--delta", "1/4")
    assert code == 0
    path = tmp_path_factory.mktemp("cert") / "cert.json"
    path.write_text(out)
    return str(path)


@pytest.mark.parametrize("extra, want", [
    pytest.param([], 0, id="omitted"),
    pytest.param(["--i", "2", "--delta", "2/8"], 0, id="matching"),
    pytest.param(["--seed", "5", "--budget", "1"], 0, id="seed-budget-ignored"),
    pytest.param(["--i", "3"], 2, id="other-i"),
    pytest.param(["--delta", "1/3"], 2, id="other-delta"),
    pytest.param(["--i", "2", "--delta", "1/2"], 2, id="matching-i-other-delta"),
])
def test_tile_verify_checks_the_asked_i_and_delta(cert_i2, extra, want):
    code, out = run_cli("tile-verify", "--poly", "8", "--cert", cert_i2, *extra)
    assert (code, json.loads(out)) == (want, {"valid": want == 0})


def _coordinate_rows(coords, n=8):
    return json.dumps([[int(j == i) for j in range(n)] for i in coords])


@pytest.fixture(scope="module")
def h_files(tmp_path_factory):
    """H basis files for `--poly 8`: span{e1..e6} twice, the second time by
    another basis, span{e2..e7}, and the full space."""
    root = tmp_path_factory.mktemp("h")
    rows = json.loads(_coordinate_rows(range(6)))
    rows[0] = [1, 1, 0, 0, 0, 0, 0, 0]
    texts = {"h6": _coordinate_rows(range(6)), "h6-other-basis": json.dumps(rows),
             "h6-shifted": _coordinate_rows(range(1, 7)), "full": _coordinate_rows(range(8))}
    for name, text in texts.items():
        (root / f"{name}.json").write_text(text)
    return {name: str(root / f"{name}.json") for name in texts}


@pytest.fixture(scope="module")
def cert_h6(tmp_path_factory, h_files):
    """A certificate made by `tile --poly 8 --i 2 --h span{e1..e6}`."""
    code, out = run_cli("tile", "--poly", "8", "--i", "2", "--h", h_files["h6"])
    assert code == 0
    assert json.loads(out)["h_basis"] == json.loads(_coordinate_rows(range(6)))
    path = tmp_path_factory.mktemp("cert") / "cert.json"
    path.write_text(out)
    return str(path)


@pytest.mark.parametrize("h, want", [
    pytest.param(None, 0, id="omitted"),
    pytest.param("h6", 0, id="same"),
    pytest.param("h6-other-basis", 0, id="same-by-another-basis"),
    pytest.param("h6-shifted", 2, id="other-h"),
    pytest.param("full", 2, id="full-space"),
])
def test_tile_verify_checks_the_certificate_against_its_own_h(cert_h6, h_files, h, want):
    extra = [] if h is None else ["--h", h_files[h]]
    code, out = run_cli("tile-verify", "--poly", "8", "--cert", cert_h6, *extra)
    assert (code, json.loads(out)) == (want, {"valid": want == 0})


def test_tile_verify_rejects_an_h_basis_its_tiles_leave(tmp_path, cert_h6, cert_i2, h_files):
    # A certificate made for the full space is not one for span{e1..e6}.
    code, out = run_cli("tile-verify", "--poly", "8", "--cert", cert_i2, "--h", h_files["h6"])
    assert (code, json.loads(out)) == (2, {"valid": False})
    # H read from the certificate: its tiles must lie in the H it claims.
    with open(cert_h6) as fh:
        obj = json.load(fh)
    obj["h_basis"] = obj["h_basis"][:1]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    code, out = run_cli("tile-verify", "--poly", "8", "--cert", str(path))
    assert (code, json.loads(out)) == (2, {"valid": False})


# sha256 prefixes of the stdout of runs shaped like the benchmark's certify
# jobs, recorded with the tiler and the search that summed Subspaces: `tile
# --poly 32 --i 4 --delta 1/4 --budget 32` with F = span{1, x}, as in the
# benchmark, and F = span{1, x, x^3}, which takes two sampled centers; and
# `hyperfinite-search --epsilon 1/10 --K <largest block> --budget n + 16` on
# block-diagonal representations with random invertible blocks.
_CERTIFY_TILES = {("2", (0, 1)): "91ed04c259075247", ("2", (0, 1, 3)): "701c68965ecdbba4",
                  ("3", (0, 1)): "91ed04c259075247", ("3", (0, 1, 3)): "9c278ab1525e5211",
                  ("2^2", (0, 1)): "91ed04c259075247", ("2^2", (0, 1, 3)): "d3780ee95f0fdb80"}
_CERTIFY_SEARCHES = {"2": ((3, 4, 5, 6) * 5, "9e50ff65d5c9b983"),
                     "3": ((3, 4, 5) * 6, "8135a5b70413f504"),
                     "2^2": ((5, 3) * 9, "ed2cc09f9275700e")}


@pytest.mark.parametrize("field, powers", sorted(_CERTIFY_TILES))
def test_certify_shaped_tile_output_is_pinned(tmp_path, field, powers):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"basis": [[int(j == i) for j in range(32)] for i in powers]}))
    out = io.StringIO()
    assert cli.main(["tile", "--poly", "32", "--field", field, "--i", "4", "--delta", "1/4",
                     "--seed", "5", "--budget", "32", "--f", str(f)], out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == _CERTIFY_TILES[field, powers]


@pytest.mark.parametrize("field", sorted(_CERTIFY_SEARCHES))
def test_certify_shaped_search_output_is_pinned(tmp_path, field):
    sizes, digest = _CERTIFY_SEARCHES[field]
    rep = block_rep_file(tmp_path, sizes, seed=3, field=cli.parse_field(field))
    out = io.StringIO()
    code = cli.main(["hyperfinite-search", "--rep", rep, "--epsilon", "1/10",
                     "--K", str(max(sizes)), "--budget", str(sum(sizes) + 16), "--seed", "7"], out)
    assert code == 0 and json.loads(out.getvalue())["found"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == digest


def test_tile_with_a_non_inverse_finv_answers_a_certificate(tmp_path):
    # finv lists 1 as the inverse of x: the inverse precondition fails, so
    # the coverage bound is not asserted and tile still prints a certificate.
    u, x = ([int(i == j) for j in range(8)] for i in range(2))
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"basis": [u, x], "finv": {"0": u, "1": u}}))
    code, out = run_cli("tile", "--poly", "32", "--imax", "8", "--i", "2", "--delta", "1/4",
                        "--f", str(f))
    assert code == 0 and json.loads(out)["dim_f"] == 2


# sha256 prefix of the stdout of `tile --poly 10 --imax 8 --i 2 --budget 32`
# with F = span{1, x^2}, per field.
_SAMPLED_CENTER_TILES = {"2": "0997fb3d029cd228", "3": "080f740844544b5c",
                         "2^2": "8304d82fcf0de774"}


@pytest.mark.parametrize("field", sorted(_SAMPLED_CENTER_TILES))
def test_tile_accepts_a_sampled_center(tmp_path, field):
    # A_{F,i} is the whole space, with echelon basis 1, x, ..., x^9.  The
    # tiles of 1, x, x^4 and x^5 cover x^0..x^7, the orbits of x^2, x^3, x^6
    # and x^7 meet them, and those of x^8 and x^9 are lines.  So the fifth
    # tile, reaching x^8 and x^9, needs a sampled center.
    u, x2 = ([int(i == j) for j in range(8)] for i in (0, 2))
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"basis": [u, x2]}))
    argv = ["tile", "--poly", "10", "--imax", "8", "--i", "2", "--field", field, "--f", str(f)]
    out = io.StringIO()
    assert cli.main([*argv, "--budget", "32"], out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == _SAMPLED_CENTER_TILES[field]
    cert = json.loads(out.getvalue())
    assert cert["coverage"] == 10 and len(cert["centers"]) == 5
    assert sum(c != 0 for c in cert["centers"][-1]) > 1
    out = io.StringIO()
    assert cli.main([*argv, "--budget", "0"], out) == 0
    assert json.loads(out.getvalue())["centers"] == cert["centers"][:4]


def test_hyperfinite_search_and_check(tmp_path):
    rep = block_rep_file(tmp_path, [3, 4, 3], seed=1)
    code, out = run_cli("hyperfinite-search", "--rep", rep, "--epsilon", "1/10",
                        "--K", "4", "--budget", "500", "--seed", "1")
    assert code == 0
    found = json.loads(out)
    assert found["found"] is True
    wit = tmp_path / "wit.json"
    wit.write_text(json.dumps(found["witness"]))
    code, vout = run_cli("hyperfinite-check", "--rep", rep, "--witness", str(wit))
    assert code == 0 and json.loads(vout) == {"valid": True}

    # Tamper with the tile bound.
    bad = dict(found["witness"])
    bad["K"] = 0
    wit.write_text(json.dumps(bad))
    code, vout = run_cli("hyperfinite-check", "--rep", rep, "--witness", str(wit))
    assert code == 2


def test_hyperfinite_search_budget_exit(tmp_path):
    g = np.random.Generator(np.random.Philox(9))
    rep = Representation(GF2, [random_invertible(GF2, g, 6) for _ in range(2)])
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep.to_json()))
    code, out = run_cli("hyperfinite-search", "--rep", str(path), "--epsilon",
                        "1/100", "--K", "1", "--budget", "10", "--seed", "0")
    assert code == 3
    assert json.loads(out) == {"found": False}


def test_cheeger_and_expander(tmp_path):
    rep = block_rep_file(tmp_path, [1, 3], seed=2)  # planted invariant line
    code, out = run_cli("cheeger", "--rep", rep)
    assert code == 0
    report = json.loads(out)
    assert report["exact"] is True
    assert report["min_ratio"] == {"num": 1, "den": 1}
    code, out = run_cli("expander", "--rep", rep, "--alpha", "1/10")
    assert code == 2  # an invariant line is the opposite of expansion
    code, out = run_cli("cheeger", "--rep", rep, "--trials", "50", "--seed", "3")
    assert code == 0 and json.loads(out)["exact"] is False


def test_cheeger_budget_exit(tmp_path):
    g = np.random.Generator(np.random.Philox(5))
    rep = Representation(GF2, [random_invertible(GF2, g, 12)])
    path = tmp_path / "big.json"
    path.write_text(json.dumps(rep.to_json()))
    code, out = run_cli("cheeger", "--rep", str(path), "--cap", "100")
    assert code == 3
    assert json.loads(out)["error"] == "budget_exceeded"


def test_sofic_check_poly_levels():
    code, out = run_cli("sofic-check", "--poly-levels", "8,16,32,64",
                        "--basis-size", "3", "--field", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["levels"] == [8, 16, 32, 64]
    assert all(r["all_ok"] for r in obj["reports"])
    # The smallest level that holds the products of a basis of size 3.
    code, out = run_cli("sofic-check", "--poly-levels", "5", "--basis-size", "3")
    assert code == 0 and all(r["all_ok"] for r in json.loads(out)["reports"])


def test_folner_subcommand():
    code, out = run_cli("folner", "--field", "2", "--m", "64",
                        "--elements", "[[1,1]]", "--delta", "1/8")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim_V"] == 8 and obj["dim_V1"] == 7


def test_ncrat_eval_and_failure(tmp_path):
    mats = tmp_path / "mats.json"
    mats.write_text("[[[1,1],[0,1]]]")
    code, out = run_cli("ncrat-eval", "--expr", "inv(z1)", "--matrices",
                        str(mats), "--field", "2")
    assert code == 0
    assert json.loads(out) == {"ok": True, "value": [[1, 1], [0, 1]]}

    mats.write_text("[[[0,0],[0,0]]]")
    code, out = run_cli("ncrat-eval", "--expr", "z1 + inv(z1)", "--matrices",
                        str(mats), "--field", "2")
    assert code == 2
    assert json.loads(out) == {"ok": False, "failure_path": [1]}


def test_ncrat_equiv_exit_codes():
    code, _ = run_cli("ncrat-equiv", "--r-expr", "z1+z2", "--s-expr", "z2+z1",
                      "--sizes", "2..3", "--trials", "20", "--seed", "0")
    assert code == 0
    code, out = run_cli("ncrat-equiv", "--r-expr", "z1*z2", "--s-expr", "z2*z1",
                        "--sizes", "2..3", "--trials", "50", "--seed", "0")
    assert code == 2
    assert json.loads(out)["kind"] == "counterexample"
    code, out = run_cli("ncrat-equiv", "--r-expr", "inv(z1 - z1)", "--s-expr",
                        "inv(z1 - z1)", "--sizes", "2", "--trials", "10",
                        "--seed", "0")
    assert code == 3
    assert json.loads(out)["kind"] == "no_common_domain"


def test_ncrat_equiv_ext_deg_defaults_from_field():
    # GF(3^5) is the largest extension of GF(3) within the field size limit.
    code, out = run_cli("ncrat-equiv", "--field", "3", "--r-expr", "z1*z2",
                        "--s-expr", "z1*z2")
    assert code == 0
    assert json.loads(out)["kind"] == "consistent"


@pytest.mark.parametrize("r_expr, s_expr, code, text", [
    # Hua's identity; default sizes 1..4, 50 trials each.
    ("inv(z1) + inv(inv(z2) - z1)", "inv(z1 - z1*z2*z1)", 0,
     '{"common_domain_points":196,"kind":"consistent"}\n'),
    # A commutator over GF(3^5): '-' is that field's negation.
    ("z1*z2 - z2*z1", "0", 2,
     '{"common_domain_points":51,"kind":"counterexample",'
     '"point":[[[230,132],[200,9]],[[9,140],[131,172]]],'
     '"values":[[[137,33],[10,190]],[[0,0],[0,0]]]}\n'),
])
def test_ncrat_equiv_over_gf3_is_pinned(r_expr, s_expr, code, text):
    out = io.StringIO()
    assert cli.main(["ncrat-equiv", "--field", "3", "--r-expr", r_expr, "--s-expr", s_expr],
                    out) == code
    assert out.getvalue() == text


def test_ncrat_eval_failure_path_counts_the_negation_slot(tmp_path):
    mats = tmp_path / "mats.json"
    mats.write_text("[[[1,0],[0,1]], [[0,0],[0,0]]]")
    out = io.StringIO()
    assert cli.main(["ncrat-eval", "--field", "3", "--expr", "z2 - z1*inv(z1 - z1)",
                     "--matrices", str(mats)], out) == 2
    assert out.getvalue() == '{"failure_path":[1,2],"ok":false}\n'


def test_repair_subcommand(tmp_path):
    m = tmp_path / "m.json"
    m.write_text("[[1,1,0],[0,1,1],[1,0,1]]")
    code, out = run_cli("repair", "--matrix", str(m), "--field", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["distance"] == obj["defect"] == 1
    repaired = DenseMatrix.from_json(GF2, obj["repaired"])
    assert repaired.is_invertible()


# Pinned stdout of `profile --family random --r 2 --seed 5 --k 2,3,4,5,6,17`
# for an element with both inverse letters: each k draws its own family
# member, so any change to the draws, the inverses or the ranks shows here.
_RANDOM_PROFILES = {
    "2": "2,2,2,1,1\n3,3,2,2,3\n4,4,3,3,4\n5,5,4,4,5\n6,6,5,5,6\n17,17,16,16,17\n",
    "3": "2,2,2,1,1\n3,3,1,1,3\n4,4,3,3,4\n5,5,5,1,1\n6,6,6,1,1\n17,17,16,16,17\n",
    "2^2": "2,2,2,1,1\n3,3,3,1,1\n4,4,4,1,1\n5,5,5,1,1\n6,6,6,1,1\n17,17,17,1,1\n",
}


@pytest.mark.parametrize("field", sorted(_RANDOM_PROFILES))
def test_random_family_profile_is_pinned(field):
    code, out = run_cli("profile", "--family", "random", "--r", "2", "--seed", "5",
                        "--k", "2,3,4,5,6,17", "--field", field,
                        "--element", "g1^-1*g2 - g2^-1*g1 + g1*g2^-1")
    assert code == 0
    assert out == _RANDOM_PROFILES[field]


@pytest.mark.parametrize("field", ["2", "3", "2^2"])
def test_involution_profile_is_half_and_not_integral(tmp_path, field):
    # g1 swaps 2i and 2i + 1 (fixing the last point of odd k) and g2 = 1, so
    # g1 - 1 has one rank-1 block per 2-cycle: rank floor(k/2) over every
    # field, a limit of 1/2 that atiyah must call non-integral.
    code, out = run_cli("profile", "--family", "involution", "--r", "2", "--k", "2..64",
                        "--element", "g1 - g2", "--field", field)
    assert code == 0
    rows = [tuple(map(int, line.split(","))) for line in out.splitlines()]
    assert [row[:3] for row in rows] == [(k, k, k // 2) for k in range(2, 65)]
    prof = tmp_path / "prof.csv"
    prof.write_text(out)
    code, report = run_cli("atiyah", "--profile", str(prof), "--window", "8", "--tol", "1/32")
    assert code == 2
    report = json.loads(report)
    assert report["integral"] is False
    assert report["limit_estimate"] == {"num": 1, "den": 2}


@pytest.mark.parametrize("field", ["2", "3", "251", "2^2", "2^8"])
def test_cyclic_profile_of_a_cube_shift_at_large_k(field):
    # g1^3 - 1 is S^3 - 1 on Z/k: rank k - gcd(3, k), here up to k = 1,024.
    ks = [510, 511, 512, 513, 1024]
    code, out = run_cli("profile", "--family", "cyclic", "--k", ",".join(map(str, ks)),
                        "--element", "g1*g1*g1 - 1", "--field", field)
    assert code == 0
    ranks = [int(line.split(",")[2]) for line in out.splitlines()]
    assert ranks == [k - math.gcd(3, k) for k in ks]


@pytest.mark.parametrize("field", ["3", "2^2"])
def test_involution_profile_at_large_k(field):
    # g1 - 1 on the involution family has rank floor(k/2) at every k.
    code, out = run_cli("profile", "--family", "involution", "--r", "2", "--k", "1023..1024",
                        "--element", "g1 - 1", "--field", field)
    assert code == 0
    assert out == "1023,1023,511,511,1023\n1024,1024,512,1,2\n"


def test_permutation_profiles_build_no_dense_image(monkeypatch):
    # The cyclic and involution families' words are permutations: profile
    # ranks their images from the word permutations, with no apply_matrix
    # and no matmul_data; the random family's dense words need both.
    calls = []
    for module, name in ((repseq, "apply_matrix"), (repseq, "matmul_data"),
                         (matrix, "matmul_data")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    for family, element in (("cyclic", "2*g1*g1*g2 - 2*g2^-1*g1^-1 + 1"),
                            ("involution", "g1 - g2^-1 + g1*g2*g1")):
        for field in ("2", "3", "2^2"):
            out = io.StringIO()
            argv = ["profile", "--family", family, "--r", "2", "--k", "1..40", "--field", field,
                    "--element", element]
            assert cli.main(argv, out) == cli.EXIT_OK
            assert len(out.getvalue().splitlines()) == 40
    assert calls == []
    assert cli.main(["profile", "--family", "random", "--r", "2", "--k", "3..4",
                     "--element", "g1 - g2"], io.StringIO()) == cli.EXIT_OK
    assert {"apply_matrix", "matmul_data"} <= set(calls)


def test_parse_error_is_input_error():
    code, out = run_cli("profile", "--family", "cyclic", "--k", "2..4",
                        "--element", "g1 **", "--field", "2")
    assert code == 1
    assert json.loads(out)["error"] == "input"


_CERT = {"i": 1, "dim_f": 1, "centers": [], "tiles": [], "h_basis": [], "coverage": 0}
_PROFILE = "2,2,1,1,2\n3,3,2,2,3\n"
_MAP = {"field": {"p": 2}, "phi": [[[1, 0], [0, 1]], [[0, 0], [1, 0]]],
        "mult": [[1, 1, [1, 0]], [1, 2, [0, 1]]]}
_SOFIC = {"field": {"p": 2}, "maps": [_MAP], "s": [{"num": 1, "den": 2}]}
_REP = {"field": {"p": 2}, "generators": [[[1, 0], [0, 1]]]}
_REP_1 = {"field": {"p": 2}, "generators": [[[1]]]}
_WITNESS = {"epsilon": {"num": 1, "den": 2}, "K": 1, "tiles": []}
_CERT_DELTA = dict(_CERT, delta={"num": 1, "den": 4})
# F files on the degree-<8 basis whose rows are linearly dependent.
_E8 = [[int(i == j) for j in range(8)] for i in range(3)]
_F_DEPENDENT = {
    "twice-1": {"basis": [_E8[0], _E8[0]], "finv": {"0": _E8[0], "1": _E8[0]}},
    "1-x-1+x": {"basis": [_E8[0], _E8[1], [1, 1, 0, 0, 0, 0, 0, 0]],
                "finv": {"0": _E8[0], "1": _E8[1], "2": [1, 1, 0, 0, 0, 0, 0, 0]}},
}
_TILE_DEPENDENT = ["--poly", "64", "--imax", "8", "--i", "2", "--delta", "1/4", "--f", "{f}"]
# Cases whose detail text is pinned: it names the missing key or the real bound.
_DETAILS = {
    "sofic-basis-size-3-levels-4": "--basis-size must lie in 2..2 for these --poly-levels",
    "arg-basis-size-1": "--basis-size must lie in 2..4 for these --poly-levels",
    "rep-missing-field": "missing key: field",
    "witness-missing-K": "missing key: K",
    "sofic-mult-missing": "mult table has no entry for (2, 1)",
    "arg-imax-0": "phi needs at least the image of the unit",
    "arg-ext-deg-0": "extension degree 0 must be at least 1",
    "rep-field-p-float": 'expected "p" to be a JSON int',
    **{f"{cmd}-f-{name}": "the F basis is linearly dependent"
       for cmd in ("tile", "verify") for name in _F_DEPENDENT},
    "atiyah-tol-negative": "tolerance -1/32 must be at least 0",
    "arg-k-empty": "range '5..2' is empty",
    "arg-poly-levels-empty": "range '9..4' is empty",
    "arg-sizes-empty": "range '3..1' is empty",
    "arg-trials-0": "trials 0 must be at least 1",
    "arg-trials-negative": "trials -1 must be at least 1",
    "arg-tile-budget-negative": "sample budget -5 must be at least 0",
    "arg-search-budget-negative": "budget -1 must be at least 0",
    "arg-K-0": "K = 0 must be at least 1",
    "arg-K-negative": "K = -1 must be at least 1",
    "arg-cheeger-cap-negative": "cap -1 must be at least 0",
    "arg-expander-cap-negative": "cap -1 must be at least 0",
    "arg-k-repeated": "size 3 is repeated in '3,3'",
    "arg-poly-levels-repeated": "size 8 is repeated in '8,12,8'",
    "arg-sizes-repeated": "size 2 is repeated in '2,1,2'",
    "sofic-no-input": "need --sofic FILE or --poly-levels LIST",
    "arg-k-dashes": "no value given for --k",
    "arg-trials-dashes": "no value given for --trials",
}


@pytest.mark.parametrize("argv, files", [
    pytest.param(["rank", "--matrix", "{m}"], {"m": "[[1, 300]]"}, id="entry-300"),
    pytest.param(["rank", "--matrix", "{m}"], {"m": "[[1, -1]]"}, id="entry-negative"),
    pytest.param(["rank", "--matrix", "{m}"], {"m": '{"rows": [[1]]}'}, id="matrix-object"),
    pytest.param(["tile", "--poly", "8", "--h", "{h}"], {"h": "[[0, 0, 0, 0, 0, 0, 0, 300]]"},
                 id="subspace-entry-300"),
    pytest.param(["tile", "--poly", "8", "--h", "{h}"], {"h": "[[1, 0]]"}, id="subspace-width"),
    pytest.param(["tile-verify", "--poly", "8", "--cert", "{c}"],
                 {"c": json.dumps(dict(_CERT, delta={"num": 1, "den": 4}, centers=[[300] * 8]))},
                 id="center-entry-300"),
    pytest.param(["tile-verify", "--poly", "8", "--cert", "{c}"],
                 {"c": json.dumps(dict(_CERT, delta=5))}, id="delta-int"),
    pytest.param(["tile-verify", "--poly", "8", "--cert", "{c}"],
                 {"c": json.dumps(dict(_CERT, delta={"num": 1, "den": 0}))}, id="delta-den-0"),
    pytest.param(["tile-verify", "--poly", "8", "--cert", "{c}"],
                 {"c": json.dumps(dict(_CERT, delta={"num": "1", "den": 4}))}, id="delta-num-str"),
    pytest.param(["tile", "--poly", "8", "--delta", "1/0"], {}, id="arg-delta-den-0"),
    pytest.param(["profile", "--k", "0..3", "--element", "g1 - 1"], {}, id="arg-k-0"),
    pytest.param(["atiyah", "--profile", "{p}", "--window", "0"], {"p": _PROFILE},
                 id="arg-window-0"),
    pytest.param(["atiyah", "--profile", "{p}", "--window", "-1"], {"p": _PROFILE},
                 id="arg-window-negative"),
    pytest.param(["atiyah", "--profile", "{p}", "--window", "1"], {"p": "3,0,1\n"},
                 id="atiyah-nk-0"),
    pytest.param(["atiyah", "--profile", "{p}", "--window", "1"], {"p": "3,-3,1\n"},
                 id="atiyah-nk-negative"),
    # A negative tolerance: once a verdict with exit 2.
    pytest.param(["atiyah", "--profile", "{p}", "--window", "1", "--tol=-1/32"], {"p": _PROFILE},
                 id="atiyah-tol-negative"),
    pytest.param(["tile", "--map", "{m}"],
                 {"m": json.dumps(dict(_MAP, mult=[[1, 1, [1, 300]]]))}, id="mult-coord-300"),
    pytest.param(["tile", "--map", "{m}"], {"m": json.dumps(dict(_MAP, mult=[5]))},
                 id="mult-entry-int"),
    pytest.param(["tile", "--poly", "4", "--f", "{f}"], {"f": '{"basis": [[1, 0, 0, 300]]}'},
                 id="f-basis-entry-300"),
    pytest.param(["tile", "--poly", "4", "--f", "{f}"],
                 {"f": '{"basis": [[1, 0, 0, 0, 0, 0, 0, 0]]}'}, id="f-basis-width"),
    pytest.param(["sofic-check", "--sofic", "{s}"],
                 {"s": json.dumps(dict(_SOFIC, elements=[[[1, 300], {"num": 1, "den": 2}]]))},
                 id="sofic-element-coord-300"),
    pytest.param(["folner", "--m", "4", "--elements", "[[1,300]]", "--delta", "1/2"], {},
                 id="folner-element-300"),
    pytest.param(["tile", "--poly", "4", "--f", "{f}"], {"f": '{"basis": []}'},
                 id="f-basis-empty"),
    pytest.param(["tile", "--poly", "4", "--f", "{f}"],
                 {"f": '{"basis": [[1, 0, 0, 0]], "finv": [[1, 0, 0, 0]]}'}, id="f-finv-list"),
    pytest.param(["sofic-check", "--sofic", "{s}", "--level", "2"], {"s": json.dumps(_SOFIC)},
                 id="sofic-level-2"),
    pytest.param(["folner", "--m", "4", "--elements", "5", "--delta", "1/2"], {},
                 id="folner-elements-int"),
    pytest.param(["tile", "--poly", "4", "--f", "{f}"], {"f": "[1, 2]"}, id="f-list"),
    pytest.param(["tile", "--map", "{m}"], {"m": "[1, 2]"}, id="map-list"),
    pytest.param(["cheeger", "--rep", "{r}"], {"r": "[1, 2]"}, id="rep-list"),
    pytest.param(["sofic-check", "--sofic", "{s}"], {"s": "[1, 2]"}, id="sofic-list"),
    pytest.param(["tile", "--map", "{m}"], {"m": json.dumps(dict(_MAP, phi=[], mult=[]))},
                 id="map-phi-empty"),
    pytest.param(["tile", "--poly", "8", "--i", "0"], {}, id="arg-i-0"),
    pytest.param(["tile-verify", "--poly", "8", "--cert", "{c}"],
                 {"c": json.dumps(dict(_CERT, i=0, delta={"num": 1, "den": 4}))}, id="cert-i-0"),
    pytest.param(["sofic-check", "--poly-levels", "4", "--basis-size", "0"], {},
                 id="arg-basis-size-0"),
    pytest.param(["sofic-check", "--poly-levels", "4", "--basis-size", "9"], {},
                 id="arg-basis-size-9"),
    pytest.param(["sofic-check", "--poly-levels", "4", "--basis-size", "3"], {},
                 id="sofic-basis-size-3-levels-4"),
    # At one basis element the bound 2d/m is 0, so every exact map fails.
    pytest.param(["sofic-check", "--poly-levels", "8", "--basis-size", "1"], {},
                 id="arg-basis-size-1"),
    pytest.param(["cheeger", "--rep", "{r}"], {"r": json.dumps({"generators": [[[1]]]})},
                 id="rep-missing-field"),
    pytest.param(["hyperfinite-check", "--rep", "{r}", "--witness", "{w}"],
                 {"r": json.dumps(_REP), "w": json.dumps({"epsilon": {"num": 1, "den": 2},
                                                          "tiles": []})},
                 id="witness-missing-K"),
    pytest.param(["sofic-check", "--sofic", "{s}", "--level", "2"],
                 {"s": json.dumps(dict(_SOFIC, maps=[_MAP, _MAP], s=_SOFIC["s"] * 2))},
                 id="sofic-mult-missing"),
    # JSON values of the wrong type, each read by its own decoder.
    pytest.param(["tile", "--map", "{m}"], {"m": json.dumps(dict(_MAP, phi=3))}, id="map-phi-int"),
    pytest.param(["tile", "--map", "{m}"], {"m": json.dumps(dict(_MAP, mult=3))},
                 id="map-mult-int"),
    pytest.param(["tile", "--map", "{m}"], {"m": json.dumps(dict(_MAP, field=[2]))},
                 id="map-field-list"),
    pytest.param(["sofic-check", "--sofic", "{s}"], {"s": json.dumps(dict(_SOFIC, maps=3))},
                 id="sofic-maps-int"),
    pytest.param(["sofic-check", "--sofic", "{s}"],
                 {"s": json.dumps({"field": {"p": 3}, "maps": [[1]], "s": _SOFIC["s"]})},
                 id="sofic-map-list"),
    pytest.param(["sofic-check", "--sofic", "{s}"], {"s": json.dumps(dict(_SOFIC, maps=[True]))},
                 id="sofic-map-bool"),
    pytest.param(["sofic-check", "--sofic", "{s}"], {"s": json.dumps(dict(_SOFIC, s=3))},
                 id="sofic-s-int"),
    pytest.param(["sofic-check", "--sofic", "{s}"], {"s": json.dumps(dict(_SOFIC, elements=4))},
                 id="sofic-elements-int"),
    pytest.param(["hyperfinite-check", "--rep", "{r}", "--witness", "{w}"],
                 {"r": json.dumps(_REP), "w": json.dumps(dict(_WITNESS, tiles=5))},
                 id="witness-tiles-int"),
    pytest.param(["hyperfinite-check", "--rep", "{r}", "--witness", "{w}"],
                 {"r": json.dumps(_REP), "w": json.dumps(dict(_WITNESS, K=[3]))},
                 id="witness-K-list"),
    pytest.param(["tile-verify", "--poly", "8", "--cert", "{c}"],
                 {"c": json.dumps(dict(_CERT_DELTA, tiles=5))}, id="cert-tiles-int"),
    pytest.param(["tile-verify", "--poly", "8", "--cert", "{c}"],
                 {"c": json.dumps(dict(_CERT_DELTA, i=[1]))}, id="cert-i-list"),
    pytest.param(["tile-verify", "--poly", "8", "--cert", "{c}"],
                 {"c": json.dumps(dict(_CERT_DELTA, coverage={}))}, id="cert-coverage-object"),
    pytest.param(["ncrat-eval", "--expr", "z1", "--matrices", "{x}"], {"x": "5"},
                 id="matrices-int"),
    pytest.param(["cheeger", "--rep", "{r}"], {"r": json.dumps(dict(_REP, field=5))},
                 id="rep-field-int"),
    pytest.param(["cheeger", "--rep", "{r}"], {"r": json.dumps(dict(_REP, generators=7))},
                 id="rep-generators-int"),
    # Out-of-range arguments that used to run with another value.
    pytest.param(["tile", "--poly", "8", "--imax", "0"], {}, id="arg-imax-0"),
    pytest.param(["tile-verify", "--poly", "8", "--imax", "0", "--cert", "{c}"],
                 {"c": json.dumps(_CERT_DELTA)}, id="verify-arg-imax-0"),
    pytest.param(["ncrat-equiv", "--r-expr", "z1", "--s-expr", "z1", "--ext-deg", "0"], {},
                 id="arg-ext-deg-0"),
    pytest.param(["ncrat-equiv", "--r-expr", "z1", "--s-expr", "z1", "--ext-deg", "-3"], {},
                 id="arg-ext-deg-negative"),
    # Expansion on GF(q)^1, where no W has 1 <= dim W <= n/2.
    pytest.param(["cheeger", "--rep", "{r}"], {"r": json.dumps(_REP_1)}, id="cheeger-n-1"),
    pytest.param(["expander", "--rep", "{r}", "--alpha", "1/2"], {"r": json.dumps(_REP_1)},
                 id="expander-n-1"),
    pytest.param(["cheeger", "--rep", "{r}", "--trials", "3"], {"r": json.dumps(_REP_1)},
                 id="cheeger-trials-n-1"),
    # A delta outside (0, 1) makes the coverage bound vacuous or unmeetable.
    pytest.param(["tile-verify", "--poly", "8", "--i", "2", "--cert", "{c}"],
                 {"c": json.dumps(dict(_CERT, i=2, delta={"num": 1, "den": 1}))},
                 id="cert-empty-delta-1"),
    pytest.param(["tile-verify", "--poly", "8", "--i", "2", "--cert", "{c}"],
                 {"c": json.dumps(dict(_CERT, i=2, delta={"num": 2, "den": 1}))},
                 id="cert-empty-delta-2"),
    pytest.param(["tile", "--poly", "8", "--delta", "2"], {}, id="arg-delta-2"),
    pytest.param(["tile", "--poly", "8", "--delta", "-1"], {}, id="arg-delta-negative"),
    pytest.param(["tile", "--poly", "8", "--delta", "0"], {}, id="arg-delta-0"),
    # Likewise an epsilon of 1 or more: no tiles at all cover (1 - epsilon) n.
    pytest.param(["hyperfinite-check", "--rep", "{r}", "--witness", "{w}"],
                 {"r": json.dumps(_REP), "w": json.dumps(dict(_WITNESS, epsilon={"num": 1, "den": 1}))},
                 id="witness-epsilon-1"),
    pytest.param(["hyperfinite-check", "--rep", "{r}", "--witness", "{w}"],
                 {"r": json.dumps(_REP), "w": json.dumps(dict(_WITNESS, epsilon={"num": 5, "den": 1}))},
                 id="witness-epsilon-5"),
    pytest.param(["hyperfinite-search", "--rep", "{r}", "--epsilon", "1"], {"r": json.dumps(_REP)},
                 id="arg-epsilon-1"),
    pytest.param(["hyperfinite-search", "--rep", "{r}", "--epsilon", "2"], {"r": json.dumps(_REP)},
                 id="arg-epsilon-2"),
    pytest.param(["tile-verify", "--poly", "8", "--cert", "{c}"],
                 {"c": json.dumps(dict(_CERT_DELTA, partial="no"))}, id="cert-partial-str"),
    pytest.param(["tile-verify", "--poly", "8", "--cert", "{c}"],
                 {"c": json.dumps(dict(_CERT_DELTA, h_basis=3))}, id="cert-h-basis-int"),
    # A dependent F basis: dim F counts its rows, a dimension no orbit reaches.
    *(pytest.param(["tile", *_TILE_DEPENDENT], {"f": json.dumps(f)}, id=f"tile-f-{name}")
      for name, f in _F_DEPENDENT.items()),
    *(pytest.param(["tile-verify", *_TILE_DEPENDENT, "--cert", "{c}"],
                   {"f": json.dumps(f),
                    "c": json.dumps(dict(_CERT_DELTA, i=2, dim_f=len(f["basis"])))},
                   id=f"verify-f-{name}")
      for name, f in _F_DEPENDENT.items()),
    # Field values that FieldSpec.from_json once converted instead of checking.
    *(pytest.param(["cheeger", "--rep", "{r}"], {"r": json.dumps(dict(_REP, field=field))},
                   id=f"rep-field-{name}")
      for name, field in [("p-list", {"p": [2]}), ("deg-list", {"p": 2, "deg": [1]}),
                          ("modulus-int", {"p": 2, "deg": 2, "modulus": 5}),
                          ("p-str", {"p": "2"}), ("p-float", {"p": 2.5}),
                          ("modulus-entry-str", {"p": 2, "deg": 2, "modulus": [1, "1", 1]})]),
    # Empty ranges, which once printed nothing, crashed in min() or read as
    # an expression with no common domain.
    pytest.param(["profile", "--k", "5..2", "--element", "g1 - 1"], {}, id="arg-k-empty"),
    pytest.param(["sofic-check", "--poly-levels", "9..4"], {}, id="arg-poly-levels-empty"),
    pytest.param(["ncrat-equiv", "--r-expr", "z1", "--s-expr", "z1", "--sizes", "3..1"], {},
                 id="arg-sizes-empty"),
    # Counts below their least meaningful value, which once ran without drawing.
    pytest.param(["ncrat-equiv", "--r-expr", "z1", "--s-expr", "z1", "--trials", "0"], {},
                 id="arg-trials-0"),
    pytest.param(["ncrat-equiv", "--r-expr", "z1", "--s-expr", "z1", "--trials", "-1"], {},
                 id="arg-trials-negative"),
    pytest.param(["tile", "--poly", "8", "--budget", "-5"], {}, id="arg-tile-budget-negative"),
    pytest.param(["hyperfinite-search", "--rep", "{r}", "--budget", "-1"],
                 {"r": json.dumps(_REP)}, id="arg-search-budget-negative"),
    # A K below 1 admits no tile: once a scan of the whole budget and exit 3.
    pytest.param(["hyperfinite-search", "--rep", "{r}", "--K", "0"], {"r": json.dumps(_REP)},
                 id="arg-K-0"),
    pytest.param(["hyperfinite-search", "--rep", "{r}", "--K=-1"], {"r": json.dumps(_REP)},
                 id="arg-K-negative"),
    # A negative enumeration cap: once exit 3, "exceeds cap -1".
    pytest.param(["cheeger", "--rep", "{r}", "--cap=-1"], {"r": json.dumps(_REP)},
                 id="arg-cheeger-cap-negative"),
    pytest.param(["expander", "--rep", "{r}", "--alpha", "1/2", "--cap=-1"],
                 {"r": json.dumps(_REP)}, id="arg-expander-cap-negative"),
    # A repeated size: once a repeated profile row or sofic level.
    pytest.param(["profile", "--k", "3,3", "--element", "g1 - 1"], {}, id="arg-k-repeated"),
    pytest.param(["sofic-check", "--poly-levels", "8,12,8"], {}, id="arg-poly-levels-repeated"),
    pytest.param(["ncrat-equiv", "--r-expr", "z1", "--s-expr", "z1", "--sizes", "2,1,2"], {},
                 id="arg-sizes-repeated"),
    # Neither input: once a TypeError traceback from open(None).
    pytest.param(["sofic-check"], {}, id="sofic-no-input"),
    pytest.param(["sofic-check", "--poly-levels="], {}, id="arg-poly-levels-blank"),
    # argparse reads `--opt=--` as no value at all: once an AttributeError or
    # TypeError traceback.
    pytest.param(["profile", "--k=--", "--element", "g1 - 1"], {}, id="arg-k-dashes"),
    pytest.param(["ncrat-equiv", "--r-expr", "z1", "--s-expr", "z1", "--trials=--"], {},
                 id="arg-trials-dashes"),
])
def test_malformed_input_is_a_json_input_error(tmp_path, request, argv, files):
    paths = {}
    for name, text in files.items():
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    proc = cli_proc(*(a.format(**paths) for a in argv))
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "input"
    assert "Traceback" not in proc.stderr
    detail = _DETAILS.get(request.node.callspec.id)
    assert detail is None or json.loads(lines[0])["detail"] == detail


def test_internal_error_is_a_json_internal_error(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("tiling theorem violated")
    monkeypatch.setattr(tiling, "greedy_tiling", broken)
    out = io.StringIO()
    assert cli.main(["tile", "--poly", "8"], out) == cli.EXIT_INTERNAL == 4
    assert json.loads(out.getvalue()) == {"error": "internal", "detail": "tiling theorem violated"}


def test_bad_subcommand_exit():
    code, _ = run_cli("frobnicate")
    assert code == 1


def test_parser_is_built_once_per_process(tmp_path):
    m = tmp_path / "m.json"
    m.write_text("[[1,1],[0,1]]")
    script = f"""
import argparse, io, json
from linrep import cli
made = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    made.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
codes = [cli.main(["rank", "--matrix", {str(m)!r}, "--field", f], io.StringIO())
         for f in ("2", "3", "2^2")]
print(json.dumps([codes, made.count("linrep")]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_env())
    # Subparsers are ArgumentParsers too; "linrep" is the top-level one.
    assert json.loads(proc.stdout or "null") == [[0, 0, 0], 1], proc.stderr


def test_repeated_main_calls_do_not_leak_state(tmp_path, capsys):
    """One process runs the argv list forward and then reversed: a call that
    sets --seed/--budget is followed by one that omits them, and argparse
    errors and --help share the parser.  Each argv gives the same exit
    code and byte-identical stdout in both orders."""
    rep = block_rep_file(tmp_path, [3, 4, 3], seed=1)
    argvs = [
        ["hyperfinite-search", "--rep", rep, "--K", "4", "--budget", "1", "--seed", "5"],
        ["hyperfinite-search", "--rep", rep, "--K", "4"],
        ["cheeger", "--rep", rep, "--trials", "5", "--seed", "3"],
        ["cheeger", "--rep", rep, "--trials", "5"],
        ["frobnicate"],
        ["cheeger", "--trials", "5"],
        ["--help"],
        ["cheeger", "--help"],
    ]

    def run(order):
        seen = {}
        for argv in order:
            out = io.StringIO()
            code = cli.main(list(argv), out)
            seen[tuple(argv)] = (code, out.getvalue() + capsys.readouterr().out)
        return seen

    forward, backward = run(argvs), run(argvs[::-1])
    assert forward == backward
    codes = [forward[tuple(a)][0] for a in argvs]
    assert codes == [3, 0, 0, 0, 1, 1, 0, 0]
    assert forward[tuple(argvs[2])] != forward[tuple(argvs[3])]     # the seed matters
    assert "usage: linrep" in forward[("--help",)][1]
