"""Command line behavior: outputs, JSON shapes, exit codes."""

import json
import time
from pathlib import Path

import pytest

from hopfore import cli, errors, greenring, groups


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_algebra_summary(capsys):
    code, out, _ = run(capsys, ["algebra", "dihedral", "--m", "3"])
    assert code == 0
    assert "q = -1, s = 2, fusion ready: yes" in out
    assert "eps->chi" in out
    assert "orbit representatives: eps, lam, 1" in out


def test_algebra_json(capsys):
    code, out, _ = run(capsys, ["algebra", "dihedral", "--m", "5", "--json"])
    assert code == 0
    info = json.loads(out)
    assert info["s"] == 2
    assert info["fusion_ready"] is True
    assert info["sigma"]["1"] == "4"
    assert len(info["simples"]) == 8


def test_tensor_both_agrees(capsys):
    code, out, _ = run(capsys, ["tensor", "--left", "V[2](eps)", "--right",
                                "V[3](eps)", "--method", "both"])
    assert code == 0
    assert "closed: V[4](eps) + V[2](chi)" in out
    assert "matrix: V[4](eps) + V[2](chi)" in out
    assert "agree: true" in out


def test_tensor_json(capsys):
    code, out, _ = run(capsys, ["tensor", "--left", "w[1]", "--right", "w[-1]",
                                "--method", "both", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["dim"] == 4
    assert data["closed"] == data["matrix"]
    assert {d["label"] for d in data["closed"]} == {"V[2](eps)", "V[2](chi)"}


def test_tensor_closed_only(capsys):
    code, out, _ = run(capsys, ["tensor", "--left", "x", "--right", "x"])
    assert code == 0
    assert out.strip() == "closed: V[1](eps) + V[1](lam) + V[1](2)"


def test_tensor_disagreement_exits_1(capsys, monkeypatch):
    from collections import Counter

    monkeypatch.setattr(cli, "tensor_labels",
                        lambda alg, a, b: Counter({a: 1}))
    code, out, _ = run(capsys, ["tensor", "--left", "x", "--right", "x",
                                "--method", "both"])
    assert code == 1
    assert "agree: false" in out


def test_ring_mul_groth_canonical(capsys):
    code, out, _ = run(capsys, ["ring", "mul", "--ring", "groth",
                                "--expr", "x*x", "--basis", "canonical"])
    assert code == 0
    assert out.strip() == "1 + lam + V[1](2)"


def test_ring_mul_green(capsys):
    code, out, _ = run(capsys, ["ring", "mul", "--ring", "green",
                                "--expr", "y*z - chi*y"])
    assert code == 0
    assert out.strip() == "V[4](eps)"


def test_ring_mul_x1_basis(capsys):
    code, out, _ = run(capsys, ["ring", "mul", "--ring", "groth", "--m", "5",
                                "--expr", "V[1](3)", "--basis", "x1"])
    assert code == 0
    assert out.strip() == "x^3 - 3*x"


def test_ring_mul_x1_basis_json(capsys):
    # terms are [degree, character, coefficient]: degree descending, then
    # character name ascending
    expected = {
        "V[1](4)": ("x^4 - 4*x^2 + 1 + lam",
                    [[4, "eps", 1], [2, "eps", -4], [0, "eps", 1], [0, "lam", 1]]),
        "x^7": ("22*x^3 - 31*x + 7*chi + 7*lamchi",
                [[3, "eps", 22], [1, "eps", -31], [0, "chi", 7], [0, "lamchi", 7]]),
    }
    for expr, (result, terms) in expected.items():
        code, out, _ = run(capsys, ["ring", "mul", "--ring", "groth", "--m", "5",
                                    "--expr", expr, "--basis", "x1", "--json"])
        assert code == 0
        assert json.loads(out) == {"ring": "groth", "basis": "x1", "expr": expr,
                                   "result": result, "terms": terms}


def test_ring_mul_x2_basis(capsys):
    code, out, _ = run(capsys, ["ring", "mul", "--ring", "groth",
                                "--expr", "x^2", "--basis", "x2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["result"] == "1 + lam + chi*x"
    assert data["terms"] == [["1", 1], ["lam", 1], ["chi*x", 1]]


def test_ring_mul_exponent_limit(capsys):
    from hopfore.greenring import MAX_EXPONENT

    code, _, err = run(capsys, ["ring", "mul", "--ring", "groth",
                                "--expr", f"x^{MAX_EXPONENT + 1}"])
    assert code == 2
    assert "limit" in err


# Inputs whose work or printed size would be unbounded; each is refused
# with exit 2 before the costly step runs.
UNBOUNDED = {
    "long integer": ["ring", "mul", "--ring", "green", "--expr", "7" * 5000],
    "huge beta": ["tensor", "--left", "V[1](eps;2^100000)", "--right", "V[1](eps)"],
    "nested beta": ["tensor", "--left", "V[1](eps;((10^999)^999)^999)",
                    "--right", "V[1](eps)"],
    "nested betas": ["verify", "presentation", "--betas", "1,((10^999)^999)^999"],
    "power of a sum": ["ring", "mul", "--ring", "green",
                       "--expr", "(V[1](2;2)+V[2](2;-1)+z)^16"],
    "long power of a sum": ["ring", "mul", "--ring", "green",
                            "--expr", "(x+y+V[3](lam))^64"],
    "nested coefficient": ["ring", "mul", "--ring", "groth", "--expr", "(2^1000)^1000"],
}


@pytest.mark.parametrize("case", sorted(UNBOUNDED))
def test_unbounded_inputs_exit_2(capsys, case):
    code, out, err = run(capsys, UNBOUNDED[case])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and ("limit" in err or "digits" in err), err
    assert "Traceback" not in err


def test_long_labels_refused_before_any_work(capsys, monkeypatch):
    # the label limit is read while parsing, so neither route starts; the
    # routes are patched to fail, so a lost limit fails fast, not hangs
    def refuse(*args):
        raise AssertionError("a route ran on a label above the limit")

    monkeypatch.setattr(cli, "build_module", refuse)
    monkeypatch.setattr(cli, "tensor_labels", refuse)
    monkeypatch.setattr(greenring, "tensor_labels", refuse)
    for argv in (["ring", "mul", "--ring", "green",
                  "--expr", "V[99999999999](eps)*V[99999999999](eps)"],
                 ["tensor", "--left", "V[100000](eps)", "--right", "x",
                  "--method", "matrix"]):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "above the limit" in err, err
        assert "Traceback" not in err


def test_large_products_refused_before_any_work(capsys, monkeypatch):
    # the product's dimension is checked before either route starts, and
    # grid labels, which skip the parser's label limit, are checked too;
    # the routes are patched to fail, so a lost limit fails fast, not hangs
    class RouteRan(Exception):
        pass

    def refuse(*args):
        raise RouteRan

    for name in ("build_module", "tensor_labels", "run_grid"):
        monkeypatch.setattr(cli, name, refuse)
    assert cli.MAX_TENSOR_DIM == 1024
    product, grid = "the tensor product", "the grid's largest tensor product"
    for argv, what, dim in (
            (["tensor", "--left", "V[100](eps)", "--right", "V[100](lam)",
              "--method", "matrix"], product, 10000),
            (["tensor", "--left", "V[50](2;3)", "--right", "V[50](1;2)",
              "--method", "both"], product, 40000),
            (["tensor", "--left", "V[33](eps)", "--right", "V[16](1)",
              "--method", "matrix"], product, 1056),
            (["verify", "fusion", "--m", "3", "--tmax", "300", "--teig", "0"],
             grid, 360000),
            (["verify", "fusion", "--m", "3", "--tmax", "17", "--teig", "0"],
             grid, 1156),
            (["verify", "fusion", "--m", "3", "--tmax", "1", "--teig", "9"],
             grid, 1296)):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: {what} has dimension {dim}, above the limit 1024\n"
    # a grid within the dimension limit is refused on its pair count, and
    # the dimension is checked first
    assert cli.MAX_GRID_PAIRS == 10000
    for argv, err_want in (
            (["verify", "fusion", "--m", "3", "--tmax", "16", "--teig", "8"],
             "error: the grid has 36864 ordered pairs, above the limit 10000\n"),
            (["verify", "fusion", "--m", "3", "--tmax", "34", "--teig", "0"],
             "error: the grid's largest tensor product has dimension 4624, "
             "above the limit 1024\n")):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", err_want)
    # at the limits, and on the closed route alone, the work starts: the
    # m = 3 grid of 48 Nil labels has 2304 pairs of up to 1024 dimensions,
    # the full m = 7 grid 4900 pairs
    for argv in (["tensor", "--left", "V[32](eps)", "--right", "V[16](1)",
                  "--method", "both"],
                 ["tensor", "--left", "V[100](eps)", "--right", "V[100](lam)"],
                 ["verify", "fusion", "--m", "3", "--tmax", "16", "--teig", "0"],
                 ["verify", "fusion", "--m", "7"]):
        with pytest.raises(RouteRan):
            cli.main(argv)


def test_ring_mul_green_power_basis_rejected(capsys):
    code, _, err = run(capsys, ["ring", "mul", "--ring", "green",
                                "--expr", "x", "--basis", "x1"])
    assert code == 2
    assert "groth" in err


def test_ring_mul_power_basis_names_the_label(capsys):
    # a non-group label is named by its text, for both power bases
    for basis, which in (("x1", "power"), ("x2", "halved")):
        code, out, err = run(capsys, ["ring", "mul", "--ring", "groth",
                                      "--expr", "V[1](eps;1)", "--basis", basis])
        assert code == 2 and out == ""
        assert err == (f"error: V[1](eps;1) is not a group simple; the {which} "
                       "basis covers only the group-ring part\n")


def test_ring_mul_bad_expr(capsys):
    code, _, err = run(capsys, ["ring", "mul", "--ring", "green",
                                "--expr", "x + "])
    assert code == 2
    assert "error" in err


def test_ring_mul_corpus(capsys):
    # recorded `ring mul` runs at m = 3: ten expressions in both rings, every
    # basis, text and --json, then four syntax errors and an unknown label,
    # each with its exact stdout, stderr and exit code
    corpus = Path(__file__).parent / "data" / "ring_mul_corpus.json"
    for case in json.loads(corpus.read_text()):
        code, out, err = run(capsys, case["argv"])
        assert (case["argv"], code, out, err) == (
            case["argv"], case["code"], case["stdout"], case["stderr"])


def test_golden_cli_corpus(capsys):
    # recorded runs that reach the Grothendieck ring: `verify presentation
    # --json` for every suite at m = 3, 5, 7; `ring mul --ring groth` on 15
    # expressions at m = 5 and 7, every basis, text and --json, with the
    # free-part refusals; and `--expr y[1] --basis x1` at m = 3, 5, 7
    corpus = Path(__file__).parent / "data" / "cli_golden_corpus.json"
    for case in json.loads(corpus.read_text()):
        code, out, err = run(capsys, case["argv"])
        assert (case["argv"], code, out, err) == (
            case["argv"], case["code"], case["stdout"], case["stderr"])


def test_zero_beta_guidance(capsys):
    code, _, err = run(capsys, ["tensor", "--left", "V[2](eps;0)",
                                "--right", "x"])
    assert code == 2
    assert "V[4](eps)" in err


def test_verify_fusion_small(capsys):
    code, out, _ = run(capsys, ["verify", "fusion", "--m", "3", "--tmax", "1",
                                "--teig", "1", "--betas", "1"])
    assert code == 0
    lines = dict(l.split("\t") for l in out.strip().splitlines())
    assert lines["labels"] == "9"
    assert lines["pairs"] == "81"
    assert lines["mismatches"] == "0"
    assert lines["ok"] == "true"


def test_verify_fusion_json(capsys):
    code, out, _ = run(capsys, ["verify", "fusion", "--m", "3", "--tmax", "1",
                                "--teig", "1", "--betas", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["pairs"] == data["labels"] ** 2


def test_verify_fusion_repeated_betas_counted_once(capsys):
    # Equal betas name one Eig label; listing it twice must not re-check
    # its pairs or count them twice.
    for betas in ("1,1", "2,4/2"):
        code, out, _ = run(capsys, ["verify", "fusion", "--m", "3", "--tmax", "1",
                                    "--betas", betas])
        assert code == 0
        lines = dict(l.split("\t") for l in out.strip().splitlines())
        assert (betas, lines["labels"], lines["pairs"]) == (betas, "9", "81")
        assert lines["ok"] == "true"


def test_verify_presentation(capsys):
    code, out, _ = run(capsys, ["verify", "presentation", "--m", "3",
                                "--betas", "1,-1,2", "--tmax", "4"])
    assert code == 0
    lines = dict(l.split("\t") for l in out.strip().splitlines())
    assert lines["failed"] == "0"
    assert lines["ok"] == "true"


def test_verify_presentation_suite_json(capsys):
    code, out, _ = run(capsys, ["verify", "presentation", "--m", "5",
                                "--suite", "groth_kDn", "--betas", "1",
                                "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "groth_kDn"
    assert data["failed"] == 0
    assert all(e["status"] == "pass" for e in data["entries"])


def test_module_export_and_reimport(tmp_path, capsys):
    out_file = tmp_path / "mod.json"
    code, out, _ = run(capsys, ["module", "export", "--label", "V[2](1;1/2)",
                                "--out", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["dim"] == 8
    from hopfore.cyclotomic import Rational
    from hopfore.grid import build_module
    from hopfore.groups import dihedral_algebra
    from hopfore.labels import EIG, canonicalize

    # the written literals are those of the module the label names
    alg = dihedral_algebra(3)
    mod = build_module(alg, canonicalize(alg, EIG, 2, 1, Rational(1, 2)))
    assert data["algebra"] == alg.descriptor
    assert data["gen_actions"] == [m.to_literals() for m in mod.gen_actions]
    assert data["x_action"] == mod.x_action.to_literals()
    assert data["provenance"] == ["1/2"]


def test_module_export_stdout(capsys):
    code, out, _ = run(capsys, ["module", "export", "--label", "y",
                                "--out", "-"])
    assert code == 0
    assert json.loads(out)["dim"] == 2


def test_module_export_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing" / "mod.json"
    code, out, err = run(capsys, ["module", "export", "--label", "y",
                                  "--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err
    assert not target.exists()


def test_custom_algebra_file(tmp_path, capsys, c4):
    desc = tmp_path / "alg.json"
    desc.write_text(json.dumps(c4.descriptor))
    code, out, _ = run(capsys, ["tensor", "--algebra", str(desc),
                                "--left", "V[10](c1)", "--right", "V[7](c2)"])
    assert code == 0
    assert "V[16](c3)" in out and "V[10](c2)" in out


def test_ring_mul_custom_unit(tmp_path, capsys, c4_reordered):
    # the trivial simple c0 is listed second: integers are multiples of it
    desc = tmp_path / "alg.json"
    desc.write_text(json.dumps(c4_reordered))
    for ring, expr, want in (("groth", "2*V[1](c2)", "2*c2"),
                             ("groth", "1*V[1](c2)", "c2"),
                             ("groth", "V[1](c1)*V[1](c3)", "1"),
                             ("green", "2*V[1](c2)", "2*V[1](c2)")):
        code, out, err = run(capsys, ["ring", "mul", "--algebra", str(desc),
                                      "--ring", ring, "--expr", expr])
        assert (expr, code, out, err) == (expr, 0, want + "\n", "")


def test_power_bases_need_a_dihedral_algebra(tmp_path, capsys, c4):
    desc = tmp_path / "alg.json"
    desc.write_text(json.dumps(c4.descriptor))
    alg = ["--algebra", str(desc)]
    for argv in (["ring", "mul", *alg, "--ring", "groth", "--expr", "V[1](c1)",
                  "--basis", "x1"],
                 ["ring", "mul", *alg, "--ring", "groth", "--expr", "V[1](c1)",
                  "--basis", "x2"],
                 ["verify", "presentation", *alg]):
        code, out, err = run(capsys, argv)
        assert (argv, code, out) == (argv, 2, "")
        assert err == "error: polynomial bases exist for the dihedral family\n"


def test_power_basis_solve_failure_exits_1(capsys, monkeypatch):
    from hopfore import greenring

    real = greenring._x1_basis

    def dependent(alg, powers=None):
        basis = real(alg, powers)
        return basis[:-1] + [("lamchi", basis[0][1])]

    monkeypatch.setattr(greenring, "_x1_basis", dependent)
    for argv in (["verify", "presentation", "--m", "5"],
                 ["ring", "mul", "--ring", "groth", "--expr", "x", "--basis", "x1"]):
        code, out, err = run(capsys, argv)
        assert (argv, code, out) == (argv, 1, "")
        assert err == "inconsistency: requested basis is linearly dependent\n"


def _c4_descriptor(**changes):
    from conftest import cyclic_algebra

    desc = dict(cyclic_algebra(4, 1).descriptor)
    desc.update(changes)
    return desc


# One case per way a descriptor can be malformed; None means no file.
BAD_ALGEBRA_FILES = {
    "missing-file": None,
    "bad-json": "{not json",
    "missing-key": json.dumps({"kind": "custom", "field_order": 2}),
    "non-integer-m": json.dumps({"kind": "dihedral", "m": "abc"}),
    "json-list": json.dumps([{"kind": "dihedral", "m": 3}]),
    "unknown-kind": json.dumps({"kind": "quaternion"}),
    "int-mul-table": json.dumps(_c4_descriptor(mul_table=4)),
    "ragged-matrix": json.dumps(_c4_descriptor(simples=[
        {"label": "c0", "matrices": [[["1", "0"], ["0"]]]}])),
}


def test_bad_algebra_file(tmp_path, capsys):
    for case, content in BAD_ALGEBRA_FILES.items():
        path = tmp_path / f"{case}.json"
        if content is not None:
            path.write_text(content)
        code, _, err = run(capsys, ["tensor", "--algebra", str(path),
                                    "--left", "x", "--right", "x"])
        assert (case, code) == (case, 2)
        assert err.startswith("error: "), case
        assert "Traceback" not in err, case


def test_non_integer_descriptor_fields_exit_2(tmp_path, capsys):
    # a float, a numeric string or a bool is refused, not truncated or read
    # as an index
    cases = {
        "float-m": ({"kind": "dihedral", "m": 3.9}, "m must be an odd integer >= 3, got 3.9"),
        "string-m": ({"kind": "dihedral", "m": "3"}, "m must be an odd integer >= 3, got '3'"),
        "float-central": (_c4_descriptor(central=1.5),
                          "descriptor central must be an integer, got 1.5"),
        "bool-central": (_c4_descriptor(central=True),
                         "descriptor central must be an integer, got True"),
        "float-field-order": (_c4_descriptor(field_order=4.0),
                              "descriptor field_order must be an integer, got 4.0"),
    }
    for case, (desc, message) in cases.items():
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(desc))
        code, out, err = run(capsys, ["tensor", "--algebra", str(path),
                                      "--left", "x", "--right", "x"])
        assert (case, code, out, err) == (case, 2, "", f"error: {message}\n")


def test_large_m_refused_before_any_table(tmp_path, capsys, monkeypatch):
    # every entry point reaches dihedral_algebra, which refuses an m above
    # the limit before it builds a table; building is patched to fail, so a
    # lost limit fails fast instead of building a large algebra
    class Built(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Built

    monkeypatch.setattr(groups, "GroupData", refuse)
    limit = groups.MAX_DIHEDRAL_M
    for m in (limit + 2, 1001):
        path = tmp_path / f"dihedral-{m}.json"
        path.write_text(json.dumps({"kind": "dihedral", "m": m}))
        for argv in (["algebra", "dihedral", "--m", str(m)],
                     ["tensor", "--m", str(m), "--left", "x", "--right", "x"],
                     ["tensor", "--algebra", str(path), "--left", "x", "--right", "x"]):
            start = time.perf_counter()
            code, out, err = run(capsys, argv)
            assert time.perf_counter() - start < 1
            assert (argv, code, out) == (argv, 2, "")
            assert err == f"error: m = {m} is above the limit {limit}\n"
    # at the limit the build starts
    with pytest.raises(Built):
        cli.main(["algebra", "dihedral", "--m", str(limit)])


def _concrete_errors():
    return [cls for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.HopfOreError)
            and cls not in (errors.HopfOreError, errors.UsageError, errors.MathError)]


def test_every_error_has_one_exit_code_base():
    classes = _concrete_errors()
    assert len(classes) == 17
    for cls in classes:
        bases = [b for b in (errors.UsageError, errors.MathError) if issubclass(cls, b)]
        assert len(bases) == 1, cls


@pytest.mark.parametrize("cls", _concrete_errors(), ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_base(capsys, monkeypatch, cls):
    exc = cls("boom", 3) if cls is errors.ExprSyntaxError else cls("boom")

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_tensor", fail)
    code, out, err = run(capsys, ["tensor", "--left", "x", "--right", "x"])
    assert out == ""
    if issubclass(cls, errors.UsageError):
        assert (code, err) == (2, f"error: {exc}\n")
    else:
        assert (code, err) == (1, f"inconsistency: {exc}\n")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tensor", "--left", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_vacuous_verification_rejected(capsys):
    # An empty label grid, or a negative t_max, would check nothing (or
    # silently drop checks) and still report ok; both are usage errors.
    for argv in (["verify", "fusion", "--tmax", "0"],
                 ["verify", "fusion", "--tmax", "0", "--teig", "1", "--betas", ""],
                 ["verify", "presentation", "--tmax", "-2"]):
        code, out, err = run(capsys, argv)
        assert (argv, code) == (argv, 2)
        assert out == "", argv
        assert err.startswith("error: "), argv
        assert "Traceback" not in err, argv


# One case per way a label can be malformed.
BAD_LABELS = {
    "zero-length": "V[0](eps)",
    "unknown-simple": "V[2](foo)",
    "unclosed": "V[1](eps",
    "zero-beta": "V[1](1;0)",
    "empty": "",
    "integer": "3",
    "parenthesized-sum": "(x+y)",
}


def test_bad_labels_exit_2(capsys):
    for case, label in BAD_LABELS.items():
        for argv in (["tensor", "--left", label, "--right", "x"],
                     ["tensor", "--left", "x", "--right", label, "--method", "both"],
                     ["module", "export", "--label", label, "--out", "-"]):
            code, _, err = run(capsys, argv)
            assert (case, argv, code) == (case, argv, 2)
            assert err.startswith("error: "), (case, argv)
            assert "Traceback" not in err, (case, argv)
