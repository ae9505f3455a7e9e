import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardymodel
from hardymodel.checks import REGISTRY, GeneratorParams
from hardymodel.cli import load_scenario, main, run_scenario
from hardymodel.errors import NotInner, ScenarioError, UnknownCheck

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def write_scenario(tmp_path, payload, name="s.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


BASE = {
    "schema": 1,
    "name": "tiny",
    "seed": 7,
    "regime": "matrix",
    "generator": {"instances": 2, "truncation_degree": 18, "radius_cap": 0.6},
    "checks": ["tuple-validation", "mobius-involution"],
}


class TestLoadScenario:
    def test_roundtrip(self, tmp_path):
        s = load_scenario(write_scenario(tmp_path, BASE))
        assert s.name == "tiny" and s.seed == 7
        assert [c.name for c in s.checks] == ["tuple-validation", "mobius-involution"]

    def test_missing_schema(self, tmp_path):
        bad = dict(BASE)
        del bad["schema"]
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, bad))

    def test_unknown_check(self, tmp_path):
        bad = dict(BASE)
        bad["checks"] = ["frobnicate"]
        with pytest.raises(UnknownCheck):
            load_scenario(write_scenario(tmp_path, bad))

    def test_unknown_generator_field(self, tmp_path):
        bad = dict(BASE)
        bad["generator"] = {"warp": 9}
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, bad))

    def test_bad_seed(self, tmp_path):
        bad = dict(BASE)
        bad["seed"] = -1
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, bad))

    @pytest.mark.parametrize("content, cause", [(b"\xff\xfe", UnicodeDecodeError), (b"[" * 200000, RecursionError)],
                             ids=["not-utf8", "deep-nesting"])
    def test_undecodable_file(self, tmp_path, content, cause):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ScenarioError, match="cannot parse scenario") as info:
            load_scenario(path)
        assert isinstance(info.value.__cause__, cause)

    def test_reads_utf8(self, tmp_path):
        # the file is decoded as UTF-8 whatever the locale's encoding
        path = tmp_path / "s.json"
        path.write_bytes(json.dumps(dict(BASE, name="Sz.-Nagy\u2013Foia\u015f"), ensure_ascii=False).encode())
        assert load_scenario(path).name == "Sz.-Nagy\u2013Foia\u015f"


class TestRunScenario:
    def test_passes_and_is_deterministic(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        r1 = run_scenario(path)
        r2 = run_scenario(path)
        assert r1["overall"] == "pass"
        strip = lambda rep: [
            {k: v for k, v in c.items() if k != "elapsed_ms"} for c in rep["checks"]
        ]
        assert strip(r1) == strip(r2)

    def test_exit_codes(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BASE)
        assert main(["run", str(path), "--quiet"]) == 0
        bad = dict(BASE)
        bad["checks"] = ["frobnicate"]
        badpath = write_scenario(tmp_path, bad, "bad.json")
        assert main(["run", str(badpath)]) == 2

    def test_report_written(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        out = tmp_path / "report.json"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        report = json.loads(out.read_text())
        assert report["overall"] == "pass"
        assert {c["name"] for c in report["checks"]} == set(BASE["checks"])
        for c in report["checks"]:
            assert set(c) == {
                "name",
                "status",
                "residual",
                "tail_bound",
                "safe_cutoff",
                "elapsed_ms",
                "reason",
            }
            assert c["reason"] is None

    def test_unwritable_report_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BASE)
        out = tmp_path / "missing" / "report.json"
        assert main(["run", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "overall: pass" in captured.out  # the table is printed first
        assert captured.err.startswith(f"error: cannot write report {out}")
        assert "Traceback" not in captured.err
        assert not out.parent.exists()


class TestSkippedChecks:
    def test_size_overflow_marks_skipped(self, tmp_path, monkeypatch):
        # a basis cap too small for the hardy checks turns them into
        # skipped entries; overall still reflects only non-skipped checks
        monkeypatch.setenv("HARDYMODEL_BASIS_CAP", "3")
        scenario = dict(BASE)
        scenario["checks"] = ["kernel-reproduction", "pseudometric"]
        path = write_scenario(tmp_path, scenario)
        report = run_scenario(path)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["kernel-reproduction"]["status"] == "skipped"
        assert by_name["pseudometric"]["status"] == "pass"
        assert report["overall"] == "pass"

    def test_skipped_report_is_strict_json(self, tmp_path):
        # a truncation degree below the symbol degree refuses quotient-model;
        # its NaN residual must be written as null, not as bare NaN
        scenario = dict(BASE)
        scenario["generator"] = dict(BASE["generator"], truncation_degree=4)
        scenario["checks"] = ["quotient-model"]
        out = tmp_path / "report.json"
        main(["run", str(write_scenario(tmp_path, scenario)), "--out", str(out), "--quiet"])

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(out.read_text(), parse_constant=reject)
        (check,) = report["checks"]
        assert check["status"] == "skipped"
        assert check["residual"] is None
        assert check["reason"].startswith("UnsafeDegree: ")


class TestAllSkipped:
    def test_all_skipped_is_not_pass(self, tmp_path, monkeypatch, capsys):
        # a basis cap of 10 refuses every check of the bundled hardy scenario
        monkeypatch.setenv("HARDYMODEL_BASIS_CAP", "10")
        path = SCENARIOS / "hardy-structure.json"
        out = tmp_path / "report.json"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "overall: skipped"
        report = json.loads(out.read_text())
        assert report["overall"] == "skipped"
        for c in report["checks"]:
            assert c["status"] == "skipped"
            assert c["reason"].startswith("SizeOverflow: ")
        suite_dir = tmp_path / "suite"
        suite_dir.mkdir()
        (suite_dir / "hardy-structure.json").write_text(path.read_text())
        assert main(["suite", str(suite_dir), "--quiet"]) == 1


class TestListChecks:
    def test_listing_matches_registry(self, capsys):
        assert main(["list-checks"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out
        assert f"{len(REGISTRY)} checks registered" in out

    def test_every_check_has_anchor(self):
        for spec in REGISTRY.values():
            assert spec.anchor
            assert spec.regime in ("matrix", "hardy", "mixed")


class TestSuite:
    def test_bundled_smoke_scenario(self):
        report = run_scenario(SCENARIOS / "norm-identity-smoke.json")
        assert report["overall"] == "pass"

    def test_suite_over_tmpdir(self, tmp_path):
        write_scenario(tmp_path, BASE, "a.json")
        second = dict(BASE)
        second["name"] = "tiny2"
        second["seed"] = 8
        write_scenario(tmp_path, second, "b.json")
        assert main(["suite", str(tmp_path), "--quiet"]) == 0

    def test_suite_missing_dir(self):
        assert main(["suite", "/nonexistent-dir-xyz"]) == 2


def test_the_suite_loads_no_scipy_linalg():
    # scipy.linalg maps scipy's own OpenBLAS next to numpy's; a fresh
    # interpreter that runs the bundled suite must load only numpy's LAPACK
    src = str(Path(hardymodel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "from hardymodel.cli import main\n"
        f"assert main(['suite', {str(SCENARIOS)!r}, '--quiet']) == 0\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_generator_params_from_dict_defaults():
    p = GeneratorParams.from_dict({})
    assert p.instances == 5 and p.dims == (2, 2)


def test_bundled_generator_records_load():
    for path in SCENARIOS.glob("*.json"):
        GeneratorParams.from_dict(json.loads(path.read_text()).get("generator", {}))


@pytest.mark.parametrize(
    "generator",
    [
        {"instances": -3, "truncation_degree": -1},
        {"norm_cap": 1.5},
        {"radius_cap": 0.0},
        {"radius_cap": 1},
        {"norm_cap": "0.5"},
        {"instances": 0},
        {"probes": True},
        {"num_vars": 2.0},
        {"coeff_dim": "2"},
        {"truncation_degree": -1},
        {"order_cap": -2},
        {"dims": []},
        {"dims": [2, 0]},
        {"dims": ["2"]},
        {"dims": [False]},
        {"dims": 4},
        [],
        "x",
        "",
    ],
)
def test_out_of_range_generator_exits_2(tmp_path, generator, capsys):
    scenario = dict(BASE, generator=generator)
    assert main(["run", str(write_scenario(tmp_path, scenario))]) == 2
    assert "bad generator record" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes",
    [
        {"tolerances": 5},
        {"tolerances": [1e-8]},
        {"tolerances": {"default": "abc"}},
        {"tolerances": {"default": 0}},
        {"tolerances": {"default": True}},
        {"checks": [{"name": "tuple-validation", "tol": "abc"}]},
        {"checks": [{"name": "tuple-validation", "tol": -1e-8}]},
        {"checks": [{"name": "tuple-validation", "tol": False}]},
        {"checks": [{"name": "tuple-validation", "tol": 1e400}]},
    ],
)
def test_malformed_tolerance_exits_2(tmp_path, changes, capsys):
    assert main(["run", str(write_scenario(tmp_path, dict(BASE, **changes)))]) == 2
    assert "tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"checks": [{"name": ["a"]}]}, "bad check entry"),
        ({"seed": True}, "seed"),
        ({"checks": [{"name": "pseudometric", "tolx": 5}]}, "'tolx'"),
    ],
)
def test_malformed_scenario_exits_2(tmp_path, changes, message, capsys):
    assert main(["run", str(write_scenario(tmp_path, dict(BASE, **changes)))]) == 2
    assert message in capsys.readouterr().err


def test_suite_reports_a_malformed_file_and_goes_on(tmp_path, capsys):
    write_scenario(tmp_path, dict(BASE, checks=[{"name": ["a"]}]), "a.json")
    write_scenario(tmp_path, BASE, "b.json")
    assert main(["suite", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "error in a.json" in captured.err
    assert "overall: pass" in captured.out


@pytest.mark.parametrize("command", ["run", "suite"])
@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 200000], ids=["not-utf8", "deep-nesting"])
def test_unreadable_scenario_file_exits_2(tmp_path, command, content, capsys):
    # a file json cannot decode is a ScenarioError, not a traceback
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main([command, str(path if command == "run" else tmp_path)]) == 2
    assert "cannot parse scenario" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["abc", "1e5", "-5", "0"])
def test_malformed_basis_cap_exits_2(cap, monkeypatch, capsys):
    monkeypatch.setenv("HARDYMODEL_BASIS_CAP", cap)
    assert main(["run", str(SCENARIOS / "hardy-structure.json")]) == 2
    assert "HARDYMODEL_BASIS_CAP" in capsys.readouterr().err


def test_null_tolerances_load(tmp_path):
    scenario = dict(BASE, tolerances={"default": None}, checks=[{"name": "tuple-validation", "tol": None}])
    s = load_scenario(write_scenario(tmp_path, scenario))
    assert s.default_tol is None and s.checks[0].tol is None
    s = load_scenario(write_scenario(tmp_path, dict(BASE, tolerances={"default": 1e-9})))
    assert [c.tol for c in s.checks] == [1e-9, 1e-9]


def test_boundary_generator_values_load():
    p = GeneratorParams.from_dict({"truncation_degree": 0, "order_cap": 0, "instances": 1, "dims": [1]})
    assert p.truncation_degree == 0 and p.dims == (1,)


class TestErrorStatus:
    def test_not_inner_is_a_failure(self, tmp_path, monkeypatch, capsys):
        # only SizeOverflow and UnsafeDegree mean skipped; any other package
        # error a check raises fails it, with the error as its reason
        def raise_not_inner(rng, params, tol):
            raise NotInner("isometry residual 1.000e+00 exceeds 1.000e-06")

        spec = REGISTRY["beurling-extraction"]
        monkeypatch.setitem(REGISTRY, spec.name, dataclasses.replace(spec, run=raise_not_inner))
        scenario = dict(BASE, checks=["beurling-extraction", "pseudometric"])
        out = tmp_path / "report.json"
        assert main(["run", str(write_scenario(tmp_path, scenario)), "--out", str(out)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "overall: fail"
        report = json.loads(out.read_text())
        failed, passed = report["checks"]
        assert failed["status"] == "fail" and failed["residual"] is None
        assert failed["reason"] == "NotInner: isometry residual 1.000e+00 exceeds 1.000e-06"
        assert passed["status"] == "pass"
        assert report["overall"] == "fail"
