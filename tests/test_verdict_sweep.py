"""Blocks of the verdict sweep against its golden file, and the gates that
compare verdict records.

The full sweep (tests/verdict_sweep.py --check) is its own CI step; the
hardy-structure block (the cheap sixth of the generator blocks) and the
dense-verify block run here.
"""

import copy
import json

import numpy as np
import pytest

import verdict_sweep
from hardymodel import charfn, dilation
from hardymodel.checks import REGISTRY
from hardymodel.cli import load_scenario, run_check

BLOCK = "hardy-structure"


@pytest.fixture(scope="module")
def block_records():
    return verdict_sweep.run_sweep({BLOCK})


@pytest.fixture(scope="module")
def dense_records():
    return verdict_sweep.run_sweep({"dense-verify"})


def _key_text(r):
    return repr((r["block"], r["check"], r["seed"], r["scale"]))


def test_block_statuses_and_cutoffs_match_the_golden(block_records):
    # 23 checks x 3 seeds x 2 tolerance scales
    assert len(block_records) == 138
    gated, _ = verdict_sweep.compare(block_records, verdict_sweep.load_golden())
    assert gated == []


def test_one_flipped_verdict_fails_the_comparison(block_records):
    # the reference is the block's own fresh records, so the one edit is the
    # only difference: round-off moves against the committed golden gate
    # nothing and must not fail this test
    golden = copy.deepcopy(block_records)
    for field, flip in (("status", {"pass": "fail", "fail": "pass", "skipped": "pass"}),
                        ("safe_cutoff", None)):
        records = copy.deepcopy(block_records)
        r = records[17]
        r[field] = flip[r[field]] if flip else r[field] + 1
        gated, _ = verdict_sweep.compare(records, golden)
        assert len(gated) == 1 and _key_text(r) in gated[0]
    # a residual that moves is listed, and gates nothing
    records = copy.deepcopy(block_records)
    records[17]["residual"] = "0.125"
    gated, moves = verdict_sweep.compare(records, golden)
    assert gated == [] and [m[1].split(":")[0] for m in moves] == ["residual"]


def test_a_missing_verdict_fails_the_comparison(block_records):
    gated, _ = verdict_sweep.compare(block_records[1:], verdict_sweep.load_golden())
    assert len(gated) == 1 and gated[0].startswith("missing")


def test_dense_verify_block_matches_the_golden(dense_records):
    # 10 benchmark seeds x 3 degrees x (1 quotient-model + 8 projection-identity)
    assert len(dense_records) == 270
    assert len({r["seed"] for r in dense_records}) == 270  # keyed by derived seed
    gated, _ = verdict_sweep.compare(dense_records, verdict_sweep.load_golden())
    assert gated == []


@pytest.mark.parametrize("status", ["pass", "skipped"])
def test_one_flipped_or_missing_dense_verify_row_fails_the_comparison(dense_records, status):
    index = next(i for i, r in enumerate(dense_records) if r["status"] == status)
    for field, value in (("status", "fail"), ("safe_cutoff", dense_records[index]["safe_cutoff"] + 1)):
        records = copy.deepcopy(dense_records)
        records[index][field] = value
        gated, moves = verdict_sweep.compare(records, dense_records)
        assert len(gated) == 1 and _key_text(records[index]) in gated[0] and moves == []
    gated, _ = verdict_sweep.compare(dense_records[:index] + dense_records[index + 1:], dense_records)
    assert gated == [f"missing {_key_text(dense_records[index])}"]


def test_base_gate_gates_shared_verdicts_and_lists_new_ones():
    # the base is the golden without the bundled and dense-verify blocks,
    # the golden as it stood before those blocks joined the sweep
    head = verdict_sweep.load_golden()
    base = [r for r in head if r["block"] != "dense-verify" and not r["block"].startswith("scenarios/")]
    assert len(base) == 552
    gated, moves, unshared = verdict_sweep.base_gate(base, head)
    assert gated == [] and moves == []
    assert len(unshared) == 23 + 270 and all(line.startswith("new at the head") for line in unshared)
    i = next(i for i, r in enumerate(head) if r["block"] == BLOCK and r["status"] == "pass")
    for field, value in (("status", "fail"), ("safe_cutoff", head[i]["safe_cutoff"] + 1)):
        flipped = copy.deepcopy(head)
        flipped[i][field] = value
        gated, _, unshared = verdict_sweep.base_gate(base, flipped)
        assert len(gated) == 1 and _key_text(head[i]) in gated[0] and len(unshared) == 293
    # a moved residual on a shared verdict is listed and gates nothing
    moved = copy.deepcopy(head)
    moved[i]["residual"] = "0.125"
    gated, moves, _ = verdict_sweep.base_gate(base, moved)
    assert gated == [] and [k for k, _ in moves] == [verdict_sweep._key(head[i])]


def test_base_gate_exit_codes(tmp_path, capsys):
    path = tmp_path / "base.json"
    head = verdict_sweep.load_golden()
    path.write_text(json.dumps(head))
    assert verdict_sweep.main(["--base", str(path)]) == 0
    head[0]["status"] = "fail" if head[0]["status"] != "fail" else "pass"
    path.write_text(json.dumps(head))
    assert verdict_sweep.main(["--base", str(path)]) == 1
    assert capsys.readouterr().out.count("DIFFERS") == 1


def test_a_golden_rewrite_needs_one_blas_thread(monkeypatch, tmp_path):
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(verdict_sweep, "run_sweep", no_sweep)
    monkeypatch.setattr(verdict_sweep, "GOLDEN", tmp_path / "golden.json")
    for value in ("2", None):
        if value is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        with pytest.raises(SystemExit) as exc:
            verdict_sweep.main([])
        assert exc.value.code == 2
    assert not (tmp_path / "golden.json").exists()


def test_move_summary_counts_each_check_and_field(capsys):
    moves = [
        (("b", "quotient-model", 1, 1.0), "residual: 1e-08 -> 2e-08"),
        (("b", "quotient-model", 2, 1.0), "residual: 4e-08 -> 5e-08"),
        (("b", "norm-identity", 1, 1.0), "tail: 1e-08 -> 1.5e-08"),
        (("b", "norm-identity", 2, 1e-6), "tail: 1e-14 -> 5e-15"),
        (("b", "norm-identity", 3, 1.0), "residual: 0.0 -> 1e-16"),
    ]
    assert verdict_sweep.move_summary(moves) == [
        "norm-identity residual: 1 moved, 1 up, 0 down, new/old inf to inf",
        "norm-identity tail: 2 moved, 1 up, 1 down, new/old 0.5 to 1.5",
        "quotient-model residual: 2 moved, 2 up, 0 down, new/old 1.25 to 2",
    ]
    verdict_sweep._print_moves(moves, 10)
    out = capsys.readouterr().out.splitlines()
    assert out[5:] == verdict_sweep.move_summary(moves) + ["5 of 10 moved"]
    assert verdict_sweep.move_summary([]) == []


def test_base_gate_prints_the_move_summary(tmp_path, capsys):
    # --base prints the same summary lines as --check
    head = verdict_sweep.load_golden()
    i = next(i for i, r in enumerate(head) if r["check"] == "quotient-model" and r["status"] == "pass")
    base = copy.deepcopy(head)
    base[i]["residual"] = repr(float(head[i]["residual"]) / 2)
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    assert verdict_sweep.main(["--base", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["quotient-model residual: 1 moved, 1 up, 0 down, new/old 2 to 2",
                          f"1 of {len(head)} moved"]


def test_every_sweep_model_distance_is_its_hoelder_bound(monkeypatch):
    # the Hoelder bound decides every model verdict of the bundled
    # scenarios and of dense-verify's seed-1 verdict list: each distance is
    # the bound recorded for its difference, at most tol, so no SVD decides
    bounds, pairs = [], []
    bound, distance = charfn.holder_bound, charfn._model_distance
    monkeypatch.setattr(charfn, "holder_bound", lambda a: bounds.append(bound(a)) or bounds[-1])

    def recorded(*args):
        rep = distance(*args)
        pairs.append((rep.distance, bounds[-1], rep.tol))
        return rep

    monkeypatch.setattr(charfn, "_model_distance", recorded)
    records = verdict_sweep.run_sweep({b for b in verdict_sweep.blocks() if b.startswith("scenarios/")})
    for v in verdict_sweep.workloads.verdicts("dense-verify", 1):
        params = verdict_sweep.GeneratorParams.from_dict(v.params)
        records.append(run_check(v.check, np.random.default_rng(v.seed), params, None))
    assert len(records) == 23 + 27 and len(pairs) == len(bounds) > 0
    assert all(dist == b <= tol for dist, b, tol in pairs)


def _norm_identity_verdicts():
    """(tol, record) of every norm-identity verdict of the sweep: the
    generator blocks, then each bundled scenario's, run as
    cli.run_scenario runs it."""
    index = sorted(REGISTRY).index("norm-identity")
    tol = REGISTRY["norm-identity"].default_tol
    for path in sorted((verdict_sweep.ROOT / "scenarios").glob("*.json")):
        scenario = load_scenario(path)
        for seed in verdict_sweep.SEEDS:
            for scale in verdict_sweep.SCALES:
                rng = np.random.default_rng([seed, index])
                entry = run_check("norm-identity", rng, scenario.generator, tol * scale)
                yield tol * scale, verdict_sweep._record(scenario.name, "norm-identity", seed, scale, entry)
        for idx, item in enumerate(scenario.checks):
            if item.name == "norm-identity":
                rng = np.random.default_rng([scenario.seed, idx])
                entry = run_check(item.name, rng, scenario.generator, item.tol)
                block = f"scenarios/{path.name}"
                yield item.tol or tol, verdict_sweep._record(block, item.name, scenario.seed, None, entry)


def test_every_norm_identity_tail_bounds_its_residual():
    # the tail is max over probes of x* L_(d+1) x, which bounds the
    # residual x* (I - G_d) x in exact arithmetic, plus a margin for the
    # partial sum's round-off: on every norm-identity verdict of the sweep,
    # generator blocks and bundled scenarios, it bounds the computed residual
    records = [r for _, r in _norm_identity_verdicts()]
    assert len(records) == 25
    for r in records:
        assert float(r["tail"]) >= float(r["residual"]), r


def test_every_norm_identity_degree_is_certified(monkeypatch):
    # each instance's degree d is certified at tol/10: lambda_max(L_(d+1)),
    # read off a model built at d, is at most tol/10 on every norm-identity
    # verdict of the sweep
    used = []
    norm_identity = dilation.norm_identity
    monkeypatch.setattr(dilation, "norm_identity",
                        lambda t, x, d: used.append((t, d)) or norm_identity(t, x, d))
    count = 0
    for tol, _ in _norm_identity_verdicts():
        for t, d in used:
            level = dilation.canonical_embedding(t, d).level_sums[d + 1]
            assert np.linalg.eigvalsh(level)[-1] <= tol / 10.0, (t, d)
        count += len(used)
        used.clear()
    assert count == 114 + 6  # the generator blocks' instances, then the bundled file's
