"""Blocks of the verdict sweep against its golden file, and the gates that
compare verdict records.

The full sweep (tests/verdict_sweep.py --check) is its own CI step; the
hardy-structure block (the cheap sixth of the generator blocks) and the
dense-verify block run here.
"""

import copy
import json

import pytest

import verdict_sweep

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
