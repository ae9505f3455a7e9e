"""The hardy-structure block of the verdict sweep against its golden file.

The full sweep (tests/verdict_sweep.py --check) is its own CI step; the
hardy-structure block is the cheap sixth of it.
"""

import copy

import pytest

import verdict_sweep

BLOCK = "hardy-structure"


@pytest.fixture(scope="module")
def block_records():
    return verdict_sweep.run_sweep({BLOCK})


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
        assert len(gated) == 1 and repr((r["block"], r["check"], r["seed"], r["scale"])) in gated[0]
    # a residual that moves is listed, and gates nothing
    records = copy.deepcopy(block_records)
    records[17]["residual"] = "0.125"
    gated, moves = verdict_sweep.compare(records, golden)
    assert gated == [] and [m[1].split(":")[0] for m in moves] == ["residual"]


def test_a_missing_verdict_fails_the_comparison(block_records):
    gated, _ = verdict_sweep.compare(block_records[1:], verdict_sweep.load_golden())
    assert len(gated) == 1 and gated[0].startswith("missing")
