"""Fixtures shared by the test modules."""

import dataclasses

import pytest

from emo import cost_meter
from emo.irmb import block_stages


def _fold_metered(stages, state, params, hw, batch=1):
    """Fold `state` through `stages`, each under its own cost meter.

    Every meter field of a stage must equal batch x the sum of that field
    over the stage's own cost lines at the map size the walk has reached
    (`stage.out_hw` carries it on). Returns (fold output, checks made).
    """
    h, w = hw
    checks = 0
    for stage in stages:
        with cost_meter() as meter:
            state = stage(state, params)
        lines = stage.lines(h, w)
        for field in dataclasses.fields(meter):
            static = batch * sum(getattr(line, field.name) for line in lines)
            assert getattr(meter, field.name) == static, (stage.name, field.name)
            checks += 1
        h, w = stage.out_hw(h, w)
    return state, checks


@pytest.fixture
def fold_metered():
    """Static == metered per stage and per field: see `_fold_metered`."""
    return _fold_metered


def _stage_order(cfg):
    """The names of `block_stages(cfg, "")` in order, joined by spaces, with
    "+" on a depth-wise stage that adds its input back (its cost line counts
    the inner skip's adds)."""
    return " ".join(st.name + "+" * (st.name == "depthwise" and st.lines(8, 8)[0].other_adds > 0)
                    for st in block_stages(cfg, ""))


@pytest.fixture
def stage_order():
    """A block config's stage names in order: see `_stage_order`."""
    return _stage_order
