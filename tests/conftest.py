"""Fixtures shared by the test modules."""

import dataclasses

import pytest

from emo import cost_meter


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
