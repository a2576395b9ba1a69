import enum

import numpy as np

from neckflow.outputs import jsonable
from neckflow.surface import TrajectoryClass


def test_jsonable_enum_by_value():
    assert jsonable(TrajectoryClass.BOUNCING) == "bouncing"
    # any enum, not only the ones defined in surface.py
    Color = enum.Enum("Color", {"RED": "red"})
    assert jsonable({"k": [Color.RED, np.float64(0.5)]}) == {"k": ["red", 0.5]}

