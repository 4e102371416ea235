import math
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from textideal.fitio import load_fit_dir, save_fit_dir

_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=st.floats(allow_nan=True, allow_infinity=True),
)
_traces = st.lists(st.tuples(st.integers(0, 10**9),
                             st.floats(allow_nan=True, allow_infinity=True)),
                   max_size=6)


def _same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) == math.copysign(1, b))


class TestFitDirProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True), _arrays,
                           max_size=4),
           _traces)
    def test_save_load_round_trip(self, arrays, trace):
        with tempfile.TemporaryDirectory() as tmp:
            save_fit_dir(tmp, arrays, {"model": "any"}, trace)
            loaded, manifest, trace2 = load_fit_dir(tmp)
        assert manifest["config"]["model"] == "any"
        assert set(loaded) == set(arrays)
        for name, arr in arrays.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()
        assert [step for step, _ in trace2] == [step for step, _ in trace]
        assert all(_same_float(a, b) for (_, a), (_, b) in zip(trace2, trace))
