"""Every number that reaches the program from outside is accepted exactly
when it obeys its rule, and otherwise rejected with a ValueError that names
it. Values stay small (at most 40), so no draw sizes a large allocation."""

import math
import numbers

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsskit import PipelineConfig, Spectrogram, StftConfig, Utterance, Waveform, istft
from gsskit.activity import extend_context
from gsskit.pipeline import _check_entry
from gsskit.simulate import _mixing_params

OUTSIDE_NUMBERS = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.integers(-40, 40),
    st.integers(-40, 40).map(np.int64),
    st.floats(-40, 40),
    st.floats(-40, 40).map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)

SPEC = Spectrogram(np.zeros((1, 10, 33), complex), StftConfig(fft_size=64, shift=16), 16000)
UTTERANCE = Utterance("S", "A", 0, 16, ())
ENTRY = {"session_id": "S", "audio": {"U01": "U01.wav"}, "annotations": "a.json"}

# (id, pattern the message must hold, call, integer, rule): the rule is
# _check_number's bounds, and "optional" where None takes a default.
NUMBER_SITES = [
    ("Waveform.sample_rate", "sample_rate",
     lambda v: Waveform(np.zeros((1, 4)), v), True, {"minimum": 1}),
    ("Utterance.start_samples", "start_samples",
     lambda v: Utterance("S", "A", v, 41, ()), True, {"minimum": 0}),
    ("Utterance.end_samples", "end_samples|ends at",
     lambda v: Utterance("S", "A", 0, v, ()), True, {"above": 0}),
    ("extend_context.context_seconds", "context_seconds",
     lambda v: extend_context(UTTERANCE, v, 40), False, {"minimum": 0}),
    ("istft.target_length", "target_length", lambda v: istft(SPEC, v), True, {"minimum": 0}),
    ("istft.offset", "offset",
     lambda v: istft(SPEC, 4, offset=v), True, {"minimum": 0, "optional": True}),
    ("config.workers", "config.workers",
     lambda v: PipelineConfig(workers=v), True, {"minimum": 1}),
    ("config.context_seconds", "config.context_seconds",
     lambda v: PipelineConfig(context_seconds=v), False, {"minimum": 0}),
    ("manifest.length_seconds", "'length_seconds'",
     lambda v: _check_entry(0, dict(ENTRY, length_seconds=v)), False, {"above": 0}),
    ("mixing.decay", "'decay'",
     lambda v: _mixing_params({"kind": "reverb", "decay": v}), False, {"above": 0}),
    ("mixing.max_delay", "'max_delay'",
     lambda v: _mixing_params({"kind": "delay", "max_delay": v}), True, {"minimum": 0}),
]


def obeys(value, integer, minimum=-math.inf, above=-math.inf, optional=False) -> bool:
    kind = numbers.Integral if integer else numbers.Real
    if optional and value is None:
        return True
    return (isinstance(value, kind) and not isinstance(value, bool) and math.isfinite(value)
            and value >= minimum and value > above)


@pytest.mark.parametrize("pattern, call, integer, rule", [site[1:] for site in NUMBER_SITES],
                         ids=[site[0] for site in NUMBER_SITES])
@settings(max_examples=60)
@given(value=OUTSIDE_NUMBERS)
@example(value=True)
@example(value=None)
@example(value="3")
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=0.5)
@example(value=2.5)
@example(value=-1)
@example(value=0)
@example(value=1)
def test_outside_number_is_accepted_exactly_when_it_obeys_its_rule(
    pattern, call, integer, rule, value
):
    if obeys(value, integer, **rule):
        call(value)
    else:
        with pytest.raises(ValueError, match=pattern):
            call(value)
