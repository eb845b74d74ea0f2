"""Every JSON document gsskit reads from outside is accepted, and then
usable, or rejected with a ValueError that names the key or the object.

Each draw starts from a valid document and makes one mutation at any depth:
it drops a key, adds a drawn key (or appends to a list), or replaces a value
with a drawn JSON value. Drawn numbers stay within [-2, 2] and containers
hold at most three items, so a scene stays at most 2 s long with at most
three sources and three channels, and no draw sizes a large allocation.
"""

import copy
import math
import tempfile

from hypothesis import example, given
from hypothesis import strategies as st

from gsskit import (
    PipelineConfig,
    Utterance,
    build_activity,
    parse_annotations,
    parse_chime5_annotations,
    refine_with_asr,
    run_batch,
    simulate_scene,
)
from gsskit.activity import check_path_id
from gsskit.pipeline import _check_entry

# Near misses of the keys gsskit reads, and of the ids it writes as names.
KEYS = st.one_of(
    st.sampled_from(["silence", "snr", "bands", "session", "sessions", "speakers", "iters",
                     "session_id", "speaker", "kind", "taps", "arrays", "U01", "A"]),
    st.text(max_size=4),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.floats(-2, 2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(["", ".", "..", "a/b", "a\\b", "0:00:00.50"]),
    st.text(max_size=4),
)
# Half the drawn values are scalars, so that a number replaces a number
# often enough to meet the rules on its value, not only those on its type.
JSON = SCALARS | st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)


def containers(node, path=()):
    """(path, container) of every object and list inside ``node``."""
    if isinstance(node, (dict, list)):
        yield path, node
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from containers(value, (*path, key))


@st.composite
def mutations(draw, document):
    """(path, op, key, value): one mutation of the container at ``path``."""
    path, node = draw(st.sampled_from(list(containers(document))))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    op = draw(st.sampled_from(["drop", "add", "replace"] if keys else ["add"]))
    if op == "add":
        key = draw(KEYS.filter(lambda k: k not in node)) if isinstance(node, dict) else len(node)
    else:
        key = draw(st.sampled_from(keys))
    return path, op, key, None if op == "drop" else draw(JSON)


def mutate(document, mutation):
    path, op, key, value = mutation
    document = copy.deepcopy(document)
    node = document
    for step in path:
        node = node[step]
    if op == "drop":
        del node[key]
    elif isinstance(node, list) and op == "add":
        node.append(value)
    else:
        node[key] = value
    return document


def check_named(err, mutation, *objects):
    """``err`` names a key on the mutation's path, or one of ``objects``."""
    path, _, key, _ = mutation
    words = [w for w in (*path, key) if isinstance(w, str) and w]
    message = str(err)
    assert (any(w in message or repr(w) in message for w in words)
            or any(name in message for name in objects)), message


def check_no_added_key(mutation, strict):
    """An accepted document holds no key that was added to a gsskit object:
    ``strict`` lists the paths of those objects, "*" standing for any index."""
    path, op, key, _ = mutation
    if op == "add" and isinstance(key, str):
        assert tuple("*" if isinstance(step, int) else step for step in path) not in strict, (
            f"unknown key {key!r} at {path} was accepted")


def check_ids(utterances):
    """Every id is a path-safe string, so sessions sort and name files."""
    for u in utterances:
        check_path_id("session id", u.session_id)
        check_path_id("speaker id", u.speaker_id)
    sorted({u.session_id for u in utterances})


CONFIG = {
    "arrays": ["U01", "U02"],
    "stft": {"fft_size": 64, "shift": 16},
    "wpe_enabled": True,
    "wpe": {"taps": 2, "delay": 1, "iterations": 1},
    "em": {"iterations": 2},
    "masking": False,
    "context_seconds": 0.5,
    "output_dir": "out",
    "workers": 1,
}


@given(mutation=mutations(CONFIG))
@example(mutation=((), "add", "arrayz", ["U01"]))
@example(mutation=(("arrays",), "replace", 1, "U01"))
def test_config_document(mutation):
    try:
        config = PipelineConfig.from_dict(mutate(CONFIG, mutation))
    except ValueError as err:
        check_named(err, mutation, "config", "stft", "wpe", "em")
        return
    check_no_added_key(mutation, {(), ("stft",), ("wpe",), ("em",)})
    assert len(set(config.arrays)) == len(config.arrays)
    config.stft.synthesis_weights()


@given(mutation=mutations({"sessions": []}))
@example(mutation=((), "add", "session", [1]))
def test_manifest_document(mutation):
    with tempfile.TemporaryDirectory() as out:
        try:
            report = run_batch(mutate({"sessions": []}, mutation), PipelineConfig(output_dir=out))
        except ValueError as err:
            check_named(err, mutation, "manifest")
            return
    check_no_added_key(mutation, {()})
    # No drawn entry holds what a session needs, so each becomes a failed row.
    assert all(row["status"] == "failed" for row in report["utterances"])


ENTRY = {
    "session_id": "S1",
    "audio": {"U01": "U01.wav", "U02": "U02.wav"},
    "annotations": "annotations.json",
    "annotation_format": "native",
    "silences": {"A": [[0.1, 0.2]]},
    "length_seconds": 2.0,
}


@given(mutation=mutations(ENTRY))
@example(mutation=((), "add", "silence", {"A": [[0.1, 0.2]]}))
@example(mutation=((), "replace", "session_id", 7))
def test_manifest_entry(mutation):
    entry = mutate(ENTRY, mutation)
    try:
        _check_entry(0, entry)
    except ValueError as err:
        check_named(err, mutation, "manifest entry 0")
        return
    check_no_added_key(mutation, {()})
    check_path_id("session id", entry["session_id"])


NATIVE = [
    {"session_id": "S1", "speaker_id": "A", "start_time": "0:00:00.10",
     "end_time": "0:00:01.00", "words": "a b [noise]"},
    {"session_id": "S2", "speaker_id": "B", "start_time": "0:00:00.50",
     "end_time": "0:00:01.50", "words": "c"},
]


# CHiME-5 rows carry keys gsskit does not read, and per-device clocks.
CHIME5 = [
    {"session_id": "S1", "speaker": "P01", "ref": "U01", "location": "kitchen",
     "start_time": {"U01": "0:00:00.10", "original": "0:00:00.20"},
     "end_time": {"U01": "0:00:01.00", "original": "0:00:01.10"}, "words": "a b"},
    {"session_id": "S2", "speaker": "P02", "start_time": "0:00:00.50",
     "end_time": "0:00:01.50", "words": "c"},
    {"session_id": "S1", "speaker": None, "start_time": "0:00:01.00", "end_time": "0:00:02.00"},
]


def check_annotations(parse, document, mutation):
    try:
        utterances = parse(mutate(document, mutation))
    except ValueError as err:
        check_named(err, mutation, "annotation")
        return
    check_ids(utterances)


@given(mutation=mutations(NATIVE))
@example(mutation=((1,), "replace", "session_id", 5))
def test_native_annotation_document(mutation):
    check_annotations(parse_annotations, NATIVE, mutation)


@given(mutation=mutations(CHIME5))
@example(mutation=((1,), "replace", "session_id", 5))
def test_chime5_annotation_document(mutation):
    check_annotations(lambda doc: parse_chime5_annotations(doc, array_id="U01"), CHIME5,
                      mutation)


ACTIVITY = build_activity([Utterance("S1", "A", 0, 16000, ()),
                           Utterance("S1", "B", 8000, 32000, ())], 2.0)
SILENCES = {"A": [[0.1, 0.2], [0.5, 0.6]], "B": [[1.0, 1.2]]}


@given(mutation=mutations(SILENCES))
def test_silences_document(mutation):
    try:
        refined = refine_with_asr(ACTIVITY, mutate(SILENCES, mutation))
    except ValueError as err:
        check_named(err, mutation, "silences")
        return
    assert refined.speakers == ACTIVITY.speakers


SCENE = {
    "session_id": "S1",
    "duration": 1.0,
    "channels": 3,
    "sources": [
        {"speaker": "A", "kind": "noise", "band": [300, 2500], "activity": [[0.1, 0.6]]},
        {"speaker": "B", "kind": "chirp", "sweep": [200, 3000], "activity": [[0.4, 0.9]]},
    ],
    "mixing": {"kind": "reverb", "taps": 16, "max_delay": 4, "decay": 4.0, "tail_gain": 0.3},
    "snr_db": 20,
}


@given(mutation=mutations(SCENE))
@example(mutation=((), "add", "snr", 5))
@example(mutation=(("sources", 0), "add", "bands", [300, 2500]))
@example(mutation=(("sources", 1), "replace", "speaker", ""))
@example(mutation=(("sources", 1), "replace", "speaker", None))
@example(mutation=((), "replace", "session_id", 5))
def test_scene_spec(mutation):
    try:
        scene = simulate_scene(mutate(SCENE, mutation), seed=0)
    except ValueError as err:
        check_named(err, mutation, "scene")
        return
    check_no_added_key(mutation, {(), ("sources", "*"), ("mixing",)})
    check_path_id("session id", scene.session_id)
    # The scene's own annotations read back, each row of one of its sources.
    utterances = parse_annotations(scene.annotations)
    check_ids(utterances)
    assert {u.session_id for u in utterances} == {scene.session_id}
    assert {u.speaker_id for u in utterances} <= set(scene.speakers)
