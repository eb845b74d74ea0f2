"""The benchmark's tracer wraps names that ``gsskit.pipeline`` imports.

``perfbench/tracing.py`` replaces each key of its ``LAYER_OF`` table, and
``ThreadPoolExecutor``, on the ``gsskit.pipeline`` module, and reads the
arguments and results of some layers for per-layer metrics. A refactor
that renames or stops calling one of them, or changes a return shape the
tracer reads, would make ``perfbench/run.py --trace 1`` fail or drop those
metrics silently, so the contract is checked here, against the tracer
file as it stands.
"""

import importlib.util
from pathlib import Path

import pytest

import gsskit.pipeline as pipeline
from gsskit import (
    EmConfig,
    PipelineConfig,
    StftConfig,
    WpeConfig,
    build_activity,
    parse_annotations,
    simulate_scene,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pipeline_has_every_name_the_tracer_wraps(tracing):
    missing = [name for name in (*tracing.LAYER_OF, "ThreadPoolExecutor")
               if not hasattr(pipeline, name)]
    assert missing == []


def test_tracer_records_every_layer_of_enhance_utterance(tracing):
    scene = simulate_scene({
        "session_id": "T1",
        "duration": 1.0,
        "channels": 2,
        "sources": [
            {"speaker": "A", "kind": "noise", "band": [300, 2200], "activity": [[0.1, 0.6]]},
            {"speaker": "B", "kind": "noise", "band": [900, 3600], "activity": [[0.4, 0.9]]},
        ],
        "mixing": {"kind": "delay", "max_delay": 3},
        "snr_db": 25,
    }, seed=1)
    utterances = parse_annotations(scene.annotations)
    activity = build_activity(utterances, scene.mixture.duration)
    config = PipelineConfig(stft=StftConfig(fft_size=256, shift=64), masking=True,
                            wpe=WpeConfig(taps=3, delay=2, iterations=1),
                            em=EmConfig(iterations=3))
    originals = {name: getattr(pipeline, name) for name in tracing.LAYER_OF}
    tracer = tracing.Tracer()
    tracer.install(pipeline)
    try:
        _, details = pipeline.enhance_utterance(
            utterances[0], scene.mixture, activity, config, return_details=True
        )
    finally:
        tracer.uninstall(pipeline)
    assert {name: getattr(pipeline, name) for name in tracing.LAYER_OF} == originals

    spans = {}
    for span in tracer.spans:
        spans.setdefault(span["name"], []).append(span)
    batch_only = {"activity.parse", "io.read_wav", "io.write_wav"}
    assert set(spans) == set(tracing.LAYER_OF.values()) - batch_only
    # Config masking is on: the beamformer and then the target mask.
    assert len(spans["beamforming.apply"]) == 2
    (wpe,) = spans["wpe.dereverberate"]
    assert wpe["attrs"]["flop"] > 0
    (em,) = spans["mixture.em"]
    assert em["attrs"]["flop"] > 0
    assert em["attrs"]["ll_final"] == details.log_likelihoods[-1]
    assert em["attrs"]["ll_decreases"] >= 0
    (psd,) = spans["beamforming.psd"]
    assert psd["attrs"]["fallback_bins"] == (details.target_fallback_bins
                                             + details.distortion_fallback_bins)
