"""Seeded synthetic workloads of the benchmark.

Each workload is a scene description for ``gsskit.simulate_scene``, a
pipeline configuration, the way the pipeline is driven (direct
``enhance_utterance`` calls or ``run_batch`` over a manifest on disk), a
default seed and the reason that seed was chosen. The scene layout never
depends on the seed, so the amount of work per run is the same for every
seed; the seed only changes the source waveforms, mixing filters and
sensor noise.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    scene: dict
    config: dict
    mode: str  # "direct" or "batch"
    default_seed: int
    seed_reason: str


# The scene of the README's "Simulate a scene" section, verbatim, run with
# the default config: the documented path, where EM and WPE both weigh.
_README_SCENE = {
    "session_id": "S01",
    "duration": 6.0,
    "channels": 4,
    "sources": [
        {"speaker": "A", "kind": "noise", "band": [300, 2500], "activity": [[0.5, 3.0]]},
        {"speaker": "B", "kind": "chirp", "band": [800, 3800], "activity": [[2.0, 5.5]]},
    ],
    "mixing": {"kind": "delay", "max_delay": 6},
    "snr_db": 25,
}

# Eight channels make the WPE regression order 80, so WPE dominates and an
# EM-only change shows least here.
_REVERB_SCENE = {
    "session_id": "R01",
    "duration": 5.0,
    "channels": 8,
    "sources": [
        {"speaker": "A", "kind": "noise", "band": [300, 3000], "activity": [[0.3, 2.9]]},
        {"speaker": "B", "kind": "chirp", "sweep": [300, 3500], "activity": [[2.5, 4.7]]},
    ],
    "mixing": {"kind": "reverb"},
    "snr_db": 25,
}

# Three speakers in six 2 s turns; consecutive turns overlap by 0.7 s.
# Driven through run_batch with two workers and WPE off: the only workload
# with files, annotation parsing and the thread pool, and the one where a
# WPE change must show no effect.
_BATCH_SCENE = {
    "session_id": "B01",
    "duration": 9.0,
    "channels": 4,
    "sources": [
        {"speaker": "A", "kind": "noise", "band": [300, 2500],
         "activity": [[0.2, 2.2], [4.1, 6.1]]},
        {"speaker": "B", "kind": "chirp", "sweep": [200, 3500],
         "activity": [[1.5, 3.5], [5.4, 7.4]]},
        {"speaker": "C", "kind": "noise", "band": [1000, 3800],
         "activity": [[2.8, 4.8], [6.7, 8.7]]},
    ],
    "mixing": {"kind": "delay", "max_delay": 6},
    "snr_db": 25,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="readme6s",
            scene=_README_SCENE,
            config={},
            mode="direct",
            default_seed=7,
            seed_reason="the seed of the README's documented simulate command",
        ),
        Workload(
            name="reverb8ch",
            scene=_REVERB_SCENE,
            config={"em": {"iterations": 5}},
            mode="direct",
            default_seed=0,
            seed_reason="first seed, taken before any run so the scene is not selected on outcome",
        ),
        Workload(
            name="batch3spk_w2",
            scene=_BATCH_SCENE,
            config={"wpe_enabled": False, "context_seconds": 2.0, "workers": 2},
            mode="batch",
            default_seed=0,
            seed_reason="first seed, taken before any run so the scene is not selected on outcome",
        ),
    )
}
